"""The synthetic corpus's settings.

They live apart from the generator in ``corpus``, in a module that loads
no numpy, so the command line builds ``gen-synth``'s flags from these
fields before its thread flags pin the numeric thread pools.
"""

from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["SynthConfig"]


@dataclass
class SynthConfig:
    depth: int = 3
    branching: int = 4
    vocab_size: int = 2000
    docs_per_leaf: int = 94
    noise_rate: float = 0.3
    signal_strength: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.depth < 2 or self.branching < 2:
            raise ConfigError("depth and branching must both be >= 2")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError("noise_rate must lie in [0, 1)")
        if self.signal_strength < 1 or self.docs_per_leaf < 1:
            raise ConfigError("signal_strength and docs_per_leaf must be >= 1")
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {self.vocab_size}")
