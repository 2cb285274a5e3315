"""Sequence losses over decoder logits.

The default objective modulates the batch-mean smoothed cross entropy:
with ce the scalar mean over non-pad positions, the loss is
(1 - exp(-ce))**gamma * ce. Well-predicted batches (small ce) are damped,
hard batches keep close to their full ce. A per-token variant applies the
same modulation position-wise before averaging, and a plain variant skips
modulation entirely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .codec import PAD_ID
from .errors import ConfigError

__all__ = ["LossVariant", "LossConfig", "loss_pieces", "combine_pieces", "compute_loss"]


class LossVariant(str, enum.Enum):
    FOCAL_BATCH = "focal_batch"
    FOCAL_PER_TOKEN = "focal_per_token"
    PLAIN_CE = "plain_ce"

    @classmethod
    def from_string(cls, name: str) -> "LossVariant":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown loss variant {name!r}") from None


@dataclass
class LossConfig:
    variant: LossVariant = LossVariant.FOCAL_BATCH
    gamma: float = 2.0
    smoothing: float = 0.1
    ignore_id: int = PAD_ID

    def __post_init__(self):
        if isinstance(self.variant, str):
            self.variant = LossVariant.from_string(self.variant)
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError("smoothing must lie in [0, 1)")


def _modulate(ce: Tensor, gamma: float) -> Tensor:
    if gamma == 0.0:
        return ce
    w = ad.power(ad.add_const(ad.mul_const(ad.exp(ad.mul_const(ce, -1.0)), -1.0), 1.0), gamma)
    return ad.mul(w, ce)


def loss_pieces(logits: Tensor, targets, cfg: LossConfig) -> tuple[Tensor, int]:
    """Reduce one micro-batch to a (summed term, position count) pair.

    Pieces from several micro-batches combine in ``combine_pieces`` so the
    objective over an accumulation window is identical to a single large
    batch; it depends on the terms only through their sum, which is what
    lets the trainer run each micro-batch's backward on its own term. For
    the batch-modulated and plain variants the term is the summed smoothed
    negative log likelihood; for the per-token variant each position is
    modulated before summation.
    """
    per_pos, n = ad.smoothed_nll_per_position(
        logits, targets, cfg.smoothing, cfg.ignore_id)
    if cfg.variant is LossVariant.FOCAL_PER_TOKEN:
        per_pos = _modulate(per_pos, cfg.gamma)
    return ad.tsum(per_pos), n


def combine_pieces(pieces: list[tuple[Tensor, int]], cfg: LossConfig) -> Tensor:
    """Fold micro-batch pieces into the scalar objective."""
    if not pieces:
        raise ConfigError("no loss pieces to combine")
    total = pieces[0][0]
    for term, _ in pieces[1:]:
        total = ad.add(total, term)
    n = sum(count for _, count in pieces)
    mean = ad.mul_const(total, 1.0 / n)
    if cfg.variant is LossVariant.FOCAL_BATCH:
        return _modulate(mean, cfg.gamma)
    return mean


def compute_loss(logits: Tensor, targets, cfg: LossConfig) -> Tensor:
    """Scalar loss for a single batch of logits (B, n, V) and targets (B, n)."""
    return combine_pieces([loss_pieces(logits, targets, cfg)], cfg)
