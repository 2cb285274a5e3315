"""Run configuration: INI-style files plus command-line overrides.

A run is fully determined by its resolved config, the data directory, and
the seed; every training run writes the resolved config next to its
outputs so any artifact can be reproduced from what is stored beside it.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "DEFAULTS"]

DEFAULTS: dict[str, dict[str, str]] = {
    "encoder": {
        "mode": "trainable",
        "d_model": "128",
        "layers": "2",
        "heads": "4",
        "max_len": "128",
        "dropout": "0.1",
        "word_min_count": "1",
        "word_max_size": "50000",
    },
    "decoder": {
        "layers": "2",
        "heads": "8",
        "ff_dim": "0",
        "dropout": "0.2",
        "label_init": "",
        "use_label_init": "false",
    },
    "codec": {
        "ordering": "child_to_parent_levelwise",
        "capacity": "0",
    },
    "loss": {
        "variant": "focal_batch",
        "gamma": "2.0",
        "smoothing": "0.1",
    },
    "train": {
        "lr_encoder": "5e-5",
        "lr_decoder": "3e-4",
        "plateau_patience": "3",
        "plateau_factor": "0.1",
        "improve_eps": "1e-6",
        "encoder_freeze_threshold": "5e-7",
        "early_stop_patience": "10",
        "micro_batch": "32",
        "accumulation_steps": "2",
        "max_epochs": "100",
        "seed": "0",
        "beta1": "0.9",
        "beta2": "0.999",
        "adam_eps": "1e-8",
        "weight_decay": "0.01",
        "val_plain_ce": "false",
    },
    "data": {
        "precomputed_dir": "",
    },
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(section: str, key: str, value: str):
    default = DEFAULTS[section][key]
    if default in ("true", "false"):
        try:
            return _BOOL[value.strip().lower()]
        except KeyError:
            raise ConfigError(f"[{section}] {key}: expected a boolean, got {value!r}") from None
    for kind in (int, float):
        try:
            kind(default)
        except ValueError:
            continue
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: expected {kind.__name__}, got {value!r}") from None
    return value


@dataclass
class RunConfig:
    """Typed view over the section/key table."""

    values: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
        for s, kv in self.values.items():
            merged[s].update(kv)
        self.values = {s: {k: _coerce(s, k, v) if isinstance(v, str) else v
                           for k, v in kv.items()}
                       for s, kv in merged.items()}

    @classmethod
    def from_file(cls, path, overrides: list[str] | None = None) -> "RunConfig":
        parser = configparser.ConfigParser()
        text = Path(path).read_text(encoding="utf-8")
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from None
        values: dict[str, dict] = {}
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"{path}: unknown key [{section}] {key}")
                values.setdefault(section, {})[key] = value
        cfg = cls(values)
        if overrides:
            cfg.apply_overrides(overrides)
        return cfg

    @classmethod
    def defaults(cls, overrides: list[str] | None = None) -> "RunConfig":
        cfg = cls({})
        if overrides:
            cfg.apply_overrides(overrides)
        return cfg

    def apply_overrides(self, overrides: list[str]) -> None:
        """Apply ``section.key=value`` strings; they beat file values."""
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override {item!r} is not section.key=value")
            dotted, value = item.split("=", 1)
            section, key = dotted.split(".", 1)
            if section not in DEFAULTS or key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config entry {dotted!r}")
            self.values[section][key] = _coerce(section, key, value)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, value) -> None:
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        self.values[section][key] = value

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        for section, kv in self.values.items():
            parser[section] = {
                k: str(v).lower() if isinstance(v, bool) else str(v)
                for k, v in kv.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def write_resolved(self, path) -> None:
        Path(path).write_text(self.to_ini(), encoding="utf-8")
