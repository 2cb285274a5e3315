"""Run configuration: INI-style files plus command-line overrides.

A run is fully determined by its resolved config, the data directory, and
the seed; every training run writes the resolved config next to its
outputs so any artifact can be reproduced from what is stored beside it.
"""

from __future__ import annotations

import configparser
import enum
import io
from dataclasses import dataclass, field, fields
from pathlib import Path

from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .loss import LossConfig
from .trainer import TrainConfig

__all__ = ["RunConfig", "DEFAULTS"]

# The dataclass behind each section, and the fields code fills in, which
# therefore are not INI keys. Every other field is a key with the field's
# default.
_SECTIONS = {
    "encoder": (EncoderConfig, {"vocab_size"}),
    "decoder": (DecoderConfig, {"vocab_size", "d_model", "max_positions"}),
    "loss": (LossConfig, {"ignore_id"}),
    "train": (TrainConfig, {"loss"}),
}


def _ini_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return value.value if isinstance(value, enum.Enum) else str(value)


def _field_defaults(section: str) -> dict[str, str]:
    cls, filled = _SECTIONS[section]
    return {f.name: _ini_text(f.default) for f in fields(cls) if f.name not in filled}


DEFAULTS: dict[str, dict[str, str]] = {
    "encoder": {**_field_defaults("encoder"),
                "word_min_count": "1", "word_max_size": "50000"},
    "decoder": {**_field_defaults("decoder"),
                "label_init": "", "use_label_init": "false"},
    "codec": {"ordering": "child_to_parent_levelwise", "capacity": "0"},
    "loss": _field_defaults("loss"),
    "train": _field_defaults("train"),
    "data": {"precomputed_dir": ""},
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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            line = e.object.count(b"\n", 0, e.start) + 1
            raise ConfigError(f"{path}:{line}: not UTF-8 "
                              f"(byte 0x{e.object[e.start]:02x})") from None
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
            self.set(*dotted.split(".", 1), value)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, value) -> None:
        """Set one entry; a string is read as INI text, like a file value."""
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config entry '{section}.{key}'")
        if isinstance(value, str):
            value = _coerce(section, key, value)
        self.values[section][key] = value

    def build(self, section: str, **filled):
        """Construct the section's config dataclass from its keys plus ``filled``.

        The dataclass validates itself; its ``ConfigError`` gains a
        ``[section]`` prefix so the message names where the key lives.
        """
        cls, _ = _SECTIONS[section]
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in self.values[section].items() if k in names}
        try:
            return cls(**kwargs, **filled)
        except ConfigError as e:
            raise ConfigError(f"[{section}] {e}") from None

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
