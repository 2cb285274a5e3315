"""Text side of the model.

Two interchangeable sources of the (T, d) context representation: a small
trainable transformer encoder over a word-level vocabulary, and a reader
for externally precomputed hidden states (so outputs of any large
pretrained encoder can be plugged in without this package depending on
one). Both yield the same ``EncodedText`` interface.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_INF, Parameter, Tensor
from .errors import ConfigError, MissingPrecomputed, ShapeMismatch

log = logging.getLogger(__name__)

TEXT_PAD_ID, TEXT_UNK_ID = 0, 1
TEXT_PAD, TEXT_UNK = "<pad>", "<unk-word>"

_WORD_RE = re.compile(r"[a-z0-9_'.\-]+")


def words_of(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


class TextVocab:
    """Word-level vocabulary with ``<pad>`` and ``<unk-word>`` specials."""

    def __init__(self, word_to_id: dict[str, int]):
        self.word_to_id = word_to_id

    @classmethod
    def build(cls, texts, min_count: int = 1, max_size: int | None = None) -> "TextVocab":
        counts: dict[str, int] = {}
        for t in texts:
            for w in words_of(t):
                counts[w] = counts.get(w, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        mapping = {TEXT_PAD: TEXT_PAD_ID, TEXT_UNK: TEXT_UNK_ID}
        for w, c in ranked:
            if c < min_count:
                continue
            if max_size is not None and len(mapping) >= max_size:
                break
            mapping[w] = len(mapping)
        return cls(mapping)

    @property
    def size(self) -> int:
        return len(self.word_to_id)

    def to_json(self) -> dict:
        return dict(self.word_to_id)

    @classmethod
    def from_json(cls, data: dict) -> "TextVocab":
        return cls({str(k): int(v) for k, v in data.items()})


def tokenize_text(text: str, vocab: TextVocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Map text to (ids, mask), truncated/padded to ``max_len``.

    Empty text degrades to a single ``<unk-word>`` token with a logged
    warning rather than an error.
    """
    toks = words_of(text)
    if not toks:
        log.warning("empty text mapped to a single %s token", TEXT_UNK)
        toks = [TEXT_UNK]
    ids = [vocab.word_to_id.get(w, TEXT_UNK_ID) for w in toks[:max_len]]
    out = np.full(max_len, TEXT_PAD_ID, dtype=np.int32)
    out[: len(ids)] = ids
    mask = np.zeros(max_len, dtype=np.int8)
    mask[: len(ids)] = 1
    return out, mask


def tokenize_texts(texts, vocab: TextVocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``tokenize_text`` over a sequence of texts -> (n, max_len) ids and mask."""
    ids = np.zeros((len(texts), max_len), dtype=np.int32)
    mask = np.zeros((len(texts), max_len), dtype=np.int8)
    for i, text in enumerate(texts):
        ids[i], mask[i] = tokenize_text(text, vocab, max_len)
    return ids, mask


@dataclass
class EncodedText:
    """Encoder output for one sample: hidden (T, d) plus the token mask."""

    hidden: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.sum() < 1:
            raise ShapeMismatch("encoded text must contain at least one real token")


@dataclass
class EncoderConfig:
    vocab_size: int = 0
    d_model: int = 128
    layers: int = 2
    heads: int = 4
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_model < 1:
            raise ConfigError(f"d_model must be >= 1, got {self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with draws outside two deviations resampled."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2 * std
        if not bad.any():
            break
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return x.astype(np.float32)


_MHA_WEIGHTS, _MHA_BIASES = ("wq", "wk", "wv", "wo"), ("bq", "bk", "bv", "bo")

# How a parameter starts: a ``trunc_normal`` draw, zeros or ones.
NORMAL, ZEROS, ONES = "normal", "zeros", "ones"
ParamSpec = tuple[tuple[int, ...], str]  # (shape, one of NORMAL/ZEROS/ONES)


def _mha_specs(d: int, prefix: str, out: dict) -> None:
    for part in _MHA_WEIGHTS:
        out[f"{prefix}.{part}"] = ((d, d), NORMAL)
    for part in _MHA_BIASES:
        out[f"{prefix}.{part}"] = ((d,), ZEROS)


def _norm_specs(d: int, prefix: str, out: dict) -> None:
    out[f"{prefix}.g"] = ((d,), ONES)
    out[f"{prefix}.b"] = ((d,), ZEROS)


def _ffn_specs(d: int, ff: int, prefix: str, out: dict) -> None:
    out[f"{prefix}.w1"] = ((d, ff), NORMAL)
    out[f"{prefix}.b1"] = ((ff,), ZEROS)
    out[f"{prefix}.w2"] = ((ff, d), NORMAL)
    out[f"{prefix}.b2"] = ((d,), ZEROS)


def encoder_param_specs(cfg: EncoderConfig) -> dict[str, ParamSpec]:
    """Every encoder parameter's name, shape and start, in draw order."""
    if cfg.vocab_size < 2:
        raise ConfigError("trainable encoder needs vocab_size >= 2")
    d = cfg.d_model
    specs: dict[str, ParamSpec] = {"embed": ((cfg.vocab_size, d), NORMAL),
                                   "pos_embed": ((cfg.max_len, d), NORMAL)}
    for i in range(cfg.layers):
        _mha_specs(d, f"l{i}.attn", specs)
        _norm_specs(d, f"l{i}.norm1", specs)
        _ffn_specs(d, 4 * d, f"l{i}.ff", specs)
        _norm_specs(d, f"l{i}.norm2", specs)
    return specs


def init_params(specs: dict[str, ParamSpec], rng: np.random.Generator) -> dict[str, Parameter]:
    """Fresh parameters for ``specs``: the NORMAL ones drawn from ``rng``
    in the specs' order, the others filled."""
    out = {}
    for name, (shape, start) in specs.items():
        if start == NORMAL:
            data = trunc_normal(rng, shape)
        else:
            data = (np.ones if start == ONES else np.zeros)(shape, dtype=np.float32)
        out[name] = Parameter(data, name=name)
    return out


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    return init_params(encoder_param_specs(cfg), rng)


def _mha_params(params: dict[str, Parameter], prefix: str) -> dict[str, Parameter]:
    """The attention block ``prefix``'s projections, keyed wq/bq ... wo/bo."""
    return {part: params[f"{prefix}.{part}"] for part in _MHA_WEIGHTS + _MHA_BIASES}


def _norm_params(params: dict[str, Parameter], prefix: str) -> tuple[Parameter, Parameter]:
    """The layer norm ``prefix``'s gain and bias."""
    return params[f"{prefix}.g"], params[f"{prefix}.b"]


def _ffn_params(params: dict[str, Parameter], prefix: str) -> tuple[Parameter, ...]:
    """The feed-forward block ``prefix``'s w1, b1, w2, b2."""
    return tuple(params[f"{prefix}.{part}"] for part in ("w1", "b1", "w2", "b2"))


def expand_mask(mask: np.ndarray) -> np.ndarray:
    """Binary keep-mask -> additive attention mask (0 kept, -1e9 padded)."""
    m = np.asarray(mask)
    return ((1 - m) * NEG_INF).astype(np.float32)


def encode_tokens(
    ids: np.ndarray,
    mask: np.ndarray,
    cfg: EncoderConfig,
    params: dict[str, Parameter],
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the trainable encoder over a batch: (B, T) ids -> (B, T, d) states.

    ``T`` may be any width up to ``max_len``. Self-attention keys at padded
    positions are masked out, so real positions never depend on pad-token
    embeddings; a batch with no padded position passes no mask, since an
    all-zero additive mask changes no score. Dropout runs when ``rng`` is
    given; each of its ``1 + 2 * layers`` masks covers the (B, T, d) states
    it drops.
    """
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask))
    b, t = ids.shape
    if t > cfg.max_len:
        raise ShapeMismatch(f"sequence length {t} exceeds max_len {cfg.max_len}")
    key_mask = None if mask.all() else expand_mask(mask).reshape(b, 1, 1, t)

    x = ad.add(ad.embed(params["embed"], ids), ad.embed(params["pos_embed"], np.arange(t)))
    x = ad.dropout(x, cfg.dropout, rng)
    for i in range(cfg.layers):
        att = ad.multi_head_attention(x, x, x, key_mask, cfg.heads,
                                      _mha_params(params, f"l{i}.attn"))
        x = ad.add_norm(x, ad.dropout(att, cfg.dropout, rng),
                        *_norm_params(params, f"l{i}.norm1"))
        ff = ad.feed_forward(x, *_ffn_params(params, f"l{i}.ff"))
        x = ad.add_norm(x, ad.dropout(ff, cfg.dropout, rng),
                        *_norm_params(params, f"l{i}.norm2"))
    return x


# ---------------------------------------------------------------------------
# precomputed hidden-state store
# ---------------------------------------------------------------------------


class PrecomputedStates:
    """Directory of per-sample encoder outputs.

    Layout: ``manifest.json`` with {"d_model", "max_len"}; one ``<id>.bin``
    per sample holding max_len*d_model float32 little-endian hidden values
    followed by max_len float32 mask values.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: Path, d_model: int, max_len: int):
        self.root = Path(root)
        self.d_model = d_model
        self.max_len = max_len

    @classmethod
    def create(cls, root, d_model: int, max_len: int) -> "PrecomputedStates":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        (root / cls.MANIFEST).write_text(
            json.dumps({"d_model": d_model, "max_len": max_len}), encoding="utf-8")
        return cls(root, d_model, max_len)

    @classmethod
    def open(cls, root) -> "PrecomputedStates":
        root = Path(root)
        mf = root / cls.MANIFEST
        if not mf.exists():
            raise MissingPrecomputed(f"no manifest at {mf}")
        try:
            meta = json.loads(mf.read_text(encoding="utf-8"))
            d_model, max_len = meta["d_model"], meta["max_len"]
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise MissingPrecomputed(f"{mf}: not a JSON manifest ({e})") from None
        except KeyError as e:
            raise MissingPrecomputed(f"{mf}: missing key {e}") from None
        except TypeError:
            raise MissingPrecomputed(f"{mf}: manifest is not a JSON object") from None
        for key, value in (("d_model", d_model), ("max_len", max_len)):
            if type(value) is not int or value < 1:
                raise MissingPrecomputed(
                    f"{mf}: {key} must be a positive integer, got {value!r}")
        return cls(root, d_model, max_len)

    def _path(self, sample_id: str) -> Path:
        if sample_id in ("", ".", "..") or any(
                sep and sep in sample_id for sep in ("/", os.sep, os.altsep)):
            raise MissingPrecomputed(
                f"sample id {sample_id!r} cannot name a file inside {self.root}")
        return self.root / f"{sample_id}.bin"

    def write(self, sample_id: str, hidden: np.ndarray, mask: np.ndarray) -> None:
        hidden = np.asarray(hidden, dtype="<f4")
        mask = np.asarray(mask, dtype="<f4")
        if hidden.shape != (self.max_len, self.d_model):
            raise ShapeMismatch(
                f"hidden shape {hidden.shape} != ({self.max_len}, {self.d_model})")
        if mask.shape != (self.max_len,):
            raise ShapeMismatch(f"mask shape {mask.shape} != ({self.max_len},)")
        with self._path(sample_id).open("wb") as fh:
            fh.write(hidden.tobytes())
            fh.write(mask.tobytes())

    def read(self, sample_id: str) -> EncodedText:
        path = self._path(sample_id)
        if not path.exists():
            raise MissingPrecomputed(f"no precomputed states for sample {sample_id!r}")
        raw = np.frombuffer(path.read_bytes(), dtype="<f4")
        expect = self.max_len * self.d_model + self.max_len
        if raw.size != expect:
            raise ShapeMismatch(f"{path}: expected {expect} floats, found {raw.size}")
        hidden = raw[: self.max_len * self.d_model].reshape(self.max_len, self.d_model)
        mask = raw[self.max_len * self.d_model:].astype(np.int8)
        return EncodedText(hidden=hidden.copy(), mask=mask)
