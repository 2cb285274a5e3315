"""Text side of the model.

Two interchangeable sources of the (T, d) context representation: a small
trainable transformer encoder over a word-level vocabulary, and a reader
for externally precomputed hidden states (so outputs of any large
pretrained encoder can be plugged in without this package depending on
one). Both give the decoder (B, T, d) states and a (B, T) mask of real
positions.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
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


def _mha_params(params: dict[str, Parameter], prefix: str) -> dict[str, Parameter]:
    """The attention block ``prefix``'s projections, keyed wq/bq ... wo/bo."""
    return {part: params[f"{prefix}.{part}"] for part in _MHA_WEIGHTS + _MHA_BIASES}


def _norm_params(params: dict[str, Parameter], prefix: str) -> tuple[Parameter, Parameter]:
    """The layer norm ``prefix``'s gain and bias."""
    return params[f"{prefix}.g"], params[f"{prefix}.b"]


def _ffn_params(params: dict[str, Parameter], prefix: str) -> tuple[Parameter, ...]:
    """The feed-forward block ``prefix``'s w1, b1, w2, b2."""
    return tuple(params[f"{prefix}.{part}"] for part in ("w1", "b1", "w2", "b2"))


def key_mask(mask: np.ndarray) -> np.ndarray | None:
    """(B, T) marks of the keys to keep -> additive (B, 1, 1, T) attention
    mask (0 kept, -1e9 padded), or None when every key is kept."""
    if mask.all():
        return None
    return ((1 - mask) * NEG_INF).astype(np.float32).reshape(len(mask), 1, 1, -1)


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
    t = ids.shape[1]
    if t > cfg.max_len:
        raise ShapeMismatch(f"sequence length {t} exceeds max_len {cfg.max_len}")
    keys = key_mask(mask)

    x = ad.add(ad.embed(params["embed"], ids), ad.embed(params["pos_embed"], np.arange(t)))
    x = ad.dropout(x, cfg.dropout, rng)
    for i in range(cfg.layers):
        att = ad.multi_head_attention(x, x, x, keys, cfg.heads,
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
    """Encoder states for a set of samples, one row a sample.

    A store is a directory of three files: ``manifest.json``, the sample
    ids as a JSON list in row order; ``hidden.npy``, the (n, T, d) float32
    states; and ``mask.npy``, the (n, T) 0/1 marks of real positions, at
    least one a row. Any encoder's output can be written with ``np.save``;
    ``open`` memory-maps the states.
    """

    MANIFEST, HIDDEN, MASK = "manifest.json", "hidden.npy", "mask.npy"

    def __init__(self, root, ids: list[str], hidden: np.ndarray, mask: np.ndarray):
        self.root = Path(root)
        where = f"states store {self.root}"
        if hidden.ndim != 3 or hidden.dtype != np.float32:
            raise ShapeMismatch(f"{where}: hidden must be (n, T, d) float32, "
                                f"got {hidden.dtype} of shape {hidden.shape}")
        if mask.shape != hidden.shape[:2]:
            raise ShapeMismatch(f"{where}: mask shape {mask.shape} != {hidden.shape[:2]}")
        if not ((mask == 0) | (mask == 1)).all():
            raise ShapeMismatch(f"{where}: mask holds values other than 0 and 1")
        if not mask.any(axis=1).all():
            raise ShapeMismatch(
                f"{where}: row {int(np.argmin(mask.any(axis=1)))} has no real position")
        self._row = {sid: i for i, sid in enumerate(ids)}
        if len(ids) != len(hidden) or len(self._row) != len(ids):
            raise ShapeMismatch(f"{where}: {len(ids)} sample ids ({len(self._row)} distinct) "
                                f"for {len(hidden)} rows")
        self.ids, self.hidden, self.mask = ids, hidden, mask.astype(np.int8)
        self.max_len, self.d_model = hidden.shape[1:]

    @classmethod
    def save(cls, root, ids, hidden: np.ndarray, mask: np.ndarray) -> "PrecomputedStates":
        """Check and write a store; nothing is written if a check fails."""
        store = cls(root, list(ids), np.asarray(hidden), np.asarray(mask))
        store.root.mkdir(parents=True, exist_ok=True)
        np.save(store.root / cls.HIDDEN, store.hidden)
        np.save(store.root / cls.MASK, store.mask)
        (store.root / cls.MANIFEST).write_text(json.dumps(store.ids), encoding="utf-8")
        return store

    @classmethod
    def open(cls, root) -> "PrecomputedStates":
        root = Path(root)
        mf = root / cls.MANIFEST
        try:
            ids = json.loads(mf.read_text(encoding="utf-8"))
        except OSError as e:
            raise MissingPrecomputed(f"{mf}: {e.strerror or e}") from None
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise MissingPrecomputed(f"{mf}: not a JSON manifest ({e})") from None
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise MissingPrecomputed(f"{mf}: not a JSON list of sample ids")
        arrays = []
        for name, mmap_mode in ((cls.HIDDEN, "r"), (cls.MASK, None)):
            try:
                arrays.append(np.load(root / name, mmap_mode=mmap_mode))
            except (OSError, ValueError) as e:
                raise MissingPrecomputed(f"{root / name}: not a readable .npy array ({e})") from None
        return cls(root, ids, *arrays)

    def rows(self, ids) -> np.ndarray:
        """The row of each sample id; an id the store lacks raises ``MissingPrecomputed``."""
        try:
            return np.array([self._row[i] for i in ids], dtype=np.intp)
        except KeyError as e:
            raise MissingPrecomputed(
                f"no precomputed states for sample {e.args[0]!r} in {self.root}") from None
