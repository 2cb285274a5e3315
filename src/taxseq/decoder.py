"""Autoregressive label-sequence decoder.

Each layer runs masked self-attention over the label prefix, normalizes
the residual sum, then feeds that as the query of a cross-attention block
over the encoder states (keys and values), followed by a feedforward
sublayer. Normalization is applied after each residual sum. Dropout hits
the summed input embeddings, the normalized self-attention block
``LN(att + le)`` that becomes the cross-attention query, and the
cross-attention and feedforward outputs before they join the residual
stream. A final linear projection produces logits over the label token
vocabulary.

``decoder_forward`` runs over a ``DecodeCache`` of the consumed positions'
keys and values and of the encoder side's cross-attention keys and
values, in two shapes. The first call on a fresh cache (the teacher-forced
pass, or decoding's BOS step) is batch-major and records the tape. Every
later call runs off the tape and position-major, (n, B, 1, d), so each
product is the one-row product of a one-position step: n positions (a
greedy draft to check) give the bits of n steps, and a row kept by
``DecodeCache.select`` rounds as if alone. A mask that masks nothing is
None.

Each sublayer records one tape node: ``ad.kv_heads`` (one node each for the
keys and the values), ``ad.attend``, ``ad.add_norm`` for each residual sum
and its layer norm, and ``ad.feed_forward``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .codec import SymbolicVocab
from .encoder import (NORMAL, ZEROS, ParamSpec, _ffn_params, _ffn_specs, _mha_params,
                      _mha_specs, _norm_params, _norm_specs, key_mask)
from .errors import ConfigError, InitDimensionMismatch, ShapeMismatch, UnknownLabel

__all__ = [
    "DecoderConfig", "DecodeCache", "decoder_forward", "seed_label_vectors",
    "write_label_embeddings", "read_label_embeddings", "self_attention_mask",
]


@dataclass
class DecoderConfig:
    vocab_size: int = 0
    d_model: int = 128
    layers: int = 2
    heads: int = 8
    ff_dim: int = 0  # 0 means 4 * d_model
    dropout: float = 0.2
    max_positions: int = 64

    def __post_init__(self):
        if self.ff_dim < 0:
            raise ConfigError(f"ff_dim must be >= 0, got {self.ff_dim}")
        if self.ff_dim == 0:
            self.ff_dim = 4 * self.d_model
        if self.d_model < 1:
            raise ConfigError(f"d_model must be >= 1, got {self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.max_positions < 1:
            raise ConfigError("max_positions must be >= 1")


def write_label_embeddings(path, d_model: int, vectors: dict[str, np.ndarray]) -> None:
    """Write label vectors: one JSON header line, then raw float32 LE rows.
    Every vector is checked before the file is opened."""
    labels = list(vectors)
    rows = [np.asarray(vectors[name], dtype="<f4") for name in labels]
    for name, v in zip(labels, rows):
        if v.shape != (d_model,):
            raise InitDimensionMismatch(
                f"vector for {name!r} has shape {v.shape}, expected ({d_model},)")
    header = {"d_model": d_model, "count": len(labels), "labels": labels}
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for v in rows:
            fh.write(v.tobytes())


def read_label_embeddings(path) -> tuple[int, dict[str, np.ndarray]]:
    """Read a ``write_label_embeddings`` file; a corrupt one raises
    ``InitDimensionMismatch`` naming the path."""
    with Path(path).open("rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise InitDimensionMismatch(f"{path}: header is not JSON ({e})") from None
        if not isinstance(header, dict):
            raise InitDimensionMismatch(f"{path}: header is not a JSON object")
        d, labels = header.get("d_model"), header.get("labels")
        if type(d) is not int or d < 1:
            raise InitDimensionMismatch(f"{path}: d_model must be a positive integer, got {d!r}")
        if not isinstance(labels, list) or not all(isinstance(n, str) for n in labels):
            raise InitDimensionMismatch(f"{path}: labels must be a list of strings")
        raw = np.frombuffer(fh.read(), dtype="<f4")
    if raw.size != d * len(labels):
        raise InitDimensionMismatch(
            f"{path}: expected {d * len(labels)} floats, found {raw.size}")
    rows = raw.reshape(len(labels), d)
    return d, {name: rows[i].copy() for i, name in enumerate(labels)}


def decoder_param_specs(cfg: DecoderConfig) -> dict[str, ParamSpec]:
    """Every decoder parameter's name, shape and start, in draw order."""
    d = cfg.d_model
    if cfg.vocab_size < 5:
        raise ConfigError("decoder vocab_size must cover specials plus labels")
    specs: dict[str, ParamSpec] = {"word_embed": ((cfg.vocab_size, d), NORMAL),
                                   "pos_embed": ((cfg.max_positions, d), NORMAL)}
    for i in range(cfg.layers):
        _mha_specs(d, f"l{i}.self", specs)
        _norm_specs(d, f"l{i}.norm_q", specs)
        _mha_specs(d, f"l{i}.cross", specs)
        _norm_specs(d, f"l{i}.norm_c", specs)
        _ffn_specs(d, cfg.ff_dim, f"l{i}.ff", specs)
        _norm_specs(d, f"l{i}.norm_f", specs)
    specs["out.w"] = ((d, cfg.vocab_size), NORMAL)
    specs["out.b"] = ((cfg.vocab_size,), ZEROS)
    return specs


def seed_label_vectors(params: dict[str, Parameter], vocab: SymbolicVocab | None,
                       label_init: str | Path) -> None:
    """Write the stored label vectors of ``label_init`` into the embedding
    rows and output projection columns of their label tokens."""
    if vocab is None:
        raise ConfigError("label_init requires the symbolic vocabulary")
    d = params["word_embed"].data.shape[1]
    file_d, vectors = read_label_embeddings(label_init)
    if file_d != d:
        raise InitDimensionMismatch(
            f"label vectors have d_model {file_d}, decoder uses {d}")
    for name, vec in vectors.items():
        if name not in vocab:
            raise UnknownLabel(f"{label_init}: label {name!r} is not in the taxonomy")
        tid = vocab.id_of(name)
        params["word_embed"].data[tid] = vec
        params["out.w"].data[:, tid] = vec


_ALLOWED, _BLOCKED = np.float32(0.0), np.float32(ad.NEG_INF)


def self_attention_mask(label_mask: np.ndarray) -> np.ndarray | None:
    """Additive (B, 1, n, n) mask blocking future positions and pad keys, or
    None when it blocks nothing (one position, not padding); ``label_mask``
    marks the n positions, which are both keys and queries."""
    label_mask = np.atleast_2d(np.asarray(label_mask))
    b, n = label_mask.shape
    allowed = (label_mask[:, None, :] != 0) & np.tri(n, n, dtype=bool)
    if allowed.all():
        return None
    return np.where(allowed, _ALLOWED, _BLOCKED).reshape(b, 1, n, n)


class _Layer(NamedTuple):
    """One decoder layer's parameters, resolved from their names once."""

    self_attn: dict[str, Parameter]
    norm_q: tuple[Parameter, Parameter]
    cross: dict[str, Parameter]
    norm_c: tuple[Parameter, Parameter]
    ff: tuple[Parameter, ...]
    norm_f: tuple[Parameter, Parameter]


def _layer_params(params: dict[str, Parameter], i: int) -> _Layer:
    return _Layer(_mha_params(params, f"l{i}.self"), _norm_params(params, f"l{i}.norm_q"),
                  _mha_params(params, f"l{i}.cross"), _norm_params(params, f"l{i}.norm_c"),
                  _ffn_params(params, f"l{i}.ff"), _norm_params(params, f"l{i}.norm_f"))


class DecodeCache:
    """What the decoder keeps between calls on the same rows.

    ``key_mask`` is the ``label_mask != 0`` of the t label positions
    consumed so far, (B, t). Per layer, ``self_kv`` holds the split-head
    self-attention keys and values of those t positions, and ``cross_kv``
    the ones the first call projected from the encoder states, with
    ``cross_mask`` their additive key mask (None when no encoder column is
    padding). The first call also resolves each layer's parameters into
    ``layers``, so later calls (which must pass the same parameters) look
    up no names. The first call keeps the tape tensors it built, so a
    teacher-forced pass keeps its graph; later calls append plain arrays.

    An encoder side of one row serves every row of the cache: ``select``
    leaves it at one row and attention broadcasts it, so beam search's
    beams share one copy. A multi-row one is selected through its
    projection's (B, T, heads, d_h) layout, so kept rows keep the strides
    of ``ad.kv_heads`` and the bits they compute decoded alone.
    """

    def __init__(self):
        self.key_mask: np.ndarray | None = None
        self.layers: list[_Layer] = []
        self.self_kv: list[tuple[Tensor, Tensor]] = []
        self.cross_kv: list[tuple[Tensor, Tensor]] = []
        self.cross_mask: np.ndarray | None = None

    @property
    def length(self) -> int:
        return 0 if self.key_mask is None else self.key_mask.shape[1]

    def consume(self, label_mask: np.ndarray) -> np.ndarray:
        """Append (B, n) new positions' mask; return every consumed key's mask."""
        if self.key_mask is None:
            self.key_mask = label_mask != 0
        else:
            self.key_mask = np.concatenate([self.key_mask, label_mask != 0], axis=1)
        return self.key_mask

    def extend_self(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append new positions' keys and values to a layer's; return all."""
        if layer == len(self.self_kv):
            self.self_kv.append((k, v))
        else:
            pk, pv = self.self_kv[layer]
            self.self_kv[layer] = (Tensor(np.concatenate([pk.data, k.data], axis=2)),
                                   Tensor(np.concatenate([pv.data, v.data], axis=2)))
        return self.self_kv[layer]

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` consumed positions of every row, as if
        the later ones had never been fed: greedy decoding drops the
        positions of a rejected draft this way."""
        if not 0 <= length <= self.length:
            raise ShapeMismatch(f"cannot truncate {self.length} positions to {length}")
        self.key_mask = self.key_mask[:, :length]
        self.self_kv = [(Tensor(k.data[:, :, :length]), Tensor(v.data[:, :, :length]))
                        for k, v in self.self_kv]

    def select(self, rows) -> None:
        """Keep batch rows ``rows``, in that order; a row may repeat.

        A one-row encoder side stays as it is (the same arrays), since
        every selected row reads that one row.
        """
        rows = np.asarray(rows, dtype=np.intp)
        self.key_mask = self.key_mask[rows]
        self.self_kv = [(Tensor(k.data[rows]), Tensor(v.data[rows])) for k, v in self.self_kv]
        if self.cross_kv and len(self.cross_kv[0][0].data) != 1:
            # rows of the (B, T, heads, d_h) projection, seen head-split again
            self.cross_kv = [tuple(ad.transpose(Tensor(x.data.swapaxes(1, 2)[rows]), (0, 2, 1, 3))
                                   for x in kv) for kv in self.cross_kv]
            if self.cross_mask is not None:
                self.cross_mask = self.cross_mask[rows]


def _encoder_side(enc_hidden, enc_mask, cfg: DecoderConfig) -> tuple[Tensor, np.ndarray | None]:
    """Checked (B, T, d) encoder states and their additive (B, 1, 1, T) key
    mask, None when no column is padding."""
    if not isinstance(enc_hidden, Tensor):
        enc_hidden = Tensor(np.asarray(enc_hidden, dtype=np.float32))
    if enc_hidden.data.ndim == 2:
        enc_hidden = ad.reshape(enc_hidden, (1,) + enc_hidden.data.shape)
    if enc_hidden.data.shape[-1] != cfg.d_model:
        raise InitDimensionMismatch(
            f"encoder width {enc_hidden.data.shape[-1]} != decoder d_model {cfg.d_model}")
    enc_mask = np.atleast_2d(np.asarray(enc_mask))
    if enc_mask.shape != enc_hidden.data.shape[:2]:
        raise ShapeMismatch(
            f"encoder mask {enc_mask.shape} vs hidden {enc_hidden.data.shape[:2]}")
    return enc_hidden, key_mask(enc_mask)


def decoder_forward(
    label_ids: np.ndarray,
    label_mask: np.ndarray,
    enc_hidden,
    enc_mask: np.ndarray,
    cfg: DecoderConfig,
    params: dict[str, Parameter],
    rng: np.random.Generator | None = None,
    capture_cross: list | None = None,
    cache: DecodeCache | None = None,
) -> Tensor:
    """(B, n) label ids -> (B, n, V) logits.

    ``enc_hidden`` may be a Tensor (joint training) or a plain array
    (precomputed states); ``enc_mask`` marks real encoder positions.
    Dropout runs when ``rng`` is given.

    ``label_ids`` are the positions after those ``cache`` has consumed:
    their self-attention reads the cached keys and values plus their own,
    keys masked by every consumed ``label_mask``, and the cache keeps them.
    The first call on a cache (without ``cache``, on a fresh one: the
    teacher-forced pass, gradients included) projects the cross-attention
    keys and values from ``enc_hidden``, runs batch-major and records the
    tape. Later calls ignore ``enc_hidden`` and ``enc_mask`` and run under
    ``no_grad``, position-major, (n, B, 1, d): every product is the one-row
    product a one-position call makes, so n positions give the bits of n
    one-position calls, and the cached (B, heads, T, d_h) cross keys and
    values and (B, 1, 1, T) mask broadcast as they are. Query i reads
    exactly the first ``cache.length + i + 1`` self-attention keys
    (``ad.attend_prefixes``).
    """
    label_ids = np.atleast_2d(np.asarray(label_ids))
    label_mask = np.atleast_2d(np.asarray(label_mask))
    if label_ids.shape != label_mask.shape:
        raise ShapeMismatch(
            f"label ids {label_ids.shape} vs mask {label_mask.shape}")
    if cache is None:
        cache = DecodeCache()
    n = label_ids.shape[1]
    offset = cache.length
    if offset + n > cfg.max_positions:
        raise ShapeMismatch(
            f"prefix length {offset + n} exceeds max_positions {cfg.max_positions}")

    later = bool(cache.layers)
    if not later:  # first call: resolve the layers, project the encoder side
        enc_hidden, cache.cross_mask = _encoder_side(enc_hidden, enc_mask, cfg)
        cache.layers = [_layer_params(params, i) for i in range(cfg.layers)]
        cache.cross_kv = [ad.kv_heads(enc_hidden, enc_hidden, cfg.heads, layer.cross)
                          for layer in cache.layers]
    consumed = cache.consume(label_mask)

    positions = np.arange(offset, offset + n)
    if later:  # position-major: (n, B, 1, d)
        label_ids, positions = label_ids.T[..., None], positions[:, None, None]
        self_mask = [key_mask(consumed[:, :offset + i + 1]) for i in range(n)]
    else:
        self_mask = self_attention_mask(consumed)
    le = ad.add(ad.embed(params["word_embed"], label_ids),
                ad.embed(params["pos_embed"], positions))
    le = ad.dropout(le, cfg.dropout, rng)
    for i, layer in enumerate(cache.layers):
        k, v = ad.kv_heads(le, le, cfg.heads, layer.self_attn)
        if later:  # (n, B, heads, 1, d_h) -> the cache's (B, heads, n, d_h)
            k, v = (Tensor(x.data[:, :, :, 0].transpose(1, 2, 0, 3)) for x in (k, v))
        k, v = cache.extend_self(i, k, v)
        attend = ad.attend_prefixes if later else ad.attend
        q = ad.add_norm(attend(le, k, v, self_mask, cfg.heads, layer.self_attn), le,
                        *layer.norm_q)
        q = ad.dropout(q, cfg.dropout, rng)
        k, v = cache.cross_kv[i]
        cross = ad.attend(q, k, v, cache.cross_mask, cfg.heads, layer.cross,
                          capture=capture_cross)
        x = ad.add_norm(q, ad.dropout(cross, cfg.dropout, rng), *layer.norm_c)
        ff = ad.feed_forward(x, *layer.ff)
        le = ad.add_norm(x, ad.dropout(ff, cfg.dropout, rng), *layer.norm_f)
    logits = ad.linear(le, params["out.w"], params["out.b"])
    return Tensor(logits.data[:, :, 0].swapaxes(0, 1)) if later else logits
