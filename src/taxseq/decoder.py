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

``decoder_forward`` has two purposes. Without a ``DecodeCache`` it is the
teacher-forced pass: batch-major, on the tape, where each sublayer records
one node: ``ad.kv_heads`` (one node each for the keys and the values),
``ad.attend``, ``ad.add_norm`` for each residual sum and its layer norm,
and ``ad.feed_forward``. Every call on a cache, decoding's first (BOS)
call included, is ``_cached_step``: plain arrays through the same array
kernels, no tape, position-major, (n, B, 1, d), so each product is the
one-row product of a one-position step: n positions (a greedy draft to
check) give the bits of n steps, and a row kept by ``DecodeCache.select``
rounds as if alone. The cache holds each layer's self-attention keys and
values in buffers of ``max_positions`` positions, written in place. A mask
that masks nothing is None.
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


class _StepLayer(NamedTuple):
    """One decoder layer's arrays for the cached step. ``qkv`` is the
    self-attention's query, key and value projections side by side, a
    (d, 3d) weight and its (3d,) bias, so one product per row makes all
    three; each column is the dot product its own projection makes."""

    qkv: tuple[np.ndarray, np.ndarray]
    self_out: tuple[np.ndarray, np.ndarray]
    norm_q: tuple[np.ndarray, np.ndarray]
    cross_q: tuple[np.ndarray, np.ndarray]
    cross_out: tuple[np.ndarray, np.ndarray]
    norm_c: tuple[np.ndarray, np.ndarray]
    ff: tuple[np.ndarray, ...]
    norm_f: tuple[np.ndarray, np.ndarray]


def _step_layer(layer: _Layer) -> _StepLayer:
    att, cross = layer.self_attn, layer.cross
    qkv = (np.concatenate([att[w].data for w in ("wq", "wk", "wv")], axis=1),
           np.concatenate([att[b].data for b in ("bq", "bk", "bv")]))
    groups = ((att["wo"], att["bo"]), layer.norm_q, (cross["wq"], cross["bq"]),
              (cross["wo"], cross["bo"]), layer.norm_c, layer.ff, layer.norm_f)
    return _StepLayer(qkv, *(tuple(p.data for p in group) for group in groups))


def _add_norm(x: np.ndarray, r: np.ndarray, norm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The value ``ad.add_norm`` computes, off the tape."""
    return ad._norm(x + r, *norm)[0]


class DecodeCache:
    """What the decoder keeps between calls on the same rows.

    ``length`` positions of each row have been consumed, and ``key_mask``
    is their ``label_mask != 0``, (B, length). Per layer, ``self_kv`` holds
    two (B, heads, max_positions, d_h) buffers, the split-head
    self-attention keys and values, whose first ``length`` positions are
    the consumed ones'; a call writes its positions in place, and later
    positions are stale and never read. ``cross_kv`` holds the keys and
    values the first call projected from the encoder states, with
    ``cross_mask`` their additive key mask (None when no encoder column is
    padding). The first call also resolves each layer's parameters into
    ``layers``, so later calls (which must pass the same parameters) look
    up no names.

    An encoder side of one row serves every row of the cache: ``select``
    leaves it at one row and attention broadcasts it, so beam search's
    beams share one copy. A multi-row one is selected through its
    projection's (B, T, heads, d_h) layout, so kept rows keep the strides
    of the head split and compute the bits they compute decoded alone.
    A cache nothing has been fed to has no rows: it truncates to 0 and
    selects no rows, and anything else raises ``ShapeMismatch``.
    """

    def __init__(self):
        self.length = 0
        self.layers: list[_StepLayer] = []
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.cross_kv: list[tuple[Tensor, Tensor]] = []
        self.cross_mask: np.ndarray | None = None
        self._keys: np.ndarray | None = None  # (B, max_positions)

    @property
    def key_mask(self) -> np.ndarray | None:
        return None if self._keys is None else self._keys[:, :self.length]

    def open(self, rows: int, positions: int, layers: int, heads: int, d_h: int,
             dtype) -> None:
        """Allocate the buffers of ``rows`` rows of up to ``positions``
        positions, for ``layers`` layers of ``heads`` heads of width ``d_h``."""
        self._keys = np.zeros((rows, positions), dtype=bool)
        self.self_kv = [tuple(np.empty((rows, heads, positions, d_h), dtype) for _ in "kv")
                        for _ in range(layers)]

    def feed(self, label_mask: np.ndarray) -> np.ndarray:
        """Consume (B, n) new positions, after the ``length`` ones before
        them: record their ``label_mask != 0`` and return every consumed
        key's mask. The caller writes their keys and values into the
        buffers from the old ``length`` on."""
        n = label_mask.shape[1]
        if self._keys is None or self.length + n > self._keys.shape[1]:
            raise ShapeMismatch(f"cannot feed {n} positions after {self.length} to a cache "
                                f"of {0 if self._keys is None else self._keys.shape[1]}")
        if len(label_mask) != len(self._keys):
            raise ShapeMismatch(f"cannot feed {len(label_mask)} label rows to a cache of "
                                f"{len(self._keys)} rows")
        np.not_equal(label_mask, 0, out=self._keys[:, self.length:self.length + n])
        self.length += n
        return self._keys[:, :self.length]

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` consumed positions of every row, as if
        the later ones had never been fed: greedy decoding drops the
        positions of a rejected draft this way."""
        if not 0 <= length <= self.length:
            raise ShapeMismatch(f"cannot truncate {self.length} positions to {length}")
        self.length = length

    def select(self, rows) -> None:
        """Keep batch rows ``rows``, in that order; a row may repeat.

        A one-row encoder side stays as it is (the same arrays), since
        every selected row reads that one row.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self._keys is None:
            if rows.size:
                raise ShapeMismatch(f"a cache nothing was fed to has no rows to select: "
                                    f"{rows.tolist()}")
            return
        self._keys = self._keys[rows]
        self.self_kv = [(k[rows], v[rows]) for k, v in self.self_kv]
        if self.cross_kv and len(self.cross_kv[0][0].data) != 1:
            # rows of the (B, T, heads, d_h) projection, seen head-split again
            self.cross_kv = [tuple(ad.constant(x.data.swapaxes(1, 2)[rows].swapaxes(1, 2))
                                   for x in kv) for kv in self.cross_kv]
            if self.cross_mask is not None:
                self.cross_mask = self.cross_mask[rows]


def _encoder_side(enc_hidden, enc_mask, cfg: DecoderConfig,
                  rows: int) -> tuple[Tensor, np.ndarray | None]:
    """Checked (B, T, d) encoder states for ``rows`` label rows, B one or
    ``rows``, and their additive (B, 1, 1, T) key mask, None when no column
    is padding."""
    if not isinstance(enc_hidden, Tensor):
        states = np.asarray(enc_hidden, dtype=np.float32)
        enc_hidden = Tensor(states[None] if states.ndim == 2 else states)
    elif enc_hidden.data.ndim == 2:
        enc_hidden = ad.reshape(enc_hidden, (1,) + enc_hidden.data.shape)
    if len(enc_hidden.data) not in (1, rows):
        raise ShapeMismatch(f"encoder side has {len(enc_hidden.data)} rows for {rows} "
                            "label rows: it needs one row or one per label row")
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
    (precomputed states), of one row, which serves every label row, or one
    row per label row; ``enc_mask`` marks real encoder positions.

    Without ``cache`` this is the teacher-forced pass over positions 0 to
    n - 1, on the tape (gradients included), batch-major. Dropout runs
    when ``rng`` is given, and ``capture_cross`` collects each layer's
    cross-attention probabilities.

    With ``cache``, ``label_ids`` are the positions after those the cache
    has consumed, one row per cache row, and the call is ``_cached_step``:
    plain arrays, no tape, under ``no_grad`` only (else ``ValueError``). It
    takes neither ``rng`` nor ``capture_cross`` (``ConfigError``), and the
    first call on a cache projects the encoder side, which later calls
    ignore. Rows that do not match raise ``ShapeMismatch``.
    """
    label_ids = np.atleast_2d(np.asarray(label_ids))
    label_mask = np.atleast_2d(np.asarray(label_mask))
    if label_ids.shape != label_mask.shape:
        raise ShapeMismatch(
            f"label ids {label_ids.shape} vs mask {label_mask.shape}")
    n = label_ids.shape[1]
    offset = 0 if cache is None else cache.length
    if offset + n > cfg.max_positions:
        raise ShapeMismatch(
            f"prefix length {offset + n} exceeds max_positions {cfg.max_positions}")
    if cache is not None:
        for name, value in (("rng", rng), ("capture_cross", capture_cross)):
            if value is not None:
                raise ConfigError(f"a cached decoder call takes no {name}: it runs no "
                                  "dropout and records no attention")
        if ad.grad_enabled():
            raise ValueError("a cached decoder call records no tape; call it under no_grad")
        return ad.constant(_cached_step(label_ids, label_mask, enc_hidden, enc_mask, cfg,
                                        params, cache))

    enc_hidden, cross_mask = _encoder_side(enc_hidden, enc_mask, cfg, len(label_ids))
    layers = [_layer_params(params, i) for i in range(cfg.layers)]
    cross_kv = [ad.kv_heads(enc_hidden, enc_hidden, cfg.heads, layer.cross)
                for layer in layers]
    self_mask = self_attention_mask(label_mask != 0)
    le = ad.add(ad.embed(params["word_embed"], label_ids),
                ad.embed(params["pos_embed"], np.arange(n)))
    le = ad.dropout(le, cfg.dropout, rng)
    for layer, (ck, cv) in zip(layers, cross_kv):
        k, v = ad.kv_heads(le, le, cfg.heads, layer.self_attn)
        q = ad.add_norm(ad.attend(le, k, v, self_mask, cfg.heads, layer.self_attn), le,
                        *layer.norm_q)
        q = ad.dropout(q, cfg.dropout, rng)
        cross = ad.attend(q, ck, cv, cross_mask, cfg.heads, layer.cross,
                          capture=capture_cross)
        x = ad.add_norm(q, ad.dropout(cross, cfg.dropout, rng), *layer.norm_c)
        ff = ad.feed_forward(x, *layer.ff)
        le = ad.add_norm(x, ad.dropout(ff, cfg.dropout, rng), *layer.norm_f)
    return ad.linear(le, params["out.w"], params["out.b"])


def _cached_step(label_ids, label_mask, enc_hidden, enc_mask, cfg: DecoderConfig,
                 params: dict[str, Parameter], cache: DecodeCache) -> np.ndarray:
    """The positions after those ``cache`` has consumed -> (B, n, V) logits.

    Plain arrays through the tape's kernels, position-major, (n, B, 1, d):
    every product is the one-row product of a one-position call, so n
    positions give the bits of n one-position calls, and a row kept by
    ``DecodeCache.select`` rounds as if alone. Query i reads exactly the
    first ``cache.length + i + 1`` self-attention keys, under their key
    mask when a consumed key is masked; one position is one ``_attention``
    call. The (B, heads, T, d_h) cross keys and values and (B, 1, 1, T)
    mask broadcast as they are.
    """
    heads, d = cfg.heads, cfg.d_model
    if not cache.layers:  # first call: resolve the layers, project the encoder side
        enc, cache.cross_mask = _encoder_side(enc_hidden, enc_mask, cfg, len(label_ids))
        enc = enc.data
        resolved = [_layer_params(params, i) for i in range(cfg.layers)]
        cache.layers = [_step_layer(layer) for layer in resolved]
        cache.cross_kv = [tuple(ad.constant(ad._split(ad._affine(enc, layer.cross[w].data,
                                                                 layer.cross[b].data), heads))
                                for w, b in (("wk", "bk"), ("wv", "bv")))
                          for layer in resolved]
        dtype = params["word_embed"].data.dtype
        cache.open(label_ids.shape[0], cfg.max_positions, cfg.layers, heads, d // heads,
                   dtype)
    t, n = cache.length, label_ids.shape[1]
    keys = cache.feed(label_mask)
    masks = (None if keys.all() else
             [key_mask(keys[:, :t + i + 1]) for i in range(n)])
    x = (params["word_embed"].data[label_ids.T[..., None]]
         + params["pos_embed"].data[np.arange(t, t + n)[:, None, None]])
    for layer, (k_buf, v_buf), (ck, cv) in zip(cache.layers, cache.self_kv, cache.cross_kv):
        qkv = ad._affine(x, *layer.qkv)  # (n, B, 1, 3d)
        q, k, v = (ad._split(qkv[..., j * d:(j + 1) * d], heads)  # (n, B, heads, 1, d_h)
                   for j in range(3))
        k_buf[:, :, t:t + n] = k[:, :, :, 0].transpose(1, 2, 0, 3)
        v_buf[:, :, t:t + n] = v[:, :, :, 0].transpose(1, 2, 0, 3)
        ctx = [ad._attention(q[i], k_buf[:, :, :t + i + 1], v_buf[:, :, :t + i + 1],
                             None if masks is None else masks[i], None)[0]
               for i in range(n)]
        ctx = ctx[0][None] if n == 1 else np.stack(ctx)
        x = _add_norm(ad._affine(ad._merge(ctx), *layer.self_out), x, layer.norm_q)
        cq = ad._split(ad._affine(x, *layer.cross_q), heads)
        ctx = ad._attention(cq, ck.data, cv.data, cache.cross_mask, None)[0]
        x = _add_norm(x, ad._affine(ad._merge(ctx), *layer.cross_out), layer.norm_c)
        x = _add_norm(x, ad._feed_forward(x, *layer.ff), layer.norm_f)
    logits = ad._affine(x, params["out.w"].data, params["out.b"].data)
    return logits[:, :, 0].swapaxes(0, 1)
