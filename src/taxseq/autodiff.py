"""Dense-array kernel with reverse-mode gradients.

A thin tape over numpy: every op builds a ``Tensor`` that remembers its
inputs and a backward closure. ``backward(loss)`` replays the recorded
graph in reverse topological order, accumulating gradients into leaf
tensors (``Parameter`` instances and any tensor with ``requires_grad``).
Arrays are float32 by default; float64 inputs are respected so tests can
run the same graph at higher precision.

Each transformer sublayer is one node with a hand-written backward:
``kv_heads`` (one node each for keys and values), ``attend``, ``add_norm``
and ``feed_forward``. Their forward and backward are built from array
kernels (``_affine``, ``_norm``, ``_gelu``, ``_attention`` and the head
split/merge), which are also the whole of the single-op nodes ``linear``,
``layer_norm``, ``gelu`` and ``scaled_dot_attention``, so each kernel has
one implementation; every layer norm adds ``LN_EPS`` to the variance.
Off the tape, ``feed_forward`` is ``_feed_forward``: batch-axis blocks of
at most ``FF_BLOCK_FLOATS`` hidden floats, which stay in L2 cache and
give the same bits as one whole-batch pass. Code that
keeps no tape at all (the decoder's cached step) calls the kernels
directly, and ``constant`` wraps an array as a Tensor without a copy. Attention
takes its row max over a key-major copy of a score array with many short
rows (``_row_max``), with the same bits as the plain reduce.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AllIgnored,
    DetachedGraph,
    IndivisibleHeads,
    InvalidProbability,
    ShapeMismatch,
)

NEG_INF = -1e9  # additive mask value for disallowed attention positions
LN_EPS = 1e-5  # added to the variance by every layer norm
# Hidden floats in one off-tape feed-forward block: 256 KB in float32, so a
# block's pre-activation, GELU factor, activation and their temporaries fit
# a 2 MB per-core L2 cache together.
FF_BLOCK_FLOATS = 1 << 16
# ``_row_max`` reduces over a key-major copy from this many score rows on,
# below this many keys, and up to this many floats. Swept in float32 on one
# core of a 2-vCPU host: from 128 rows on the copy wins at every key count
# from 2 to 63 (at 7 keys 5.1 against 13.2 us); at 64 rows it ties at 17
# keys, and at the 8 and 32 rows of a batch-1 greedy and beam-4 decode step
# it loses at some; at 128 keys and more it loses from 64 rows on. A copy of
# at most 1 MB takes in predict-desk's batch-128 encoder scores, (128, 4, 17,
# 17) or 148 K floats: 170 against 560 us a layer, and predict-desk's peak
# RSS stayed within its run-to-run spread (51.70 -> 51.74 MB, six pairs).
# A 2.4 MB copy gained nothing measurable and raised peak RSS by 1.1 MB.
# Every training score array is at most 64 K floats, so training keeps its
# path.
KEY_MAJOR_MIN_ROWS = 128
KEY_MAJOR_MAX_KEYS = 64
KEY_MAJOR_MAX_FLOATS = 1 << 18

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    prev = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def _as_float(data) -> np.ndarray:
    a = np.asarray(data)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float32)
    return np.ascontiguousarray(a)


class Tensor:
    """Value node: numpy payload plus optional links into the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf tensor with a name for checkpointing."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op's result in a tape node.

    ``data`` is the float32/float64 array the op computed and is kept as
    it is, without the conversion and copy ``Tensor(...)`` makes of
    outside input; a numpy scalar from a reduction becomes a 0-d array.
    It may be a view of an input's array (``reshape``, ``transpose``, the
    head split), so no caller writes into a node's ``.data``: ops build
    new arrays and write in place only into arrays they made themselves.
    """
    t = constant(data if type(data) is np.ndarray else np.asarray(data))
    if _recording(parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._backward = backward
    return t


def constant(data: np.ndarray) -> Tensor:
    """An array as a Tensor off the tape, kept as it is: unlike
    ``Tensor(...)`` it neither converts nor copies, so a view stays a view."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    return t


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether ``_node`` records a node over ``parents`` (and keeps its backward)."""
    if getattr(_state, "grad_enabled", True):  # grad_enabled(), inlined
        for p in parents:
            if p.requires_grad:
                return True
    return False


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Leaf gradients add up across calls (+=), which is what gradient
    accumulation over micro-batches relies on; intermediate node gradients
    live only for the duration of one call.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._backward is None:
        raise DetachedGraph("loss is not connected to any recorded operation")

    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p._backward is not None and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def accumulate(t: Tensor, g: np.ndarray | None) -> None:
        if g is None or not t.requires_grad:  # None: the op skipped an unneeded gradient
            return
        if t._backward is not None:  # interior node: stage for its own backward
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
        elif t.grad is None:  # leaf: persistent accumulation, into an array it owns
            t.grad = g.astype(t.data.dtype, copy=True)
        else:
            np.add(t.grad, g.astype(t.data.dtype, copy=False), out=t.grad)

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        node._backward(g, accumulate)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.data.shape))
        acc(b, _unbroadcast(g, b.data.shape))

    return _node(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g, acc):
        acc(a, _unbroadcast(g * b.data, a.data.shape))
        acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    return mul_const(a, s)


def add_const(a: Tensor, c: np.ndarray | float) -> Tensor:
    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.data.shape))

    return _node(a.data + c, (a,), bwd)


def mul_const(a: Tensor, c: np.ndarray | float) -> Tensor:
    def bwd(g, acc):
        acc(a, _unbroadcast(g * c, a.data.shape))

    return _node(a.data * c, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bwd(g, acc):
        acc(a, g * out)

    return _node(out, (a,), bwd)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    out = a.data ** p

    def bwd(g, acc):
        acc(a, g * p * a.data ** (p - 1.0))

    return _node(out, (a,), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g, acc):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        acc(a, np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=False))

    return _node(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g, acc):
        acc(a, g.transpose(inv))

    return _node(a.data.transpose(axes), (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, acc):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            acc(t, piece)

    return _node(out, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# linear algebra and neural-net building blocks
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    A layer's (d_in, d_out) weight goes through ``linear``, whose backward
    runs two 2-D GEMMs; this general form sums broadcast axes back down.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch("matmul needs at least 2-d operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bwd(g, acc):
        acc(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        acc(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _node(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# array kernels: the one implementation of each layer's forward and
# backward, shared by the thin nodes and the sublayer nodes below
# ---------------------------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """x @ w (+ b) for a (d_in, d_out) ``w``, as the broadcast product.

    It makes one ``(T, d_in) @ w`` product per leading index, so each row
    rounds as it would in a batch of one, and batched greedy decoding gives
    the ids batch-1 decoding gives. Flattening to one 2-D GEMM is faster,
    most at one query per row (18 against 65 us for ``(128, 1, 64) @ (64,
    64)`` float32 on one BLAS thread), but there it rounds differently.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"linear needs (..., d_in) @ (d_in, d_out), got "
                            f"{x.shape} @ {w.shape}")
    out = x @ w
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeMismatch(f"linear bias {b.shape} does not match ({w.shape[1]},)")
        out += b
    return out


def _affine_grads(g, x, w, need_x: bool, need_w: bool, need_b: bool):
    """Gradients of ``_affine`` for x, w and b (None where not needed).

    The leading axes fold into rows, so each is one plain 2-D GEMM,
    ``g_rows @ w.T`` and ``x_rows.T @ g_rows``, or one row sum.
    """
    d_in, d_out = w.shape
    g2 = g.reshape(-1, d_out)
    return ((g2 @ w.T).reshape(x.shape) if need_x else None,
            x.reshape(-1, d_in).T @ g2 if need_w else None,
            np.add.reduce(g2, axis=0) if need_b else None)


def _norm(x, gain, bias):
    """Layer norm over the last axis -> (out, normalized y, 1/std).

    Row means are ``np.add.reduce(..., axis=-1) * (1 / d)`` rather than
    ``mean`` or ``ndarray.sum``, whose Python-level wrappers cost more than
    the reduction at these widths.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                            f"do not match feature dim {d}")
    inv_d = 1.0 / d
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu *= inv_d
    y = np.subtract(x, mu)  # centred x, then y in place
    out = np.multiply(y, y)  # squares, then the output in place
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var *= inv_d
    var += LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    y *= inv
    np.multiply(y, gain, out=out)
    out += bias
    return out, y, inv


def _norm_grads(g, y, inv, gain):
    """Gradients of ``_norm`` for its input, gain and bias.

    ``inv * (g gain - m1 - y m2)``, built in place in ``g gain`` with one
    scratch array for the products with ``y``.
    """
    inv_d = 1.0 / g.shape[-1]
    lead = tuple(range(g.ndim - 1))
    gbias = np.add.reduce(g, axis=lead)
    s = np.multiply(g, y)
    ggain = np.add.reduce(s, axis=lead)
    gx = np.multiply(g, gain)
    m1 = np.add.reduce(gx, axis=-1, keepdims=True)
    m1 *= inv_d
    m2 = np.add.reduce(np.multiply(gx, y, out=s), axis=-1, keepdims=True)
    m2 *= inv_d
    gx -= m1
    gx -= np.multiply(y, m2, out=s)
    gx *= inv
    return gx, ggain, gbias


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(v):
    """GELU, tanh approximation -> (out, h) with ``h = (1 + tanh) / 2``.

    The cube is a product (``v * v * v``): a float32 ``v ** 3`` goes
    through the generic ``pow`` loop, which is two orders of magnitude
    slower. ``tanh`` turns into ``h`` in place, and the backward reuses
    ``h``: since ``(1 - tanh ** 2) / 2 = 2 h (1 - h)``, d/dv is
    ``h * (1 + 2 v (1 - h) du)``. Only ``h`` is kept for the backward,
    which recomputes the square ``v * v`` rather than hold it.
    """
    h = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    h += 1.0
    h *= 0.5
    return v * h, h


def _gelu_grad(g, v, h):
    """``g * (h * (1 + 2 v (1 - h) du))`` with ``du = C (1 + 3 * 0.044715 v²)``,
    built in place in two arrays of its own, in that order of operations."""
    out = np.multiply(v, 2.0)
    du = np.subtract(1.0, h)
    out *= du
    np.multiply(v, v, out=du)
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    out *= du
    out += 1.0
    out *= h
    out *= g
    return out


def _split(x, heads: int):
    """(..., T, d) -> (..., heads, T, d/heads), as a view."""
    *lead, t, d = x.shape
    if d % heads != 0:
        raise IndivisibleHeads(f"model dim {d} not divisible by {heads} heads")
    return x.reshape(*lead, t, heads, d // heads).swapaxes(-2, -3)


def _merge(x):
    """(..., heads, T, d_h) -> (..., T, heads*d_h), the inverse of ``_split``."""
    *lead, h, t, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, t, h * dh)


def _row_max(p):
    """``np.maximum.reduce(p, axis=-1, keepdims=True)``, to the bit.

    numpy reduces a short last axis row by row, and at attention's 7-17
    keys that per-row cost is most of the reduction. Over a key-major copy,
    ``p.reshape(-1, k).T.copy()`` reduced over axis 0, the max is one
    elementwise pass per key: 15-38 against 117-179 us for 2,176 rows of
    7-17 keys, the training shapes. A max does not depend on the order it
    is taken in, so the values are the same. The copy is taken only where
    it pays (see ``KEY_MAJOR_MIN_ROWS`` and the two limits after it): not
    for a batch-1 decode step's few rows, nor for long rows, nor for a
    score array past 1 MB, whose copy would add to peak memory (predict-desk's
    0.6 MB batch-128 encoder scores take it, 3.3 times faster).
    """
    k = p.shape[-1]
    if k >= KEY_MAJOR_MAX_KEYS or not KEY_MAJOR_MIN_ROWS * k <= p.size <= KEY_MAJOR_MAX_FLOATS:
        return np.maximum.reduce(p, axis=-1, keepdims=True)
    return np.maximum.reduce(p.reshape(-1, k).T.copy(), axis=0).reshape(p.shape[:-1] + (1,))


def _attention(q, k, v, mask, capture):
    """softmax(q kᵀ / sqrt(d_h) + mask) v -> (out, probabilities).

    ``mask`` is additive (0 = allowed, large negative = disallowed) and must
    broadcast to the score shape. Rows with every position disallowed
    produce zero output. They are found from each row's largest masked
    score, which the softmax takes anyway: it falls below ``NEG_INF / 2``
    only when the mask blocks every key, since scores are far smaller than
    ``|NEG_INF|``. When ``capture`` is given, a record with the attention
    probabilities and the count of such rows over the full score shape
    (heads included) is appended.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatch(f"query dim {q.shape} vs key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"key count {k.shape} vs value count {v.shape}")
    p = q @ k.swapaxes(-1, -2)
    p *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        p += np.asarray(mask, dtype=p.dtype)
    top = _row_max(p)
    blocked = None
    if mask is not None:
        rows = top <= NEG_INF / 2
        if rows.any():
            blocked = rows
    p -= top
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    if blocked is not None:
        p *= ~blocked
    if capture is not None:
        capture.append({
            "probs": p.copy(),
            "all_masked_rows": 0 if blocked is None else int(blocked.sum()),
        })
    return p @ v, p


def _attention_grads(g, q, k, v, p, need_q: bool, need_k: bool, need_v: bool):
    """Gradients of ``_attention`` for q, k and v (None where not needed).

    The softmax goes through dS = P * (dP - rowsum(dP * P)) with the zeroed
    rows of P, so blocked rows pass no gradient to ``q`` or ``k``; operands
    that were broadcast get their gradient summed back down.
    """
    gq = gk = None
    if need_q or need_k:
        dp = g @ v.swapaxes(-1, -2)
        ds = p * (dp - np.add.reduce(dp * p, axis=-1, keepdims=True))
        ds *= 1.0 / math.sqrt(q.shape[-1])
        if need_q:
            gq = _unbroadcast(ds @ k, q.shape)
        if need_k:
            gk = _unbroadcast(ds.swapaxes(-1, -2) @ q, k.shape)
    gv = _unbroadcast(p.swapaxes(-1, -2) @ g, v.shape) if need_v else None
    return gq, gk, gv


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) as one node: ``w`` is (d_in, d_out), ``b`` is (d_out,)."""
    xd, wd = x.data, w.data
    out = _affine(xd, wd, None if b is None else b.data)

    def bwd(g, acc):
        gx, gw, gb = _affine_grads(g, xd, wd, x.requires_grad, w.requires_grad,
                                   b is not None and b.requires_grad)
        acc(x, gx)
        acc(w, gw)
        if b is not None:
            acc(b, gb)

    return _node(out, (x, w) if b is None else (x, w, b), bwd)


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :].

    The backward scatters into the table through one 1-D ``np.add.at`` over
    flat element indices ``id * d + j``. Each element takes the same
    additions in the same order as with 2-D rows, so the gradient is the
    same to the bit, but 1-D indices take numpy's fast path: about a third
    of the time, 113 against 341 us for (32, 17) ids into a (2000, 64)
    float32 table on one core of a 2-vCPU host.
    """
    ids = np.asarray(ids)
    out = table.data[ids]

    def bwd(g, acc):
        if not table.requires_grad:
            return
        d = table.data.shape[1]
        gt = np.zeros_like(table.data)
        flat = (ids.reshape(-1, 1).astype(np.intp) * d + np.arange(d)).reshape(-1)
        np.add.at(gt.reshape(-1), flat, g.astype(table.data.dtype, copy=False).reshape(-1))
        acc(table, gt)

    return _node(out, (table,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def bwd(g, acc):
        dot = np.add.reduce(g * out, axis=axis, keepdims=True)
        acc(x, out * (g - dot))

    return _node(out, (x,), bwd)


def _norm_node(s: np.ndarray, inputs: tuple[Tensor, ...], gain: Tensor, bias: Tensor) -> Tensor:
    """The layer norm of ``s``, the sum of ``inputs``' data, as one node;
    each input takes the gradient of ``s``."""
    gd = gain.data
    out, y, inv = _norm(s, gd, bias.data)

    def bwd(g, acc):
        gx, gg, gb = _norm_grads(g, y, inv, gd)
        acc(bias, gb)
        acc(gain, gg)
        for t in inputs:
            acc(t, gx)

    return _node(out, (*inputs, gain, bias), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    return _norm_node(x.data, (x,), gain, bias)


def add_norm(x: Tensor, r: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm(x + r)``, a residual sum and its normalization, as one node."""
    if x.data.shape != r.data.shape:
        raise ShapeMismatch(f"residual {r.data.shape} does not match {x.data.shape}")
    return _norm_node(x.data + r.data, (x, r), gain, bias)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout, on exactly when ``rng`` is given.

    The mask is drawn at ``x``'s shape, so ``rng`` advances by ``x.data.size``
    doubles. Without ``rng`` (evaluation) the input comes back unchanged.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidProbability(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    return mul_const(x, keep / np.asarray(1.0 - p, dtype=x.data.dtype))


def gelu(x: Tensor) -> Tensor:
    """Smooth nonlinearity (tanh approximation); see ``_gelu``."""
    v = x.data
    out, h = _gelu(v)

    def bwd(g, acc):
        acc(x, _gelu_grad(g, v, h))

    return _node(out, (x,), bwd)


def _feed_forward(x, w1, b1, w2, b2):
    """``_affine(gelu(_affine(x, w1, b1)), w2, b2)`` off the tape.

    It runs in blocks of the leading rows (every axis but the last two,
    flattened) whose hidden holds at most ``FF_BLOCK_FLOATS`` floats (at
    least one row), each written into one output array. The broadcast
    product makes one ``(T, d) @ (d, f)`` product per leading index, so a
    block computes exactly the products the whole batch would and the
    output is the same to the bit.
    """
    hidden = math.prod(x.shape[:-1]) * w1.shape[-1]
    if hidden <= FF_BLOCK_FLOATS or x.ndim <= 2:
        return _affine(_gelu(_affine(x, w1, b1))[0], w2, b2)
    lead = x.reshape(-1, *x.shape[-2:])
    step = max(1, FF_BLOCK_FLOATS * len(lead) // hidden)
    out = None
    for i in range(0, len(lead), step):
        part = _affine(_gelu(_affine(lead[i:i + step], w1, b1))[0], w2, b2)
        if out is None:
            out = np.empty(lead.shape[:-1] + part.shape[-1:], part.dtype)
        out[i:i + step] = part
    return out.reshape(x.shape[:-1] + out.shape[-1:])


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one node.

    Off the tape it is ``_feed_forward``, in blocks. A recording call is
    one whole-batch block, since its backward reads the whole
    pre-activation and ``h``.
    """
    xd, w1d, w2d = x.data, w1.data, w2.data
    parents = (x, w1, b1, w2, b2)
    if not _recording(parents):
        return _node(_feed_forward(xd, w1d, b1.data, w2d, b2.data), parents, None)
    pre = _affine(xd, w1d, b1.data)
    act, h = _gelu(pre)
    out = _affine(act, w2d, b2.data)

    def bwd(g, acc):
        need_x = x.requires_grad or w1.requires_grad or b1.requires_grad
        gact, gw2, gb2 = _affine_grads(g, act, w2d, need_x, w2.requires_grad,
                                       b2.requires_grad)
        acc(w2, gw2)
        acc(b2, gb2)
        if need_x:
            gx, gw1, gb1 = _affine_grads(_gelu_grad(gact, pre, h), xd, w1d, x.requires_grad,
                                         w1.requires_grad, b1.requires_grad)
            acc(x, gx)
            acc(w1, gw1)
            acc(b1, gb1)

    return _node(out, parents, bwd)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None = None,
    capture: list | None = None,
) -> Tensor:
    """softmax(q kᵀ / sqrt(d_h) + mask) v, as one node; see ``_attention``."""
    qd, kd, vd = q.data, k.data, v.data
    out, p = _attention(qd, kd, vd, mask, capture)

    def bwd(g, acc):
        gq, gk, gv = _attention_grads(g, qd, kd, vd, p, q.requires_grad,
                                      k.requires_grad, v.requires_grad)
        acc(q, gq)
        acc(k, gk)
        acc(v, gv)

    return _node(out, (q, k, v), bwd)


def multi_head_attention(
    x_q: Tensor,
    x_k: Tensor,
    x_v: Tensor,
    mask: np.ndarray | None,
    heads: int,
    params: dict[str, Tensor],
) -> Tensor:
    """Projected multi-head attention with an output projection.

    ``params`` holds wq/bq, wk/bk, wv/bv, wo/bo. The additive ``mask``
    must broadcast to (..., heads, T_q, T_k).
    """
    k, v = kv_heads(x_k, x_v, heads, params)
    return attend(x_q, k, v, mask, heads, params)


def kv_heads(x_k: Tensor, x_v: Tensor, heads: int,
             params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Keys and values of one attention block, split into heads: one node
    each, covering the projection and the head split."""
    return (_project_heads(x_k, params["wk"], params["bk"], heads),
            _project_heads(x_v, params["wv"], params["bv"], heads))


def _project_heads(x: Tensor, w: Tensor, b: Tensor, heads: int) -> Tensor:
    xd, wd = x.data, w.data
    out = _split(_affine(xd, wd, b.data), heads)

    def bwd(g, acc):
        gx, gw, gb = _affine_grads(_merge(g), xd, wd, x.requires_grad, w.requires_grad,
                                   b.requires_grad)
        acc(x, gx)
        acc(w, gw)
        acc(b, gb)

    return _node(out, (x, w, b), bwd)


def attend(
    x_q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    heads: int,
    params: dict[str, Tensor],
    capture: list | None = None,
) -> Tensor:
    """Queries projected from ``x_q`` attend over split-head ``k``/``v``.

    The other half of ``multi_head_attention``: the keys and values come
    from ``kv_heads``, now or on an earlier call. One node covers the
    query projection, the head split, the attention core, the head merge
    and the output projection. ``k``, ``v`` and ``mask`` may have one
    batch row for many query rows; they broadcast.
    """
    wq, bq, wo, bo = params["wq"], params["bq"], params["wo"], params["bo"]
    parents = (x_q, k, v, wq, bq, wo, bo)
    xd, kd, vd, wqd, wod = x_q.data, k.data, v.data, wq.data, wo.data
    q = _split(_affine(xd, wqd, bq.data), heads)
    ctx, p = _attention(q, kd, vd, mask, capture)
    if not _recording(parents):
        p = None  # only the backward reads it: free it before the output projection
    merged = _merge(ctx)
    out = _affine(merged, wod, bo.data)

    def bwd(g, acc):
        need_q = x_q.requires_grad or wq.requires_grad or bq.requires_grad
        gm, gwo, gbo = _affine_grads(g, merged, wod, True, wo.requires_grad, bo.requires_grad)
        acc(wo, gwo)
        acc(bo, gbo)
        gq, gk, gv = _attention_grads(_split(gm, heads), q, kd, vd, p, need_q,
                                      k.requires_grad, v.requires_grad)
        acc(k, gk)
        acc(v, gv)
        if need_q:
            gx, gwq, gbq = _affine_grads(_merge(gq), xd, wqd, x_q.requires_grad,
                                         wq.requires_grad, bq.requires_grad)
            acc(x_q, gx)
            acc(wq, gwq)
            acc(bq, gbq)

    return _node(out, parents, bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in ``x``'s dtype. The reductions are
    the ufuncs' own (see ``_norm``), with the bits of ``max`` and ``sum``."""
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def smoothed_nll_per_position(
    logits: Tensor,
    targets: np.ndarray,
    smoothing: float = 0.0,
    ignore_id: int | None = None,
) -> tuple[Tensor, int]:
    """Vector of per-position smoothed NLLs over the non-ignored positions.

    Per position: (1-s) * nll(target) + s * mean-over-classes nll, in
    float64. Returns the vector and the number of positions kept, so
    callers can sum it (``tsum``) and average across accumulation windows
    without losing count information. Raises AllIgnored when nothing is
    left to score.
    """
    if not 0.0 <= smoothing < 1.0:
        raise InvalidProbability(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets)
    if logits.data.shape[:-1] != targets.shape:
        raise ShapeMismatch(f"logits {logits.data.shape} vs targets {targets.shape}")
    vsize = logits.data.shape[-1]
    flat = logits.data.reshape(-1, vsize)
    tgt = targets.reshape(-1)
    keep = np.ones(tgt.shape, dtype=bool) if ignore_id is None else tgt != ignore_id
    n = int(keep.sum())
    if n == 0:
        raise AllIgnored("every target position is ignored")

    logp = log_softmax(flat[keep].astype(np.float64))
    rows = np.arange(n)
    safe_tgt = tgt[keep]
    vals = (1.0 - smoothing) * (-logp[rows, safe_tgt]) + smoothing * (-logp.mean(axis=-1))

    def bwd(g, acc):
        if not logits.requires_grad:
            return
        gflat = np.zeros_like(flat)
        p = np.exp(logp)
        target_dist = np.full_like(p, smoothing / vsize)
        target_dist[rows, safe_tgt] += 1.0 - smoothing
        gflat[keep] = (np.asarray(g).reshape(-1, 1) * (p - target_dist)).astype(flat.dtype)
        acc(logits, gflat.reshape(logits.data.shape))

    return _node(vals, (logits,), bwd), n

