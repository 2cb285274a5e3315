"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (plain
loops, no calls into the package's own logic) so test assertions do not
reuse the code under test. The one exception is the composed references
of the fused tape ops at the end: they build each fused op from the
tape's primitive ops, so that both the forward value and every gradient
can be compared.
"""

from __future__ import annotations

import math

import numpy as np

from taxseq import autodiff as ad


def closure_reference(parent_of: dict[str, str | None], labels) -> set[str]:
    """Walk child->parent links one hop at a time."""
    out = set()
    for lb in labels:
        cur = lb
        while cur is not None:
            out.add(cur)
            cur = parent_of.get(cur)
    return out


def minimize_reference(parent_of: dict[str, str | None], closed) -> set[str]:
    """Keep labels that are not the parent of any other label in the set."""
    closed = set(closed)
    parents_in_set = {parent_of.get(lb) for lb in closed}
    return {lb for lb in closed if lb not in parents_in_set}


def f1_counts_reference(preds, golds):
    """(tp, fp, fn) pooled over samples plus per-label tallies."""
    tp = fp = fn = 0
    per_label: dict[str, list[int]] = {}
    for p, g in zip(preds, golds):
        for lb in set(p) | set(g):
            row = per_label.setdefault(lb, [0, 0, 0])
            if lb in p and lb in g:
                tp += 1
                row[0] += 1
            elif lb in p:
                fp += 1
                row[1] += 1
            else:
                fn += 1
                row[2] += 1
    return tp, fp, fn, per_label


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    # 2PR/(P+R) simplified to count form so integer inputs give one
    # well-defined float, comparable exactly
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def log_softmax_reference(row: np.ndarray) -> np.ndarray:
    row = np.asarray(row, dtype=np.float64)
    m = row.max()
    return row - m - np.log(np.exp(row - m).sum())


def beam_search_reference(next_logp, capacity: int, width: int, bos: int,
                          eos: int) -> list[int]:
    """Length-normalized beam search without a cache or an early stop.

    ``next_logp(ids)`` gives the float64 log-probabilities of the token
    after the prefix ``ids``. Each step, every live beam proposes its
    ``width`` best tokens (ties to the lower id); the ``width`` best
    candidates by score over generated length (ties to the smaller id list)
    survive, and those ending in ``eos`` are set aside as finished. At
    capacity the live beams join the finished ones, each normalized by its
    own length, and the best is returned.
    """
    beams = [([bos], 0.0)]
    done = []
    while beams and len(beams[0][0]) < capacity:
        candidates = []
        for ids, score in beams:
            lp = next_logp(ids)
            for tok in sorted(range(len(lp)), key=lambda t: (-lp[t], t))[:width]:
                candidates.append((ids + [tok], score + float(lp[tok])))
        candidates.sort(key=lambda c: (-c[1] / (len(c[0]) - 1), c[0]))
        beams = []
        for ids, score in candidates[:width]:
            (done if ids[-1] == eos else beams).append((ids, score))
    done += beams
    done.sort(key=lambda c: (-c[1] / max(len(c[0]) - 1, 1), c[0]))
    return done[0][0]


def smoothed_ce_reference(logits, targets, smoothing, ignore_id) -> tuple[float, int]:
    """Mean smoothed cross entropy over non-ignored positions, plain loops."""
    logits = np.asarray(logits, dtype=np.float64)
    flat = logits.reshape(-1, logits.shape[-1])
    tgts = np.asarray(targets).reshape(-1)
    total = 0.0
    kept = 0
    for row, t in zip(flat, tgts):
        if t == ignore_id:
            continue
        logp = log_softmax_reference(row)
        nll_target = -logp[int(t)]
        nll_mean = float(np.mean(-logp))
        total += (1.0 - smoothing) * nll_target + smoothing * nll_mean
        kept += 1
    return total / kept, kept


def focal_reference(ce: float, gamma: float) -> float:
    return (1.0 - np.exp(-ce)) ** gamma * ce


def fd_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar f at x (f64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


def layer_norm_reference(x, gain, bias, eps, upstream):
    """Row-by-row layer norm in float64 with its gradients under ``upstream``.

    Returns (out, grad_x, grad_gain, grad_bias). The input gradient goes
    through the explicit Jacobian of the normalized row,
    dy_j/dx_i = (delta_ij - 1/d)/s - (x_j - mu)(x_i - mu)/(d s^3).
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    ups = np.asarray(upstream, dtype=np.float64).reshape(-1, d)
    gain = [float(v) for v in gain]
    bias = [float(v) for v in bias]
    out = np.zeros_like(rows)
    gx = np.zeros_like(rows)
    ggain = np.zeros(d)
    gbias = np.zeros(d)
    for r in range(rows.shape[0]):
        row = [float(v) for v in rows[r]]
        mu = sum(row) / d
        var = sum((v - mu) ** 2 for v in row) / d
        s = (var + eps) ** 0.5
        y = [(v - mu) / s for v in row]
        for j in range(d):
            out[r, j] = y[j] * gain[j] + bias[j]
            ggain[j] += ups[r, j] * y[j]
            gbias[j] += ups[r, j]
        for i in range(d):
            total = 0.0
            for j in range(d):
                dy = ((1.0 if i == j else 0.0) - 1.0 / d) / s \
                    - (row[j] - mu) * (row[i] - mu) / (d * s ** 3)
                total += ups[r, j] * gain[j] * dy
            gx[r, i] = total
    return out.reshape(x.shape), gx.reshape(x.shape), ggain, gbias


def adamw_reference_steps(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Hand-stepped scalar update recurrence for a few steps."""
    x = float(x0)
    m = v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        x = x - lr * (mh / (np.sqrt(vh) + eps) + wd * x)
        trace.append(x)
    return trace


def adamw_reference_step(params, grads, state, lr, t, beta1=0.9, beta2=0.999,
                         eps=1e-8, weight_decay=0.01):
    """One AdamW step as a loop over parameters, fresh arrays per tensor.

    ``params`` maps names to arrays and ``grads`` names to arrays (an
    absent one counts as zeros); ``state`` maps names to their ``m``/``v``
    moments and is updated. A matrix whose name has no "embed" decays.
    Returns the new parameter arrays.
    """
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    out = {}
    for name, p in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(p)
        st = state.setdefault(name, {"m": np.zeros_like(p), "v": np.zeros_like(p)})
        st["m"] = beta1 * st["m"] + (1.0 - beta1) * grad
        st["v"] = beta2 * st["v"] + (1.0 - beta2) * grad * grad
        step_dir = (st["m"] / c1) / (np.sqrt(st["v"] / c2) + eps)
        if weight_decay and p.ndim >= 2 and "embed" not in name:
            step_dir = step_dir + weight_decay * p
        out[name] = p - lr * step_dir
    return out


def embed_grad_reference(table, ids, g):
    """An embedding table's gradient as a 2-D row scatter: one
    ``np.add.at`` that adds each upstream row ``g[i]`` into row ``ids[i]``,
    in the order of the flattened ids."""
    gt = np.zeros_like(table)
    d = table.shape[1]
    np.add.at(gt, np.asarray(ids).reshape(-1), g.reshape(-1, d).astype(table.dtype, copy=False))
    return gt


# ---------------------------------------------------------------------------
# fused tape ops, composed from primitive ops
# ---------------------------------------------------------------------------


def linear_composed(x, w, b=None):
    out = ad.matmul(x, w)
    return out if b is None else ad.add(out, b)


def split_heads_composed(x, heads):
    *lead, t, d = x.data.shape
    n = len(lead)
    y = ad.reshape(x, (*lead, t, heads, d // heads))
    return ad.transpose(y, (*range(n), n + 1, n, n + 2))


def merge_heads_composed(x):
    *lead, h, t, dh = x.data.shape
    n = len(lead)
    y = ad.transpose(x, (*range(n), n + 1, n, n + 2))
    return ad.reshape(y, (*lead, t, h * dh))


def attention_composed(q, k, v, mask=None, capture=None):
    """Scores, scale, additive mask, softmax, zeroed blocked rows and ``@ v``,
    one primitive op each; ``capture`` gets the fused op's record."""
    n = k.data.ndim
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (*range(n - 2), n - 1, n - 2))),
                      1.0 / math.sqrt(q.data.shape[-1]))
    keep = np.ones(scores.data.shape[:-1] + (1,))
    if mask is not None:
        scores = ad.add_const(scores, mask)
        blocked = np.broadcast_to((np.asarray(mask) <= ad.NEG_INF / 2).all(
            axis=-1, keepdims=True), keep.shape)
        keep = np.where(blocked, 0.0, 1.0)
    probs = ad.mul_const(ad.softmax(scores, axis=-1), keep)
    if capture is not None:
        capture.append({"probs": probs.data.copy(),
                        "all_masked_rows": int((keep == 0).sum())})
    return ad.matmul(probs, v)


# ---------------------------------------------------------------------------
# sublayer tape ops, composed from primitive ops
# ---------------------------------------------------------------------------


def layer_norm_composed(x, gain, bias, eps=1e-5):
    xc = ad.add(x, ad.scale(ad.mean(x, axis=-1, keepdims=True), -1.0))
    var = ad.mean(ad.mul(xc, xc), axis=-1, keepdims=True)
    y = ad.mul(xc, ad.power(ad.add_const(var, eps), -0.5))
    return ad.add(ad.mul(y, gain), bias)


def gelu_composed(x):
    """x * sigmoid(2u) with u = sqrt(2/pi) (x + 0.044715 x^3), which is
    x (1 + tanh u) / 2, from exp and powers."""
    u = ad.scale(ad.add(x, ad.scale(ad.power(x, 3.0), 0.044715)), math.sqrt(2.0 / math.pi))
    h = ad.add_const(ad.scale(ad.power(ad.add_const(ad.exp(ad.scale(u, 2.0)), 1.0), -1.0),
                              -1.0), 1.0)
    return ad.mul(x, h)


def add_norm_composed(x, r, gain, bias):
    return layer_norm_composed(ad.add(x, r), gain, bias)


def feed_forward_composed(x, w1, b1, w2, b2):
    return linear_composed(gelu_composed(linear_composed(x, w1, b1)), w2, b2)


def kv_heads_composed(x_k, x_v, heads, params):
    return (split_heads_composed(linear_composed(x_k, params["wk"], params["bk"]), heads),
            split_heads_composed(linear_composed(x_v, params["wv"], params["bv"]), heads))


def attend_composed(x_q, k, v, mask, heads, params, capture=None):
    q = split_heads_composed(linear_composed(x_q, params["wq"], params["bq"]), heads)
    ctx = attention_composed(q, k, v, mask=mask, capture=capture)
    return linear_composed(merge_heads_composed(ctx), params["wo"], params["bo"])
