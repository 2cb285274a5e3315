"""Gradient-tape checks against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (add_norm_composed, attend_composed, attention_composed,
                     embed_grad_reference, fd_gradient, feed_forward_composed,
                     kv_heads_composed, layer_norm_reference, linear_composed,
                     relative_error)

from taxseq import autodiff as ad
from taxseq.autodiff import Parameter, Tensor, backward, no_grad
from taxseq.errors import (AllIgnored, DetachedGraph, IndivisibleHeads,
                           InvalidProbability, ShapeMismatch)
from taxseq.loss import LossConfig, LossVariant, compute_loss

TOL = 1e-4


def gradcheck(fn, inputs, eps=1e-3):
    """Max relative error between tape gradients and finite differences.

    ``fn`` maps a dict of Tensors to a scalar Tensor; ``inputs`` holds the
    float64 arrays to differentiate at.
    """
    tensors = {k: Tensor(v, requires_grad=True) for k, v in inputs.items()}
    backward(fn(tensors))
    worst = 0.0
    for key, base in inputs.items():
        def scalar(arr, key=key):
            frozen = {k: Tensor(v) for k, v in inputs.items()}
            frozen[key] = Tensor(arr)
            return fn(frozen).item()

        numeric = fd_gradient(scalar, base, eps=eps)
        assert tensors[key].grad is not None, key
        worst = max(worst, relative_error(tensors[key].grad, numeric))
    return worst


def arr(rng, *shape):
    return rng.standard_normal(shape)


class TestElementwiseGrads:
    def test_add_with_broadcast(self, rng):
        w = arr(rng, 2, 3)
        fn = lambda t: ad.tsum(ad.mul(ad.add(t["a"], t["b"]), Tensor(w)))
        assert gradcheck(fn, {"a": arr(rng, 2, 3), "b": arr(rng, 3)}) < TOL

    def test_mul(self, rng):
        fn = lambda t: ad.tsum(ad.mul(t["a"], t["b"]))
        assert gradcheck(fn, {"a": arr(rng, 4, 2), "b": arr(rng, 4, 2)}) < TOL

    def test_scale_add_const_mul_const(self, rng):
        c = arr(rng, 3)
        fn = lambda t: ad.tsum(ad.mul_const(ad.add_const(ad.scale(t["x"], -1.7), c), c + 2))
        assert gradcheck(fn, {"x": arr(rng, 2, 3)}) < TOL

    def test_exp_power_chain(self, rng):
        fn = lambda t: ad.tsum(ad.power(ad.exp(t["x"]), 1.5))
        assert gradcheck(fn, {"x": 0.5 * arr(rng, 3, 3)}) < TOL

    def test_gelu(self, rng):
        w = arr(rng, 5)
        fn = lambda t: ad.tsum(ad.mul(ad.gelu(t["x"]), Tensor(w)))
        assert gradcheck(fn, {"x": 2 * arr(rng, 5)}) < TOL

    def test_sum_and_mean_axes(self, rng):
        w = arr(rng, 1, 4)
        fn = lambda t: ad.tsum(ad.mul(ad.tsum(t["x"], axis=0, keepdims=True), Tensor(w)))
        assert gradcheck(fn, {"x": arr(rng, 3, 4)}) < TOL
        w2 = arr(rng, 3)
        fn2 = lambda t: ad.tsum(ad.mul(ad.mean(t["x"], axis=1), Tensor(w2)))
        assert gradcheck(fn2, {"x": arr(rng, 3, 4)}) < TOL

    def test_softmax_weighted(self, rng):
        w = arr(rng, 2, 5)
        fn = lambda t: ad.tsum(ad.mul(ad.softmax(t["x"], axis=-1), Tensor(w)))
        assert gradcheck(fn, {"x": arr(rng, 2, 5)}) < TOL

    def test_layer_norm_all_inputs(self, rng):
        w = arr(rng, 2, 6)
        fn = lambda t: ad.tsum(ad.mul(ad.layer_norm(t["x"], t["g"], t["b"]), Tensor(w)))
        got = gradcheck(fn, {"x": arr(rng, 2, 6),
                             "g": 1 + 0.1 * arr(rng, 6),
                             "b": 0.1 * arr(rng, 6)})
        assert got < TOL


class TestKernelReferences:
    """gelu, layer_norm and the 2-d-weight matmul backward against
    formula-level references."""

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "3d", "4d"])
    def test_matmul_2d_weight_gradcheck(self, rng, lead):
        w_out = arr(rng, *lead, 4, 3)
        fn = lambda t: ad.tsum(ad.mul(ad.matmul(t["a"], t["w"]), Tensor(w_out)))
        assert gradcheck(fn, {"a": arr(rng, *lead, 4, 5), "w": arr(rng, 5, 3)}) < TOL
        fn_lin = lambda t: ad.tsum(ad.mul(ad.linear(t["a"], t["w"], t["b"]),
                                          Tensor(w_out)))
        assert gradcheck(fn_lin, {"a": arr(rng, *lead, 4, 5), "w": arr(rng, 5, 3),
                                  "b": arr(rng, 3)}) < TOL

    def test_matmul_2d_weight_constant_input(self, rng):
        a = Tensor(arr(rng, 2, 3, 4, 5))
        w = Tensor(arr(rng, 5, 3), requires_grad=True)
        backward(ad.tsum(ad.power(ad.matmul(a, w), 2.0)))
        assert a.grad is None
        numeric = fd_gradient(
            lambda v: float(((a.data @ v) ** 2).sum()), w.data.copy())
        assert relative_error(w.grad, numeric) < TOL

    def test_matmul_batched_3d_keeps_broadcast_path(self, rng):
        fn = lambda t: ad.tsum(ad.power(ad.matmul(t["a"], t["b"]), 2.0))
        assert gradcheck(fn, {"a": arr(rng, 3, 2, 4), "b": arr(rng, 3, 4, 5)}) < TOL
        assert gradcheck(fn, {"a": arr(rng, 3, 2, 4), "b": arr(rng, 1, 4, 5)}) < TOL

    def test_gelu_matches_cube_formula_float32(self, rng):
        x = np.concatenate([np.linspace(-60.0, 60.0, 4001),
                            [-1e4, -1e3, -10.5, 10.5, 1e3, 1e4]]).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        out = ad.gelu(t)
        backward(ad.tsum(ad.mul_const(out, g)))
        assert out.data.dtype == np.float32 and t.grad.dtype == np.float32
        # the formula with a float64 power: u = c (x + 0.044715 x**3)
        x64 = x.astype(np.float64)
        c = np.sqrt(2.0 / np.pi)
        th = np.tanh(c * (x64 + 0.044715 * x64 ** 3))
        want = 0.5 * x64 * (1.0 + th)
        dwant = 0.5 * (1.0 + th) + 0.5 * x64 * (1.0 - th ** 2) * c * (
            1.0 + 3 * 0.044715 * x64 ** 2)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(t.grad, g * dwant, rtol=1e-5, atol=1e-5)
        big = np.abs(x) > 10
        assert big.sum() > 1000
        np.testing.assert_allclose(out.data[big], np.maximum(x[big], 0), rtol=1e-6)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 2e-5)])
    @pytest.mark.parametrize("d", [12, 64])
    def test_layer_norm_matches_oracle(self, rng, dtype, tol, d):
        x = (3 * arr(rng, 2, 5, d) + 1.5).astype(dtype)
        gain = (1 + 0.2 * arr(rng, d)).astype(dtype)
        bias = (0.3 * arr(rng, d)).astype(dtype)
        up = arr(rng, 2, 5, d).astype(dtype)
        tx, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
        out = ad.layer_norm(tx, tg, tb)
        backward(ad.tsum(ad.mul_const(out, up)))
        want, gx, gg, gb = layer_norm_reference(x, gain, bias, 1e-5, up)
        for got, ref in ((out.data, want), (tx.grad, gx), (tg.grad, gg), (tb.grad, gb)):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)


def run_with_grads(fn, arrays, frozen=()):
    """Forward ``fn`` on float64 leaves, backward a fixed random readout of
    its output; returns the output array and each leaf's gradient."""
    leaves = {k: Tensor(v, requires_grad=k not in frozen) for k, v in arrays.items()}
    out = fn(**leaves)
    up = np.random.default_rng(0).standard_normal(out.data.shape)
    backward(ad.tsum(ad.mul_const(out, up)))
    return out.data, {k: t.grad for k, t in leaves.items()}


def attention_masks():
    """A (B, 1, q, n) mask shared by the heads, with key padding and one
    fully blocked row, plus its broadcast copy and no mask at all."""
    shared = np.zeros((2, 1, 3, 5))
    shared[..., 4:] = ad.NEG_INF
    shared[1, 0, 2, :] = ad.NEG_INF
    return {"none": None, "shared": shared,
            "full": np.ascontiguousarray(np.broadcast_to(shared, (2, 3, 3, 5)))}


class TestFusedOps:
    """The one-node ops against their compositions of primitive ops
    (``oracles.*_composed``), forward and every gradient in float64, and
    against finite differences."""

    @pytest.mark.parametrize("mask_name", ["none", "shared", "full"])
    def test_attention_matches_composition(self, rng, mask_name):
        mask = attention_masks()[mask_name]
        arrays = {"q": arr(rng, 2, 3, 3, 4), "k": arr(rng, 2, 3, 5, 4),
                  "v": arr(rng, 2, 3, 5, 6)}
        got_cap, want_cap = [], []
        got, got_g = run_with_grads(lambda q, k, v: ad.scaled_dot_attention(
            q, k, v, mask=mask, capture=got_cap), arrays)
        want, want_g = run_with_grads(lambda q, k, v: attention_composed(
            q, k, v, mask=mask, capture=want_cap), arrays)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for key in arrays:
            np.testing.assert_allclose(got_g[key], want_g[key], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got_cap[0]["probs"], want_cap[0]["probs"],
                                   rtol=1e-12, atol=1e-15)
        assert got_cap[0]["all_masked_rows"] == want_cap[0]["all_masked_rows"] == (
            0 if mask is None else 3)
        if mask is not None:
            assert np.array_equal(got[1, :, 2], np.zeros((3, 6)))

    def test_attention_broadcast_batch_axis(self, rng):
        """Keys and values shared over a leading axis get its summed gradient."""
        arrays = {"q": arr(rng, 2, 3, 4), "k": arr(rng, 1, 5, 4), "v": arr(rng, 1, 5, 4)}
        got, got_g = run_with_grads(ad.scaled_dot_attention, arrays)
        want, want_g = run_with_grads(attention_composed, arrays)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for key in arrays:
            assert got_g[key].shape == arrays[key].shape
            np.testing.assert_allclose(got_g[key], want_g[key], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [-1, 0], ids=["below", "at"])
    @pytest.mark.parametrize("case", ["padded", "beam"])
    def test_attention_row_max_paths_agree(self, rng, monkeypatch, dtype, side, case):
        """``_attention`` gives the same outputs and probabilities, to the
        bit, with its row max over a key-major copy as with the plain
        reduce, at score row counts on both sides of
        ``KEY_MAJOR_MIN_ROWS``. "padded": per-row key padding and one fully
        blocked row. "beam": one row of keys, values and mask broadcast over
        every query row, as beam search shares the encoder side."""
        rows, keys = ad.KEY_MAJOR_MIN_ROWS + 4 * side, 7
        assert keys < ad.KEY_MAJOR_MAX_KEYS and rows % 4 == 0
        b = rows // 4
        if case == "padded":  # 2 heads x 2 query positions
            heads, t, kb = 2, 2, b
            mask = np.zeros((b, 1, t, keys))
            mask[b // 2:, ..., 5:] = ad.NEG_INF
            mask[0, 0, 1] = ad.NEG_INF
        else:  # 4 heads x 1 query position, as in a decode step
            heads, t, kb = 4, 1, 1
            mask = np.zeros((1, 1, 1, keys))
            mask[..., 6:] = ad.NEG_INF
        q, k, v = (arr(rng, *s).astype(dtype) for s in
                   ((b, heads, t, 8), (kb, heads, keys, 8), (kb, heads, keys, 8)))
        assert b * heads * t == rows
        got = {}
        for path, min_rows in (("key-major", 0), ("plain", rows + 1),
                               ("default", ad.KEY_MAJOR_MIN_ROWS)):
            monkeypatch.setattr(ad, "KEY_MAJOR_MIN_ROWS", min_rows)
            cap = []
            out, p = ad._attention(q, k, v, mask.astype(dtype), cap)
            got[path] = (out.tobytes(), p.tobytes(), cap[0]["all_masked_rows"])
        assert got["key-major"] == got["plain"] == got["default"]
        # "padded" blocks every key of query 1 in batch row 0, in each head
        assert got["plain"][2] == (heads if case == "padded" else 0)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "3d", "4d"])
    @pytest.mark.parametrize("bias, frozen", [(True, ()), (False, ()), (True, ("w",))],
                             ids=["bias", "no-bias", "frozen-weight"])
    def test_linear_matches_composition(self, rng, lead, bias, frozen):
        arrays = {"x": arr(rng, *lead, 4, 5), "w": arr(rng, 5, 3)}
        if bias:
            arrays["b"] = arr(rng, 3)
        got, got_g = run_with_grads(ad.linear, arrays, frozen)
        want, want_g = run_with_grads(linear_composed, arrays, frozen)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for key in arrays:
            if key in frozen:
                assert got_g[key] is None and want_g[key] is None
            else:
                np.testing.assert_allclose(got_g[key], want_g[key], rtol=1e-12, atol=1e-12)

    def test_linear_shape_errors(self, rng):
        x = Tensor(arr(rng, 2, 4))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, Tensor(arr(rng, 5, 3)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, Tensor(arr(rng, 2, 4, 3)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, Tensor(arr(rng, 4, 3)), Tensor(arr(rng, 4)))
        with pytest.raises(ShapeMismatch):
            ad.linear(Tensor(arr(rng, 4)), Tensor(arr(rng, 4, 3)))

    @pytest.mark.parametrize("op", ["attention-shared-mask", "attention-no-mask",
                                    "linear", "linear-no-bias"])
    def test_finite_differences(self, rng, op):
        mask = attention_masks()["shared"]
        w = arr(rng, 2, 3, 3, 4)
        cases = {
            "attention-shared-mask": (
                lambda t: ad.scaled_dot_attention(t["q"], t["k"], t["v"], mask=mask),
                {"q": arr(rng, 2, 3, 3, 4), "k": arr(rng, 2, 3, 5, 4),
                 "v": arr(rng, 2, 3, 5, 4)}),
            "attention-no-mask": (
                lambda t: ad.scaled_dot_attention(t["q"], t["k"], t["v"]),
                {"q": arr(rng, 2, 3, 3, 4), "k": arr(rng, 2, 3, 5, 4),
                 "v": arr(rng, 2, 3, 5, 4)}),
            "linear": (lambda t: ad.linear(t["x"], t["w"], t["b"]),
                       {"x": arr(rng, 2, 3, 3, 5), "w": arr(rng, 5, 4), "b": arr(rng, 4)}),
            "linear-no-bias": (lambda t: ad.linear(t["x"], t["w"]),
                               {"x": arr(rng, 2, 3, 3, 5), "w": arr(rng, 5, 4)}),
        }
        fn, inputs = cases[op]

        def readout(t):
            out = fn(t)
            return ad.tsum(ad.mul_const(out, w.reshape(out.data.shape)))

        assert gradcheck(readout, inputs) < TOL


def attend_case(rng, case):
    """Query rows, split-head keys/values and mask of one ``attend`` call:
    no mask; key padding with a fully blocked row, the mask shared by the
    heads; one key/value row (and mask row) broadcast over three query rows."""
    if case == "none":
        return 2, 2, None
    if case == "padded":
        mask = np.zeros((2, 1, 3, 5))
        mask[..., 4:] = ad.NEG_INF
        mask[1, 0, 2, :] = ad.NEG_INF
        return 2, 2, mask
    mask = np.zeros((1, 1, 1, 5))
    mask[..., 3:] = ad.NEG_INF
    return 3, 1, mask


def mha_weights(rng, d=8):
    out = {n: 0.4 * arr(rng, d, d) for n in ("wq", "wk", "wv", "wo")}
    return out | {f"b{n[1]}": 0.1 * arr(rng, d) for n in out}


class TestSublayerNodes:
    """The one-node sublayers against their compositions of primitive ops
    (``oracles.*_composed``): forward, every gradient and the ``capture``
    record in float64, and finite differences."""

    def assert_match(self, node, composed, arrays, frozen=()):
        got, got_g = run_with_grads(node, arrays, frozen)
        want, want_g = run_with_grads(composed, arrays, frozen)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        for key in arrays:
            if key in frozen:
                assert got_g[key] is None and want_g[key] is None, key
            else:
                assert got_g[key].shape == arrays[key].shape, key
                np.testing.assert_allclose(got_g[key], want_g[key], rtol=1e-9, atol=1e-11,
                                           err_msg=key)
        return got

    @pytest.mark.parametrize("case", ["none", "padded", "one-row-kv"])
    @pytest.mark.parametrize("frozen", [(), ("x", "wq", "k")], ids=["all", "frozen"])
    def test_attend_matches_composition(self, rng, case, frozen):
        rows, kv_rows, mask = attend_case(rng, case)
        arrays = {"x": arr(rng, rows, 3, 8), "k": arr(rng, kv_rows, 2, 5, 4),
                  "v": arr(rng, kv_rows, 2, 5, 4)} | {
            n: w for n, w in mha_weights(rng).items() if n[1] in "qo"}
        got_cap, want_cap = [], []
        got = self.assert_match(
            lambda x, k, v, **p: ad.attend(x, k, v, mask, 2, p, capture=got_cap),
            lambda x, k, v, **p: attend_composed(x, k, v, mask, 2, p, capture=want_cap),
            arrays, frozen)
        np.testing.assert_allclose(got_cap[0]["probs"], want_cap[0]["probs"],
                                   rtol=1e-12, atol=1e-15)
        assert got_cap[0]["probs"].shape == (rows, 2, 3, 5)
        assert got_cap[0]["all_masked_rows"] == want_cap[0]["all_masked_rows"] == (
            2 if case == "padded" else 0)
        if case == "padded":  # the blocked row reads nothing: its output is the bias
            np.testing.assert_allclose(got[1, 2], arrays["bo"], rtol=1e-12)

    def test_kv_heads_matches_composition(self, rng):
        arrays = {"xk": arr(rng, 2, 5, 8), "xv": arr(rng, 2, 5, 8)} | {
            n: w for n, w in mha_weights(rng).items() if n[1] in "kv"}

        def both(kv_fn):
            return lambda xk, xv, **p: ad.concat(list(kv_fn(xk, xv, 2, p)), axis=-1)

        got = self.assert_match(both(ad.kv_heads), both(kv_heads_composed), arrays)
        assert got.shape == (2, 2, 5, 8)

    def test_add_norm_matches_composition(self, rng):
        arrays = {"x": 2 * arr(rng, 2, 3, 8), "r": arr(rng, 2, 3, 8),
                  "gain": 1 + 0.2 * arr(rng, 8), "bias": 0.3 * arr(rng, 8)}
        self.assert_match(ad.add_norm, add_norm_composed, arrays)

    @pytest.mark.parametrize("frozen", [(), ("x", "w1", "b1")], ids=["all", "frozen-first"])
    def test_feed_forward_matches_composition(self, rng, frozen):
        arrays = {"x": arr(rng, 2, 3, 8), "w1": 0.5 * arr(rng, 8, 16), "b1": 0.1 * arr(rng, 16),
                  "w2": 0.5 * arr(rng, 16, 8), "b2": 0.1 * arr(rng, 8)}
        self.assert_match(ad.feed_forward, feed_forward_composed, arrays, frozen)

    def test_add_norm_shape_error(self, rng):
        g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
        with pytest.raises(ShapeMismatch):
            ad.add_norm(Tensor(arr(rng, 2, 4)), Tensor(arr(rng, 4)), g, b)

    @pytest.mark.parametrize("op", ["attend-padded", "attend-one-row-kv", "kv_heads",
                                    "add_norm", "feed_forward"])
    def test_finite_differences(self, rng, op):
        weights = mha_weights(rng)

        def attend(case):
            rows, kv_rows, mask = attend_case(rng, case)
            names = ("wq", "bq", "wo", "bo")
            return (lambda t: ad.attend(t["x"], t["k"], t["v"], mask, 2,
                                        {n: t[n] for n in names}),
                    {"x": arr(rng, rows, 3, 8), "k": arr(rng, kv_rows, 2, 5, 4),
                     "v": arr(rng, kv_rows, 2, 5, 4)} | {n: weights[n] for n in names})

        names = ("wk", "bk", "wv", "bv")
        cases = {
            "attend-padded": attend("padded"),
            "attend-one-row-kv": attend("one-row-kv"),
            "kv_heads": (lambda t: ad.concat(list(ad.kv_heads(
                t["xk"], t["xv"], 2, {n: t[n] for n in names})), axis=-1),
                {"xk": arr(rng, 2, 5, 8), "xv": arr(rng, 2, 5, 8)}
                | {n: weights[n] for n in names}),
            "add_norm": (lambda t: ad.add_norm(t["x"], t["r"], t["g"], t["b"]),
                         {"x": arr(rng, 2, 3, 6), "r": arr(rng, 2, 3, 6),
                          "g": 1 + 0.1 * arr(rng, 6), "b": arr(rng, 6)}),
            "feed_forward": (lambda t: ad.feed_forward(t["x"], t["w1"], t["b1"], t["w2"],
                                                       t["b2"]),
                             {"x": arr(rng, 2, 3, 6), "w1": arr(rng, 6, 12),
                              "b1": arr(rng, 12), "w2": arr(rng, 12, 6), "b2": arr(rng, 6)}),
        }
        fn, inputs = cases[op]

        def readout(t):
            out = fn(t)
            w = np.random.default_rng(1).standard_normal(out.data.shape)
            return ad.tsum(ad.mul_const(out, w))

        # float64 throughout: a step of 1e-5 keeps the central difference's
        # truncation error on the smallest gradient entries under TOL
        assert gradcheck(readout, inputs, eps=1e-5) < TOL


class TestFeedForwardBlocks:
    """Off the tape, ``feed_forward`` runs in batch-axis blocks of at most
    ``ad.FF_BLOCK_FLOATS`` hidden floats; a recording call is one block."""

    def ffn(self, rng, shape, ff, dtype=np.float32):
        d = shape[-1]
        x = Tensor(arr(rng, *shape).astype(dtype), requires_grad=True)
        return x, [Parameter((0.3 * arr(rng, *s)).astype(dtype))
                   for s in ((d, ff), (ff,), (ff, d), (d,))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch, t", [(37, 17), (600, 1)], ids=["encoder", "decode-step"])
    def test_blocked_forward_equals_recording_forward(self, rng, dtype, batch, t):
        step = ad.FF_BLOCK_FLOATS // (t * 256)
        assert 1 < step < batch and batch % step  # several full blocks, then a short one
        x, w = self.ffn(rng, (batch, t, 32), 256, dtype)
        recorded = ad.feed_forward(x, *w)
        assert recorded.requires_grad
        with no_grad():
            blocked = ad.feed_forward(x, *w)
        assert blocked.data.dtype == recorded.data.dtype == dtype
        assert blocked.data.shape == recorded.data.shape == (batch, t, 32)
        assert blocked.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("batch, t", [(128, 17), (3, 300)], ids=["rows", "row-over-budget"])
    def test_gelu_inputs_hold_one_block(self, rng, monkeypatch, batch, t):
        shapes = []
        gelu = ad._gelu

        def spy(v):
            shapes.append(v.shape)
            return gelu(v)

        monkeypatch.setattr(ad, "_gelu", spy)
        x, w = self.ffn(rng, (batch, t, 16), 256)
        with no_grad():
            ad.feed_forward(x, *w)
        assert len(shapes) > 1 and sum(s[0] for s in shapes) == batch
        assert all(np.prod(s) <= max(ad.FF_BLOCK_FLOATS, t * 256) for s in shapes)
        shapes.clear()
        ad.feed_forward(x, *w)
        assert shapes == [(batch, t, 256)]


class TestShapeOpGrads:
    def test_reshape_transpose(self, rng):
        w = arr(rng, 4, 3, 2)
        fn = lambda t: ad.tsum(ad.mul(
            ad.transpose(ad.reshape(t["x"], (2, 3, 4)), (2, 1, 0)), Tensor(w)))
        assert gradcheck(fn, {"x": arr(rng, 6, 4)}) < TOL

    def test_concat(self, rng):
        w = arr(rng, 5, 2)
        fn = lambda t: ad.tsum(ad.mul(ad.concat([t["a"], t["b"]], axis=0), Tensor(w)))
        assert gradcheck(fn, {"a": arr(rng, 2, 2), "b": arr(rng, 3, 2)}) < TOL

    def test_matmul_batched_broadcast(self, rng):
        fn = lambda t: ad.tsum(ad.matmul(t["a"], t["b"]))
        assert gradcheck(fn, {"a": arr(rng, 3, 2, 4), "b": arr(rng, 4, 5)}) < TOL

    def test_linear_with_bias(self, rng):
        w = arr(rng, 2, 3)
        fn = lambda t: ad.tsum(ad.mul(ad.linear(t["x"], t["w"], t["b"]), Tensor(w)))
        assert gradcheck(fn, {"x": arr(rng, 2, 4), "w": arr(rng, 4, 3),
                              "b": arr(rng, 3)}) < TOL

    def test_embed_rows(self, rng):
        ids = np.array([[0, 2], [2, 4]])
        w = arr(rng, 2, 2, 3)
        fn = lambda t: ad.tsum(ad.mul(ad.embed(t["tab"], ids), Tensor(w)))
        assert gradcheck(fn, {"tab": arr(rng, 5, 3)}) < TOL
        tab = Tensor(arr(rng, 5, 3), requires_grad=True)
        backward(ad.tsum(ad.embed(tab, ids)))
        assert np.allclose(tab.grad[1], 0) and np.allclose(tab.grad[3], 0)
        assert np.allclose(tab.grad[2], 2.0)  # looked up twice

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids_shape, ids_dtype", [((40,), np.int64), ((32, 17), np.int32)],
                             ids=["1d", "batch"])
    def test_embed_grad_equals_row_scatter(self, rng, dtype, ids_shape, ids_dtype):
        """The table gradient is the 2-D row scatter's to the bit. The ids
        repeat (6 of 9 rows, the rest never looked up) and the upstream
        values span six orders of magnitude, so an order of addition other
        than the row scatter's would show."""
        d = 16
        ids = rng.integers(0, 6, size=ids_shape).astype(ids_dtype)
        g = (arr(rng, *ids_shape, d) * 10.0 ** rng.uniform(-3, 3, (*ids_shape, 1))).astype(dtype)
        tab = Tensor(arr(rng, 9, d).astype(dtype), requires_grad=True)
        backward(ad.tsum(ad.mul_const(ad.embed(tab, ids), g)))
        want = embed_grad_reference(tab.data, ids, g)
        assert tab.grad.dtype == dtype
        assert tab.grad.tobytes() == want.tobytes()
        assert not want[6:].any()

    def test_indivisible_heads(self, rng):
        params = {k: Tensor(arr(rng, 6, 6)) for k in ("wk", "wv")}
        params.update({k: Tensor(arr(rng, 6)) for k in ("bk", "bv")})
        x = Tensor(arr(rng, 2, 5, 6))
        with pytest.raises(IndivisibleHeads):
            ad.kv_heads(x, x, 4, params)


class TestAttentionGrads:
    def test_scaled_dot_with_mask(self, rng):
        mask = np.zeros((1, 3, 3))
        mask[:, 0, 2] = ad.NEG_INF
        mask[:, 1, 0] = ad.NEG_INF
        w = arr(rng, 2, 3, 4)
        fn = lambda t: ad.tsum(ad.mul(
            ad.scaled_dot_attention(t["q"], t["k"], t["v"], mask=mask), Tensor(w)))
        got = gradcheck(fn, {"q": arr(rng, 2, 3, 4), "k": arr(rng, 2, 3, 4),
                             "v": arr(rng, 2, 3, 4)})
        assert got < TOL

    def test_masked_positions_get_no_weight(self, rng):
        mask = np.zeros((1, 4, 4))
        mask[:, :, 3] = ad.NEG_INF
        cap = []
        ad.scaled_dot_attention(Tensor(arr(rng, 1, 4, 4)), Tensor(arr(rng, 1, 4, 4)),
                                Tensor(arr(rng, 1, 4, 4)), mask=mask, capture=cap)
        assert cap[0]["probs"][..., 3].max() < 1e-9
        assert cap[0]["all_masked_rows"] == 0

    def test_fully_masked_row_zero_output(self, rng):
        mask = np.zeros((1, 2, 3))
        mask[:, 1, :] = ad.NEG_INF
        cap = []
        out = ad.scaled_dot_attention(Tensor(arr(rng, 1, 2, 4)), Tensor(arr(rng, 1, 3, 4)),
                                      Tensor(arr(rng, 1, 3, 4)), mask=mask, capture=cap)
        assert cap[0]["all_masked_rows"] == 1
        assert np.allclose(out.data[0, 1], 0.0)

    def test_head_broadcast_mask_blocked_row(self, rng):
        """A (B, 1, q, n) mask shared by the heads acts as its broadcast copy:
        the blocked row is zero in every head and counts once per head."""
        b, heads, q, n = 2, 3, 4, 5
        mask = np.zeros((b, 1, q, n))
        mask[..., 3:] = ad.NEG_INF
        mask[1, 0, 1, :] = ad.NEG_INF
        qkv = [Tensor(arr(rng, b, heads, t, 4)) for t in (q, n, n)]
        cap = []
        shared = ad.scaled_dot_attention(*qkv, mask=mask, capture=cap)
        full = ad.scaled_dot_attention(*qkv, mask=np.broadcast_to(mask, (b, heads, q, n)),
                                       capture=cap)
        assert cap[0]["all_masked_rows"] == cap[1]["all_masked_rows"] == heads
        assert np.array_equal(shared.data, full.data)
        assert np.array_equal(shared.data[1, :, 1], np.zeros((heads, 4)))
        assert np.abs(shared.data[1, :, 0]).min() > 0

    def test_multi_head_attention_full(self, rng):
        d, heads = 8, 2
        names = ["wq", "wk", "wv", "wo"]
        weights = {n: 0.3 * arr(rng, d, d) for n in names}
        weights |= {f"b{n[1]}": 0.1 * arr(rng, d) for n in names}
        mask = np.zeros((1, 1, 3, 3))
        mask[..., 0, 1:] = ad.NEG_INF
        readout = arr(rng, 2, 3, d)

        def fn(t):
            params = {n: t[n] for n in weights}
            y = ad.multi_head_attention(t["x"], t["x"], t["x"], mask, heads, params)
            return ad.tsum(ad.mul(y, Tensor(readout)))

        inputs = {"x": 0.5 * arr(rng, 2, 3, d)} | weights
        assert gradcheck(fn, inputs) < TOL

    def test_attention_shape_errors(self, rng):
        with pytest.raises(ShapeMismatch):
            ad.scaled_dot_attention(Tensor(arr(rng, 1, 2, 4)), Tensor(arr(rng, 1, 2, 5)),
                                    Tensor(arr(rng, 1, 2, 5)))
        with pytest.raises(ShapeMismatch):
            ad.scaled_dot_attention(Tensor(arr(rng, 1, 2, 4)), Tensor(arr(rng, 1, 3, 4)),
                                    Tensor(arr(rng, 1, 2, 4)))


class TestLossGrads:
    def test_smoothed_sum_matches_reference(self, rng):
        from oracles import smoothed_ce_reference
        logits = arr(rng, 2, 5, 7)
        targets = rng.integers(0, 7, size=(2, 5))
        targets[0, 3] = 99
        vec, n = ad.smoothed_nll_per_position(Tensor(logits), targets, smoothing=0.1,
                                              ignore_id=99)
        want_mean, want_n = smoothed_ce_reference(logits, targets, 0.1, 99)
        assert n == want_n == 9
        assert ad.tsum(vec).item() / n == pytest.approx(want_mean, abs=1e-12)

    def test_cross_entropy_gradcheck(self, rng):
        targets = np.array([[1, 3, 0], [2, 2, 5]])
        cfg = LossConfig(variant=LossVariant.PLAIN_CE, smoothing=0.1, ignore_id=99)
        fn = lambda t: compute_loss(t["x"], targets, cfg)
        assert gradcheck(fn, {"x": arr(rng, 2, 3, 6)}) < TOL

    def test_ignored_positions_get_zero_grad(self, rng):
        logits = Tensor(arr(rng, 2, 3, 5), requires_grad=True)
        targets = np.array([[1, 9, 2], [9, 9, 0]])
        vec, n = ad.smoothed_nll_per_position(logits, targets, smoothing=0.1, ignore_id=9)
        assert n == 3
        backward(ad.tsum(vec))
        assert np.allclose(logits.grad[0, 1], 0)
        assert np.allclose(logits.grad[1, :2], 0)
        assert not np.allclose(logits.grad[0, 0], 0)

    def test_per_position_matches_sum(self, rng):
        # entry i is the smoothed NLL of the i-th kept position, row-major
        from oracles import smoothed_ce_reference
        logits = arr(rng, 3, 4, 6)
        targets = rng.integers(0, 6, size=(3, 4))
        vec, n = ad.smoothed_nll_per_position(Tensor(logits), targets, smoothing=0.1)
        assert n == 12 and vec.data.shape == (12,)
        for i, (b, t) in enumerate(np.ndindex(3, 4)):
            want, _ = smoothed_ce_reference(logits[b, t], targets[b, t], 0.1, None)
            assert vec.data[i] == pytest.approx(want, abs=1e-12)

    def test_per_position_gradcheck(self, rng):
        targets = np.array([[1, 0], [2, 3]])
        w = np.abs(arr(rng, 4)) + 0.5
        fn = lambda t: ad.tsum(ad.mul(
            ad.smoothed_nll_per_position(t["x"], targets, smoothing=0.05)[0], Tensor(w)))
        assert gradcheck(fn, {"x": arr(rng, 2, 2, 5)}) < TOL

    def test_all_ignored_raises(self, rng):
        with pytest.raises(AllIgnored):
            ad.smoothed_nll_per_position(Tensor(arr(rng, 1, 2, 4)), np.array([[7, 7]]),
                                         ignore_id=7)

    def test_bad_smoothing(self, rng):
        with pytest.raises(InvalidProbability):
            ad.smoothed_nll_per_position(Tensor(arr(rng, 1, 1, 4)), np.array([[0]]),
                                         smoothing=1.0)


class TestEngine:
    def test_diamond_reuse(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        backward(ad.tsum(y))
        assert np.allclose(x.grad, 2 * x.data + 1)

    def test_backward_twice_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        assert np.allclose(x.grad, 2 * first)

    def test_leaf_grads_own_their_arrays(self):
        """``add`` hands one gradient array to both leaves; each keeps its own."""
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        loss = ad.tsum(ad.add(a, b))
        backward(loss)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[...] = 100.0
        assert np.array_equal(b.grad, [1.0, 1.0])
        backward(loss)  # the graph is as it was: one more contribution each
        assert np.array_equal(a.grad, [101.0, 101.0])
        assert np.array_equal(b.grad, [2.0, 2.0])

    def test_leaf_grads_sum_micro_batches(self):
        """A loss summed over two micro-batches gives each leaf the sum of
        both contributions, in an array no other leaf shares."""
        w = Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), name="w")
        bias = Parameter(np.array([0.0, 1.0]), name="b")
        x1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        x2 = np.array([[-1.0, 0.5]])
        loss = ad.add(ad.tsum(ad.linear(Tensor(x1), w, bias)),
                      ad.tsum(ad.linear(Tensor(x2), w, bias)))
        backward(loss)
        col = (x1.sum(axis=0) + x2.sum(axis=0))[:, None]
        assert np.array_equal(w.grad, np.repeat(col, 2, axis=1))
        assert np.array_equal(bias.grad, [3.0, 3.0])
        assert not np.shares_memory(w.grad, bias.grad)
        w.grad[...] = 0.0
        assert np.array_equal(bias.grad, [3.0, 3.0])

    def test_interior_grads_not_retained(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = ad.mul(x, x)
        backward(ad.tsum(mid))
        assert mid.grad is None and x.grad is not None

    def test_separate_graphs_accumulate(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(ad.tsum(ad.scale(x, 3.0)))
        backward(ad.tsum(ad.scale(x, 4.0)))
        assert np.allclose(x.grad, 7.0)

    def test_no_grad_detaches(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        with pytest.raises(DetachedGraph):
            backward(y)

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            backward(ad.mul(x, x))

    def test_constant_leaf_untouched(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))
        backward(ad.tsum(ad.mul(x, c)))
        assert c.grad is None and np.allclose(x.grad, 5.0)

    def test_zero_grads(self):
        p = Parameter(np.ones(3), name="p")
        backward(ad.tsum(ad.mul(p, p)))
        ad.zero_grads([p])
        assert p.grad is None

    def test_parameter_metadata(self):
        p = Parameter(np.zeros((2, 2)), name="blk.w")
        assert p.name == "blk.w" and p.requires_grad

    def test_operator_sugar(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = ad.tsum((x + 1.0) * 2.0 + x * -1.0)
        backward(y)
        assert np.allclose(x.grad, 1.0)
        assert y.item() == pytest.approx((2 * (1 + 1) - 1) + (2 * (-2 + 1) + 2))


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(arr(rng, 4, 4))
        assert ad.dropout(x, 0.5) is x
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_train_mode_mask_and_scale(self, rng):
        x = Tensor(np.ones((200, 200)), requires_grad=True)
        gen = np.random.default_rng(3)
        y = ad.dropout(x, 0.25, gen)
        vals = np.unique(np.round(y.data, 6))
        assert set(vals.tolist()) <= {0.0, round(1 / 0.75, 6)}
        drop_rate = float((y.data == 0).mean())
        assert abs(drop_rate - 0.25) < 0.02
        backward(ad.tsum(y))
        assert np.array_equal(x.grad != 0, y.data != 0)
        # the mask is drawn at x's shape: one double per element
        assert gen.random() == np.random.default_rng(3).random(x.data.size + 1)[-1]

    def test_invalid_probability(self, rng):
        with pytest.raises(InvalidProbability):
            ad.dropout(Tensor(arr(rng, 2)), 1.0, np.random.default_rng(0))
        with pytest.raises(InvalidProbability):
            ad.dropout(Tensor(arr(rng, 2)), -0.1)


@given(hnp.arrays(np.float64, (3, 7),
                  elements=st.floats(-30, 30, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_are_distributions(x):
    out = ad.softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0) and np.all(out <= 1)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@given(hnp.arrays(np.float64, (2, 9),
                  elements=st.floats(-5, 5, allow_nan=False)).filter(
                      lambda a: np.std(a, axis=-1).min() > 0.1))
@settings(max_examples=60, deadline=None)
def test_layer_norm_standardizes(x):
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(9)), Tensor(np.zeros(9))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)
