"""Modulated sequence loss: exact values, variants, and window combining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import focal_reference, smoothed_ce_reference

from taxseq import autodiff as ad
from taxseq.autodiff import Tensor, backward
from taxseq.codec import PAD_ID
from taxseq.errors import ConfigError
from taxseq.loss import (LossConfig, LossVariant, combine_pieces,
                         compute_loss, loss_pieces)


def uniform_two_class_logits(n_cls: int = 2):
    """Logits whose smoothed-free CE is exactly ln(n_cls) per position."""
    return np.zeros((1, 1, n_cls))


def random_batch(rng, b=2, t=5, v=9, pads=True):
    logits = rng.standard_normal((b, t, v))
    targets = rng.integers(0, v, size=(b, t))
    if pads:
        targets[0, -1] = PAD_ID
        targets[1, -2:] = PAD_ID
    return logits, targets


class TestExactValues:
    def test_ln2_case_with_gamma_two(self):
        # uniform two-class logits: ce = ln 2, loss = (1 - 1/2)^2 * ln 2
        cfg = LossConfig(gamma=2.0, smoothing=0.0)
        loss = compute_loss(Tensor(uniform_two_class_logits()), np.array([[0]]), cfg)
        assert loss.item() == pytest.approx(0.25 * math.log(2.0), abs=1e-6)

    def test_matches_focal_formula(self, rng):
        logits, targets = random_batch(rng)
        cfg = LossConfig(gamma=2.0, smoothing=0.1)
        ce, _ = smoothed_ce_reference(logits, targets, 0.1, PAD_ID)
        loss = compute_loss(Tensor(logits), targets, cfg)
        assert loss.item() == pytest.approx(focal_reference(ce, 2.0), rel=1e-9)

    def test_gamma_zero_bit_exact_plain(self, rng):
        logits, targets = random_batch(rng)
        focal0 = compute_loss(Tensor(logits), targets,
                              LossConfig(gamma=0.0, smoothing=0.1))
        plain = compute_loss(Tensor(logits), targets,
                             LossConfig(variant=LossVariant.PLAIN_CE, smoothing=0.1))
        assert focal0.item() == plain.item()

    def test_gamma_zero_gradient_matches_plain(self, rng):
        logits, targets = random_batch(rng)
        a = Tensor(logits, requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        backward(compute_loss(a, targets, LossConfig(gamma=0.0, smoothing=0.1)))
        backward(compute_loss(b, targets,
                              LossConfig(variant=LossVariant.PLAIN_CE, smoothing=0.1)))
        assert np.array_equal(a.grad, b.grad)

    def test_modulation_shrinks_easy_batches(self):
        # ce below ~1.26 is damped; far above it stays close to ce
        for ce in (0.01, 0.1, 0.5, 1.0):
            t = ad.Tensor(np.array([ce]))
            cfg = LossConfig(gamma=2.0)
            out = combine_pieces(t, 1, cfg)
            assert out.item() < ce
        big = combine_pieces(ad.Tensor(np.array([8.0])), 1, LossConfig(gamma=2.0))
        assert big.item() == pytest.approx(8.0, rel=1e-3)

    @given(st.floats(1e-4, 12.0), st.floats(1e-4, 12.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_ce(self, a, b):
        lo, hi = sorted((a, b))
        cfg = LossConfig(gamma=2.0)
        f_lo = combine_pieces(ad.Tensor(np.array([lo])), 1, cfg).item()
        f_hi = combine_pieces(ad.Tensor(np.array([hi])), 1, cfg).item()
        assert f_lo <= f_hi + 1e-15


class TestVariants:
    def test_per_token_equals_batch_on_single_position(self, rng):
        logits = rng.standard_normal((1, 1, 7))
        targets = np.array([[3]])
        per_tok = compute_loss(Tensor(logits), targets,
                               LossConfig(variant=LossVariant.FOCAL_PER_TOKEN))
        batch = compute_loss(Tensor(logits), targets, LossConfig())
        assert per_tok.item() == pytest.approx(batch.item(), rel=1e-12)

    def test_per_token_reference(self, rng):
        logits, targets = random_batch(rng)
        cfg = LossConfig(variant=LossVariant.FOCAL_PER_TOKEN, gamma=2.0, smoothing=0.1)
        got = compute_loss(Tensor(logits), targets, cfg).item()
        flat_l = logits.reshape(-1, logits.shape[-1])
        flat_t = targets.reshape(-1)
        vals = []
        for row, t in zip(flat_l, flat_t):
            if t == PAD_ID:
                continue
            ce, _ = smoothed_ce_reference(row.reshape(1, 1, -1), np.array([[t]]),
                                          0.1, PAD_ID)
            vals.append(focal_reference(ce, 2.0))
        assert got == pytest.approx(float(np.mean(vals)), rel=1e-9)

    def test_plain_matches_reference(self, rng):
        logits, targets = random_batch(rng)
        cfg = LossConfig(variant=LossVariant.PLAIN_CE, smoothing=0.1)
        want, _ = smoothed_ce_reference(logits, targets, 0.1, PAD_ID)
        assert compute_loss(Tensor(logits), targets, cfg).item() == pytest.approx(
            want, rel=1e-12)

    def test_per_token_differs_from_batch_generally(self, rng):
        logits, targets = random_batch(rng, b=3, t=6)
        a = compute_loss(Tensor(logits), targets, LossConfig()).item()
        b = compute_loss(Tensor(logits), targets,
                         LossConfig(variant=LossVariant.FOCAL_PER_TOKEN)).item()
        assert a != pytest.approx(b, rel=1e-6)


def window_loss(pieces, cfg):
    """The objective of two micro-batch pieces: their terms summed with
    ``ad.add``, their counts added."""
    (term_a, n_a), (term_b, n_b) = pieces
    return combine_pieces(ad.add(term_a, term_b), n_a + n_b, cfg)


class TestWindowCombining:
    def test_two_pieces_equal_one_big_batch(self, rng):
        for variant in LossVariant:
            logits, targets = random_batch(rng, b=4, t=5)
            cfg = LossConfig(variant=variant)
            whole = compute_loss(Tensor(logits), targets, cfg).item()
            pieces = [loss_pieces(Tensor(logits[:2]), targets[:2], cfg),
                      loss_pieces(Tensor(logits[2:]), targets[2:], cfg)]
            assert window_loss(pieces, cfg).item() == pytest.approx(whole, rel=1e-12)

    def test_uneven_pad_counts_are_weighted_correctly(self, rng):
        logits, targets = random_batch(rng, b=2, t=6, pads=False)
        targets[0, 2:] = PAD_ID  # 2 live positions vs 6 in the other row
        cfg = LossConfig()
        whole = compute_loss(Tensor(logits), targets, cfg).item()
        pieces = [loss_pieces(Tensor(logits[:1]), targets[:1], cfg),
                  loss_pieces(Tensor(logits[1:]), targets[1:], cfg)]
        assert pieces[0][1] == 2 and pieces[1][1] == 6
        assert window_loss(pieces, cfg).item() == pytest.approx(whole, rel=1e-12)

    def test_gradients_match_big_batch(self, rng):
        logits, targets = random_batch(rng, b=4, t=4)
        cfg = LossConfig()
        whole = Tensor(logits, requires_grad=True)
        backward(compute_loss(whole, targets, cfg))
        half_a = Tensor(logits[:2], requires_grad=True)
        half_b = Tensor(logits[2:], requires_grad=True)
        pieces = [loss_pieces(half_a, targets[:2], cfg),
                  loss_pieces(half_b, targets[2:], cfg)]
        backward(window_loss(pieces, cfg))
        got = np.concatenate([half_a.grad, half_b.grad], axis=0)
        assert np.allclose(got, whole.grad, atol=1e-12)


class TestConfig:
    def test_string_variant_coerced(self):
        assert LossConfig(variant="plain_ce").variant is LossVariant.PLAIN_CE

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            LossConfig(variant="quadratic")

    def test_negative_gamma(self):
        with pytest.raises(ConfigError):
            LossConfig(gamma=-1.0)

    def test_bad_smoothing(self):
        with pytest.raises(ConfigError):
            LossConfig(smoothing=1.0)

    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.variant is LossVariant.FOCAL_BATCH
        assert cfg.gamma == 2.0 and cfg.smoothing == 0.1 and cfg.ignore_id == PAD_ID
