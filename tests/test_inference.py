"""Greedy and beam generation of label sequences."""

import math

import numpy as np
import pytest

from oracles import beam_search_reference, log_softmax_reference

from taxseq import autodiff as ad
from taxseq.autodiff import Tensor, no_grad
from taxseq.codec import BOS_ID, EOS_ID, PAD_ID, SEP_ID, Ordering, capacity_for
from taxseq.corpus import Sample
from taxseq.decoder import DecodeCache, DecoderConfig
from taxseq.encoder import EncoderConfig, TextVocab
from taxseq.errors import ConfigError, ShapeMismatch
from taxseq.inference import (Prediction, beam_decode_ids, greedy_decode,
                              greedy_decode_ids, predict_prepared,
                              predict_texts)
from taxseq.loss import LossConfig
from taxseq.model import ModelBundle
from taxseq.taxonomy import ROOT, LabelHierarchy
from taxseq.trainer import TrainConfig, evaluate_epoch, prepare_data, train

SAMPLES = [
    Sample("s0", "bat ball bat", {"A", "B"}),
    Sample("s1", "ball bat ball", {"A", "B"}),
    Sample("s2", "cold snow ice", {"A", "C"}),
    Sample("s3", "snow ice cold", {"A", "C"}),
    Sample("s4", "drum drum tune", {"D"}),
    Sample("s5", "tune drum tune", {"D"}),
    Sample("s6", "bat ice bat", {"A", "B"}),
    Sample("s7", "snow cold snow", {"A", "C"}),
]


def tiny_bundle(seed=0, ordering=Ordering.CHILD_TO_PARENT):
    h = LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])
    cap = capacity_for([s.labels for s in SAMPLES], h, strategy=ordering)
    enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6, dropout=0.0)
    dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, dropout=0.0,
                            max_positions=8)
    tv = TextVocab.build([s.text for s in SAMPLES])
    return ModelBundle.build(h, ordering, cap, enc_cfg, dec_cfg, seed=seed,
                             text_vocab=tv)


def golden_bundle():
    """A seeded two-layer model whose decoder weights are scaled up, so that
    its decoded ids depend on the encoder states (at the initial scale every
    row decodes the same)."""
    h = LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])
    enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6, dropout=0.0)
    dec_cfg = DecoderConfig(d_model=16, layers=2, heads=4, dropout=0.0,
                            max_positions=10)
    tv = TextVocab.build([s.text for s in SAMPLES])
    bundle = ModelBundle.build(h, Ordering.PATH_SEPARATED, 10, enc_cfg, dec_cfg,
                               seed=5, text_vocab=tv)
    for p in bundle.dec_params.values():
        if p.data.ndim == 2:
            p.data *= 15
    return bundle


# texts of 1 to 5 words under a max_len of 8: every batch is cut, by different widths
MIXED = [
    Sample("m0", "bat", {"A", "B"}),
    Sample("m1", "cold snow", {"A", "C"}),
    Sample("m2", "drum tune drum tune drum", {"D"}),
    Sample("m3", "ball bat ball", {"A", "B"}),
    Sample("m4", "snow ice cold snow", {"A", "C"}),
    Sample("m5", "tune", {"D"}),
    Sample("m6", "bat ice", {"A", "B"}),
    Sample("m7", "cold snow ice", {"A", "C"}),
]


def mixed_bundle(dropout=0.0):
    """A seeded model over ``MIXED`` with max_len 8, its decoder weights
    scaled up so that decoded ids differ between texts."""
    h = LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])
    enc_cfg = EncoderConfig(d_model=16, layers=2, heads=2, max_len=8, dropout=dropout)
    dec_cfg = DecoderConfig(d_model=16, layers=2, heads=4, dropout=dropout,
                            max_positions=10)
    tv = TextVocab.build([s.text for s in MIXED])
    bundle = ModelBundle.build(h, Ordering.PATH_SEPARATED, 10, enc_cfg, dec_cfg,
                               seed=9, text_vocab=tv)
    for p in bundle.dec_params.values():
        if p.data.ndim == 2:
            p.data *= 15
    return bundle


def last_used_width(mask) -> int:
    return int(np.flatnonzero(np.asarray(mask).any(axis=0))[-1]) + 1


def golden_inputs():
    rng = np.random.default_rng(2024)
    hidden = rng.standard_normal((5, 6, 16)).astype(np.float32)
    emask = np.ones((5, 6), dtype=np.int8)
    emask[1, 3:] = 0
    emask[4, 2:] = 0
    return hidden, emask


def rig_constant_logits(bundle, favored_id, margin=5.0):
    """Zero the output head except a constant bias toward one token."""
    bundle.dec_params["out.w"].data[:] = 0.0
    bundle.dec_params["out.b"].data[:] = 0.0
    bundle.dec_params["out.b"].data[favored_id] = margin


def consumed_ids(cache, label_ids, label_mask):
    """Feed a fake decoder step to ``cache``; return each row's ids so far.

    The ids ride in the cache as layer 0's self-attention keys (one head of
    width 1), so ``select`` keeps and reorders them with the rows and
    ``truncate`` drops them, as it does real keys.
    """
    label_ids = np.atleast_2d(label_ids)
    rows, n = label_ids.shape
    if not cache.self_kv:
        cache.open(rows, 64, layers=1, heads=1, d_h=1, dtype=np.float32)
    start = cache.length
    cache.feed(np.atleast_2d(label_mask))
    keys = cache.self_kv[0][0]
    keys[:, 0, start:start + n, 0] = label_ids
    return keys[:, 0, :cache.length, 0].astype(np.int64)


def script_decoder(bundle, table):
    """Replace the decoder step with a prefix->log-prob lookup table.

    The prefix of each row is read from the ids the step's cache has
    consumed, PADs stripped; each new position answers for its own prefix.
    """
    vsize = bundle.vocab.size

    def fake_logits(label_ids, label_mask, enc_hidden, enc_mask,
                    rng=None, capture_cross=None, cache=None):
        label_ids = np.atleast_2d(label_ids)
        n = label_ids.shape[1]
        out = np.full((label_ids.shape[0], n, vsize), -30.0)
        for i, row in enumerate(consumed_ids(cache, label_ids, label_mask)):
            for j in range(n):
                prefix = tuple(int(t) for t in row[:len(row) - n + j + 1] if t != PAD_ID)
                probs = np.full(vsize, 1e-9)
                for tok, p in table.get(prefix, {EOS_ID: 1.0}).items():
                    probs[tok] = p
                out[i, j, :] = np.log(probs / probs.sum())
        return Tensor(out)

    bundle.decoder_logits = fake_logits


def fake_encoding(rng, b=1, t=3, d=16):
    return (rng.standard_normal((b, t, d)).astype(np.float32),
            np.ones((b, t), dtype=np.int8))


class TestGreedy:
    def test_immediate_eos_gives_length_two(self, rng):
        bundle = tiny_bundle()
        rig_constant_logits(bundle, EOS_ID)
        hidden, mask = fake_encoding(rng, b=3)
        ids, hit = greedy_decode_ids(bundle, hidden, mask)
        assert ids == [[BOS_ID, EOS_ID]] * 3
        assert hit == [False, False, False]

    def test_capacity_bound_when_eos_never_comes(self, rng):
        bundle = tiny_bundle()
        rig_constant_logits(bundle, SEP_ID)
        hidden, mask = fake_encoding(rng)
        ids, hit = greedy_decode_ids(bundle, hidden, mask)
        assert len(ids[0]) == bundle.capacity
        assert hit == [True]
        assert EOS_ID not in ids[0]

    def test_tie_breaks_to_lowest_token_id(self, rng):
        bundle = tiny_bundle()
        bundle.dec_params["out.w"].data[:] = 0.0
        bundle.dec_params["out.b"].data[:] = 0.0  # all logits equal
        hidden, mask = fake_encoding(rng)
        ids, hit = greedy_decode_ids(bundle, hidden, mask)
        assert ids[0] == [BOS_ID] * bundle.capacity
        assert hit == [True]

    def test_batched_equals_sequential(self, rng):
        bundle = tiny_bundle(seed=3)
        hidden, mask = fake_encoding(rng, b=6)
        batch_ids, batch_hit = greedy_decode_ids(bundle, hidden, mask)
        for i in range(6):
            one_ids, one_hit = greedy_decode_ids(bundle, hidden[i], mask[i])
            assert one_ids[0] == batch_ids[i]
            assert one_hit[0] == batch_hit[i]

    def test_batched_equals_sequential_across_feed_forward_blocks(self, rng, monkeypatch):
        """Gate 10's inputs fit one feed-forward block. A decode step's
        hidden is ff_dim floats a row, so at ff_dim 8192 a batch of 20 runs
        in blocks of 8, 8 and 4 rows; each row must still decode as alone."""
        h = LabelHierarchy.from_edges(
            [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6, dropout=0.0)
        dec_cfg = DecoderConfig(d_model=16, layers=2, heads=4, dropout=0.0,
                                max_positions=10, ff_dim=8192)
        bundle = ModelBundle.build(h, Ordering.PATH_SEPARATED, 10, enc_cfg, dec_cfg,
                                   seed=5, text_vocab=TextVocab.build(["bat"]))
        for p in bundle.dec_params.values():
            if p.data.ndim == 2:
                p.data *= 15
        rows = []
        gelu = ad._gelu

        def spy(v):
            rows.append(v.size // v.shape[-1])
            return gelu(v)

        monkeypatch.setattr(ad, "_gelu", spy)
        hidden, mask = fake_encoding(rng, b=20, t=4)
        batch_ids, batch_hit = greedy_decode_ids(bundle, hidden, mask)
        assert rows[:3] == [8, 8, 4]
        assert max(rows) == 8
        assert len({tuple(ids) for ids in batch_ids}) > 1
        for i in range(20):
            one_ids, one_hit = greedy_decode_ids(bundle, hidden[i], mask[i])
            assert one_ids[0] == batch_ids[i]
            assert one_hit[0] == batch_hit[i]

    def test_mixed_lengths_in_one_batch(self, rng):
        bundle = tiny_bundle()
        table = {
            (BOS_ID,): {4: 0.9, EOS_ID: 0.1},
            (BOS_ID, 4): {EOS_ID: 0.9, 5: 0.1},
        }
        script_decoder(bundle, table)
        # second sample: same scripted net, still fine batched with first
        ids, hit = greedy_decode_ids(bundle, np.zeros((2, 3, 16), np.float32),
                                     np.ones((2, 3), np.int8))
        assert ids[0] == ids[1] == [BOS_ID, 4, EOS_ID]
        assert hit == [False, False]

    @pytest.mark.parametrize("model, calls", [
        ("ADE", [(1, 1), (1, 1), (1, 3), (1, 1)]),
        ("DSE", [(1, 1), (1, 1), (1, 3), (1, 1), (1, 1)]),
    ], ids=["agrees-then-differs", "differs-at-once"])
    def test_draft_keeps_agreeing_prefix_then_model_token(self, rng, model, calls):
        """After B and SEP the hierarchy drafts A, SEP, EOS, checked in one
        call that feeds SEP, A, SEP. The row keeps the part of the draft the
        model agrees with and the model's token where it differs, the cache
        drops the later positions, and the ids are those the table gives
        one token at a time."""
        bundle = tiny_bundle()
        tok = {"A": bundle.vocab.id_of("A"), "D": bundle.vocab.id_of("D"),
               "S": SEP_ID, "E": EOS_ID}
        b = bundle.vocab.id_of("B")
        want = [BOS_ID, b, SEP_ID] + [tok[c] for c in model]
        table = {tuple(want[:i]): {want[i]: 0.9} for i in range(1, len(want))}
        script_decoder(bundle, table)
        got = count_decoder_calls(bundle)
        ids, hit = greedy_decode_ids(bundle, np.zeros((1, 3, 16), np.float32),
                                     np.ones((1, 3), np.int8))
        assert ids == [want] and hit == [False]
        assert got == calls

    def test_termination_always_within_capacity(self, rng):
        bundle = tiny_bundle(seed=9)
        for trial in range(8):
            hidden, mask = fake_encoding(rng, b=4)
            ids, hit = greedy_decode_ids(bundle, hidden, mask)
            for row, flag in zip(ids, hit):
                assert len(row) <= bundle.capacity
                assert flag == (row[-1] != EOS_ID)

    def test_prediction_objects(self, rng):
        bundle = tiny_bundle()
        rig_constant_logits(bundle, EOS_ID)
        hidden, mask = fake_encoding(rng, b=2)
        preds = greedy_decode(bundle, hidden, mask, sample_ids=["u", "v"])
        assert [p.sample_id for p in preds] == ["u", "v"]
        assert all(isinstance(p, Prediction) for p in preds)
        assert preds[0].labels == set() and preds[0].groups == []
        assert preds[0].diagnostics["unknown_structure"] == 0
        assert not preds[0].hit_max_len


class TestBeam:
    def test_width_one_equals_greedy_scripted(self, rng):
        bundle = tiny_bundle()
        table = {
            (BOS_ID,): {4: 0.5, 5: 0.3, EOS_ID: 0.2},
            (BOS_ID, 4): {5: 0.6, EOS_ID: 0.4},
            (BOS_ID, 4, 5): {EOS_ID: 0.99},
            (BOS_ID, 5): {EOS_ID: 0.99},
        }
        script_decoder(bundle, table)
        hidden = np.zeros((3, 16), np.float32)
        mask = np.ones(3, np.int8)
        greedy_ids, _ = greedy_decode_ids(bundle, hidden, mask)
        assert beam_decode_ids(bundle, hidden, mask, beam_width=1) == greedy_ids[0]

    def test_width_one_equals_greedy_many_random_models(self, rng):
        for seed in range(10):
            bundle = tiny_bundle(seed=seed)
            hidden, mask = fake_encoding(rng)
            greedy_ids, _ = greedy_decode_ids(bundle, hidden, mask)
            beam_ids = beam_decode_ids(bundle, hidden, mask, beam_width=1)
            assert beam_ids == greedy_ids[0], seed

    def test_wider_beam_recovers_better_normalized_path(self, rng):
        bundle = tiny_bundle()
        table = {
            (BOS_ID,): {4: 0.50, 5: 0.49, EOS_ID: 0.01},
            (BOS_ID, 4): {5: 0.2, EOS_ID: 0.05, 6: 0.15},
            (BOS_ID, 4, 5): {EOS_ID: 0.99},
            (BOS_ID, 4, 6): {EOS_ID: 0.99},
            (BOS_ID, 5): {EOS_ID: 0.99},
        }
        script_decoder(bundle, table)
        hidden = np.zeros((3, 16), np.float32)
        mask = np.ones(3, np.int8)
        greedy_ids, _ = greedy_decode_ids(bundle, hidden, mask)
        assert greedy_ids[0][:2] == [BOS_ID, 4]  # locally best first step
        best = beam_decode_ids(bundle, hidden, mask, beam_width=2)
        assert best == [BOS_ID, 5, EOS_ID]
        # hand-check the normalized scores that drive that choice
        s_greedy = (math.log(0.50) + math.log(0.2 / 0.4) + math.log(0.99)) / 3
        s_beam = (math.log(0.49) + math.log(0.99)) / 2
        assert s_beam > s_greedy

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_equals_reference_search_on_random_models(self, rng, width):
        """The cached, early-stopping search returns the ids of a plain
        search that decodes each prefix from scratch with the teacher-forced
        pass. The models run in float64, so no rounding difference between
        the two decides a near tie."""
        calls_short = 0
        for seed in range(8):
            bundle = tiny_bundle(seed=seed)
            for p in bundle.dec_params.values():
                p.data = (p.data * (15 if p.data.ndim == 2 else 1)).astype(np.float64)
            hidden, mask = fake_encoding(rng)
            steps = set()

            def next_logp(ids):
                steps.add(len(ids))
                ids = np.asarray([ids])
                logits = bundle.decoder_logits(ids, (ids != PAD_ID).astype(np.int8), hidden,
                                               mask).data
                return log_softmax_reference(logits[0, -1])

            with no_grad():
                want = beam_search_reference(next_logp, bundle.capacity, width, BOS_ID, EOS_ID)
            calls = count_decoder_calls(bundle)
            assert beam_decode_ids(bundle, hidden, mask, beam_width=width) == [
                t for t in want if t != PAD_ID], seed
            assert len(calls) <= len(steps)
            calls_short += len(calls) < len(steps)
        if width > 1:
            assert calls_short  # the early stop fired on some model

    def test_early_stop_saves_calls_keeps_ids(self):
        """After two steps [BOS, 4, EOS] has finished at -0.31 a token, and
        the live beam's -1.61 spread over the 5 tokens of capacity is -0.32:
        no descendant can catch up, so the search stops there. Without the
        stop its SEP tokens would run to capacity."""
        bundle = tiny_bundle()
        assert bundle.capacity == 6
        table = {(BOS_ID,): {4: 0.6, 5: 0.4},
                 (BOS_ID, 4): {EOS_ID: 0.9, 6: 0.1},
                 (BOS_ID, 5): {SEP_ID: 0.5, 6: 0.5}}
        table |= {(BOS_ID, 5) + (SEP_ID,) * n: {SEP_ID: 0.99} for n in range(1, 6)}
        script_decoder(bundle, table)

        def next_logp(ids):
            probs = np.full(bundle.vocab.size, 1e-9)
            for tok, p in table.get(tuple(ids), {EOS_ID: 1.0}).items():
                probs[tok] = p
            return log_softmax_reference(np.log(probs / probs.sum()))

        want = beam_search_reference(next_logp, bundle.capacity, 2, BOS_ID, EOS_ID)
        assert want == [BOS_ID, 4, EOS_ID]
        calls = count_decoder_calls(bundle)
        hidden, mask = np.zeros((3, 16), np.float32), np.ones(3, np.int8)
        assert beam_decode_ids(bundle, hidden, mask, beam_width=2) == want
        assert len(calls) == 2 < bundle.capacity - 1

    def test_beam_terminates_and_validates_width(self, rng):
        bundle = tiny_bundle(seed=4)
        hidden, mask = fake_encoding(rng)
        for width in (1, 2, 3):
            ids = beam_decode_ids(bundle, hidden, mask, beam_width=width)
            assert ids[0] == BOS_ID and len(ids) <= bundle.capacity
        with pytest.raises(ConfigError):
            beam_decode_ids(bundle, hidden, mask, beam_width=0)


def step_inputs(rng, bundle, b=3, t=5):
    """Random full-length label rows with a PAD inside one prefix, plus
    encoder states with padded positions in two rows."""
    n = bundle.dec_cfg.max_positions
    ids = rng.integers(0, bundle.vocab.size, size=(b, n)).astype(np.int32)
    ids[:, 0] = BOS_ID
    ids[1, 2] = PAD_ID
    hidden = rng.standard_normal((b, t, 16)).astype(np.float32)
    emask = np.ones((b, t), dtype=np.int8)
    emask[0, 3:] = 0
    emask[2, 1:] = 0
    return ids, (ids != PAD_ID).astype(np.int8), hidden, emask


def count_decoder_calls(bundle):
    """Wrap ``decoder_logits`` to record the (rows, positions) of each call."""
    calls = []
    real = bundle.decoder_logits

    def counting(label_ids, label_mask, *args, **kwargs):
        calls.append(np.shape(label_ids))
        return real(label_ids, label_mask, *args, **kwargs)

    bundle.decoder_logits = counting
    return calls


def one_position_logits(bundle, ids, mask, hidden, emask, cache):
    """Feed ``ids`` to ``cache`` one position per call -> stacked logits."""
    return np.concatenate([
        bundle.decoder_logits(ids[:, t:t + 1], mask[:, t:t + 1], hidden, emask,
                              cache=cache).data
        for t in range(ids.shape[1])], axis=1)


def plain_greedy_ids(bundle, hidden, mask) -> list[int]:
    """Batch-1 greedy decoding with one decoder call per generated token."""
    seq, cache = [BOS_ID], DecodeCache()
    with no_grad():
        while len(seq) < bundle.capacity and seq[-1] != EOS_ID:
            ids = np.asarray([[seq[-1]]])
            logits = bundle.decoder_logits(ids, (ids != PAD_ID).astype(np.int8), hidden,
                                           mask, cache=cache).data
            seq.append(int(logits[0, -1].argmax()))
    return [t for t in seq if t != PAD_ID]


class TestBeamEncoderSide:
    def test_multi_row_encoder_side_raises(self, rng):
        """Beam search decodes one sample: three encoder rows used to give one
        sequence silently, as attention broadcast them."""
        bundle = tiny_bundle(seed=1)
        hidden, mask = fake_encoding(rng, b=3)
        with pytest.raises(ShapeMismatch, match="3 rows"):
            beam_decode_ids(bundle, hidden, mask, beam_width=2)
        with pytest.raises(ShapeMismatch):
            beam_decode_ids(bundle, hidden, mask[:1], beam_width=2)

    def test_one_row_forms_agree(self, rng):
        bundle = tiny_bundle(seed=1)
        hidden, mask = fake_encoding(rng, b=1)
        want = beam_decode_ids(bundle, hidden, mask, beam_width=3)
        assert beam_decode_ids(bundle, hidden[0], mask[0], beam_width=3) == want
        assert beam_decode_ids(bundle, Tensor(hidden), mask, beam_width=3) == want


class TestCachedStep:
    def test_step_logits_equal_truncated_teacher_forced_pass(self, rng):
        for seed in range(6):
            bundle = tiny_bundle(seed=seed)
            ids, mask, hidden, emask = step_inputs(rng, bundle)
            cache = DecodeCache()
            with no_grad():
                for t in range(ids.shape[1]):
                    step = bundle.decoder_logits(ids[:, t:t + 1], mask[:, t:t + 1],
                                                 hidden, emask, cache=cache).data
                    full = bundle.decoder_logits(ids[:, :t + 1], mask[:, :t + 1],
                                                 hidden, emask).data
                    np.testing.assert_allclose(step[:, 0], full[:, t], atol=1e-5,
                                               err_msg=f"seed {seed} t {t}")
            assert np.array_equal(cache.key_mask, mask != 0)

    def test_chunks_and_reordered_rows_match_teacher_forced_pass(self, rng):
        bundle = tiny_bundle(seed=7)
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        rows = np.array([2, 0, 0, 1])
        with no_grad():
            cache = DecodeCache()
            first = bundle.decoder_logits(ids[:, :3], mask[:, :3], hidden, emask,
                                          cache=cache).data
            cache.select(rows)
            rest = bundle.decoder_logits(ids[rows, 3:], mask[rows, 3:], hidden, emask,
                                         cache=cache).data
            full = bundle.decoder_logits(ids, mask, hidden, emask).data
        np.testing.assert_allclose(first, full[:, :3], atol=1e-5)
        np.testing.assert_allclose(rest, full[rows, 3:], atol=1e-5)

    @pytest.mark.parametrize("call", ["teacher-forced", "first cached", "later cached"])
    def test_row_count_mismatch_names_both_counts(self, rng, call):
        """Two label rows against a three-row encoder side, or a later call of
        two rows on a three-row cache, raise ``ShapeMismatch``."""
        bundle = tiny_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        cache = None if call == "teacher-forced" else DecodeCache()
        with no_grad():
            if call == "later cached":
                bundle.decoder_logits(ids[:, :1], mask[:, :1], hidden, emask, cache=cache)
            with pytest.raises(ShapeMismatch, match="3 rows.*2 label rows|2 label rows.*3 rows"):
                bundle.decoder_logits(ids[:2, 1:2], mask[:2, 1:2], hidden, emask, cache=cache)

    def test_select_keeps_one_row_encoder_side(self, rng):
        """A one-row encoder side stays the same arrays through ``select`` and
        serves every selected row; a multi-row one is selected."""
        bundle = tiny_bundle(seed=7)
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        rows = np.array([0, 0, 0])
        with no_grad():
            one = DecodeCache()
            bundle.decoder_logits(ids[:1, :2], mask[:1, :2], hidden[:1], emask[:1], cache=one)
            kv, cmask = one.cross_kv, one.cross_mask
            one.select(rows)
            assert one.cross_kv is kv and one.cross_mask is cmask
            assert one.cross_mask.shape[0] == 1 and one.key_mask.shape[0] == 3
            step = bundle.decoder_logits(ids[rows, 2:3], mask[rows, 2:3], hidden, emask,
                                         cache=one).data
            many = DecodeCache()
            bundle.decoder_logits(ids[:, :2], mask[:, :2], hidden, emask, cache=many)
            (k, v), cmask = many.cross_kv[0], many.cross_mask
            many.select([2, 0])
            assert np.array_equal(many.cross_kv[0][0], k[[2, 0]])
            assert np.array_equal(many.cross_kv[0][1], v[[2, 0]])
            assert np.array_equal(many.cross_mask, cmask[[2, 0]])
            full = bundle.decoder_logits(ids[:1, :3], mask[:1, :3], hidden[:1], emask[:1]).data
        np.testing.assert_allclose(step[:, 0], np.repeat(full[:, 2], 3, axis=0), atol=1e-5)

    def test_selected_rows_compute_batch_one_bits(self):
        """Rows kept by ``select`` from a multi-row encoder side give the bits
        each gives decoded alone, and an identity selection changes no bit:
        the kept cross keys and values stay (B, T, heads, d_h) rows, which
        the step reads through head-split views, not contiguous copies."""
        bundle = golden_bundle()
        kept, every = [1, 4], np.arange(5)
        for seed in range(10):
            ids, mask, hidden, emask = step_inputs(np.random.default_rng(seed), bundle, b=5)

            def first_call(rows):
                cache = DecodeCache()
                bundle.decoder_logits(ids[rows, :2], mask[rows, :2], hidden[rows],
                                      emask[rows], cache=cache)
                return cache

            def next_steps(rows, cache):
                return one_position_logits(bundle, ids[rows, 2:5], mask[rows, 2:5],
                                           hidden[rows], emask[rows], cache)

            with no_grad():
                cache = first_call(every)
                cache.select(kept)
                for x in cache.cross_kv[0]:
                    assert x.flags.c_contiguous
                    assert not x.swapaxes(1, 2).flags.c_contiguous
                got = next_steps(kept, cache)
                for j, row in enumerate(kept):
                    alone = next_steps([row], first_call([row]))
                    assert np.array_equal(got[j], alone[0]), (seed, row)
                same = first_call(every)
                same.select(every)
                assert np.array_equal(next_steps(every, same),
                                      next_steps(every, first_call(every))), seed

    def test_cached_steps_honour_label_mask(self, rng):
        """A 0 in ``label_mask`` masks that key in the cached steps, as in the
        teacher-forced pass, even where the id is a real label."""
        bundle = tiny_bundle(seed=5)
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        ids[0, 1] = 4
        mask[0, 1] = 0
        cache = DecodeCache()
        with no_grad():
            steps = [bundle.decoder_logits(ids[:, t:t + 1], mask[:, t:t + 1], hidden,
                                           emask, cache=cache).data[:, 0]
                     for t in range(ids.shape[1])]
            full = bundle.decoder_logits(ids, mask, hidden, emask).data
            by_id = bundle.decoder_logits(ids, (ids != PAD_ID).astype(np.int8),
                                          hidden, emask).data
        np.testing.assert_allclose(np.stack(steps, axis=1), full, atol=1e-5)
        assert np.abs(full[0, 1:] - by_id[0, 1:]).max() > 1e-4

    def test_masks_that_mask_nothing_are_dropped(self, rng, monkeypatch):
        """With no padded encoder column, cross-attention gets no mask, and
        the logits are the bits an all-zero mask gives."""
        bundle = tiny_bundle(seed=5)
        ids, mask, hidden, emask = step_inputs(rng, bundle)  # row 1 has PAD at 2
        emask[:] = 1
        real = ad._attention

        def run(fill):
            masks = []

            def spy(q, k, v, m, capture):
                masks.append(m)
                return real(q, k, v, np.float32(0) if m is None and fill else m, capture)

            monkeypatch.setattr(ad, "_attention", spy)
            cache = DecodeCache()
            with no_grad():
                out = [bundle.decoder_logits(ids[:, t:t + 1], mask[:, t:t + 1], hidden,
                                             emask, cache=cache).data
                       for t in range(4)]
            return out, masks, cache

        steps, masks, cache = run(fill=False)
        assert cache.cross_mask is None
        assert all(m is None for i, m in enumerate(masks) if i % 2 == 1)
        filled, _, _ = run(fill=True)
        for a, b in zip(steps, filled):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3, 9], ids=["one", "three", "remaining-width"])
    def test_cached_call_makes_one_attention_call_per_sublayer(self, rng, monkeypatch, n):
        """A cached call of n positions makes one self-attention call a
        layer, over the whole key buffer, and one cross-attention call a
        layer, over the encoder columns; n = 9 fills the 10 positions."""
        bundle = golden_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        real, keys = ad._attention, []

        def spy(q, k, v, m, capture):
            keys.append(k.shape[-2])
            return real(q, k, v, m, capture)

        cache = DecodeCache()
        with no_grad():
            bundle.decoder_logits(ids[:, :1], mask[:, :1], hidden, emask, cache=cache)
            monkeypatch.setattr(ad, "_attention", spy)
            bundle.decoder_logits(ids[:, 1:1 + n], mask[:, 1:1 + n], hidden, emask,
                                  cache=cache)
        assert cache.length == 1 + n
        dec = bundle.dec_cfg
        assert keys == [dec.max_positions, hidden.shape[1]] * dec.layers

    @pytest.mark.parametrize("n", [1, 3])
    def test_stale_buffer_contents_never_reach_the_logits(self, rng, n):
        """The keys and values a cached call finds at or after ``length`` are
        read at weight 0: 1e30 written into every one of them changes no bit
        of the next call's logits."""
        bundle = golden_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        logits = []
        for stale in (False, True):
            cache = DecodeCache()
            with no_grad():
                one_position_logits(bundle, ids[:, :3], mask[:, :3], hidden, emask, cache)
                if stale:
                    for buffers in cache.self_kv:
                        for x in buffers:
                            x[:, :, cache.length:] = 1e30
                logits.append(bundle.decoder_logits(ids[:, 3:3 + n], mask[:, 3:3 + n],
                                                    hidden, emask, cache=cache).data)
        assert np.array_equal(*logits)

    def test_cache_cannot_pass_max_positions(self, rng):
        bundle = tiny_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        cache = DecodeCache()
        with no_grad():
            bundle.decoder_logits(ids, mask, hidden, emask, cache=cache)
            with pytest.raises(ShapeMismatch):
                bundle.decoder_logits(ids[:, :1], mask[:, :1], hidden, emask, cache=cache)

    def test_greedy_passes_one_position_per_live_row(self, rng):
        """Batched calls feed one position per live row; only a call on the
        one live row may carry a draft, so there is at most one call per
        generated position."""
        bundle = tiny_bundle(seed=3)
        calls = count_decoder_calls(bundle)
        hidden, mask = fake_encoding(rng, b=5)
        ids, _ = greedy_decode_ids(bundle, hidden, mask)
        assert calls[0] == (5, 1)
        assert all(1 <= rows <= 5 and (n == 1 or rows == 1) for rows, n in calls)
        assert len(calls) <= max(len(row) for row in ids) - 1

    @pytest.mark.parametrize("rows", [[0], [1], [0, 1, 2, 3, 4]],
                             ids=["padded-encoder", "pad-key", "batch-5"])
    def test_later_multi_position_call_equals_one_position_calls(self, rng, rows):
        """A call of n positions gives the bits of n one-position calls,
        whatever the split, from a first call of the full width to a last
        call of one position: row 0 has a padded encoder side, row 1 a PAD
        key in its prefix."""
        bundle = golden_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle, b=5)
        ids, mask, hidden, emask = ids[rows], mask[rows], hidden[rows], emask[rows]
        with no_grad():
            want = one_position_logits(bundle, ids, mask, hidden, emask, DecodeCache())
            for split in range(ids.shape[1]):
                cache = DecodeCache()
                if split:
                    one_position_logits(bundle, ids[:, :split], mask[:, :split], hidden,
                                        emask, cache)
                got = bundle.decoder_logits(ids[:, split:], mask[:, split:], hidden, emask,
                                            cache=cache).data
                assert np.array_equal(got, want[:, split:]), split
                assert np.array_equal(cache.key_mask, mask != 0)

    def test_multi_position_call_after_select_with_one_row_encoder_side(self, rng):
        """Rows selected from one (repeats included) keep one encoder row; a
        later n-position call over them still matches one-position calls."""
        bundle = golden_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle, b=3)
        logits = []
        for multi in (False, True):
            cache = DecodeCache()
            with no_grad():
                one_position_logits(bundle, ids[:1, :2], mask[:1, :2], hidden[:1],
                                    emask[:1], cache)
                cache.select([0, 0, 0])
                if multi:
                    logits.append(bundle.decoder_logits(ids[:, 2:], mask[:, 2:], hidden,
                                                        emask, cache=cache).data)
                else:
                    logits.append(one_position_logits(bundle, ids[:, 2:], mask[:, 2:],
                                                      hidden, emask, cache))
            assert len(cache.cross_kv[0][0].data) == 1
        assert np.array_equal(*logits)

    def test_multi_position_call_needs_no_grad(self, rng):
        """A later call of several positions records no tape, so it refuses
        to run where gradients would be expected."""
        bundle = tiny_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        cache = DecodeCache()
        with no_grad():
            bundle.decoder_logits(ids[:, :1], mask[:, :1], hidden, emask, cache=cache)
        with pytest.raises(ValueError, match="no_grad"):
            bundle.decoder_logits(ids[:, 1:3], mask[:, 1:3], hidden, emask, cache=cache)

    @pytest.mark.parametrize("op, raises", [
        (lambda c: c.truncate(0), False), (lambda c: c.select([]), False),
        (lambda c: c.truncate(1), True), (lambda c: c.select([0]), True),
    ], ids=["truncate-0", "select-none", "truncate-1", "select-row-0"])
    def test_unfed_cache(self, op, raises):
        """A cache nothing was fed to has no positions and no rows."""
        cache = DecodeCache()
        if raises:
            with pytest.raises(ShapeMismatch):
                op(cache)
        else:
            op(cache)
        assert cache.length == 0 and cache.key_mask is None and not cache.self_kv

    @pytest.mark.parametrize("name, value", [("capture_cross", []),
                                             ("rng", np.random.default_rng(0))],
                             ids=["capture_cross", "rng"])
    def test_cached_call_refuses_capture_and_dropout(self, rng, name, value):
        """The cached step records no attention maps and runs no dropout, so
        asking it for either fails rather than being ignored."""
        bundle = tiny_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle)
        with no_grad(), pytest.raises(ConfigError, match=name):
            bundle.decoder_logits(ids[:, :1], mask[:, :1], hidden, emask,
                                  cache=DecodeCache(), **{name: value})

    def test_truncated_positions_are_never_read(self):
        """Feed five positions, truncate to two, refeed one other id, then
        select rows with a repeat: the buffers still hold the first feed's
        fourth and fifth positions, yet the next step's logits are each
        row's decoded alone, to the bit."""
        bundle = golden_bundle()
        kept = [2, 0, 2]
        for seed in range(4):
            ids, mask, hidden, emask = step_inputs(np.random.default_rng(seed), bundle, b=3)
            other = ids.copy()
            other[:, 2] = (ids[:, 2] + 1) % bundle.vocab.size
            other[:, 2][other[:, 2] == PAD_ID] = EOS_ID
            with no_grad():
                cache = DecodeCache()
                one_position_logits(bundle, ids[:, :5], mask[:, :5], hidden, emask, cache)
                cache.truncate(2)
                one_position_logits(bundle, other[:, 2:3], mask[:, 2:3], hidden, emask, cache)
                cache.select(kept)
                got = bundle.decoder_logits(other[kept, 3:4], mask[kept, 3:4], hidden, emask,
                                            cache=cache).data
                for j, row in enumerate(kept):
                    alone = one_position_logits(bundle, other[[row], :4], mask[[row], :4],
                                                hidden[[row]], emask[[row]], DecodeCache())
                    assert np.array_equal(got[j], alone[0, 3:]), (seed, row)

    def test_truncate_then_refeed_reproduces_logits(self, rng):
        bundle = golden_bundle()
        ids, mask, hidden, emask = step_inputs(rng, bundle, b=3)
        with no_grad():
            cache = DecodeCache()
            one_position_logits(bundle, ids[:, :2], mask[:, :2], hidden, emask, cache)
            want = bundle.decoder_logits(ids[:, 2:], mask[:, 2:], hidden, emask,
                                         cache=cache).data
            cache.truncate(4)
            assert cache.length == 4 and np.array_equal(cache.key_mask, mask[:, :4] != 0)
            got = bundle.decoder_logits(ids[:, 4:], mask[:, 4:], hidden, emask,
                                        cache=cache).data
            assert np.array_equal(got, want[:, 2:])
            with pytest.raises(ShapeMismatch):
                cache.truncate(cache.length + 1)

    def test_beam_stacks_beams_one_position_each(self, rng):
        bundle = tiny_bundle(seed=4)
        calls = count_decoder_calls(bundle)
        hidden, mask = fake_encoding(rng)
        beam_decode_ids(bundle, hidden, mask, beam_width=3)
        assert calls[0] == (1, 1)
        assert all(n == 1 and 1 <= rows <= 3 for rows, n in calls)
        assert max(rows for rows, _ in calls) == 3


class TestGoldenOutputs:
    """Decoded ids of a seeded model, recorded before the sublayer fusion of
    the tape: a kernel or decode-loop change that alters outputs fails here."""

    def test_greedy_batch_of_five(self):
        hidden, emask = golden_inputs()
        ids, hit = greedy_decode_ids(golden_bundle(), hidden, emask)
        assert ids == [[0, 5, 5, 1], [0, 3, 3, 5, 6, 3, 5, 6, 0], [0, 0, 5, 1],
                       [0, 7, 5, 1], [0, 7, 4, 4, 7, 4, 7, 4, 7, 4]]
        assert hit == [False, True, False, False, True]

    def test_beam_four(self):
        bundle = golden_bundle()
        hidden, emask = golden_inputs()
        got = [beam_decode_ids(bundle, hidden[i], emask[i], beam_width=4) for i in range(5)]
        assert got == [[0, 5, 5, 1], [0, 3, 3, 5, 6, 3, 5, 6], [0, 5, 5, 1],
                       [0, 7, 5, 0, 6, 3, 5, 0, 6, 3], [0, 7, 7, 4, 7, 4, 7, 4, 7, 4]]


class TestEndToEnd:
    def overfit_bundle(self):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        cfg = TrainConfig(micro_batch=4, accumulation_steps=1, max_epochs=150,
                          seed=3, lr_decoder=3e-3, lr_encoder=1e-3,
                          early_stop_patience=1000)
        train(bundle, data, data, cfg,
              on_epoch_end=lambda e, row, b: row["train_loss"] < 0.08)
        return bundle, data

    def test_overfit_model_reproduces_gold_sets(self):
        bundle, data = self.overfit_bundle()
        preds = predict_prepared(bundle, data, batch_size=3)
        assert [p.sample_id for p in preds] == [s.id for s in SAMPLES]
        assert all(p.labels == g for p, g in zip(preds, data.gold))
        assert all(not p.hit_max_len for p in preds)
        assert all(p.token_ids[0] == BOS_ID and p.token_ids[-1] == EOS_ID
                   for p in preds)

    def test_batch_one_greedy_checks_drafts(self):
        """Batch-1 greedy makes fewer decoder calls than it generates tokens,
        since the hierarchy drafts the ancestors after the leaf group, and
        returns the ids of one call per token."""
        bundle, data = self.overfit_bundle()
        with no_grad():
            encoded = [bundle.encoder_states(data, np.array([i])) for i in range(data.n)]
        want = [plain_greedy_ids(bundle, hidden, mask) for hidden, mask in encoded]
        calls = count_decoder_calls(bundle)
        got = [greedy_decode_ids(bundle, hidden, mask)[0][0] for hidden, mask in encoded]
        assert got == want
        assert len(calls) < sum(len(ids) - 1 for ids in got)
        assert any(n > 1 for _, n in calls)

    def test_predict_texts_matches_prepared(self):
        bundle, data = self.overfit_bundle()
        by_text = predict_texts(bundle, [s.text for s in SAMPLES],
                                sample_ids=[s.id for s in SAMPLES])
        by_prep = predict_prepared(bundle, data)
        assert [p.token_ids for p in by_text] == [p.token_ids for p in by_prep]

    def test_predict_texts_needs_text_vocab(self, rng):
        bundle = tiny_bundle()
        bundle.text_vocab = None
        with pytest.raises(ConfigError):
            predict_texts(bundle, ["hello"])

    def test_minimal_ordering_closes_predictions(self, rng):
        bundle = tiny_bundle(ordering=Ordering.MINIMAL_CHILDREN)
        b_id = bundle.vocab.id_of("B")
        table = {
            (BOS_ID,): {b_id: 0.97, EOS_ID: 0.01},
            (BOS_ID, b_id): {EOS_ID: 0.97, b_id: 0.01},
        }
        script_decoder(bundle, table)
        preds = greedy_decode(bundle, np.zeros((2, 3, 16), np.float32),
                              np.ones((2, 3), np.int8))
        assert preds[0].labels == {"A", "B"}
        assert preds[0].groups == [["B"]]


class TestTrimmedEncoderSide:
    def test_trimmed_batch_matches_full_width_in_float64(self):
        bundle = mixed_bundle()
        for p in bundle.all_params().values():
            p.data = p.data.astype(np.float64)
        data = prepare_data(bundle, MIXED, seed=0)
        with no_grad():
            hidden, mask = bundle.encoder_states(data, np.arange(data.n))
            full = bundle.encode_batch(data.text_ids, data.text_mask)
            assert mask.shape == (8, 5)
            real = mask.astype(bool)
            assert np.allclose(hidden.data[real], full.data[:, :5][real],
                               rtol=1e-12, atol=1e-12)
            trim_logits = bundle.decoder_logits(data.seq_ids, data.seq_mask, hidden, mask)
            full_logits = bundle.decoder_logits(data.seq_ids, data.seq_mask, full,
                                                data.text_mask)
            assert np.allclose(trim_logits.data, full_logits.data, rtol=1e-12, atol=1e-12)
            trim_ids, trim_hit = greedy_decode_ids(bundle, hidden, mask)
            full_ids, full_hit = greedy_decode_ids(bundle, full, data.text_mask)
        assert trim_ids == full_ids and trim_hit == full_hit
        assert len({tuple(ids) for ids in trim_ids}) > 1

    def test_every_encoder_call_ends_at_its_last_used_column(self, monkeypatch):
        """A padding regression in any path from a split to the encoder
        fails here, with no timing: each call's width must be the last
        column that a row of its batch uses."""
        calls = []
        encode = ModelBundle.encode_batch

        def spy(self, text_ids, text_mask, *args, **kwargs):
            calls.append(np.array(text_mask))
            return encode(self, text_ids, text_mask, *args, **kwargs)

        monkeypatch.setattr(ModelBundle, "encode_batch", spy)
        bundle = mixed_bundle(dropout=0.1)
        data = prepare_data(bundle, MIXED, seed=0)
        per_pair = [last_used_width(data.text_mask[lo:lo + 2]) for lo in range(0, 8, 2)]
        assert per_pair == [2, 5, 4, 3]

        train(bundle, data, data, TrainConfig(micro_batch=2, accumulation_steps=2,
                                              max_epochs=1, seed=0))
        evaluate_epoch(bundle, data, LossConfig(), micro_batch=2)
        predict_prepared(bundle, data, batch_size=2)
        predict_texts(bundle, [s.text for s in MIXED], batch_size=2)
        # train: 4 micro-batches in random order and evaluation; then three fixed passes
        assert len(calls) == 20
        assert all(m.shape[1] == last_used_width(m) for m in calls)
        assert [m.shape[1] for m in calls[8:]] == per_pair * 3
        assert all(np.array_equal(m, data.text_mask[lo:lo + 2, :m.shape[1]])
                   for lo, m in zip(range(0, 8, 2), calls[8:12]))

    def test_no_texts_give_no_predictions(self):
        assert predict_texts(tiny_bundle(), []) == []

    @pytest.mark.parametrize("size", [0, -3])
    def test_batch_size_below_one_is_rejected(self, size):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        with pytest.raises(ConfigError, match="batch_size"):
            predict_prepared(bundle, data, batch_size=size)
        with pytest.raises(ConfigError, match="batch_size"):
            predict_texts(bundle, [s.text for s in SAMPLES], batch_size=size)

    def test_sample_ids_must_match_texts(self):
        with pytest.raises(ShapeMismatch):
            predict_texts(tiny_bundle(), ["bat ball", "drum"], sample_ids=["only"])
