"""Optimizer, scheduler, accumulation, checkpointing, and resume."""

import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracles import adamw_reference_step, adamw_reference_steps

from taxseq import autodiff as ad
from taxseq import encoder
from taxseq import trainer as tr
from taxseq.autodiff import Parameter, backward
from taxseq.codec import EOS_ID, PAD_ID, Ordering, capacity_for
from taxseq.corpus import Sample
from taxseq.decoder import DecoderConfig
from taxseq.encoder import EncoderConfig, PrecomputedStates, TextVocab
from taxseq.errors import ConfigError, EmptyCorpus, NonFiniteLoss, ShapeMismatch
from taxseq.loss import LossConfig, compute_loss, loss_pieces
from taxseq.model import ModelBundle
from taxseq.taxonomy import ROOT, LabelHierarchy
from taxseq.trainer import (AdamW, PreparedData, TrainConfig, evaluate_epoch,
                            grad_norm, load_checkpoint, make_targets,
                            prepare_data, save_checkpoint, train)

SAMPLES = [
    Sample("s0", "bat ball bat", {"A", "B"}),
    Sample("s1", "ball bat ball", {"A", "B"}),
    Sample("s2", "cold snow ice", {"A", "C"}),
    Sample("s3", "snow ice cold", {"A", "C"}),
    Sample("s4", "drum drum tune", {"D"}),
    Sample("s5", "tune drum tune", {"D"}),
    Sample("s6", "bat ice drum", {"A", "B"}),
    Sample("s7", "ball snow tune", {"A", "C"}),
]


def tiny_hierarchy():
    return LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])


def tiny_bundle(seed=0, dropout=0.0, ordering=Ordering.CHILD_TO_PARENT,
                precomputed=False, layers=1, d_model=16, dec_heads=2, h=None):
    h = h or tiny_hierarchy()
    cap = capacity_for([s.labels for s in SAMPLES], h, strategy=ordering)
    enc_cfg = EncoderConfig(d_model=d_model, layers=layers, heads=2,
                            max_len=6, dropout=dropout)
    dec_cfg = DecoderConfig(d_model=d_model, layers=layers, heads=dec_heads,
                            dropout=dropout, max_positions=8)
    tv = None if precomputed else TextVocab.build([s.text for s in SAMPLES])
    return ModelBundle.build(h, ordering, cap, enc_cfg, dec_cfg, seed=seed,
                             text_vocab=tv)


def quick_cfg(**kw):
    base = dict(micro_batch=4, accumulation_steps=1, max_epochs=3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamW:
    def steps(self, param, grads, lr, wd):
        opt = AdamW(weight_decay=wd)
        opt.add_group("g", {param.name: param}, lr)
        trace = []
        for g in grads:
            param.grad = np.asarray(g, dtype=param.data.dtype)
            opt.step()
            trace.append(param.data.copy())
        return trace

    def test_matches_hand_recurrence_with_decay(self):
        x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        grads = [np.array([[0.3, -0.1], [1.0, 0.0]]),
                 np.array([[-0.2, 0.4], [0.5, -1.0]]),
                 np.array([[0.0, 0.0], [0.1, 2.0]])]
        trace = self.steps(Parameter(x0.copy(), name="w"), grads, 1e-2, 0.01)
        for i in range(2):
            for j in range(2):
                want = adamw_reference_steps(
                    x0[i, j], [g[i, j] for g in grads], 1e-2, wd=0.01)
                got = [t[i, j] for t in trace]
                assert got == pytest.approx(want, rel=1e-12)

    def test_zero_grad_step_still_moves_from_momentum(self):
        x0 = np.array([[2.0]])
        grads = [np.array([[1.0]]), np.array([[0.0]])]
        trace = self.steps(Parameter(x0.copy(), name="w"), grads, 1e-2, 0.0)
        want = adamw_reference_steps(2.0, [1.0, 0.0], 1e-2, wd=0.0)
        assert [t[0, 0] for t in trace] == pytest.approx(want, rel=1e-12)
        assert trace[1][0, 0] != trace[0][0, 0]

    def test_absent_grad_treated_as_zero(self):
        p = Parameter(np.array([[1.0]]), name="w")
        opt = AdamW(weight_decay=0.0)
        opt.add_group("g", {"w": p}, 1e-2)
        p.grad = np.array([[1.0]])
        opt.step()
        p.grad = None
        opt.step()
        want = adamw_reference_steps(1.0, [1.0, 0.0], 1e-2, wd=0.0)
        assert p.data[0, 0] == pytest.approx(want[-1], rel=1e-12)

    def test_decay_exemptions(self):
        mat = Parameter(np.full((2, 2), 4.0), name="blk.w")
        vec = Parameter(np.full(2, 4.0), name="blk.norm.g")
        emb = Parameter(np.full((2, 2), 4.0), name="word_embed")
        opt = AdamW(weight_decay=0.5)
        opt.add_group("g", {p.name: p for p in (mat, vec, emb)}, 1e-1)
        opt.step()  # all grads absent: pure-decay step
        assert np.allclose(mat.data, 4.0 - 1e-1 * 0.5 * 4.0)
        assert np.array_equal(vec.data, np.full(2, 4.0))
        assert np.array_equal(emb.data, np.full((2, 2), 4.0))

    def test_two_groups_with_distinct_rates(self):
        a = Parameter(np.array([[1.0]]), name="w")
        b = Parameter(np.array([[1.0]]), name="w")
        opt = AdamW(weight_decay=0.0)
        opt.add_group("enc", {"w": a}, 1e-3)
        opt.add_group("dec", {"w": b}, 1e-2)
        a.grad = b.grad = np.array([[0.7]])
        opt.step()
        assert a.data[0, 0] == pytest.approx(
            adamw_reference_steps(1.0, [0.7], 1e-3)[0], rel=1e-12)
        assert b.data[0, 0] == pytest.approx(
            adamw_reference_steps(1.0, [0.7], 1e-2)[0], rel=1e-12)

    def test_freeze_group(self):
        a = Parameter(np.array([[1.0]]), name="w")
        opt = AdamW()
        opt.add_group("enc", {"w": a}, 1e-2)
        a.grad = np.array([[5.0]])
        opt.freeze_group("enc")
        assert not a.requires_grad and a.grad is None
        a.grad = np.array([[5.0]])  # a stray grad must not move a frozen group
        before = a.data.copy()
        opt.step()
        assert np.array_equal(a.data, before)
        assert opt.group("enc")["t"] == 0

    def test_flat_step_equals_per_parameter_reference(self):
        """Bit for bit against the per-parameter loop, over decayed matrices,
        exempt vectors and an embedding with one gradient absent; then a
        replaced parameter array and replaced moments are what steps next."""
        rng = np.random.default_rng(3)
        shapes = {"word_embed": (6, 4), "l0.norm.g": (4,), "l0.ff.w1": (4, 8),
                  "l0.ff.b1": (8,), "l0.ff.w2": (8, 4), "l0.norm.b": (4,)}

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        params = {n: Parameter(draw(s), name=n) for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        ref_state: dict = {}
        opt = AdamW(weight_decay=0.1)
        opt.add_group("g", params, 1e-2)

        def step_both(t):
            grads = {n: draw(s) for n, s in shapes.items() if n != "l0.ff.b1"}
            for n, p in params.items():
                p.grad = grads.get(n)
            opt.step()
            assert opt.group("g")["t"] == t
            return adamw_reference_step(ref, grads, ref_state, 1e-2, t, weight_decay=0.1)

        def assert_same_bits():
            for n, p in params.items():
                assert p.data.dtype == np.float32 and p.data.shape == shapes[n]
                assert p.data.tobytes() == ref[n].tobytes(), n
                for which in ("m", "v"):
                    got = opt.state[f"g/{n}"][which]
                    assert got.tobytes() == ref_state[n][which].tobytes(), (n, which)

        for t in range(1, 6):
            ref = step_both(t)
            assert_same_bits()

        replaced = draw(shapes["l0.ff.w1"])
        params["l0.ff.w1"].data = replaced  # as resume assigns a loaded array
        ref["l0.ff.w1"] = replaced.copy()
        moments = {}
        for n, s in shapes.items():
            pair = {"m": draw(s), "v": np.abs(draw(s))}
            moments[f"g/{n}"] = pair
            ref_state[n] = {k: a.copy() for k, a in pair.items()}
        opt.load_state_dict({"groups": [{"name": "g", "lr": 1e-2, "frozen": False,
                                         "t": 5}]}, moments)
        ref = step_both(6)
        assert_same_bits()
        assert not np.array_equal(params["l0.ff.w1"].data, replaced)

    def test_bad_grad_shape_changes_nothing(self):
        """A gradient of the wrong shape raises before any group moves."""
        a = Parameter(np.ones((2, 2), dtype=np.float32), name="w")
        b = Parameter(np.ones(3, dtype=np.float32), name="b")
        c = Parameter(np.ones((3, 2), dtype=np.float32), name="w")
        opt = AdamW()
        opt.add_group("enc", {"w": a}, 1e-2)
        opt.add_group("dec", {"b": b, "w": c}, 1e-2)
        for p in (a, b, c):
            p.grad = np.full(p.data.shape, 0.5, dtype=np.float32)
        opt.step()
        before = ({k: p.data.copy() for k, p in (("a", a), ("b", b), ("c", c))},
                  {k: {w: mv[w].copy() for w in mv} for k, mv in opt.state.items()})
        for p in (a, b):
            p.grad = np.full(p.data.shape, 0.25, dtype=np.float32)
        c.grad = np.full((2, 3), 0.25, dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            opt.step()
        for k, p in (("a", a), ("b", b), ("c", c)):
            assert np.array_equal(p.data, before[0][k]), k
        for k, mv in opt.state.items():
            for w in mv:
                assert np.array_equal(mv[w], before[1][k][w]), (k, w)
        assert opt.group("enc")["t"] == 1 and opt.group("dec")["t"] == 1

    def test_frozen_encoder_records_no_graph(self):
        bundle = tiny_bundle(dropout=0.1)
        data = prepare_data(bundle, SAMPLES, seed=0)
        idx, rng = np.arange(4), np.random.default_rng(0)
        opt = AdamW()
        opt.add_group("enc", dict(bundle.enc_params), 1e-3)
        opt.add_group("dec", dict(bundle.dec_params), 1e-3)
        assert bundle.encoder_states(data, idx, rng)[0].requires_grad
        opt.freeze_group("enc")
        hidden, enc_mask = bundle.encoder_states(data, idx, rng)
        assert not hidden.requires_grad and hidden._backward is None
        logits = bundle.decoder_logits(data.seq_ids[idx], data.seq_mask[idx],
                                       hidden, enc_mask, rng)
        backward(compute_loss(logits, make_targets(data.seq_ids)[idx], LossConfig()))
        grads = {k: p.grad for k, p in bundle.all_params().items()}
        assert all(g is None for k, g in grads.items() if k.startswith("enc."))
        assert all(g is not None for k, g in grads.items() if k.startswith("dec."))

    def test_grad_norm(self):
        a = Parameter(np.zeros(2), name="a")
        b = Parameter(np.zeros(2), name="b")
        a.grad = np.array([3.0, 0.0])
        assert grad_norm({"a": a, "b": b}) == pytest.approx(3.0)
        b.grad = np.array([0.0, 4.0])
        assert grad_norm({"a": a, "b": b}) == pytest.approx(5.0)
        # a matrix's squares sum over every axis, as np.sum sums them
        w = Parameter(np.zeros((3, 5), dtype=np.float32), name="w")
        w.grad = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
        want = np.sqrt(9.0 + 16.0 + float(np.sum(np.square(w.grad, dtype=np.float64))))
        assert grad_norm({"a": a, "b": b, "w": w}) == float(want)


class TestDataPreparation:
    def test_targets_shift_left(self):
        seq = np.array([[0, 5, 3, 1, 2, 2]])
        tgt = make_targets(seq)
        assert tgt.tolist() == [[5, 3, 1, 2, 2, PAD_ID]]

    def test_prepared_shapes_and_gold(self):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        assert data.n == 8
        assert data.seq_ids.shape == (8, bundle.capacity)
        assert data.text_ids.shape == (8, 6)
        assert data.gold[0] == {"A", "B"} and data.ids[4] == "s4"
        assert (data.seq_ids[:, 0] == 0).all()
        assert (data.seq_mask.sum(axis=1) >= 4).all()

    def test_deterministic_and_seeded_shuffle(self):
        bundle = tiny_bundle(ordering=Ordering.SHUFFLED)
        a = prepare_data(bundle, SAMPLES, seed=3)
        b = prepare_data(bundle, SAMPLES, seed=3)
        c = prepare_data(bundle, SAMPLES, seed=4)
        assert np.array_equal(a.seq_ids, b.seq_ids)
        assert not np.array_equal(a.seq_ids, c.seq_ids)

    def test_precomputed_mode_reads_store(self, tmp_path, rng):
        bundle = tiny_bundle(precomputed=True)
        # the store holds the samples in reverse order, and one sample more
        ids = [s.id for s in SAMPLES][::-1] + ["extra"]
        hidden = rng.standard_normal((9, 6, 16)).astype(np.float32)
        store = PrecomputedStates.save(tmp_path / "st", ids, hidden,
                                       np.tile([1, 1, 1, 1, 0, 0], (9, 1)))
        data = prepare_data(bundle, SAMPLES, seed=0, store=store)
        assert data.enc_rows.tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
        assert np.array_equal(data.enc_hidden[data.enc_rows], hidden[7::-1])
        assert data.text_ids is None
        hidden, mask = bundle.encoder_states(data, np.array([2, 5]))
        # the batch is cut after its last real column
        assert hidden.data.shape == (2, 4, 16) and mask.shape == (2, 4)
        assert np.array_equal(mask, np.ones((2, 4), np.int8))
        assert np.array_equal(hidden.data, data.enc_hidden[data.enc_rows[[2, 5]], :4])

    def test_store_split_stays_memory_mapped(self, tmp_path, rng):
        """Preparing a stored-states split copies none of the states: the
        split keeps the memory-mapped store and its row numbers, so its
        peak allocation is a small share of the store's 4.1 MB."""
        bundle = tiny_bundle(precomputed=True)
        samples = [Sample(f"d{i}", s.text, s.labels)
                   for i, s in enumerate(SAMPLES * 63)]
        ids = [s.id for s in samples]
        root = tmp_path / "st"
        PrecomputedStates.save(root, ids[::-1],
                               rng.standard_normal((len(ids), 128, 16)).astype(np.float32),
                               np.ones((len(ids), 128), np.int8))
        store = PrecomputedStates.open(root)
        tracemalloc.start()
        try:
            data = prepare_data(bundle, samples, seed=0, store=store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < store.hidden.nbytes / 8, (peak, store.hidden.nbytes)
        hidden, _ = bundle.encoder_states(data, np.array([0, 500]))
        assert np.array_equal(hidden.data, store.hidden[[len(ids) - 1, len(ids) - 501]])

    def test_store_mask_hole_keeps_last_real_column(self, tmp_path, rng):
        bundle = tiny_bundle(precomputed=True)
        masks = {"s0": [1, 0, 0, 1, 0, 0], "s1": [1, 1, 0, 0, 0, 0]}
        store = PrecomputedStates.save(
            tmp_path / "st", [s.id for s in SAMPLES],
            rng.standard_normal((len(SAMPLES), 6, 16)).astype(np.float32),
            np.array([masks.get(s.id, [1] * 6) for s in SAMPLES], dtype=np.float32))
        data = prepare_data(bundle, SAMPLES, seed=0, store=store)
        hidden, mask = bundle.encoder_states(data, np.array([0, 1]))
        assert mask.tolist() == [[1, 0, 0, 1], [1, 1, 0, 0]]
        assert np.array_equal(hidden.data, data.enc_hidden[data.enc_rows[:2], :4])

    def test_encoder_states_encode_tokenized_rows(self):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        idx = np.array([1, 4])
        hidden, mask = bundle.encoder_states(data, idx)
        # three words a text: the batch is cut to its 3 real columns of 6
        want = bundle.encode_batch(data.text_ids[idx, :3], data.text_mask[idx, :3])
        assert np.array_equal(mask, np.ones((2, 3), np.int8))
        assert np.array_equal(hidden.data, want.data)

    def test_rows_filling_max_len_are_not_narrowed(self):
        bundle = tiny_bundle()
        samples = SAMPLES[:2] + [Sample("long", "bat ball bat ball bat ball bat", {"D"})]
        data = prepare_data(bundle, samples, seed=0)
        hidden, mask = bundle.encoder_states(data, np.arange(3))
        assert hidden.data.shape == (3, 6, 16)
        assert np.array_equal(mask, data.text_mask)

    def test_precomputed_mode_errors(self, tmp_path):
        bundle = tiny_bundle(precomputed=True)
        with pytest.raises(ConfigError, match="store"):
            prepare_data(bundle, SAMPLES, seed=0)
        store = PrecomputedStates.save(tmp_path / "st", [s.id for s in SAMPLES],
                                       np.zeros((len(SAMPLES), 6, 8), np.float32),
                                       np.ones((len(SAMPLES), 6)))
        with pytest.raises(ConfigError, match="d_model"):
            prepare_data(bundle, SAMPLES, seed=0, store=store)
        with pytest.raises(ConfigError, match="trainable"):
            prepare_data(tiny_bundle(), SAMPLES, seed=0, store=store)

    def test_empty_split(self):
        with pytest.raises(EmptyCorpus):
            prepare_data(tiny_bundle(), [], seed=0)


class TestLabelColumns:
    """Teacher forcing stops just before a batch's last EOS column."""

    # {"D"} encodes shorter than {"A", "B"} and {"A", "C"}, which fill capacity
    SHORT, MIXED = np.array([4, 5]), np.array([4, 0, 5])

    @pytest.mark.parametrize("rows", ["short", "mixed"])
    def test_input_stops_before_last_eos(self, rows):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        idx = self.SHORT if rows == "short" else self.MIXED
        lengths = data.seq_mask[idx].sum(axis=1)
        assert (data.seq_ids[idx, lengths - 1] == EOS_ID).all()
        assert (lengths < bundle.capacity).all() == (rows == "short")
        ids, mask = tr._label_columns(data, idx)
        width = int(lengths.max()) - 1
        assert ids.shape == mask.shape == (len(idx), width)
        assert np.array_equal(ids, data.seq_ids[idx, :width])
        assert np.array_equal(mask, data.seq_mask[idx, :width])
        assert tr._micro_logits(bundle, data, idx).data.shape[:2] == (len(idx), width)

    def test_loss_and_count_match_full_width(self):
        """Every cut column's target is PAD: the count of scored positions
        stays, and the loss moves only by float32 rounding."""
        bundle = tiny_bundle(layers=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        targets = make_targets(data.seq_ids)
        idx, cfg = self.SHORT, LossConfig()
        with ad.no_grad():
            cut = tr._micro_logits(bundle, data, idx)
            h, enc_mask = bundle.encoder_states(data, idx)
            full = bundle.decoder_logits(data.seq_ids[idx], data.seq_mask[idx], h, enc_mask)
            width = cut.data.shape[1]
            assert width < full.data.shape[1] == bundle.capacity
            assert (targets[idx, width:] == PAD_ID).all()
            cut_sum, cut_n = loss_pieces(cut, targets[idx, :width], cfg)
            full_sum, full_n = loss_pieces(full, targets[idx], cfg)
        assert cut_n == full_n == int(data.seq_mask[idx].sum()) - len(idx)
        np.testing.assert_allclose(cut.data, full.data[:, :width], rtol=1e-5, atol=1e-6)
        assert cut_sum.item() == pytest.approx(full_sum.item(), rel=1e-6)


class TestEvaluateEpoch:
    def test_empty_split_rejected(self):
        with pytest.raises(EmptyCorpus, match="empty validation split"):
            evaluate_epoch(tiny_bundle(), PreparedData(ids=[]), LossConfig())

    def test_deterministic(self):
        bundle = tiny_bundle(dropout=0.3)  # dropout must not fire in eval
        data = prepare_data(bundle, SAMPLES, seed=0)
        cfg = LossConfig()
        assert evaluate_epoch(bundle, data, cfg) == evaluate_epoch(bundle, data, cfg)

    def test_unweighted_mean_over_batches(self):
        from taxseq.loss import compute_loss
        from taxseq import autodiff as ad
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES[:5], seed=0)
        got = evaluate_epoch(bundle, data, LossConfig(), micro_batch=2)
        targets = make_targets(data.seq_ids)
        vals = []
        with ad.no_grad():
            for idx in (np.arange(0, 2), np.arange(2, 4), np.arange(4, 5)):
                h = bundle.encode_batch(data.text_ids[idx], data.text_mask[idx])
                logits = bundle.decoder_logits(data.seq_ids[idx], data.seq_mask[idx],
                                               h, data.text_mask[idx])
                vals.append(compute_loss(logits, targets[idx], LossConfig()).item())
        assert got == pytest.approx(float(np.mean(vals)), rel=1e-12)


class TestSchedulerAndStopping:
    def run_scripted(self, monkeypatch, val_seq, cfg, out_dir=None, callback=None):
        """Train on real batches but feed a scripted validation metric."""
        seq = iter(val_seq)
        monkeypatch.setattr(tr, "evaluate_epoch",
                            lambda *a, **k: float(next(seq)))
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        result = train(bundle, data, data, cfg, out_dir=out_dir,
                       on_epoch_end=callback)
        return bundle, result

    def test_plateau_cuts_and_freeze_on_third_cut(self, monkeypatch):
        cfg = quick_cfg(max_epochs=12, early_stop_patience=10)
        snapshots = {}

        def snap(epoch, row, bundle):
            if epoch in (10, 11):
                snapshots[epoch] = {k: p.data.copy()
                                    for k, p in bundle.all_params().items()}
            return False

        bundle, result = self.run_scripted(
            monkeypatch, [1.0] * 12, cfg, callback=snap)
        hist = result.history
        assert result.stopped == "early_stop" and result.epochs_run == 11
        assert result.best_epoch == 1 and result.best_val == 1.0
        assert hist[0]["lr_enc"] == 5e-5 and hist[0]["lr_dec"] == 3e-4
        # first cut lands after epoch 4, second after 7, third after 10
        assert hist[3]["lr_enc"] == 5e-5
        assert hist[4]["lr_enc"] == pytest.approx(5e-6, rel=1e-9)
        assert hist[7]["lr_enc"] == pytest.approx(5e-7, rel=1e-9)
        assert hist[7]["lr_enc"] > 5e-7  # two cuts stay a hair above the bar
        assert hist[10]["lr_enc"] == pytest.approx(5e-8, rel=1e-9)
        assert hist[10]["lr_enc"] < 5e-7
        assert [r["frozen"] for r in hist] == [False] * 10 + [True]
        assert hist[10]["lr_dec"] == pytest.approx(3e-7, rel=1e-9)
        # frozen encoder parameters stop moving; decoder keeps training
        enc_same = all(np.array_equal(snapshots[10][k], snapshots[11][k])
                       for k in snapshots[10] if k.startswith("enc."))
        dec_moved = any(not np.array_equal(snapshots[10][k], snapshots[11][k])
                        for k in snapshots[10] if k.startswith("dec."))
        assert enc_same and dec_moved

    def test_improvement_resets_counters(self, monkeypatch):
        vals = [1.0, 0.9, 0.9, 0.9, 0.85, 0.85, 0.85, 0.85, 0.85, 0.85]
        cfg = quick_cfg(max_epochs=10, early_stop_patience=20)
        _, result = self.run_scripted(monkeypatch, vals, cfg)
        hist = result.history
        assert hist[7]["lr_enc"] == 5e-5       # reset at epoch 5 delayed the cut
        assert hist[8]["lr_enc"] == pytest.approx(5e-6, rel=1e-9)
        assert result.best_epoch == 5

    def test_sub_epsilon_improvement_counts_as_plateau_but_updates_best(
            self, monkeypatch):
        vals = [1.0, 1.0 - 5e-7, 1.0 - 6e-7, 1.0 - 7e-7, 1.0 - 8e-7]
        cfg = quick_cfg(max_epochs=5, early_stop_patience=20)
        _, result = self.run_scripted(monkeypatch, vals, cfg)
        assert result.best_epoch == 5          # strict < keeps tracking
        assert result.best_val == 1.0 - 8e-7
        assert result.history[4]["lr_enc"] == pytest.approx(5e-6, rel=1e-9)

    def test_early_stop_counter(self, monkeypatch):
        cfg = quick_cfg(max_epochs=30, early_stop_patience=4)
        _, result = self.run_scripted(monkeypatch, [1.0] * 30, cfg)
        assert result.stopped == "early_stop"
        assert result.epochs_run == 5
        assert len(result.history) == 5

    def test_best_equals_min_of_logged(self, monkeypatch):
        vals = [0.8, 0.6, 0.7, 0.55, 0.55, 0.9]
        cfg = quick_cfg(max_epochs=6, early_stop_patience=20)
        _, result = self.run_scripted(monkeypatch, vals, cfg)
        logged = [r["val_loss"] for r in result.history]
        assert result.best_val == min(logged)
        assert result.best_epoch == 4

    def test_callback_stop(self, monkeypatch):
        cfg = quick_cfg(max_epochs=9, early_stop_patience=20)
        _, result = self.run_scripted(monkeypatch, [1.0] * 9, cfg,
                                      callback=lambda e, row, b: e == 2)
        assert result.stopped == "callback" and result.epochs_run == 2

    def test_max_epochs_stop(self, monkeypatch):
        cfg = quick_cfg(max_epochs=2, early_stop_patience=20)
        _, result = self.run_scripted(monkeypatch, [1.0, 0.9], cfg)
        assert result.stopped == "max_epochs" and result.epochs_run == 2


def window_optimizer(bundle, cfg):
    """The optimizer ``train`` builds, for calling ``_train_window`` directly."""
    opt = AdamW()
    opt.add_group("enc", dict(bundle.enc_params), cfg.lr_encoder)
    opt.add_group("dec", dict(bundle.dec_params), cfg.lr_decoder)
    return opt


LOSSES = {"focal_batch": LossConfig(),
          "focal_batch-gamma0": LossConfig(gamma=0.0),
          "focal_per_token": LossConfig(variant="focal_per_token"),
          "plain_ce": LossConfig(variant="plain_ce")}


class TestTrainLoop:
    def test_accumulation_matches_single_large_batch(self):
        """For every loss variant, two epochs in windows of 2 micro-batches
        end where windows of one batch of the same rows end. With
        micro-batches of 3 the 8 documents make windows of 6 and 2, so the
        last window is ragged: one micro-batch, smaller than the rest."""
        for name, loss in LOSSES.items():
            for micro, whole in ((2, 4), (3, 6)):
                params = {}
                for m, acc, key in ((micro, 2, "split"), (whole, 1, "whole")):
                    bundle = tiny_bundle(seed=5)
                    data = prepare_data(bundle, SAMPLES, seed=0)
                    cfg = quick_cfg(micro_batch=m, accumulation_steps=acc,
                                    max_epochs=2, seed=9, loss=loss)
                    train(bundle, data, data, cfg)
                    params[key] = {k: p.data.copy()
                                   for k, p in bundle.all_params().items()}
                worst = max(float(np.abs(params["split"][k] - params["whole"][k]).max())
                            for k in params["split"])
                assert worst < 1e-5, (name, micro)

    @pytest.mark.parametrize("loss", LOSSES.values(), ids=LOSSES.keys())
    def test_window_gradients_match_one_batch(self, loss, monkeypatch):
        """The gradients a window of 2 x 2 documents hands to the optimizer
        equal those of one backward through the loss of one 4-document
        batch of the same rows, up to float32 rounding: the scale applied
        after the per-micro-batch backward passes is d loss / d summed term
        for every loss variant."""
        rows = np.array([5, 0, 7, 2])
        bundle = tiny_bundle(seed=5)
        data = prepare_data(bundle, SAMPLES, seed=0)
        targets = make_targets(data.seq_ids)
        logits = tr._micro_logits(bundle, data, rows)
        backward(compute_loss(logits, targets[rows, :logits.shape[1]], loss))
        params = bundle.all_params()
        whole = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
        ad.zero_grads(params.values())

        split = {}
        real_norm = tr.grad_norm

        def capture(params):
            split.update({k: p.grad.copy() for k, p in params.items()
                          if p.grad is not None})
            return real_norm(params)

        monkeypatch.setattr(tr, "grad_norm", capture)
        cfg = quick_cfg(micro_batch=2, accumulation_steps=2, loss=loss)
        opt = window_optimizer(bundle, cfg)
        tr._train_window(bundle, data, targets, rows, np.random.default_rng(0), cfg,
                         opt, params, "window")
        assert set(split) == set(whole)
        scale = max(float(np.abs(g).max()) for g in whole.values())
        worst = max(float(np.abs(split[k] - g).max()) for k, g in whole.items())
        assert worst < 1e-6 * scale

    def test_non_finite_micro_batch_leaves_no_trace(self, monkeypatch):
        """A term that is not finite in a window's second micro-batch raises
        before that micro-batch's backward; the gradients the first
        micro-batch accumulated are cleared and no step runs, so parameters,
        AdamW moments, step counts and ``.grad`` are as before the window."""
        bundle = tiny_bundle(seed=3)
        data = prepare_data(bundle, SAMPLES, seed=0)
        targets = make_targets(data.seq_ids)
        cfg = quick_cfg(micro_batch=2, accumulation_steps=2)
        opt = window_optimizer(bundle, cfg)
        params = bundle.all_params()
        rng = np.random.default_rng(0)
        # one good window first, so that the moments and step counts are set
        tr._train_window(bundle, data, targets, np.arange(4), rng, cfg, opt,
                         params, "epoch 1 step 0")
        before_params = {k: p.data.copy() for k, p in params.items()}
        before_moments = {k: {m: a.copy() for m, a in st.items()}
                          for k, st in opt.state.items()}
        before_steps = [g["t"] for g in opt.groups]
        assert before_steps == [1, 1] and len(before_moments) == len(params)
        assert all(p.grad is None for p in params.values())

        forwards, backwards = [], []
        real_logits, real_backward = tr._micro_logits, ad.backward

        def poisoned(bundle, data, idx, rng=None):
            logits = real_logits(bundle, data, idx, rng)
            forwards.append(idx)
            return ad.mul_const(logits, np.nan) if len(forwards) == 2 else logits

        def counted(loss):
            backwards.append(loss)
            real_backward(loss)

        monkeypatch.setattr(tr, "_micro_logits", poisoned)
        monkeypatch.setattr(ad, "backward", counted)
        with pytest.raises(NonFiniteLoss, match="epoch 1 step 1 micro-batch 1: loss=nan"):
            tr._train_window(bundle, data, targets, np.arange(4, 8), rng, cfg, opt,
                             params, "epoch 1 step 1")
        # the first micro-batch did accumulate; the second ran no backward
        assert len(forwards) == 2 and len(backwards) == 1
        assert all(p.grad is None for p in params.values())
        assert [g["t"] for g in opt.groups] == before_steps
        for k, p in params.items():
            assert np.array_equal(p.data, before_params[k]), k
        assert set(opt.state) == set(before_moments)
        for k, st in opt.state.items():
            for m in ("m", "v"):
                assert np.array_equal(st[m], before_moments[k][m]), (k, m)

    def test_loss_decreases_on_separable_data(self):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        cfg = quick_cfg(max_epochs=8, seed=3,
                        lr_decoder=3e-3, lr_encoder=1e-3)
        result = train(bundle, data, data, cfg)
        losses = [r["train_loss"] for r in result.history]
        assert losses[-1] < losses[0] * 0.7

    def test_log_file_and_row_fields(self, tmp_path):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        cfg = quick_cfg(max_epochs=2)
        result = train(bundle, data, data, cfg, out_dir=tmp_path / "run")
        rows = [json.loads(l) for l in
                (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"epoch", "train_loss", "val_loss", "grad_norm",
                                "lr_enc", "lr_dec", "frozen", "docs_per_s",
                                "wall_time"}
        assert rows[0]["epoch"] == 1 and rows[1]["epoch"] == 2
        assert result.best_dir.exists() and result.last_dir.exists()

    def test_grad_norm_and_docs_per_s_logged(self, tmp_path, monkeypatch):
        norms = []
        real = tr.grad_norm

        def recording_norm(params):
            norms.append(real(params))
            return norms[-1]

        monkeypatch.setattr(tr, "grad_norm", recording_norm)
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        result = train(bundle, data, data, quick_cfg(max_epochs=1),
                       out_dir=tmp_path / "run")
        logged = json.loads((tmp_path / "run" / "train_log.jsonl").read_text())
        for row in (logged, result.history[0]):
            for key in ("grad_norm", "docs_per_s"):
                assert np.isfinite(row[key]) and row[key] > 0, (key, row)
        # two windows of 4 docs, each norm taken while the grads are present
        assert len(norms) == 2 and min(norms) > 0
        assert logged["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-12)

    def test_non_finite_loss_raises_with_rates(self):
        bundle = tiny_bundle()
        bundle.dec_params["out.b"].data[:] = np.nan
        data = prepare_data(bundle, SAMPLES, seed=0)
        with pytest.raises(NonFiniteLoss, match="lr_enc"):
            train(bundle, data, data, quick_cfg(max_epochs=1))

    def test_empty_splits_rejected(self):
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        empty = PreparedData([], np.zeros((0, 6), np.int32),
                             np.zeros((0, 6), np.int8), [])
        with pytest.raises(EmptyCorpus):
            train(bundle, empty, data, quick_cfg())
        with pytest.raises(EmptyCorpus):
            train(bundle, data, empty, quick_cfg())

    def test_window_tape_dies_with_its_window(self, monkeypatch):
        """Each training micro-batch's logits are freed, by reference count
        alone, before the next micro-batch's forward starts, in its own
        window or the next, and the last one's before ``evaluate_epoch``
        runs."""
        # 8 docs in micro-batches of 2, two to a window
        cfg = quick_cfg(max_epochs=2, micro_batch=2, accumulation_steps=2)
        refs = []
        real_logits, real_evaluate = tr._micro_logits, tr.evaluate_epoch

        def tracked_logits(bundle, data, idx, rng=None):
            if rng is not None:
                live = [j for j, r in enumerate(refs) if r() is not None]
                assert not live, f"micro-batch {len(refs)} starts with {live} alive"
            logits = real_logits(bundle, data, idx, rng)
            if rng is not None:
                refs.append(weakref.ref(logits.data))
            return logits

        def tracked_evaluate(*args, **kw):
            live = [j for j, r in enumerate(refs) if r() is not None]
            assert not live, f"evaluation starts with {live} alive"
            return real_evaluate(*args, **kw)

        monkeypatch.setattr(tr, "_micro_logits", tracked_logits)
        monkeypatch.setattr(tr, "evaluate_epoch", tracked_evaluate)
        bundle = tiny_bundle()
        data = prepare_data(bundle, SAMPLES, seed=0)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(bundle, data, data, cfg)
        finally:
            if was_enabled:
                gc.enable()
        assert len(refs) == 8

    def test_numerics_match_recorded_run(self):
        """Per-epoch validation losses and a digest of the final parameters of
        a seeded run (two layers, dropout, accumulation), recorded since
        each micro-batch of a window runs its own backward and the window
        objective then scales the summed gradients once, which moves their
        float32 rounding and so the last digits of every value: a change
        to the optimizer, the loss, a kernel's numerics or the random stream
        fails here, and the failure shows the observed values. The run gets
        one BLAS thread, so its float sums have one order; the values are
        those of numpy 2.4.6 with OpenBLAS 0.3.31, and another BLAS build may
        need new ones."""
        script = """
import hashlib, json
from test_trainer import SAMPLES, quick_cfg, tiny_bundle
from taxseq.trainer import prepare_data, train
bundle = tiny_bundle(seed=11, dropout=0.1, layers=2)
data = prepare_data(bundle, SAMPLES, seed=0)
dev = prepare_data(bundle, SAMPLES[:4], seed=1)
cfg = quick_cfg(max_epochs=3, seed=6, micro_batch=2, accumulation_steps=2)
result = train(bundle, data, dev, cfg)
digest = hashlib.sha256()
for k, p in sorted(bundle.all_params().items()):
    digest.update(k.encode() + b"\\0" + p.data.astype("<f4").tobytes())
print(json.dumps([[r["val_loss"] for r in result.history], digest.hexdigest()]))
"""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(Path(tr.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=300, check=True,
                              cwd=Path(__file__).parent)
        val_losses, digest = json.loads(done.stdout)
        # A declared re-record copies these from the failure message.
        observed = f"observed val_losses {val_losses!r}, digest {digest!r}"
        assert val_losses == [1.5817161314110866, 1.5608514654624293,
                              1.540813486662456], observed
        assert digest == "8d906f57a44ee49c90e01ea0ebdad3fb8e3b6ffb13a7105c2e0bda34d50a33a3", observed

    def test_stored_states_numerics_match_recorded_run(self):
        """A seeded run on a states store (padded and reordered rows, dropout,
        accumulation) keeps its recorded validation losses and parameter
        digest while the split holds the store's arrays, the states still
        memory-mapped, and gathers each batch's rows; one BLAS thread, as
        in ``test_numerics_match_recorded_run``, whose numpy and OpenBLAS
        builds recorded these values too."""
        script = """
import hashlib, json, tempfile
import numpy as np
from test_trainer import SAMPLES, quick_cfg, tiny_bundle
from taxseq.encoder import PrecomputedStates
from taxseq.trainer import prepare_data, train
rng = np.random.default_rng(5)
ids = [s.id for s in SAMPLES][::-1] + ["extra"]
mask = (np.arange(6) < rng.integers(2, 7, size=(9, 1))).astype(np.int8)
with tempfile.TemporaryDirectory() as root:
    PrecomputedStates.save(root, ids, rng.standard_normal((9, 6, 16)).astype(np.float32), mask)
    store = PrecomputedStates.open(root)
    bundle = tiny_bundle(seed=11, dropout=0.1, layers=2, precomputed=True)
    data = prepare_data(bundle, SAMPLES, seed=0, store=store)
    dev = prepare_data(bundle, SAMPLES[:4], seed=1, store=store)
    assert data.enc_hidden is store.hidden and isinstance(store.hidden, np.memmap)
    cfg = quick_cfg(max_epochs=3, seed=6, micro_batch=2, accumulation_steps=2)
    result = train(bundle, data, dev, cfg)
digest = hashlib.sha256()
for k, p in sorted(bundle.all_params().items()):
    digest.update(k.encode() + b"\\0" + p.data.astype("<f4").tobytes())
print(json.dumps([[r["val_loss"] for r in result.history], digest.hexdigest()]))
"""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(Path(tr.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=300, check=True,
                              cwd=Path(__file__).parent)
        val_losses, digest = json.loads(done.stdout)
        observed = f"observed val_losses {val_losses!r}, digest {digest!r}"
        assert val_losses == [1.5432250183780032, 1.5217536449186277,
                              1.5014236143810131], observed
        assert digest == "d8f2f0de2825e6fb9820a7013bc78064d051ee7f76e543d8293cace31fc5aeec", observed

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_encoder=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(plateau_patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(accumulation_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(micro_batch=0)
        with pytest.raises(ConfigError, match="max_epochs"):
            TrainConfig(max_epochs=0)


class TestModelBuild:
    def test_build_leaves_caller_configs_unchanged(self):
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6)
        dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, max_positions=2)
        enc_before, dec_before = asdict(enc_cfg), asdict(dec_cfg)
        tv = TextVocab.build([s.text for s in SAMPLES])
        bundle = ModelBundle.build(tiny_hierarchy(), Ordering.CHILD_TO_PARENT, 8,
                                   enc_cfg, dec_cfg, text_vocab=tv)
        assert asdict(enc_cfg) == enc_before and asdict(dec_cfg) == dec_before
        assert bundle.dec_cfg.vocab_size == bundle.vocab.size
        assert bundle.dec_cfg.max_positions == 8
        assert bundle.enc_cfg.vocab_size == tv.size

    def test_d_model_mismatch_rejected(self):
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6)
        dec_cfg = DecoderConfig(d_model=8, layers=1, heads=2, max_positions=8)
        with pytest.raises(ConfigError, match="encoder d_model 16 != decoder d_model 8"):
            ModelBundle.build(tiny_hierarchy(), Ordering.CHILD_TO_PARENT, 8, enc_cfg,
                              dec_cfg, text_vocab=TextVocab.build(["x"]))

    def test_stored_states_model_encodes_no_tokens(self):
        bundle = tiny_bundle(precomputed=True)
        with pytest.raises(ConfigError, match="encode_batch needs a trainable encoder"):
            bundle.encode_batch(np.ones((1, 3), np.int32), np.ones((1, 3), np.int8))


def assert_same_run(bundle_a, result_a, bundle_b, result_b):
    """Two training runs ended with equal parameters and equal history."""
    params_b = bundle_b.all_params()
    for k, p in bundle_a.all_params().items():
        assert np.array_equal(p.data, params_b[k].data), k
    assert len(result_a.history) == len(result_b.history)
    for a, b in zip(result_a.history, result_b.history):
        for key in ("epoch", "train_loss", "val_loss", "grad_norm", "lr_enc",
                    "lr_dec", "frozen"):
            assert a[key] == b[key], (a["epoch"], key)


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        bundle = tiny_bundle(seed=4)
        save_checkpoint(tmp_path / "ck", bundle, {"epoch": 0})
        loaded, manifest = load_checkpoint(tmp_path / "ck")
        assert loaded.hierarchy.labels == bundle.hierarchy.labels
        assert loaded.vocab.labels == bundle.vocab.labels
        assert ([loaded.vocab.id_of(n) for n in loaded.vocab.labels]
                == [bundle.vocab.id_of(n) for n in bundle.vocab.labels])
        assert loaded.ordering is bundle.ordering
        assert loaded.capacity == bundle.capacity
        assert loaded.text_vocab.word_to_id == bundle.text_vocab.word_to_id
        a, b = bundle.all_params(), loaded.all_params()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k
        assert manifest["train_state"] == {"epoch": 0}
        assert manifest["token_ids"]["<s>"] == 0
        assert manifest["token_ids"]["<unk>"] == 3

    def test_manifest_vocabulary_matches_recorded(self, tmp_path):
        # label order D, A, C, B, E over three levels; the values were
        # recorded from the manifest and pin its bytes
        h = LabelHierarchy.from_edges([(ROOT, "D"), (ROOT, "A"), ("A", "C"),
                                       ("A", "B"), ("B", "E")])
        save_checkpoint(tmp_path / "ck", tiny_bundle(h=h))
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert list(manifest["label_map"].items()) == [
            ("D", "[a_0]"), ("A", "[a_1]"), ("C", "[a_2]"), ("B", "[a_3]"), ("E", "[a_4]")]
        assert list(manifest["token_ids"].items()) == [
            ("<s>", 0), ("</s>", 1), ("<pad>", 2), ("<unk>", 3), ("[a_0]", 4),
            ("[a_1]", 5), ("[a_2]", 6), ("[a_3]", 7), ("[a_4]", 8)]
        assert manifest["vocab_hash"] == (
            "decf7c3b0b0ab4ad4f11cda2b218b00c1ecf7291fe6784db2414533676bfbdd8")

    def test_label_enumeration_order_survives(self, tmp_path):
        h = LabelHierarchy.from_edges([(ROOT, "B"), ("B", "C"), (ROOT, "A")])
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=4)
        dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, max_positions=8)
        tv = TextVocab.build(["x"])
        bundle = ModelBundle.build(h, Ordering.CHILD_TO_PARENT, 8, enc_cfg,
                                   dec_cfg, text_vocab=tv)
        save_checkpoint(tmp_path / "ck", bundle)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert loaded.hierarchy.labels == ["B", "C", "A"]
        assert loaded.vocab.id_of("B") == 4 and loaded.vocab.id_of("A") == 6

    def test_children_order_survives(self, tmp_path):
        h = LabelHierarchy.from_edges([("X", "x1"), (ROOT, "A"), ("A", "Y"), ("A", "X")])
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=4)
        dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, max_positions=8)
        bundle = ModelBundle.build(h, Ordering.CHILD_TO_PARENT, 8, enc_cfg,
                                   dec_cfg, text_vocab=TextVocab.build(["x"]))
        save_checkpoint(tmp_path / "ck", bundle)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert loaded.hierarchy.children == bundle.hierarchy.children
        assert loaded.hierarchy.top == bundle.hierarchy.top

    def test_unknown_format_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", tiny_bundle())
        mf = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["format"] = 2
        mf.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="format"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("corrupt, match", [
        (lambda m: "{not json", "not a JSON manifest"),
        (lambda m: {k: v for k, v in m.items() if k != "param_shapes"}, "param_shapes"),
        (lambda m: {**m, "enc_cfg": {**m["enc_cfg"], "depth": 3}}, "depth"),
        (lambda m: {**m, "dec_cfg": {**m["dec_cfg"], "depth": 3}}, "depth"),
        (lambda m: {**m, "taxonomy": {"parents": m["taxonomy"]["parents"]}},
         "missing key 'labels'"),
        (lambda m: {**m, "param_shapes": {k: v for k, v in m["param_shapes"].items()
                                          if k != "dec.out.b"}},
         "no shape recorded for parameter dec.out.b"),
    ], ids=["not-json", "missing-key", "unknown-enc-field", "unknown-dec-field",
            "missing-taxonomy-labels", "missing-param-shape"])
    def test_corrupt_manifest_rejected(self, tmp_path, corrupt, match):
        save_checkpoint(tmp_path / "ck", tiny_bundle())
        mf = tmp_path / "ck" / "manifest.json"
        bad = corrupt(json.loads(mf.read_text()))
        mf.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(ConfigError, match=match) as info:
            load_checkpoint(tmp_path / "ck")
        assert "manifest.json" in str(info.value)

    def test_reversed_param_shape_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", tiny_bundle())
        mf = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mf.read_text())
        shape = manifest["param_shapes"]["dec.l0.ff.w1"]
        manifest["param_shapes"]["dec.l0.ff.w1"] = shape[::-1]
        mf.write_text(json.dumps(manifest))
        with pytest.raises(ShapeMismatch, match="dec.l0.ff.w1") as info:
            load_checkpoint(tmp_path / "ck")
        assert "manifest.json" in str(info.value)

    def test_truncated_blobs_rejected(self, tmp_path):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        last = tmp_path / "run" / "last"
        moment = last / "moments" / "dec.out.b.m.bin"
        moment.write_bytes(moment.read_bytes()[:-4])
        with pytest.raises(ShapeMismatch, match="dec.out.b.m.bin"):
            train(tiny_bundle(seed=2), data, data, quick_cfg(max_epochs=2),
                  resume=last)
        param = last / "params" / "dec.out.b.bin"
        param.write_bytes(param.read_bytes()[:-4])
        with pytest.raises(ShapeMismatch, match="dec.out.b.bin"):
            load_checkpoint(last)

    @pytest.mark.parametrize("missing", [("m", "v"), ("v",)], ids=["both", "v-only"])
    def test_missing_moments_rejected(self, tmp_path, missing):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        last = tmp_path / "run" / "last"
        for which in missing:
            (last / "moments" / f"dec.l0.cross.bk.{which}.bin").unlink()
        with pytest.raises(ConfigError, match=rf"dec\.l0\.cross\.bk\.{missing[0]}\.bin"):
            train(tiny_bundle(seed=2), data, data, quick_cfg(max_epochs=2), resume=last)

    def test_resume_from_best_rejected(self, tmp_path):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="last"):
            train(tiny_bundle(seed=2), data, data, quick_cfg(max_epochs=2),
                  resume=tmp_path / "run" / "best")

    def test_corrupted_taxonomy_rejected(self, tmp_path):
        bundle = tiny_bundle()
        save_checkpoint(tmp_path / "ck", bundle)
        mf = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["taxonomy"]["labels"] = manifest["taxonomy"]["labels"][::-1]
        mf.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="vocabulary"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("saved, resumed, named", [
        ({}, {"layers": 2}, "enc_cfg.layers differs (1 in the checkpoint, 2 here)"),
        ({"layers": 2}, {}, "enc_cfg.layers differs (2 in the checkpoint, 1 here)"),
        ({"d_model": 8}, {}, "enc_cfg.d_model differs (8 in the checkpoint, 16 here)"),
        ({}, {"h": LabelHierarchy.from_edges(
            [(ROOT, "D"), (ROOT, "A"), ("A", "C"), ("A", "B")])}, "taxonomy differs"),
        ({}, {"ordering": Ordering.PARENT_TO_CHILD}, "ordering differs"),
        ({}, {"dec_heads": 4}, "dec_cfg.heads differs (2 in the checkpoint, 4 here)"),
    ], ids=["more-layers", "fewer-layers", "wider", "taxonomy-order", "ordering",
            "decoder-heads"])
    def test_resume_into_different_model_rejected(self, tmp_path, saved, resumed, named):
        bundle = tiny_bundle(seed=2, **saved)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        other = tiny_bundle(seed=2, **resumed)
        before = {k: p.data.copy() for k, p in other.all_params().items()}
        with pytest.raises(ConfigError) as err:
            train(other, prepare_data(other, SAMPLES, seed=0),
                  prepare_data(other, SAMPLES, seed=0), quick_cfg(max_epochs=2),
                  resume=tmp_path / "run" / "last")
        assert str(err.value).startswith(str(tmp_path / "run" / "last" / "manifest.json"))
        assert named in str(err.value)
        for k, p in other.all_params().items():
            assert np.array_equal(p.data, before[k]), k

    @pytest.mark.parametrize("corrupt, named", [
        (lambda m: m.pop("label_map"), "missing key 'label_map'"),
        (lambda m: m.pop("token_ids"), "missing key 'token_ids'"),
        (lambda m: m["dec_cfg"].pop("dropout"),
         "dec_cfg.dropout differs (absent in the checkpoint, 0.0 here)"),
        (lambda m: m["enc_cfg"].update(depth=3),
         "enc_cfg.depth differs (3 in the checkpoint, absent here)"),
    ], ids=["no-label-map", "no-token-ids", "no-dec-dropout", "unknown-enc-field"])
    def test_resume_from_incomplete_manifest_rejected(self, tmp_path, corrupt, named):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        mf = tmp_path / "run" / "last" / "manifest.json"
        manifest = json.loads(mf.read_text())
        corrupt(manifest)
        mf.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError) as err:
            train(tiny_bundle(seed=2), data, data, quick_cfg(max_epochs=2),
                  resume=mf.parent)
        assert str(err.value).startswith(str(mf)) and named in str(err.value)

    def test_resume_builds_no_model(self, tmp_path, monkeypatch):
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        builds = []
        real_build = ModelBundle.build.__func__

        def counting_build(cls, *args, **kw):
            builds.append(args)
            return real_build(cls, *args, **kw)

        resumed = tiny_bundle(seed=2)
        monkeypatch.setattr(ModelBundle, "build", classmethod(counting_build))
        train(resumed, data, data, quick_cfg(max_epochs=2), resume=tmp_path / "run" / "last")
        assert builds == []

    @pytest.fixture(scope="class")
    def one_epoch_last(self, tmp_path_factory):
        """The ``last`` checkpoint of a 1-epoch run; copy it before editing."""
        out = tmp_path_factory.mktemp("run")
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=out)
        return out / "last"

    @pytest.mark.parametrize("path", [
        ("train_state", "rng_state"), ("train_state", "history"),
        ("train_state", "scheduler"), ("train_state", "best"), ("train_state", "epoch"),
        ("train_state", "scheduler", "stall"), ("train_state", "best", "val"),
        ("optimizer", 0, "name"), ("optimizer", 1, "lr"), ("optimizer", 0, "frozen"),
        ("optimizer", 1, "t"),
    ], ids=lambda path: "-".join(map(str, path)))
    def test_resume_state_missing_key_rejected(self, tmp_path, one_epoch_last, path):
        last = shutil.copytree(one_epoch_last, tmp_path / "last")
        mf = last / "manifest.json"
        manifest = json.loads(mf.read_text())
        *parents, key = path
        owner = manifest
        for step in parents:
            owner = owner[step]
        del owner[key]
        mf.write_text(json.dumps(manifest))
        resumed = tiny_bundle(seed=2)
        data = prepare_data(resumed, SAMPLES, seed=0)
        before = {k: p.data.copy() for k, p in resumed.all_params().items()}
        with pytest.raises(ConfigError) as err:
            train(resumed, data, data, quick_cfg(max_epochs=2), resume=last)
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)
        assert str(err.value) == f"{mf}: missing key '{where[1:]}'"
        for k, p in resumed.all_params().items():
            assert np.array_equal(p.data, before[k]), k

    @pytest.mark.parametrize("corrupt, named", [
        (lambda m: m["train_state"].update(scheduler=[]),
         "'train_state.scheduler' must be a JSON object"),
        (lambda m: m["optimizer"].__setitem__(1, "dec"), "'optimizer[1]' must be a JSON object"),
        (lambda m: m.update(optimizer={}), "'optimizer' must be a list of groups"),
    ], ids=["scheduler-list", "group-string", "optimizer-object"])
    def test_resume_state_wrong_type_rejected(self, tmp_path, one_epoch_last, corrupt, named):
        last = shutil.copytree(one_epoch_last, tmp_path / "last")
        mf = last / "manifest.json"
        manifest = json.loads(mf.read_text())
        corrupt(manifest)
        mf.write_text(json.dumps(manifest))
        resumed = tiny_bundle(seed=2)
        data = prepare_data(resumed, SAMPLES, seed=0)
        with pytest.raises(ConfigError) as err:
            train(resumed, data, data, quick_cfg(max_epochs=2), resume=last)
        assert str(err.value) == f"{mf}: {named}"

    @pytest.mark.parametrize("corrupt, key", [
        (lambda m: m["optimizer"][0].update(name="encoder"), "optimizer"),
        (lambda m: m["optimizer"].pop(1), "optimizer"),
        (lambda m: m["optimizer"].__setitem__(1, dict(m["optimizer"][0])), "optimizer"),
        (lambda m: m["optimizer"][0].update(t=1.5), "optimizer[0].t"),
        (lambda m: m["optimizer"][0].update(frozen="no"), "optimizer[0].frozen"),
        (lambda m: m["optimizer"][1].update(lr="fast"), "optimizer[1].lr"),
        (lambda m: m["optimizer"][1].update(lr=float("nan")), "optimizer[1].lr"),
        (lambda m: m["optimizer"][1].update(t="x"), "optimizer[1].t"),
        (lambda m: m["train_state"].update(epoch="x"), "train_state.epoch"),
        (lambda m: m["train_state"]["scheduler"].update(bad=-1), "train_state.scheduler.bad"),
        (lambda m: m["train_state"].update(history=3), "train_state.history"),
        (lambda m: m["train_state"].update(rng_state={"x": 1}), "train_state.rng_state"),
        (lambda m: m["train_state"]["best"].update(val="x"), "train_state.best.val"),
    ], ids=["group-renamed", "group-dropped", "group-twice", "t-fraction", "frozen-string",
            "lr-string", "lr-nan", "t-string", "epoch-string", "bad-negative",
            "history-number", "rng-state-foreign", "best-val-string"])
    def test_resume_state_bad_value_rejected(self, tmp_path, one_epoch_last, corrupt, key):
        """A training record of the wrong value raises ``ConfigError`` naming
        the manifest and the key before any parameter or group changes."""
        last = shutil.copytree(one_epoch_last, tmp_path / "last")
        mf = last / "manifest.json"
        manifest = json.loads(mf.read_text())
        corrupt(manifest)
        mf.write_text(json.dumps(manifest))
        resumed = tiny_bundle(seed=2)
        data = prepare_data(resumed, SAMPLES, seed=0)
        before = {k: p.data.copy() for k, p in resumed.all_params().items()}
        with pytest.raises(ConfigError) as err:
            train(resumed, data, data, quick_cfg(max_epochs=2), resume=last)
        assert str(err.value).startswith(f"{mf}: '{key}' ")
        for k, p in resumed.all_params().items():
            assert p.requires_grad, k
            assert np.array_equal(p.data, before[k]), k

    @pytest.mark.parametrize("precomputed", [False, True], ids=["tokens", "store"])
    def test_load_draws_no_random_model(self, tmp_path, monkeypatch, precomputed):
        bundle = tiny_bundle(seed=4, precomputed=precomputed)
        save_checkpoint(tmp_path / "ck", bundle)

        def refuse(*args, **kw):
            raise AssertionError("a random initialization was drawn")

        monkeypatch.setattr(encoder, "trunc_normal", refuse)
        with pytest.raises(AssertionError, match="random initialization"):
            tiny_bundle(seed=4, precomputed=precomputed)
        monkeypatch.setattr(ModelBundle, "build", classmethod(refuse))
        loaded, _ = load_checkpoint(tmp_path / "ck")
        assert list(loaded.all_params()) == list(bundle.all_params())
        for k, p in loaded.all_params().items():
            assert p.name == k.split(".", 1)[1]
            assert p.data.dtype == np.float32 and p.data.flags.writeable, k
            assert p.data.ctypes.data % 64 == 0, k
            assert p.data.tobytes() == (tmp_path / "ck" / "params" / f"{k}.bin").read_bytes(), k
        assert asdict(loaded.enc_cfg) == asdict(bundle.enc_cfg)
        assert asdict(loaded.dec_cfg) == asdict(bundle.dec_cfg)

    def test_blobs_hold_live_arrays(self, tmp_path, monkeypatch):
        optimizers = []

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                optimizers.append(self)

        monkeypatch.setattr(tr, "AdamW", RecordingAdamW)
        bundle = tiny_bundle(seed=2)
        data = prepare_data(bundle, SAMPLES, seed=0)
        train(bundle, data, data, quick_cfg(max_epochs=1), out_dir=tmp_path / "run")
        last = tmp_path / "run" / "last"
        for k, p in bundle.all_params().items():
            want = np.asarray(p.data, "<f4").tobytes()
            assert (last / "params" / f"{k}.bin").read_bytes() == want, k
        [opt] = optimizers
        blobs = sorted(f.name for f in (last / "moments").iterdir())
        assert len(blobs) == 2 * len(opt.state) == 2 * len(bundle.all_params())
        for key, mv in opt.state.items():
            for which in ("m", "v"):
                blob = last / "moments" / f"{key.replace('/', '.')}.{which}.bin"
                assert blob.read_bytes() == np.asarray(mv[which], "<f4").tobytes(), blob

    def test_legacy_mode_field_loads_and_resumes(self, tmp_path):
        """Checkpoints written while ``EncoderConfig`` had a ``mode`` field
        carry it in ``enc_cfg``; they still load, and resume bit-identically."""
        def add_mode(ckpt, mode):
            mf = ckpt / "manifest.json"
            manifest = json.loads(mf.read_text())
            manifest["enc_cfg"] = {"mode": mode, **manifest["enc_cfg"]}
            mf.write_text(json.dumps(manifest, indent=1))

        stored = tiny_bundle(seed=3, precomputed=True)
        save_checkpoint(tmp_path / "stored", stored)
        add_mode(tmp_path / "stored", "precomputed")
        loaded, manifest = load_checkpoint(tmp_path / "stored")
        assert loaded.text_vocab is None and loaded.enc_params == {}
        assert "mode" not in manifest["enc_cfg"]
        for k, p in stored.all_params().items():
            assert np.array_equal(p.data, loaded.all_params()[k].data), k

        def run(out, epochs, resume=None):
            bundle = tiny_bundle(seed=11, dropout=0.1)
            data = prepare_data(bundle, SAMPLES, seed=0)
            cfg = quick_cfg(max_epochs=epochs, seed=6, micro_batch=2)
            return bundle, train(bundle, data, data, cfg, out_dir=out, resume=resume)

        full_bundle, full = run(tmp_path / "full", 3)
        run(tmp_path / "part", 2)
        add_mode(tmp_path / "part" / "last", "trainable")
        loaded, _ = load_checkpoint(tmp_path / "part" / "last")
        assert loaded.text_vocab is not None and loaded.enc_params
        resumed_bundle, resumed = run(tmp_path / "cont", 3, resume=tmp_path / "part" / "last")
        for k, p in full_bundle.all_params().items():
            assert np.array_equal(p.data, resumed_bundle.all_params()[k].data), k
        assert ([r["val_loss"] for r in full.history]
                == [r["val_loss"] for r in resumed.history])

    def test_resume_is_bit_identical(self, tmp_path):
        def run(out, epochs, resume=None, seed=6):
            bundle = tiny_bundle(seed=11, dropout=0.1)
            data = prepare_data(bundle, SAMPLES, seed=0)
            dev = prepare_data(bundle, SAMPLES[:4], seed=1)
            cfg = quick_cfg(max_epochs=epochs, seed=seed, micro_batch=2,
                            accumulation_steps=2)
            result = train(bundle, data, dev, cfg, out_dir=out, resume=resume)
            return bundle, result

        full_bundle, full = run(tmp_path / "full", 4)
        part_bundle, part = run(tmp_path / "part", 2)
        resumed_bundle, resumed = run(tmp_path / "cont", 4,
                                      resume=tmp_path / "part" / "last")

        assert [r["epoch"] for r in resumed.history] == [1, 2, 3, 4]
        for k, p in full_bundle.all_params().items():
            assert np.array_equal(p.data, resumed_bundle.all_params()[k].data), k
        for a, b in zip(full.history, resumed.history):
            for key in ("epoch", "train_loss", "val_loss", "grad_norm", "lr_enc",
                        "lr_dec", "frozen"):
                assert a[key] == b[key]
        # the halves really differ from the full run midway
        assert part.history[-1]["epoch"] == 2
        assert full.history[2]["train_loss"] != part.history[-1]["train_loss"]

    @pytest.mark.parametrize("split_at", [11, 12, 13])
    def test_resume_after_encoder_froze_is_bit_identical(self, tmp_path, monkeypatch,
                                                         split_at):
        """A constant validation loss cuts the learning rates on a plateau, as
        gate 08(b) forces it, so the encoder group is frozen from epoch 11;
        resuming from a checkpoint saved with it frozen gives the full run."""
        monkeypatch.setattr(tr, "evaluate_epoch", lambda *a, **kw: 1.0)

        def run(epochs, out=None, resume=None):
            bundle = tiny_bundle(seed=2, dropout=0.1)
            data = prepare_data(bundle, SAMPLES, seed=0)
            cfg = quick_cfg(max_epochs=epochs, seed=2, lr_encoder=5e-5, lr_decoder=3e-4,
                            plateau_patience=3, plateau_factor=0.1,
                            encoder_freeze_threshold=5e-7, early_stop_patience=100)
            return bundle, train(bundle, data, data, cfg, out_dir=out, resume=resume)

        full_bundle, full = run(14)
        assert [r["frozen"] for r in full.history] == [False] * 10 + [True] * 4
        run(split_at, tmp_path / "part")
        manifest = json.loads((tmp_path / "part" / "last" / "manifest.json").read_text())
        assert {g["name"]: g["frozen"] for g in manifest["optimizer"]} == {"enc": True,
                                                                          "dec": False}
        resumed_bundle, resumed = run(14, resume=tmp_path / "part" / "last")
        assert_same_run(full_bundle, full, resumed_bundle, resumed)

    def test_resume_of_stored_states_model_is_bit_identical(self, tmp_path):
        """A stored-states model's encoder group has no parameters and never
        steps, so its checkpoint holds no moments for it and resume loads none."""
        hidden = np.random.default_rng(5).standard_normal((len(SAMPLES), 6, 16))
        store = PrecomputedStates.save(tmp_path / "st", [s.id for s in SAMPLES],
                                       hidden.astype(np.float32), np.ones((len(SAMPLES), 6)))

        def run(epochs, out=None, resume=None):
            bundle = tiny_bundle(seed=3, dropout=0.1, precomputed=True)
            data = prepare_data(bundle, SAMPLES, seed=0, store=store)
            cfg = quick_cfg(max_epochs=epochs, seed=6, micro_batch=2)
            return bundle, train(bundle, data, data, cfg, out_dir=out, resume=resume)

        full_bundle, full = run(4)
        run(2, tmp_path / "part")
        manifest = json.loads((tmp_path / "part" / "last" / "manifest.json").read_text())
        assert {g["name"]: g["t"] for g in manifest["optimizer"]}["enc"] == 0
        assert not any(f.name.startswith("enc.")
                       for f in (tmp_path / "part" / "last" / "moments").iterdir())
        resumed_bundle, resumed = run(4, resume=tmp_path / "part" / "last")
        assert_same_run(full_bundle, full, resumed_bundle, resumed)

    def test_failed_save_keeps_previous_last(self, tmp_path, monkeypatch):
        def run(epochs, out=None, resume=None):
            bundle = tiny_bundle(seed=11, dropout=0.1)
            data = prepare_data(bundle, SAMPLES, seed=0)
            cfg = quick_cfg(max_epochs=epochs, seed=6, micro_batch=2)
            return bundle, train(bundle, data, data, cfg, out_dir=out,
                                 resume=resume)

        full_bundle, full = run(4)
        out = tmp_path / "run"
        run(2, out)
        before = {f.relative_to(out / "last"): f.read_bytes()
                  for f in (out / "last").rglob("*") if f.is_file()}

        # epoch 3's save of last/ fails after a few of its blobs are written
        real_write = type(out).write_bytes
        written = []

        def failing_write(path, data):
            if path.parent.parent.name.startswith(".last."):
                written.append(path)
                if len(written) == 5:
                    raise OSError("disk full")
            return real_write(path, data)

        monkeypatch.setattr(type(out), "write_bytes", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run(4, out, resume=out / "last")
        monkeypatch.undo()

        assert len(written) == 5
        after = {f.relative_to(out / "last"): f.read_bytes()
                 for f in (out / "last").rglob("*") if f.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == ["best", "last",
                                                         "train_log.jsonl"]
        _, manifest = load_checkpoint(out / "last")
        assert manifest["train_state"]["epoch"] == 2

        resumed_bundle, resumed = run(4, tmp_path / "cont", resume=out / "last")
        for k, p in full_bundle.all_params().items():
            assert np.array_equal(p.data, resumed_bundle.all_params()[k].data), k
        strip = lambda h: [{k: v for k, v in row.items()
                            if k not in ("wall_time", "docs_per_s")} for row in h]
        assert strip(full.history) == strip(resumed.history)

    def test_save_replaces_existing_directory(self, tmp_path):
        bundle = tiny_bundle()
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "stale.bin").write_bytes(b"x")
        assert save_checkpoint(tmp_path / "ck", bundle) == tmp_path / "ck"
        assert not (tmp_path / "ck" / "stale.bin").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        loaded, _ = load_checkpoint(tmp_path / "ck")
        for k, p in bundle.all_params().items():
            assert np.array_equal(p.data, loaded.all_params()[k].data), k

    def test_resume_restores_optimizer_moments(self, tmp_path):
        bundle = tiny_bundle(seed=1)
        data = prepare_data(bundle, SAMPLES, seed=0)
        cfg = quick_cfg(max_epochs=1, seed=2)
        train(bundle, data, data, cfg, out_dir=tmp_path / "a")
        moments = sorted(p.name for p in (tmp_path / "a" / "last" / "moments").iterdir())
        assert any(n.startswith("enc.embed") for n in moments)
        assert any(n.startswith("dec.out.w") for n in moments)
        assert all(n.endswith((".m.bin", ".v.bin")) for n in moments)
        manifest = json.loads(
            (tmp_path / "a" / "last" / "manifest.json").read_text())
        groups = {g["name"]: g for g in manifest["optimizer"]}
        assert groups["enc"]["t"] == 2 and groups["dec"]["t"] == 2
        assert manifest["train_state"]["rng_state"]["bit_generator"] == "PCG64"
