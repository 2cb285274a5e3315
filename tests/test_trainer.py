"""Optimizer, scheduler, accumulation, checkpointing, and resume."""

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracles import adamw_reference_step, adamw_reference_steps

from taxseq import trainer as tr
from taxseq.autodiff import Parameter, backward
from taxseq.codec import PAD_ID, Ordering, capacity_for
from taxseq.corpus import Sample
from taxseq.decoder import DecoderConfig
from taxseq.encoder import EncoderConfig, PrecomputedStates, TextVocab
from taxseq.errors import ConfigError, EmptyCorpus, NonFiniteLoss, ShapeMismatch
from taxseq.loss import LossConfig, compute_loss
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
                mode="trainable", layers=1, d_model=16, dec_heads=2, h=None):
    h = h or tiny_hierarchy()
    cap = capacity_for([s.labels for s in SAMPLES], h, strategy=ordering)
    enc_cfg = EncoderConfig(mode=mode, d_model=d_model, layers=layers, heads=2,
                            max_len=6, dropout=dropout)
    dec_cfg = DecoderConfig(d_model=d_model, layers=layers, heads=dec_heads,
                            dropout=dropout, max_positions=8)
    tv = TextVocab.build([s.text for s in SAMPLES]) if mode == "trainable" else None
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

    def test_state_round_trip(self):
        a = Parameter(np.array([[1.0]]), name="w")
        opt = AdamW()
        opt.add_group("enc", {"w": a}, 1e-2)
        a.grad = np.array([[0.5]])
        opt.step()
        sd = opt.state_dict()
        b = Parameter(np.array([[1.0]]), name="w")
        opt2 = AdamW()
        opt2.add_group("enc", {"w": b}, 9.0)
        opt2.load_state_dict({"groups": sd["groups"]}, sd["moments"])
        assert opt2.group("enc")["lr"] == 1e-2 and opt2.group("enc")["t"] == 1
        assert np.array_equal(opt2.state["enc/w"]["m"], opt.state["enc/w"]["m"])

    def test_grad_norm(self):
        a = Parameter(np.zeros(2), name="a")
        b = Parameter(np.zeros(2), name="b")
        a.grad = np.array([3.0, 0.0])
        assert grad_norm({"a": a, "b": b}) == pytest.approx(3.0)
        b.grad = np.array([0.0, 4.0])
        assert grad_norm({"a": a, "b": b}) == pytest.approx(5.0)


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
        bundle = tiny_bundle(mode="precomputed")
        store = PrecomputedStates.create(tmp_path / "st", d_model=16, max_len=6)
        for s in SAMPLES:
            store.write(s.id, rng.standard_normal((6, 16)).astype(np.float32),
                        np.array([1, 1, 1, 1, 0, 0], dtype=np.float32))
        data = prepare_data(bundle, SAMPLES, seed=0, store=store)
        assert data.enc_hidden.shape == (8, 6, 16)
        assert data.text_ids is None
        hidden, mask = bundle.encoder_states(data, np.array([2, 5]))
        # the batch is cut after its last real column
        assert hidden.data.shape == (2, 4, 16) and mask.shape == (2, 4)
        assert np.array_equal(mask, np.ones((2, 4), np.int8))
        assert np.array_equal(hidden.data, data.enc_hidden[[2, 5], :4])

    def test_store_mask_hole_keeps_last_real_column(self, tmp_path, rng):
        bundle = tiny_bundle(mode="precomputed")
        store = PrecomputedStates.create(tmp_path / "st", d_model=16, max_len=6)
        masks = {"s0": [1, 0, 0, 1, 0, 0], "s1": [1, 1, 0, 0, 0, 0]}
        for s in SAMPLES:
            store.write(s.id, rng.standard_normal((6, 16)).astype(np.float32),
                        np.array(masks.get(s.id, [1] * 6), dtype=np.float32))
        data = prepare_data(bundle, SAMPLES, seed=0, store=store)
        hidden, mask = bundle.encoder_states(data, np.array([0, 1]))
        assert mask.tolist() == [[1, 0, 0, 1], [1, 1, 0, 0]]
        assert np.array_equal(hidden.data, data.enc_hidden[:2, :4])

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
        bundle = tiny_bundle(mode="precomputed")
        with pytest.raises(ConfigError, match="store"):
            prepare_data(bundle, SAMPLES, seed=0)
        store = PrecomputedStates.create(tmp_path / "st", d_model=8, max_len=6)
        with pytest.raises(ConfigError, match="d_model"):
            prepare_data(bundle, SAMPLES, seed=0, store=store)
        with pytest.raises(ConfigError, match="trainable"):
            prepare_data(tiny_bundle(), SAMPLES, seed=0, store=store)

    def test_empty_split(self):
        with pytest.raises(EmptyCorpus):
            prepare_data(tiny_bundle(), [], seed=0)


class TestEvaluateEpoch:
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


class TestTrainLoop:
    def test_accumulation_matches_single_large_batch(self):
        params = {}
        for micro, acc, key in ((2, 2, "split"), (4, 1, "whole")):
            bundle = tiny_bundle(seed=5)
            data = prepare_data(bundle, SAMPLES, seed=0)
            cfg = quick_cfg(micro_batch=micro, accumulation_steps=acc,
                            max_epochs=2, seed=9)
            train(bundle, data, data, cfg)
            params[key] = {k: p.data.copy()
                           for k, p in bundle.all_params().items()}
        worst = max(float(np.abs(params["split"][k] - params["whole"][k]).max())
                    for k in params["split"])
        assert worst < 1e-5

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
        alone, before the next window's first forward, and the last window's
        before ``evaluate_epoch`` runs."""
        # 8 docs in micro-batches of 2: micro-batch i is in window i // 2
        cfg = quick_cfg(max_epochs=2, micro_batch=2, accumulation_steps=2)
        refs = []
        real_logits, real_evaluate = tr._micro_logits, tr.evaluate_epoch

        def tracked_logits(bundle, data, idx, rng=None):
            if rng is not None:
                live = [j for j, r in enumerate(refs)
                        if r() is not None and j // 2 < len(refs) // 2]
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
        a seeded run (two layers, dropout, accumulation), recorded since each
        dropout mask covers only the columns its batch keeps: a change to the
        optimizer, the loss, a kernel's numerics or the random stream fails
        here. The run gets one BLAS thread,
        so its float sums have one order; the values are those of numpy 2.4.6
        with OpenBLAS 0.3.31, and another BLAS build may need new ones."""
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
        assert val_losses == [1.580951711772323, 1.5596026207340836, 1.5386599086865103]
        assert digest == "e3b7d92a11ac032703f67486dbe6daac0610d2b3f49e04642721a82a1d9a98e1"

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


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        bundle = tiny_bundle(seed=4)
        save_checkpoint(tmp_path / "ck", bundle, {"epoch": 0})
        loaded, manifest = load_checkpoint(tmp_path / "ck")
        assert loaded.hierarchy.labels == bundle.hierarchy.labels
        assert loaded.vocab.label_to_id == bundle.vocab.label_to_id
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
    ], ids=["not-json", "missing-key", "unknown-enc-field", "unknown-dec-field"])
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
