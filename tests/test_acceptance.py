"""Acceptance gates for the whole package.

Each test below is one numbered gate; ``pytest -v tests/test_acceptance.py``
prints exactly one pass/fail line per gate. The slow gates (6 and 7) train
real models on synthetic corpora and take a few minutes combined.
"""

import json
import math
import time

import numpy as np
import pytest

import taxseq.trainer as tr
from taxseq import autodiff as ad
from taxseq.autodiff import Parameter, Tensor
from taxseq.codec import (BOS_ID, EOS_ID, PAD_ID, SEP_ID, N_SPECIALS,
                          Ordering, build_vocab, capacity_for, decode, encode)
from taxseq.corpus import Sample, SynthConfig, generate_synthetic, load_splits
from taxseq.decoder import DecoderConfig
from taxseq.encoder import EncoderConfig, TextVocab
from taxseq.inference import beam_decode_ids, greedy_decode_ids, predict_prepared
from taxseq.loss import LossConfig, LossVariant, compute_loss
from taxseq.metrics import micro_macro_f1, per_label_scores
from taxseq.model import ModelBundle
from taxseq.taxonomy import ROOT, LabelHierarchy
from taxseq.trainer import (AdamW, TrainConfig, load_checkpoint, prepare_data,
                            save_checkpoint, train)

from conftest import build_news_tree, random_closed_sets
from oracles import f1_counts_reference, f1_from_counts, relative_error

GRAD_TOL = 1e-3
FD_EPS = 1e-3


# ---------------------------------------------------------------------------
# shared small-model helpers
# ---------------------------------------------------------------------------

TINY_SAMPLES = [
    Sample("s0", "bat ball bat", {"A", "B"}),
    Sample("s1", "ball bat ball", {"A", "B"}),
    Sample("s2", "cold snow ice", {"A", "C"}),
    Sample("s3", "snow ice cold", {"A", "C"}),
    Sample("s4", "drum drum tune", {"D"}),
    Sample("s5", "tune drum tune", {"D"}),
    Sample("s6", "ball snow ball", {"A", "B"}),
    Sample("s7", "ice cold ice", {"A", "C"}),
]


def tiny_bundle(seed=0, dropout=0.0):
    h = LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), (ROOT, "D")])
    cap = capacity_for([s.labels for s in TINY_SAMPLES], h)
    enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=6,
                            dropout=dropout)
    dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, dropout=dropout,
                            max_positions=8)
    tv = TextVocab.build([s.text for s in TINY_SAMPLES])
    return ModelBundle.build(h, Ordering.CHILD_TO_PARENT, cap, enc_cfg,
                             dec_cfg, seed=seed, text_vocab=tv)


def fd_check(fn, tensors, eps=FD_EPS):
    """Worst relative error between backward grads and central differences."""
    for t in tensors:
        t.grad = None
    out = fn()
    ad.backward(out)
    worst = 0.0
    for t in tensors:
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = fn().item()
            flat[i] = keep - eps
            dn = fn().item()
            flat[i] = keep
            nflat[i] = (up - dn) / (2 * eps)
        worst = max(worst, relative_error(t.grad, num))
    return worst


def p64(arr):
    return Parameter(np.asarray(arr, dtype=np.float64), name="p")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(7)

    def arr(*shape):
        return rng.standard_normal(shape)

    # every differentiable op, full finite differences on small shapes
    x = p64(arr(2, 3)); y = p64(arr(3))
    assert fd_check(lambda: ad.tsum(ad.mul(ad.add(x, y), x)), [x, y]) < GRAD_TOL

    m = p64(arr(2, 3, 4)); w = p64(arr(4, 5))
    assert fd_check(lambda: ad.tsum(ad.matmul(m, w)), [m, w]) < GRAD_TOL

    lx = p64(arr(3, 4)); lw = p64(arr(4, 2)); lb = p64(arr(2))
    assert fd_check(lambda: ad.tsum(ad.power(ad.linear(lx, lw, lb), 2.0)),
                    [lx, lw, lb]) < GRAD_TOL

    table = p64(arr(5, 3)); ids = np.array([[0, 2], [4, 2]])
    assert fd_check(lambda: ad.tsum(ad.exp(ad.scale(ad.embed(table, ids), 0.5))),
                    [table]) < GRAD_TOL

    s = p64(arr(2, 4)); sw = rng.standard_normal((2, 4))
    assert fd_check(lambda: ad.tsum(ad.mul_const(ad.softmax(s, axis=-1), sw)),
                    [s]) < GRAD_TOL

    nx = p64(arr(3, 6) * 2); ng = p64(1 + 0.1 * arr(6)); nb = p64(arr(6))
    assert fd_check(lambda: ad.tsum(ad.gelu(ad.layer_norm(nx, ng, nb))),
                    [nx, ng, nb]) < GRAD_TOL

    r = p64(arr(2, 6))
    assert fd_check(
        lambda: ad.mean(ad.concat(
            [ad.transpose(ad.reshape(r, (2, 3, 2)), (1, 0, 2)),
             ad.transpose(ad.reshape(r, (2, 3, 2)), (1, 0, 2))], axis=-1)),
        [r]) < GRAD_TOL

    q = p64(arr(1, 2, 3, 4)); k = p64(arr(1, 2, 5, 4)); v = p64(arr(1, 2, 5, 4))
    att_mask = np.zeros((1, 1, 3, 5)); att_mask[..., 4:] = -1e9
    assert fd_check(
        lambda: ad.tsum(ad.scaled_dot_attention(q, k, v, mask=att_mask)),
        [q, k, v]) < GRAD_TOL

    mha_x = p64(arr(1, 3, 8))
    mha_p = {n: p64(arr(8, 8)) for n in ("wq", "wk", "wv", "wo")}
    mha_p |= {n: p64(arr(8)) for n in ("bq", "bk", "bv", "bo")}
    assert fd_check(
        lambda: ad.tsum(ad.multi_head_attention(
            mha_x, mha_x, mha_x, None, 2, mha_p)),
        [mha_x] + list(mha_p.values())) < GRAD_TOL

    ce_x = p64(arr(2, 3, 6))
    ce_t = np.array([[4, 0, 2], [1, 2, 5]])
    ce_cfg = LossConfig(variant=LossVariant.PLAIN_CE, smoothing=0.1, ignore_id=2)
    assert fd_check(lambda: compute_loss(ce_x, ce_t, ce_cfg), [ce_x]) < GRAD_TOL
    assert fd_check(
        lambda: ad.tsum(ad.smoothed_nll_per_position(ce_x, ce_t, 0.1, 2)[0]),
        [ce_x]) < GRAD_TOL

    # full encoder + decoder + focal-loss composite
    bundle = tiny_bundle(seed=1)
    params = bundle.all_params()
    for p in params.values():
        p.data = p.data.astype(np.float64)
    data = prepare_data(bundle, TINY_SAMPLES[:3], seed=0)
    targets = tr.make_targets(data.seq_ids)
    cfg = LossConfig(variant=LossVariant.FOCAL_BATCH, gamma=2.0, smoothing=0.1)

    def composite():
        hidden = bundle.encode_batch(data.text_ids, data.text_mask)
        logits = bundle.decoder_logits(data.seq_ids, data.seq_mask, hidden,
                                       data.text_mask)
        return compute_loss(logits, targets, cfg)

    ad.zero_grads(params.values())
    ad.backward(composite())
    coord_rng = np.random.default_rng(0)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in coord_rng.choice(flat.size, size=min(3, flat.size),
                                  replace=False):
            keep = flat[i]
            flat[i] = keep + FD_EPS
            up = composite().item()
            flat[i] = keep - FD_EPS
            dn = composite().item()
            flat[i] = keep
            num = (up - dn) / (2 * FD_EPS)
            err = abs(gflat[i] - num) / max(abs(gflat[i]) + abs(num), 1e-6)
            worst = max(worst, err)
    elapsed = time.time() - start
    assert worst < GRAD_TOL, worst
    assert elapsed < 60.0, elapsed
    print(f"criterion 1 PASS: per-op + composite FD worst rel err "
          f"{worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. focal-loss exactness
# ---------------------------------------------------------------------------


def test_criterion_02_focal_exactness():
    # ce = ln 2 from a uniform two-way choice; gamma = 2
    logits = Tensor(np.zeros((1, 1, 2)))
    targets = np.array([[0]])
    focal = compute_loss(logits, targets,
                         LossConfig(variant=LossVariant.FOCAL_BATCH,
                                    gamma=2.0, smoothing=0.0)).item()
    assert abs(focal - 0.25 * math.log(2.0)) < 1e-6

    # gamma = 0 is bit-exact plain CE, values and gradients
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 5, 9)).astype(np.float64)
    tgt = rng.integers(0, 9, size=(4, 5))
    tgt[1, -2:] = PAD_ID
    a = Parameter(raw.copy(), name="a")
    b = Parameter(raw.copy(), name="b")
    la = compute_loss(a, tgt, LossConfig(variant=LossVariant.FOCAL_BATCH,
                                         gamma=0.0, smoothing=0.1))
    lb = compute_loss(b, tgt, LossConfig(variant=LossVariant.PLAIN_CE,
                                         gamma=0.0, smoothing=0.1))
    assert la.item() == lb.item()
    ad.backward(la)
    ad.backward(lb)
    assert np.array_equal(a.grad, b.grad)

    # strict monotonicity across 1000 random ce values
    margins = rng.uniform(-8.0, 8.0, size=1000)
    ces, focals = [], []
    cfg = LossConfig(variant=LossVariant.FOCAL_BATCH, gamma=2.0, smoothing=0.0)
    plain = LossConfig(variant=LossVariant.PLAIN_CE, gamma=0.0, smoothing=0.0)
    for mgn in margins:
        one = Tensor(np.array([[[0.0, mgn]]]))
        ces.append(compute_loss(one, np.array([[0]]), plain).item())
        focals.append(compute_loss(one, np.array([[0]]), cfg).item())
    order = np.argsort(ces)
    assert np.all(np.diff(np.asarray(focals)[order]) > 0)
    print("criterion 2 PASS: 0.25*ln2 exact, gamma=0 bit-exact, "
          "monotone over 1000 ce values")


# ---------------------------------------------------------------------------
# 3. codec round-trip
# ---------------------------------------------------------------------------


def test_criterion_03_codec_round_trip(deep_tree, two_level_tree, rng):
    vocab = build_vocab(deep_tree)
    sets = random_closed_sets(deep_tree, rng, 1000)
    assert deep_tree.max_depth == 4
    for strategy in Ordering:
        cap = capacity_for(sets, deep_tree, strategy=strategy)
        for s in sets:
            seq = encode(s, deep_tree, vocab, strategy, cap,
                         rng=np.random.default_rng(11))
            out = decode(seq.ids, vocab, deep_tree, strategy)
            assert out.labels == s, strategy

    # one-leaf-per-sample two-level data sizes the vector at 6
    pairs = [{top, child} for top in two_level_tree.top
             for child in two_level_tree.children[top]]
    assert capacity_for(pairs, two_level_tree) == 6
    print("criterion 3 PASS: 1000 closed sets round-trip under all six "
          "orderings; two-level capacity = 6")


# ---------------------------------------------------------------------------
# 4. closure / minimize equivalence
# ---------------------------------------------------------------------------


def test_criterion_04_closure_minimize_identity(rng):
    h = build_news_tree()
    for s in random_closed_sets(h, rng, 10000):
        assert h.closure(h.minimize(s)) == s

    # worked minimal-set example on the news-style tree
    full = h.closure({"n14", "n37", "n42", "n35"})
    assert full == {"n0", "n4", "n9", "n14", "n1", "n20", "n37", "n2",
                    "n42", "n35"}
    assert h.minimize(full) == {"n14", "n37", "n42", "n35"}
    vocab = build_vocab(h)
    seq = encode(full, h, vocab, Ordering.MINIMAL_CHILDREN,
                 capacity_for([full], h, strategy=Ordering.MINIMAL_CHILDREN))
    trimmed = [int(t) for t in seq.ids if t != PAD_ID]
    tok = vocab.id_of
    assert trimmed == [BOS_ID, tok("n14"), SEP_ID, tok("n37"), SEP_ID,
                       tok("n35"), tok("n42"), SEP_ID, EOS_ID]
    out = decode(seq.ids, vocab, h, Ordering.MINIMAL_CHILDREN)
    assert out.labels == full
    print("criterion 4 PASS: closure∘minimize identity on 10000 sets; "
          "worked minimal-set example reproduced")


# ---------------------------------------------------------------------------
# 5. decoder causality and pad hygiene
# ---------------------------------------------------------------------------


def test_criterion_05_decoder_causality(rng):
    trials = 0
    changed_at_tamper = 0
    for seed in range(10):
        bundle = tiny_bundle(seed=seed)
        cap = bundle.capacity
        for _ in range(20):
            t = int(rng.integers(3, cap + 1))
            ids = rng.integers(0, bundle.vocab.size, size=(1, t)).astype(np.int32)
            ids[0, 0] = BOS_ID
            mask = np.ones((1, t), dtype=np.int8)
            hidden = rng.standard_normal((1, 4, 16)).astype(np.float32)
            emask = np.ones((1, 4), dtype=np.int8)
            base = bundle.decoder_logits(ids, mask, Tensor(hidden), emask).data
            pos = int(rng.integers(1, t))
            tampered = ids.copy()
            tampered[0, pos] = (tampered[0, pos] + 1 + rng.integers(
                0, bundle.vocab.size - 1)) % bundle.vocab.size
            after = bundle.decoder_logits(tampered, mask, Tensor(hidden),
                                          emask).data
            assert np.allclose(base[0, :pos], after[0, :pos], atol=1e-6)
            if not np.allclose(base[0, pos:], after[0, pos:], atol=1e-6):
                changed_at_tamper += 1
            trials += 1
    assert trials == 200
    assert changed_at_tamper > 150  # tampering is not a no-op

    # cross-attention never reads padded encoder positions
    bundle = tiny_bundle(seed=0)
    ids = np.array([[BOS_ID, 5, SEP_ID, 4]], dtype=np.int32)
    mask = np.ones((1, 4), dtype=np.int8)
    hidden = rng.standard_normal((1, 6, 16)).astype(np.float32)
    emask = np.array([[1, 1, 1, 0, 0, 0]], dtype=np.int8)
    capture = []
    bundle.decoder_logits(ids, mask, Tensor(hidden), emask,
                          capture_cross=capture)
    assert capture
    for record in capture:
        assert record["probs"][..., 3:].max() < 1e-6
    print(f"criterion 5 PASS: 200 causality trials "
          f"({changed_at_tamper} tamper-sensitive); cross-attn pad weight "
          f"< 1e-6")


# ---------------------------------------------------------------------------
# 6. desk-scale learnability
# ---------------------------------------------------------------------------


def test_criterion_06_desk_scale_learnability(tmp_path):
    start = time.time()
    res = generate_synthetic(
        SynthConfig(depth=3, branching=4, vocab_size=2000, docs_per_leaf=94,
                    noise_rate=0.3, signal_strength=4, seed=0),
        tmp_path / "synth")
    assert res.n_labels == 84
    assert res.split_sizes["train"] >= 4200
    h, splits = load_splits(tmp_path / "synth")

    ordering = Ordering.CHILD_TO_PARENT
    cap = capacity_for([s.labels for s in splits["train"]], h,
                       strategy=ordering)
    enc_cfg = EncoderConfig(d_model=64, layers=2, heads=4, max_len=20,
                            dropout=0.0)
    dec_cfg = DecoderConfig(d_model=64, layers=2, heads=8, dropout=0.0,
                            max_positions=cap)
    tv = TextVocab.build(s.text for s in splits["train"])
    bundle = ModelBundle.build(h, ordering, cap, enc_cfg, dec_cfg, seed=0,
                               text_vocab=tv)
    prep_train = prepare_data(bundle, splits["train"], seed=0)
    prep_dev = prepare_data(bundle, splits["dev"][:256], seed=1)
    prep_test = prepare_data(bundle, splits["test"], seed=2)

    def gates_cleared(epoch, row, b):
        if epoch < 8:
            return False
        preds = predict_prepared(b, prep_dev, batch_size=128)
        mi, ma = micro_macro_f1([p.labels for p in preds], prep_dev.gold)
        return mi >= 0.995 and ma >= 0.99

    cfg = TrainConfig(lr_encoder=5e-5, lr_decoder=3e-4, plateau_patience=3,
                      plateau_factor=0.1, improve_eps=1e-6,
                      encoder_freeze_threshold=5e-7, early_stop_patience=10,
                      micro_batch=32, accumulation_steps=2, max_epochs=30,
                      seed=0)
    result = train(bundle, prep_train, prep_dev, cfg,
                   on_epoch_end=gates_cleared)
    preds = predict_prepared(bundle, prep_test, batch_size=128)
    micro, macro = micro_macro_f1([p.labels for p in preds], prep_test.gold)
    elapsed = time.time() - start
    assert result.epochs_run <= 30
    assert elapsed < 1200.0, elapsed
    assert micro >= 0.95, micro
    assert macro >= 0.90, macro
    print(f"criterion 6 PASS: micro {micro:.4f} macro {macro:.4f} after "
          f"{result.epochs_run} epochs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. ordering ablation direction
# ---------------------------------------------------------------------------


def test_criterion_07_ordering_ablation(tmp_path):
    generate_synthetic(
        SynthConfig(depth=5, branching=2, vocab_size=800, docs_per_leaf=20,
                    noise_rate=0.3, signal_strength=3, seed=1),
        tmp_path / "deep")
    h, splits = load_splits(tmp_path / "deep")
    assert h.max_depth == 5

    def run(ordering, seed):
        cap = capacity_for([s.labels for s in splits["train"]], h,
                           strategy=ordering)
        enc_cfg = EncoderConfig(d_model=32, layers=1, heads=4, max_len=24,
                                dropout=0.0)
        dec_cfg = DecoderConfig(d_model=32, layers=2, heads=4, dropout=0.0,
                                max_positions=cap)
        tv = TextVocab.build(s.text for s in splits["train"])
        bundle = ModelBundle.build(h, ordering, cap, enc_cfg, dec_cfg,
                                   seed=seed, text_vocab=tv)
        prep_train = prepare_data(bundle, splits["train"], seed=seed)
        prep_dev = prepare_data(bundle, splits["dev"], seed=seed + 100)
        prep_test = prepare_data(bundle, splits["test"], seed=seed + 200)
        cfg = TrainConfig(lr_encoder=1e-3, lr_decoder=2e-3, micro_batch=32,
                          accumulation_steps=1, max_epochs=12,
                          early_stop_patience=1000, seed=seed)
        train(bundle, prep_train, prep_dev, cfg)
        preds = predict_prepared(bundle, prep_test, batch_size=128)
        return micro_macro_f1([p.labels for p in preds], prep_test.gold)

    gaps = []
    for seed in (0, 1, 2):
        _, macro_ordered = run(Ordering.CHILD_TO_PARENT, seed)
        _, macro_shuffled = run(Ordering.SHUFFLED, seed)
        gaps.append(macro_ordered - macro_shuffled)
    median_gap = sorted(gaps)[1]
    assert median_gap >= 0.02, gaps
    print(f"criterion 7 PASS: child-to-parent beats shuffled by "
          f"{median_gap:+.4f} macro (median of {['%+.4f' % g for g in gaps]})")


# ---------------------------------------------------------------------------
# 8. training mechanics
# ---------------------------------------------------------------------------


def test_criterion_08_training_mechanics(tmp_path, monkeypatch):
    # (a) gradient accumulation: 2 x 32 matches 1 x 64 within 1e-5
    generate_synthetic(
        SynthConfig(depth=2, branching=2, vocab_size=200, docs_per_leaf=48,
                    noise_rate=0.2, signal_strength=3, seed=4),
        tmp_path / "acc")
    h, splits = load_splits(tmp_path / "acc")
    assert len(splits["train"]) >= 128

    def run_acc(micro, acc):
        cap = capacity_for([s.labels for s in splits["train"]], h)
        enc_cfg = EncoderConfig(d_model=16, layers=1, heads=2, max_len=10,
                                dropout=0.0)
        dec_cfg = DecoderConfig(d_model=16, layers=1, heads=2, dropout=0.0,
                                max_positions=cap)
        tv = TextVocab.build(s.text for s in splits["train"])
        bundle = ModelBundle.build(h, Ordering.CHILD_TO_PARENT, cap, enc_cfg,
                                   dec_cfg, seed=5, text_vocab=tv)
        prep_train = prepare_data(bundle, splits["train"], seed=5)
        prep_dev = prepare_data(bundle, splits["dev"], seed=6)
        cfg = TrainConfig(micro_batch=micro, accumulation_steps=acc,
                          max_epochs=2, early_stop_patience=100, seed=5)
        train(bundle, prep_train, prep_dev, cfg)
        return bundle.all_params()

    two_by_32 = run_acc(32, 2)
    one_by_64 = run_acc(64, 1)
    worst = max(float(np.max(np.abs(two_by_32[n].data - one_by_64[n].data)))
                for n in two_by_32)
    assert worst < 1e-5, worst

    # (b) encoder freeze fires exactly when lr_encoder drops below 5e-7
    monkeypatch.setattr(tr, "evaluate_epoch",
                        lambda *a, **kw: 1.0)  # constant val -> plateau
    bundle = tiny_bundle(seed=2)
    data = prepare_data(bundle, TINY_SAMPLES, seed=0)
    enc_snaps = {}

    def snapshot(epoch, row, b):
        enc_snaps[epoch] = {n: p.data.copy()
                            for n, p in b.all_params().items()
                            if n.startswith("enc.")}
        return False

    cfg = TrainConfig(micro_batch=4, accumulation_steps=1, max_epochs=40,
                      seed=2, lr_encoder=5e-5, lr_decoder=3e-4,
                      plateau_patience=3, plateau_factor=0.1,
                      encoder_freeze_threshold=5e-7, early_stop_patience=10)
    result = train(bundle, data, data, cfg, on_epoch_end=snapshot)
    rows = result.history
    for row in rows:
        assert row["frozen"] == (row["lr_enc"] < 5e-7), row
    assert [r["frozen"] for r in rows] == [False] * 10 + [True]
    assert rows[7]["lr_enc"] > 5e-7  # two cuts land a hair above the line
    assert rows[10]["lr_enc"] < 5e-7
    frozen_epoch = rows[-1]["epoch"]
    for name, before in enc_snaps[frozen_epoch - 1].items():
        assert np.array_equal(before, enc_snaps[frozen_epoch][name])

    # (c) checkpoint resume is bit-identical
    monkeypatch.undo()

    def run_resume(split_at):
        b = tiny_bundle(seed=3, dropout=0.1)
        d = prepare_data(b, TINY_SAMPLES, seed=1)
        base = TrainConfig(micro_batch=4, accumulation_steps=1, seed=4,
                           early_stop_patience=100)
        if split_at is None:
            cfg_full = TrainConfig(**{**base.__dict__, "max_epochs": 4})
            hist = train(b, d, d, cfg_full).history
            return b, hist
        cfg_head = TrainConfig(**{**base.__dict__, "max_epochs": split_at})
        out = tmp_path / "resume"
        res = train(b, d, d, cfg_head, out_dir=out)
        b2 = tiny_bundle(seed=3, dropout=0.1)
        d2 = prepare_data(b2, TINY_SAMPLES, seed=1)
        cfg_tail = TrainConfig(**{**base.__dict__, "max_epochs": 4})
        hist = train(b2, d2, d2, cfg_tail, resume=res.last_dir).history
        return b2, hist

    full_bundle, full_hist = run_resume(None)
    res_bundle, res_hist = run_resume(2)
    fp, rp = full_bundle.all_params(), res_bundle.all_params()
    assert all(np.array_equal(fp[n].data, rp[n].data) for n in fp)
    strip = lambda h: [{k: v for k, v in row.items()
                        if k not in ("wall_time", "docs_per_s")} for row in h]
    # resumed history carries the restored head rows, so both span epochs 1-4
    assert strip(full_hist) == strip(res_hist)
    print(f"criterion 8 PASS: accumulation max|delta| {worst:.2e}; freeze at "
          f"epoch {frozen_epoch}; resume bit-identical")


# ---------------------------------------------------------------------------
# 9. metrics oracle
# ---------------------------------------------------------------------------


def test_criterion_09_metrics_oracle(rng):
    h = build_news_tree()
    labels = list(h.labels)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        preds, golds = [], []
        for _ in range(n):
            preds.append({labels[i] for i in
                          rng.choice(len(labels), rng.integers(0, 5),
                                     replace=False)})
            golds.append({labels[i] for i in
                          rng.choice(len(labels), rng.integers(1, 5),
                                     replace=False)})
        micro, macro = micro_macro_f1(preds, golds)
        per_label = per_label_scores(preds, golds)
        o_tp, o_fp, o_fn, o_rows = f1_counts_reference(preds, golds)
        assert micro == f1_from_counts(o_tp, o_fp, o_fn)
        assert set(per_label) == set(o_rows)
        o_f1 = {lb: f1_from_counts(*row) for lb, row in o_rows.items()}
        for lb, s in per_label.items():
            assert s.f1 == o_f1[lb]
        # identical summation order as the package, oracle per-label values
        o_macro = (sum(o_f1[lb] for lb in per_label) / len(per_label)
                   if per_label else 0.0)
        assert macro == o_macro

    # worked two-sample example
    preds = [{"x"}, {"y"}]
    golds = [{"x", "y"}, {"y"}]
    micro, macro = micro_macro_f1(preds, golds)
    assert micro == 0.8
    assert abs(macro - 5.0 / 6.0) < 1e-9
    print("criterion 9 PASS: 1000 randomized pairs recounted exactly; "
          "worked example micro 0.8, macro 5/6")


# ---------------------------------------------------------------------------
# 10. inference contracts
# ---------------------------------------------------------------------------


def test_criterion_10_inference_contracts(rng):
    for seed in range(12):
        bundle = tiny_bundle(seed=seed)
        hidden = rng.standard_normal((5, 4, 16)).astype(np.float32)
        emask = np.ones((5, 4), dtype=np.int8)
        batch_ids, batch_hit = greedy_decode_ids(bundle, hidden, emask)
        for i in range(5):
            one_ids, one_hit = greedy_decode_ids(bundle, hidden[i], emask[i])
            assert one_ids[0] == batch_ids[i]
            assert one_hit[0] == batch_hit[i]
        beam = beam_decode_ids(bundle, hidden[0], emask[0], beam_width=1)
        assert beam == batch_ids[0]
        for row, hit in zip(batch_ids, batch_hit):
            assert 2 <= len(row) <= bundle.capacity
            assert row[0] == BOS_ID
            assert hit == (row[-1] != EOS_ID)

    # rigged extremes: immediate stop and forced cap
    bundle = tiny_bundle(seed=0)
    bundle.dec_params["out.w"].data[:] = 0.0
    bundle.dec_params["out.b"].data[:] = 0.0
    bundle.dec_params["out.b"].data[EOS_ID] = 5.0
    hidden = rng.standard_normal((2, 4, 16)).astype(np.float32)
    emask = np.ones((2, 4), dtype=np.int8)
    ids, hit = greedy_decode_ids(bundle, hidden, emask)
    assert ids == [[BOS_ID, EOS_ID]] * 2 and hit == [False, False]
    bundle.dec_params["out.b"].data[:] = 0.0
    bundle.dec_params["out.b"].data[SEP_ID] = 5.0
    ids, hit = greedy_decode_ids(bundle, hidden, emask)
    assert all(len(row) == bundle.capacity for row in ids)
    assert hit == [True, True]
    print("criterion 10 PASS: batched == sequential greedy, beam-1 == "
          "greedy, termination within capacity")
