"""Micro/macro F1 scoring and the sequence error census."""

import numpy as np
import pytest

from conftest import random_closed_sets
from oracles import f1_counts_reference, f1_from_counts

from taxseq.codec import (BOS_ID, EOS_ID, SEP_ID, Ordering, build_vocab,
                          decode, encode)
from taxseq.errors import LengthMismatch
from taxseq.metrics import (ErrorBuckets, build_report, error_taxonomy,
                            format_report, micro_macro_f1, per_label_scores,
                            write_report)
from taxseq.taxonomy import ROOT, LabelHierarchy


def decoded(seqs, h, ordering=Ordering.CHILD_TO_PARENT):
    """The label sets ``codec.decode`` reads from token sequences."""
    vocab = build_vocab(h)
    return [decode(s, vocab, h, ordering).labels for s in seqs]


class TestWorkedExample:
    def test_micro_and_macro(self):
        preds = [{"x"}, {"y"}]
        golds = [{"x", "y"}, {"y"}]
        micro, macro = micro_macro_f1(preds, golds)
        assert micro == pytest.approx(0.8, abs=1e-12)
        assert macro == pytest.approx(5 / 6, abs=1e-12)

    def test_per_label_breakdown(self):
        scores = per_label_scores([{"x"}, {"y"}], [{"x", "y"}, {"y"}])
        assert scores["x"].f1 == 1.0
        assert scores["y"].precision == 1.0
        assert scores["y"].recall == pytest.approx(0.5)
        assert scores["y"].f1 == pytest.approx(2 / 3)
        assert scores["x"].gold_count == 1 and scores["y"].gold_count == 2
        assert scores["y"].pred_count == 1


class TestAgainstRecount:
    def test_random_pairs_exact(self, deep_tree, rng):
        golds = random_closed_sets(deep_tree, rng, 400)
        preds = []
        for g in golds:
            p = {lb for lb in g if rng.random() > 0.25}
            extra = deep_tree.labels[int(rng.integers(len(deep_tree.labels)))]
            if rng.random() > 0.5:
                p.add(extra)
            preds.append(p)
        micro, macro = micro_macro_f1(preds, golds)
        tp, fp, fn, per_label = f1_counts_reference(preds, golds)
        assert micro == f1_from_counts(tp, fp, fn)
        want_macro = np.mean([f1_from_counts(*row) for row in per_label.values()])
        assert macro == pytest.approx(float(want_macro), abs=1e-12)
        scores = per_label_scores(preds, golds)
        assert set(scores) == set(per_label)
        for lb, (ltp, lfp, lfn) in per_label.items():
            assert scores[lb].f1 == f1_from_counts(ltp, lfp, lfn)

    def test_sample_order_invariance(self, deep_tree, rng):
        golds = random_closed_sets(deep_tree, rng, 60)
        preds = random_closed_sets(deep_tree, rng, 60)
        base = micro_macro_f1(preds, golds)
        perm = rng.permutation(60)
        shuffled = micro_macro_f1([preds[i] for i in perm],
                                  [golds[i] for i in perm])
        assert base == shuffled

    def test_single_label_sets_reduce_to_accuracy(self, rng):
        labels = ["a", "b", "c"]
        golds = [{labels[int(rng.integers(3))]} for _ in range(100)]
        preds = [{labels[int(rng.integers(3))]} for _ in range(100)]
        micro, _ = micro_macro_f1(preds, golds)
        acc = sum(p == g for p, g in zip(preds, golds)) / 100
        assert micro == pytest.approx(acc, abs=1e-12)

    def test_macro_universe_widening(self, tiny_tree):
        preds, golds = [{"A"}], [{"A"}]
        _, macro_seen = micro_macro_f1(preds, golds)
        _, macro_all = micro_macro_f1(preds, golds, all_labels=tiny_tree.labels)
        assert macro_seen == 1.0
        assert macro_all == pytest.approx(1 / 4)  # three absent labels score 0

    def test_empty_prediction_sets(self):
        micro, macro = micro_macro_f1([set(), set()], [{"a"}, set()])
        assert micro == 0.0 and macro == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            micro_macro_f1([{"a"}], [])
        with pytest.raises(LengthMismatch):
            per_label_scores([], [{"a"}])
        with pytest.raises(LengthMismatch):
            error_taxonomy([set()], [], [[0]], [], None)
        with pytest.raises(LengthMismatch):
            error_taxonomy([set()], [set()], [[0]], [], None)


class TestErrorBuckets:
    def seq(self, h, vocab, labels, capacity=16):
        return encode(h.closure(labels), h, vocab, Ordering.CHILD_TO_PARENT,
                      capacity).trimmed()

    def census(self, h, preds, golds):
        """``error_taxonomy`` of token sequences and the sets they decode to."""
        return error_taxonomy(decoded(preds, h), decoded(golds, h), preds, golds, h)

    def test_length_buckets_sum(self, two_level_tree, rng):
        h = two_level_tree
        vocab = build_vocab(h)
        golds, preds = [], []
        for s in random_closed_sets(h, rng, 80):
            golds.append(self.seq(h, vocab, s))
            if rng.random() < 0.3:
                preds.append(golds[-1])
            else:
                other = random_closed_sets(h, rng, 1)[0]
                preds.append(self.seq(h, vocab, other))
        b = self.census(h, preds, golds)
        assert b.n == 80
        assert b.exact_match + b.shorter + b.longer + b.equal_length_wrong == 80
        wrong = b.n - b.exact_match
        assert b.child_wrong_parent_right + b.both_wrong == wrong

    def test_two_level_overlay(self, two_level_tree):
        h = two_level_tree
        vocab = build_vocab(h)
        gold = self.seq(h, vocab, {"d0_k2"})
        same_parent = self.seq(h, vocab, {"d0_k1"})
        other_parent = self.seq(h, vocab, {"d1_k0"})
        extra_child = self.seq(h, vocab, {"d0_k1", "d0_k2"})
        preds = [same_parent, other_parent, extra_child]
        b = self.census(h, preds, [gold] * 3)
        assert b.two_level
        assert b.exact_match == 0
        assert b.child_wrong_parent_right == 2  # same_parent and extra_child
        assert b.shared_parent == 1             # only the swap, not the add
        assert b.both_wrong == 1
        assert b.equal_length_wrong == 2 and b.longer == 1

    def test_deeper_tree_skips_overlay(self, news_tree):
        vocab = build_vocab(news_tree)
        gold = self.seq(news_tree, vocab, {"n14"})
        b = self.census(news_tree, [gold], [gold])
        assert not b.two_level
        assert "both_wrong" not in b.as_dict()
        assert b.as_dict()["exact_match"] == 1

    def test_exact_match_is_token_level(self, two_level_tree):
        h = two_level_tree
        vocab = build_vocab(h)
        gold = self.seq(h, vocab, {"d0_k2"})
        reordered = [gold[0], gold[3], gold[2], gold[1]] + gold[4:]
        b = self.census(h, [reordered], [gold])
        assert b.exact_match == 0 and b.equal_length_wrong == 1

    @pytest.mark.parametrize("pred, want", [
        ({"B", "b1"}, {"child_wrong_parent_right": 0, "shared_parent": 0, "both_wrong": 1}),
        ({"A", "a2"}, {"child_wrong_parent_right": 1, "shared_parent": 1, "both_wrong": 0}),
    ], ids=["parent-wrong", "shared-parent"])
    def test_children_only_overlay_reads_decoded_sets(self, pred, want):
        # children-only sequences hold no parent token; the overlay must still
        # see the parents the decoded sets close over
        h = LabelHierarchy.from_edges([(ROOT, "A"), (ROOT, "B"), ("A", "a1"),
                                       ("A", "a2"), ("B", "b1")])
        vocab = build_vocab(h)
        seqs = [encode(s, h, vocab, Ordering.MINIMAL_CHILDREN, 8).trimmed()
                for s in (pred, {"A", "a1"})]
        sets = decoded(seqs, h, Ordering.MINIMAL_CHILDREN)
        assert sets == [pred, {"A", "a1"}]
        report = build_report(sets[:1], sets[1:], h, pred_sequences=seqs[:1],
                              gold_sequences=seqs[1:])
        got = report.buckets.as_dict()
        assert {k: got[k] for k in want} == want

    def test_shorter_and_longer(self, two_level_tree):
        h = two_level_tree
        vocab = build_vocab(h)
        gold = self.seq(h, vocab, {"d0_k2", "d1_k1"})
        short = self.seq(h, vocab, {"d0_k2"})
        preds = [short, gold + [EOS_ID]]
        b = self.census(h, preds, [gold] * 2)
        assert b.shorter == 1 and b.longer == 1


class TestReports:
    def test_build_and_format(self, two_level_tree, rng):
        h = two_level_tree
        vocab = build_vocab(h)
        golds = random_closed_sets(h, rng, 10)
        preds = golds[:5] + random_closed_sets(h, rng, 5)
        seqs_g = [encode(s, h, vocab, Ordering.CHILD_TO_PARENT, 16).trimmed()
                  for s in golds]
        seqs_p = [encode(s, h, vocab, Ordering.CHILD_TO_PARENT, 16).trimmed()
                  for s in preds]
        report = build_report(preds, golds, h, pred_sequences=seqs_p,
                              gold_sequences=seqs_g)
        assert report.buckets is not None and report.buckets.n == 10
        text = format_report(report)
        assert text.startswith("micro_f1 ")
        assert "error buckets" in text and "exact_match" in text

    def test_write_report_files(self, tmp_path, tiny_tree):
        report = build_report([{"A"}], [{"A", "B"}], tiny_tree)
        report.extras["split"] = "dev"
        txt, kv = write_report(report, tmp_path / "scores" / "dev")
        assert txt.exists() and kv.exists()
        pairs = dict(line.split("=", 1)
                     for line in kv.read_text().strip().splitlines())
        assert float(pairs["micro_f1"]) == pytest.approx(2 / 3, abs=1e-6)
        assert pairs["split"] == "dev"
        assert float(pairs["label.A.f1"]) == 1.0

    def test_macro_all_labels_report(self, tiny_tree):
        report = build_report([{"A"}], [{"A"}], tiny_tree, all_labels=tiny_tree.labels)
        assert set(report.per_label) == set(tiny_tree.labels)
        assert report.macro_f1 == pytest.approx(1 / 4)
