"""Symbolic vocabulary, sequence layouts, and codec round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_news_tree, random_closed_sets

from taxseq import codec
from taxseq.codec import (BOS_ID, EOS_ID, LAYOUTS, N_SPECIALS, PAD_ID, SEP_ID,
                          LabelSequence, Ordering, build_vocab, capacity_for,
                          continuation, decode, encode)
from taxseq.errors import CapacityExceeded, NotClosureConsistent, UnknownLabel
from taxseq.taxonomy import ROOT, LabelHierarchy

ALL_STRATEGIES = list(Ordering)


def encode_kwargs(strategy, rng=None):
    if strategy is Ordering.SHUFFLED:
        return {"rng": rng or np.random.default_rng(0)}
    return {}


class TestVocab:
    def test_sizes(self, tiny_tree, two_level_tree):
        assert build_vocab(tiny_tree).size == N_SPECIALS + 4
        assert build_vocab(two_level_tree).size == N_SPECIALS + 141

    def test_large_flat_forest_size(self):
        h = LabelHierarchy.from_edges([(ROOT, f"x{i}") for i in range(166)])
        assert build_vocab(h).size == 166 + 4

    def test_symbols_and_ids(self, news_tree):
        vocab = build_vocab(news_tree)
        assert vocab.labels[0] == "n0" and vocab.labels[42] == "n42"
        assert vocab.id_of("n0") == 4
        assert vocab.id_of("n42") == 46
        assert vocab.name_of(vocab.id_of("n35")) == "n35"

    def test_bijection_and_contiguity(self, deep_tree):
        vocab = build_vocab(deep_tree)
        assert sorted(vocab.id_of(name) for name in deep_tree.labels) == list(range(4, vocab.size))
        for k, name in enumerate(deep_tree.labels):
            assert vocab.id_of(name) == N_SPECIALS + k
            assert vocab.name_of(N_SPECIALS + k) == name

    def test_rebuild_identical(self):
        a, b = build_vocab(build_news_tree()), build_vocab(build_news_tree())
        assert a.labels == b.labels
        assert [a.id_of(n) for n in a.labels] == [b.id_of(n) for n in b.labels]

    @pytest.mark.parametrize("token_id", [BOS_ID, EOS_ID, PAD_ID, SEP_ID, "size"])
    def test_name_of_rejects_non_label_ids(self, tiny_tree, token_id):
        vocab = build_vocab(tiny_tree)
        with pytest.raises(KeyError):
            vocab.name_of(vocab.size if token_id == "size" else token_id)

    def test_unknown_label(self, tiny_tree):
        with pytest.raises(UnknownLabel):
            build_vocab(tiny_tree).id_of("nope")


class TestCapacity:
    def test_two_level_is_six(self, two_level_tree):
        sets = [two_level_tree.closure({c}) for c in two_level_tree.labels
                if not two_level_tree.children[c]]
        assert capacity_for(sets, two_level_tree) == 6

    def test_single_top_label_minimum(self, tiny_tree):
        assert capacity_for([{"A"}], tiny_tree) == 4

    def test_matches_longest_encoding(self, deep_tree, rng):
        sets = random_closed_sets(deep_tree, rng, 120)
        for strategy in ALL_STRATEGIES:
            cap = capacity_for(sets, deep_tree, strategy=strategy)
            longest = 0
            for s in sets:
                seq = encode(s, deep_tree, build_vocab(deep_tree), strategy, 512,
                             **encode_kwargs(strategy, rng))
                longest = max(longest, int(seq.mask.sum()))
            assert longest <= cap
            if strategy in (Ordering.CHILD_TO_PARENT, Ordering.PARENT_TO_CHILD):
                assert longest == cap


class TestEncodeLayouts:
    def test_two_level_example(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        seq = encode({"A", "B"}, tiny_tree, vocab, Ordering.CHILD_TO_PARENT, 8)
        b, a = vocab.id_of("B"), vocab.id_of("A")
        assert seq.ids.tolist() == [BOS_ID, b, SEP_ID, a, SEP_ID, EOS_ID, PAD_ID, PAD_ID]
        assert seq.mask.tolist() == [1, 1, 1, 1, 1, 1, 0, 0]

    def test_multi_level_minimal_sequence(self, news_tree):
        vocab = build_vocab(news_tree)
        leaves = {"n14", "n37", "n42", "n35"}
        full = news_tree.closure(leaves)
        assert news_tree.minimize(full) == leaves
        seq = encode(full, news_tree, vocab, Ordering.MINIMAL_CHILDREN, 12)
        ids = [vocab.id_of(n) for n in ("n14", "n37", "n35", "n42")]
        assert seq.trimmed() == [BOS_ID, ids[0], SEP_ID, ids[1], SEP_ID,
                                 ids[2], ids[3], SEP_ID, EOS_ID]
        got = decode(seq.ids, vocab, news_tree, Ordering.MINIMAL_CHILDREN)
        assert got.labels == full
        assert {n for g in got.groups for n in g} == leaves

    def test_parent_to_child_reverses_groups(self, news_tree, rng):
        vocab = build_vocab(news_tree)
        for s in random_closed_sets(news_tree, rng, 50):
            fwd = encode(s, news_tree, vocab, Ordering.CHILD_TO_PARENT, 64)
            rev = encode(s, news_tree, vocab, Ordering.PARENT_TO_CHILD, 64)
            f_groups = decode(fwd.ids, vocab, news_tree, Ordering.CHILD_TO_PARENT).groups
            r_groups = decode(rev.ids, vocab, news_tree, Ordering.PARENT_TO_CHILD).groups
            assert f_groups == r_groups[::-1]

    def test_sep_count_levelwise(self, deep_tree, rng):
        vocab = build_vocab(deep_tree)
        for s in random_closed_sets(deep_tree, rng, 50):
            n_levels = len({deep_tree.level[l] for l in s})
            for strategy in (Ordering.CHILD_TO_PARENT, Ordering.PARENT_TO_CHILD):
                seq = encode(s, deep_tree, vocab, strategy, 64)
                assert int(np.sum(seq.ids == SEP_ID)) == n_levels

    def test_sep_count_path_separated(self, deep_tree, rng):
        vocab = build_vocab(deep_tree)
        for s in random_closed_sets(deep_tree, rng, 50):
            seq = encode(s, deep_tree, vocab, Ordering.PATH_SEPARATED, 128)
            assert int(np.sum(seq.ids == SEP_ID)) == len(deep_tree.leaf_labels(s))

    def test_nosep_and_shuffled_have_no_sep(self, deep_tree, rng):
        vocab = build_vocab(deep_tree)
        s = deep_tree.closure({"g0000", "g1111"})
        for strategy in (Ordering.CHILD_TO_PARENT_NOSEP, Ordering.SHUFFLED):
            seq = encode(s, deep_tree, vocab, strategy, 64,
                         **encode_kwargs(strategy, rng))
            assert SEP_ID not in seq.ids.tolist()
            assert int(seq.mask.sum()) == len(s) + 2

    def test_sequence_invariants(self, deep_tree, rng):
        vocab = build_vocab(deep_tree)
        for s in random_closed_sets(deep_tree, rng, 40):
            for strategy in ALL_STRATEGIES:
                seq = encode(s, deep_tree, vocab, strategy, 128,
                             **encode_kwargs(strategy, rng))
                ids = seq.ids.tolist()
                assert ids[0] == BOS_ID
                assert ids.count(EOS_ID) == 1
                eos = ids.index(EOS_ID)
                assert all(t == PAD_ID for t in ids[eos + 1:])
                assert seq.mask.tolist() == [1 if i <= eos else 0
                                             for i in range(len(ids))]
                label_ids = [t for t in ids if vocab.is_label_id(t)]
                if strategy is not Ordering.PATH_SEPARATED:
                    assert len(label_ids) == len(set(label_ids))

    def test_path_separated_repeats_shared_ancestors(self, deep_tree):
        vocab = build_vocab(deep_tree)
        s = deep_tree.closure({"g0000", "g0001"})  # siblings share g0, g00, g000
        seq = encode(s, deep_tree, vocab, Ordering.PATH_SEPARATED, 64)
        label_ids = [t for t in seq.ids.tolist() if vocab.is_label_id(t)]
        assert len(label_ids) == 2 * 4  # two full root-to-leaf paths
        assert decode(seq.ids, vocab, deep_tree, Ordering.PATH_SEPARATED).labels == s

    def test_shuffled_reproducible_and_varied(self, deep_tree):
        vocab = build_vocab(deep_tree)
        s = deep_tree.closure({"g0000", "g1111"})
        a = encode(s, deep_tree, vocab, Ordering.SHUFFLED, 64,
                   rng=np.random.default_rng(5))
        b = encode(s, deep_tree, vocab, Ordering.SHUFFLED, 64,
                   rng=np.random.default_rng(5))
        assert a.ids.tolist() == b.ids.tolist()
        layouts = {tuple(encode(s, deep_tree, vocab, Ordering.SHUFFLED, 64,
                                rng=np.random.default_rng(k)).ids.tolist())
                   for k in range(40)}
        assert len(layouts) > 5

    def test_shuffled_needs_rng(self, tiny_tree):
        with pytest.raises(ValueError):
            encode({"A"}, tiny_tree, build_vocab(tiny_tree), Ordering.SHUFFLED, 8)

    def test_errors(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        with pytest.raises(CapacityExceeded):
            encode({"A", "B", "D"}, tiny_tree, vocab, Ordering.CHILD_TO_PARENT, 4)
        with pytest.raises(UnknownLabel):
            encode({"zzz"}, tiny_tree, vocab, Ordering.CHILD_TO_PARENT, 8)
        with pytest.raises(NotClosureConsistent):
            encode({"D"}, tiny_tree, vocab, Ordering.MINIMAL_CHILDREN, 8)


class TestRoundTrip:
    def test_all_strategies_random_sets(self, deep_tree, rng):
        vocab = build_vocab(deep_tree)
        sets = random_closed_sets(deep_tree, rng, 150)
        for strategy in ALL_STRATEGIES:
            for s in sets:
                seq = encode(s, deep_tree, vocab, strategy, 128,
                             **encode_kwargs(strategy, rng))
                out = decode(seq.ids, vocab, deep_tree, strategy)
                assert out.labels == s
                if strategy is not Ordering.PATH_SEPARATED:
                    assert out.diagnostics.clean

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, data):
        h = build_news_tree()
        vocab = build_vocab(h)
        picks = data.draw(st.sets(st.sampled_from(h.labels), min_size=1, max_size=4))
        strategy = data.draw(st.sampled_from(ALL_STRATEGIES))
        s = h.closure(picks)
        seq = encode(s, h, vocab, strategy, 256,
                     **encode_kwargs(strategy, np.random.default_rng(1)))
        assert decode(seq.ids, vocab, h, strategy).labels == s


class TestContinuation:
    """``continuation`` drafts the rest of the sequence of a prefix's
    closure; greedy decoding checks that draft against the model."""

    @pytest.fixture(autouse=True)
    def no_decode(self, monkeypatch):
        """perfbench's tracer wraps ``codec.decode`` and counts its calls, so a
        draft must not decode."""
        def forbidden(*args, **kwargs):
            raise AssertionError("continuation called codec.decode")
        monkeypatch.setattr(codec, "decode", forbidden)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_prefixes_of_each_sets_own_sequence(self, deep_tree, rng, strategy):
        vocab = build_vocab(deep_tree)
        exact = 0
        for s in random_closed_sets(deep_tree, rng, 80):
            seq = encode(s, deep_tree, vocab, strategy, 128,
                         **encode_kwargs(strategy, rng)).trimmed()
            for t in range(1, len(seq)):
                got = continuation(seq[:t], deep_tree, vocab, strategy)
                if not LAYOUTS[strategy].sep:
                    assert got == []
                    continue
                closure = deep_tree.closure(vocab.name_of(i) for i in seq[:t]
                                            if vocab.is_label_id(i))
                if got:  # the rest of the closure's own sequence
                    assert seq[:t] + got == encode(closure, deep_tree, vocab, strategy,
                                                   128).trimmed()
                if seq[t - 1] == SEP_ID and closure == s:
                    assert got == seq[t:]
                    exact += 1
        assert exact >= 80 or not LAYOUTS[strategy].sep  # at least every last SEP

    @pytest.mark.parametrize("strategy", [Ordering.CHILD_TO_PARENT, Ordering.PATH_SEPARATED,
                                          Ordering.MINIMAL_CHILDREN])
    def test_ancestor_tail_is_drafted_after_the_leaf_group(self, deep_tree, strategy):
        """One leaf, in a layout that starts with the leaves: the first SEP
        ends a prefix whose closure is the whole set."""
        vocab = build_vocab(deep_tree)
        seq = encode(deep_tree.closure(["g010"]), deep_tree, vocab, strategy, 128).trimmed()
        first_sep = seq.index(SEP_ID) + 1
        assert continuation(seq[:first_sep], deep_tree, vocab, strategy) == seq[first_sep:]

    @pytest.mark.parametrize("strategy", [o for o in ALL_STRATEGIES if LAYOUTS[o].sep])
    def test_prefixes_the_closure_would_not_start_get_nothing(self, deep_tree, strategy):
        vocab = build_vocab(deep_tree)
        parent, child = vocab.id_of("g0"), vocab.id_of("g01")
        for prefix in ([BOS_ID, child, child, SEP_ID],   # a repeated label
                       [BOS_ID, parent, child, SEP_ID],  # the parent placed before its child
                       [child, SEP_ID],                  # no BOS
                       [BOS_ID, child, PAD_ID],          # neither label nor SEP
                       [BOS_ID, child, EOS_ID, SEP_ID]):
            assert continuation(prefix, deep_tree, vocab, strategy) == [], prefix


class TestDecodeLenient:
    def test_empty_prediction(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        out = decode([BOS_ID, EOS_ID], vocab, tiny_tree, Ordering.CHILD_TO_PARENT)
        assert out.labels == set() and out.groups == []
        assert out.diagnostics.clean

    def test_direct_read(self, news_tree):
        vocab = build_vocab(news_tree)
        ids = [BOS_ID, vocab.id_of("n14"), SEP_ID, vocab.id_of("n37"), EOS_ID]
        out = decode(ids, vocab, news_tree, Ordering.CHILD_TO_PARENT)
        assert out.labels == {"n14", "n37"}
        assert out.groups == [["n14"], ["n37"]]

    def test_minimal_mode_closes(self, news_tree):
        vocab = build_vocab(news_tree)
        ids = [BOS_ID, vocab.id_of("n14"), EOS_ID]
        out = decode(ids, vocab, news_tree, Ordering.MINIMAL_CHILDREN)
        assert out.labels == {"n14", "n9", "n4", "n0"}

    def test_structural_diagnostics(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        a = vocab.id_of("A")
        out = decode([a, a, PAD_ID, 99, EOS_ID], vocab, tiny_tree,
                     Ordering.CHILD_TO_PARENT)
        assert out.labels == {"A"}
        d = out.diagnostics
        assert d.missing_bos and not d.missing_eos
        assert d.repeated_labels_dropped == 1
        assert d.pad_inside == 1 and d.unknown_ids == 1
        assert not d.clean

    def test_stops_at_first_eos(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        ids = [BOS_ID, vocab.id_of("A"), EOS_ID, vocab.id_of("B"), EOS_ID]
        out = decode(ids, vocab, tiny_tree, Ordering.CHILD_TO_PARENT)
        assert out.labels == {"A"}

    def test_trimmed_helper(self, tiny_tree):
        vocab = build_vocab(tiny_tree)
        seq = encode({"A"}, tiny_tree, vocab, Ordering.CHILD_TO_PARENT, 8)
        assert seq.trimmed() == [BOS_ID, vocab.id_of("A"), SEP_ID, EOS_ID]
        assert seq.capacity == 8
        assert isinstance(seq, LabelSequence)


# The news-tree worked set (four leaves over three top-level branches), a
# lone top-level label, the depth-4 chain to n14, and two level-2 siblings
# beside a level-2 label on another branch. Label n<k> has token id 4 + k.
GOLDEN_SETS = [{"n0", "n1", "n2", "n4", "n9", "n14", "n20", "n35", "n37", "n42"},
               {"n1"}, {"n0", "n4", "n9", "n14"}, {"n1", "n2", "n5", "n8", "n20"}]
# Per ordering: capacity_for over all four sets, then (capacity_for of the
# set alone, the set encoded at that capacity) for each set. Shuffled draws
# from default_rng(0) afresh for every set.
GOLDEN = {
    Ordering.CHILD_TO_PARENT: (16, [
        (16, [0, 18, 3, 13, 41, 3, 8, 24, 39, 46, 3, 4, 5, 6, 3, 1]),
        (4, [0, 5, 3, 1]),
        (10, [0, 18, 3, 13, 3, 8, 3, 4, 3, 1]),
        (9, [0, 9, 12, 24, 3, 5, 6, 3, 1])]),
    Ordering.PARENT_TO_CHILD: (16, [
        (16, [0, 4, 5, 6, 3, 8, 24, 39, 46, 3, 13, 41, 3, 18, 3, 1]),
        (4, [0, 5, 3, 1]),
        (10, [0, 4, 3, 8, 3, 13, 3, 18, 3, 1]),
        (9, [0, 5, 6, 3, 9, 12, 24, 3, 1])]),
    Ordering.CHILD_TO_PARENT_NOSEP: (16, [
        (16, [0, 18, 13, 41, 8, 24, 39, 46, 4, 5, 6, 1, 2, 2, 2, 2]),
        (4, [0, 5, 1, 2]),
        (10, [0, 18, 13, 8, 4, 1, 2, 2, 2, 2]),
        (9, [0, 9, 12, 24, 5, 6, 1, 2, 2])]),
    Ordering.PATH_SEPARATED: (17, [
        (17, [0, 18, 13, 8, 4, 3, 39, 5, 3, 41, 24, 5, 3, 46, 6, 3, 1]),
        (4, [0, 5, 3, 1]),
        (7, [0, 18, 13, 8, 4, 3, 1]),
        (11, [0, 9, 6, 3, 12, 6, 3, 24, 5, 3, 1])]),
    Ordering.SHUFFLED: (16, [
        (16, [0, 13, 24, 6, 39, 8, 18, 46, 4, 41, 5, 1, 2, 2, 2, 2]),
        (4, [0, 5, 1, 2]),
        (10, [0, 13, 4, 8, 18, 1, 2, 2, 2, 2]),
        (9, [0, 9, 24, 12, 5, 6, 1, 2, 2])]),
    Ordering.MINIMAL_CHILDREN: (16, [
        (16, [0, 18, 3, 41, 3, 39, 46, 3, 1, 2, 2, 2, 2, 2, 2, 2]),
        (4, [0, 5, 3, 1]),
        (10, [0, 18, 3, 1, 2, 2, 2, 2, 2, 2]),
        (9, [0, 9, 12, 24, 3, 1, 2, 2, 2])]),
}


class TestGoldenLayouts:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda o: o.name.lower())
    def test_literal_ids_and_capacity(self, news_tree, strategy):
        vocab = build_vocab(news_tree)
        total, rows = GOLDEN[strategy]
        assert capacity_for(GOLDEN_SETS, news_tree, strategy=strategy) == total
        for s, (cap, want) in zip(GOLDEN_SETS, rows):
            assert capacity_for([s], news_tree, strategy=strategy) == cap
            seq = encode(s, news_tree, vocab, strategy, cap, rng=np.random.default_rng(0))
            assert seq.ids.tolist() == want
            n_real = want.index(EOS_ID) + 1
            assert seq.mask.tolist() == [1] * n_real + [0] * (cap - n_real)
            assert decode(seq.ids, vocab, news_tree, strategy).labels == s
