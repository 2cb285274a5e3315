"""Hierarchy construction, closure/minimize, file round-trips, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_closed_sets
from oracles import closure_reference, minimize_reference

from taxseq.errors import (CycleDetected, EmptyHierarchy, MalformedLine,
                           MultipleParents, NotClosureConsistent, UnknownLabel,
                           UnknownParent)
from taxseq.taxonomy import (ROOT, LabelHierarchy, dataset_stats,
                             load_hierarchy, read_text_lines, save_hierarchy)


class TestConstruction:
    def test_levels_tops_children(self, tiny_tree):
        assert tiny_tree.labels == ["A", "B", "C", "D"]
        assert tiny_tree.top == ["A"]
        assert tiny_tree.level == {"A": 1, "B": 2, "C": 2, "D": 3}
        assert tiny_tree.children["A"] == ["B", "C"]
        assert tiny_tree.max_depth == 3
        assert len(tiny_tree) == 4
        assert "D" in tiny_tree and "Z" not in tiny_tree

    def test_enumeration_is_first_appearance(self):
        h = LabelHierarchy.from_edges(
            [("B", "C"), (ROOT, "A"), ("A", "B")])
        assert h.labels == ["B", "C", "A"]
        assert h.level == {"A": 1, "B": 2, "C": 3}

    def test_multiple_parents_rejected(self):
        with pytest.raises(MultipleParents):
            LabelHierarchy.from_edges(
                [(ROOT, "A"), (ROOT, "B"), ("A", "C"), ("B", "C")])

    def test_top_and_child_conflict_rejected(self):
        with pytest.raises(MultipleParents):
            LabelHierarchy.from_edges([(ROOT, "A"), ("A", "B"), (ROOT, "B")])

    def test_unknown_parent_rejected(self):
        with pytest.raises(UnknownParent):
            LabelHierarchy.from_edges([(ROOT, "A"), ("GHOST", "B")])

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            LabelHierarchy.from_edges([(ROOT, "A"), ("X", "Y"), ("Y", "X")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyHierarchy):
            LabelHierarchy.from_edges([])

    def test_duplicate_edge_ignored(self):
        h = LabelHierarchy.from_edges([(ROOT, "A"), ("A", "B"), ("A", "B")])
        assert h.children["A"] == ["B"]

    def test_from_parts_preserves_order(self):
        h = LabelHierarchy.from_edges([("B", "C"), (ROOT, "A"), ("A", "B")])
        rebuilt = LabelHierarchy.from_parts(h.labels, h.parent)
        assert rebuilt.labels == h.labels
        assert rebuilt.level == h.level
        assert rebuilt.top == h.top

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_fresh_and_rebuilt_agree(self, data):
        # node i hangs off ROOT (-1) or an earlier node; edges arrive shuffled
        n = data.draw(st.integers(1, 12))
        parents = [data.draw(st.integers(-1, i - 1)) for i in range(n)]
        edges = [(ROOT if p < 0 else f"n{p}", f"n{i}") for i, p in enumerate(parents)]
        edges = data.draw(st.permutations(edges))
        h = LabelHierarchy.from_edges(edges)
        assert h.parent == {f"n{i}": f"n{p}" for i, p in enumerate(parents) if p >= 0}
        rebuilt = LabelHierarchy.from_parts(h.labels, h.parent)
        for attr in ("labels", "parent", "level", "children", "top"):
            assert getattr(rebuilt, attr) == getattr(h, attr), attr


class TestStructureQueries:
    def test_ancestors_nearest_first(self, tiny_tree, news_tree, deep_tree):
        assert tiny_tree.ancestors("D") == ["B", "A"]
        assert tiny_tree.ancestors("A") == []
        assert news_tree.ancestors("n14") == ["n9", "n4", "n0"]
        for h in (deep_tree, news_tree):
            for label in h.labels:
                walk, cur = [], label
                while cur in h.parent:
                    cur = h.parent[cur]
                    walk.append(cur)
                assert h.ancestors(label) == walk

    def test_closure_examples(self, tiny_tree):
        assert tiny_tree.closure({"D"}) == {"D", "B", "A"}
        assert tiny_tree.closure({"C"}) == {"C", "A"}
        assert tiny_tree.closure(set()) == set()

    def test_closure_matches_reference(self, deep_tree, news_tree, rng):
        for h in (deep_tree, news_tree):
            singles = [{l} for l in h.labels]
            subsets = [set(rng.choice(h.labels, size=int(rng.integers(1, 6))).tolist())
                       for _ in range(200)]
            for base in [*random_closed_sets(h, rng, 200), *singles, *subsets]:
                assert h.closure(base) == closure_reference(h.parent, base)

    def test_minimize_examples(self, tiny_tree):
        assert tiny_tree.minimize({"A", "B", "D"}) == {"D"}
        assert tiny_tree.minimize({"A", "B", "C", "D"}) == {"C", "D"}

    def test_minimize_rejects_open_sets(self, tiny_tree):
        with pytest.raises(NotClosureConsistent):
            tiny_tree.minimize({"D"})

    def test_closure_of_minimize_is_identity(self, deep_tree, news_tree, rng):
        for h in (deep_tree, news_tree):
            for s in random_closed_sets(h, rng, 300):
                m = h.minimize(s)
                assert m == minimize_reference(h.parent, s)
                assert h.closure(m) == s

    def test_unknown_label_query(self, tiny_tree):
        with pytest.raises(UnknownLabel):
            tiny_tree.check_known({"A", "nope"})
        with pytest.raises(UnknownLabel):
            tiny_tree.closure({"nope"})

    @given(st.sets(st.sampled_from(["A", "B", "C", "D"]), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_closure_idempotent_and_monotone(self, picks):
        h = LabelHierarchy.from_edges(
            [(ROOT, "A"), ("A", "B"), ("A", "C"), ("B", "D")])
        c = h.closure(picks)
        assert picks <= c
        assert h.closure(c) == c


class TestFiles:
    def test_round_trip(self, tmp_path, news_tree):
        path = tmp_path / "tax.tsv"
        save_hierarchy(news_tree, path)
        again = load_hierarchy(path)
        assert again.parent == news_tree.parent
        assert again.top == news_tree.top
        assert set(again.labels) == set(news_tree.labels)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_text("# taxonomy\nROOT\tA\n\nA\tB  # child\n", encoding="utf-8")
        h = load_hierarchy(path)
        assert h.labels == ["A", "B"]

    def test_malformed_line_has_number(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_text("ROOT\tA\nA B no tab\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=":2"):
            load_hierarchy(path)

    def test_bytes_not_utf8_are_malformed(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_bytes(b"ROOT\tA\nA\tB\xff\n")
        with pytest.raises(MalformedLine, match=r"tax.tsv:2: not UTF-8 \(byte 0xff at column 4\)"):
            load_hierarchy(path)

    def test_lines_read_as_text_mode_reads_them(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_bytes("ROOT\tCaf\u00e9\r\nCaf\u00e9\tB\rB\tC".encode("utf-8"))
        assert list(read_text_lines(path)) == [
            (1, "ROOT\tCaf\u00e9\n"), (2, "Caf\u00e9\tB\n"), (3, "B\tC")]
        assert load_hierarchy(path).labels == ["Caf\u00e9", "B", "C"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(EmptyHierarchy):
            load_hierarchy(path)


class TestDatasetStats:
    def test_two_level_averages(self, two_level_tree):
        rng = np.random.default_rng(7)
        sets = []
        for _ in range(500):
            child = two_level_tree.labels[int(rng.integers(0, len(two_level_tree)))]
            while two_level_tree.children[child]:
                child = two_level_tree.children[child][0]
            sets.append(two_level_tree.closure({child}))
        st_ = dataset_stats(two_level_tree, sets)
        assert st_.n_labels == 141
        assert st_.max_depth == 2
        assert st_.avg_labels == pytest.approx(2.0)
        assert st_.avg_parent_labels == pytest.approx(1.0)
        assert st_.avg_leaf_labels == pytest.approx(1.0)

    def test_parent_plus_leaf_is_total(self, news_tree, rng):
        sets = random_closed_sets(news_tree, rng, 200)
        st_ = dataset_stats(news_tree, sets)
        assert st_.avg_parent_labels + st_.avg_leaf_labels == pytest.approx(st_.avg_labels)
        manual_leaf = np.mean([len(minimize_reference(news_tree.parent, s)) for s in sets])
        assert st_.avg_leaf_labels == pytest.approx(float(manual_leaf))

    def test_empty_split(self, tiny_tree):
        st_ = dataset_stats(tiny_tree, [])
        assert st_.empty and st_.n_samples == 0 and st_.avg_labels == 0.0
