"""Shared fixtures: small hand-built taxonomies and random-set helpers."""

from __future__ import annotations

import numpy as np
import pytest

from taxseq.taxonomy import ROOT, LabelHierarchy


def pytest_report_header(config):
    """The numpy and BLAS build of the run. The recorded goldens (such as
    ``test_numerics_match_recorded_run``) are bytes of one build, numpy
    2.4.6 with OpenBLAS 0.3.31; on another, a mismatch there names its cause."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        build = "unknown"
    return f"numpy {np.__version__}, BLAS {build}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Under ``-q`` pytest prints no header, so a failed run repeats it last."""
    if exitstatus and config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture
def tiny_tree() -> LabelHierarchy:
    """A(1) -> B(2) -> D(3), A -> C(2)."""
    return LabelHierarchy.from_edges(
        [(ROOT, "A"), ("A", "B"), ("A", "C"), ("B", "D")])


def build_news_tree() -> LabelHierarchy:
    """53 labels named n0..n52, enumeration order equal to the numeric index.

    Contains a depth-4 chain n0 > n4 > n9 > n14, a depth-3 chain
    n1 > n20 > n37, and level-2 leaves n35 (under n1) and n42 (under n2),
    so the four-leaf sample {n14, n37, n35, n42} exercises a multi-level
    minimal set. Remaining labels hang directly under the three top nodes.
    """
    tops = {0, 1, 2}
    forced = {4: 0, 9: 4, 14: 9, 20: 1, 37: 20, 42: 2, 35: 1}
    edges = []
    for i in range(53):
        if i in tops:
            edges.append((ROOT, f"n{i}"))
        elif i in forced:
            edges.append((f"n{forced[i]}", f"n{i}"))
        else:
            edges.append((f"n{i % 3}", f"n{i}"))
    return LabelHierarchy.from_edges(edges)


@pytest.fixture(scope="session")
def news_tree() -> LabelHierarchy:
    return build_news_tree()


@pytest.fixture(scope="session")
def two_level_tree() -> LabelHierarchy:
    """141 labels in two levels: 7 top-level domains, 134 children."""
    sizes = [20, 20, 20, 20, 20, 20, 14]
    edges = []
    for i, n_children in enumerate(sizes):
        edges.append((ROOT, f"d{i}"))
        for j in range(n_children):
            edges.append((f"d{i}", f"d{i}_k{j}"))
    return LabelHierarchy.from_edges(edges)


@pytest.fixture(scope="session")
def deep_tree() -> LabelHierarchy:
    """Complete binary tree of depth 4 (30 labels)."""
    edges = []
    frontier = []
    for i in range(2):
        edges.append((ROOT, f"g{i}"))
        frontier.append(f"g{i}")
    for _ in range(3):
        nxt = []
        for p in frontier:
            for i in range(2):
                c = f"{p}{i}"
                edges.append((p, c))
                nxt.append(c)
        frontier = nxt
    return LabelHierarchy.from_edges(edges)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def random_closed_sets(h: LabelHierarchy, rng: np.random.Generator, count: int,
                       max_picks: int = 3) -> list[set[str]]:
    """Random non-empty ancestor-closed label sets."""
    out = []
    labels = h.labels
    for _ in range(count):
        k = int(rng.integers(1, max_picks + 1))
        picks = [labels[int(i)] for i in rng.integers(0, len(labels), size=k)]
        out.append(h.closure(picks))
    return out
