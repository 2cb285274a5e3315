"""Label hierarchy: loading, validation, ancestor closure, and minimal label sets.

A hierarchy is a forest of labels hanging off an implicit virtual root. The
virtual root is never a label itself: top-level labels have level 1 and no
parent entry. All query operations treat the hierarchy as immutable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleDetected,
    EmptyHierarchy,
    MalformedLine,
    MultipleParents,
    NotClosureConsistent,
    UnknownLabel,
    UnknownParent,
)

#: Literal parent field that declares a top-level label in taxonomy files.
ROOT = "ROOT"


class LabelHierarchy:
    """Rooted tree of labels. Each label's ancestor chain is computed once,
    when the tree is built, and every query is a lookup in that table.

    Attributes:
        labels: all label names, in order of first appearance in the source.
        parent: child -> parent map; top-level labels are absent.
        level: label -> depth, top-level = 1.
        children: label -> children in label order (used for deterministic
            tie-breaking downstream).
        top: top-level labels in label order.
    """

    def __init__(self, labels: list[str], parent: dict[str, str],
                 chains: dict[str, tuple[str, ...]], children: dict[str, list[str]],
                 top: list[str]):
        self.labels = labels
        self.parent = parent
        self.children = children
        self.top = top
        self._chains = chains  # label -> ancestors, nearest first
        self.level = {name: len(chain) + 1 for name, chain in chains.items()}

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "LabelHierarchy":
        """Build and validate a hierarchy from (parent, child) pairs.

        A parent equal to ``ROOT`` declares a top-level label. Labels are
        enumerated in order of first appearance; the tree itself is built
        by ``from_parts``. Raises MultipleParents, UnknownParent,
        CycleDetected, or EmptyHierarchy on invalid input.
        """
        labels: dict[str, None] = {}  # insertion-ordered set
        parent: dict[str, str] = {}
        top: set[str] = set()
        for p, c in edges:
            if p != ROOT:
                labels.setdefault(p)
            labels.setdefault(c)
            if p == ROOT:
                if c in parent:
                    raise MultipleParents(f"label {c!r} declared both top-level and under {parent[c]!r}")
                top.add(c)
                continue
            if c in top:
                raise MultipleParents(f"label {c!r} declared both top-level and under {p!r}")
            if parent.setdefault(c, p) != p:  # a repeated edge is ignored
                raise MultipleParents(f"label {c!r} has parents {parent[c]!r} and {p!r}")

        for c, p in parent.items():
            # a parent must itself be attached somewhere (as a child or top-level)
            if p not in parent and p not in top:
                raise UnknownParent(f"label {c!r} attached to {p!r}, which is never declared")
        return cls.from_parts(list(labels), parent)

    @classmethod
    def from_parts(cls, labels: Sequence[str], parent: dict[str, str]) -> "LabelHierarchy":
        """Build a hierarchy from an explicit label order plus child->parent
        map (top-level labels absent from the map). The given enumeration
        order is kept exactly, and ``children`` and ``top`` follow it, which
        keeps symbolic token ids stable across serialization round-trips.
        """
        labels = list(labels)
        if not labels:
            raise EmptyHierarchy("no labels declared")
        known = set(labels)
        children: dict[str, list[str]] = {l: [] for l in labels}
        top: list[str] = []
        for l in labels:
            p = parent.get(l)
            if p is None:
                top.append(l)
            elif p not in known:
                raise UnknownParent(f"label {l!r} attached to {p!r}, which is never declared")
            else:
                children[p].append(l)
        chains: dict[str, tuple[str, ...]] = {}
        queue = deque((t, ()) for t in top)
        while queue:
            name, chain = queue.popleft()
            chains[name] = chain
            chain = (name, *chain)
            queue.extend((ch, chain) for ch in children[name])
        if len(chains) != len(labels):
            missing = [l for l in labels if l not in chains]
            raise CycleDetected(f"labels unreachable from the root (cycle or orphan): {missing[:5]}")
        return cls(labels, {l: p for l, p in parent.items() if l in known}, chains, children, top)

    # -- queries ----------------------------------------------------------

    def __contains__(self, label: str) -> bool:
        return label in self._chains

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def max_depth(self) -> int:
        return max(self.level.values())

    def check_known(self, labels: Iterable[str]) -> None:
        for l in labels:
            if l not in self._chains:
                raise UnknownLabel(l)

    def ancestors(self, label: str) -> list[str]:
        """Ancestor chain of a label, nearest first, virtual root excluded."""
        try:
            return list(self._chains[label])
        except KeyError:
            raise UnknownLabel(label) from None

    def closure(self, labels: Iterable[str]) -> set[str]:
        """The labels plus all their ancestors. Idempotent."""
        out: set[str] = set()
        for l in labels:
            if l in out:
                continue
            chain = self._chains.get(l)
            if chain is None:
                raise UnknownLabel(l)
            out.add(l)
            for a in chain:
                if a in out:  # so are the rest of the chain
                    break
                out.add(a)
        return out

    def minimize(self, labels: Iterable[str]) -> set[str]:
        """Deepest labels of a closure-consistent set.

        Keeps exactly the labels that have no child inside the set, so that
        ``closure(minimize(S)) == S`` whenever S is closed under ancestors.
        """
        s = set(labels)
        leaves = self.leaf_labels(s)
        for l in s:
            p = self.parent.get(l)
            if p is not None and p not in s:
                raise NotClosureConsistent(f"parent {p!r} of {l!r} missing from the set")
        return leaves

    def leaf_labels(self, labels: Iterable[str]) -> set[str]:
        """Labels with no child inside the given set (no closure check)."""
        s = set(labels)
        self.check_known(s)
        return {l for l in s if not any(c in s for c in self.children[l])}


@dataclass
class DatasetStats:
    """Per-split summary mirroring the usual corpus statistics tables."""

    n_labels: int
    max_depth: int
    n_samples: int
    avg_labels: float
    avg_parent_labels: float
    avg_leaf_labels: float
    empty: bool = False


def read_text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line of a UTF-8 text file.

    Lines split and end as text-mode iteration gives them. A line holding
    bytes that are not UTF-8 raises ``MalformedLine`` naming ``path:line``
    and the first such byte; the lines before it have been yielded.
    """
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:  # a surrogate escaping a bad byte
                    byte = ord(line[e.start]) - 0xDC00
                    raise MalformedLine(f"{path}:{n}: not UTF-8 (byte 0x{byte:02x} "
                                        f"at column {e.start + 1})") from None
            yield n, line


def load_hierarchy(source: str | Path) -> LabelHierarchy:
    """Load a hierarchy from an edge-list file.

    Format: UTF-8 text, one ``parent<TAB>child`` edge per line. A parent
    field equal to ``ROOT`` declares a top-level label. ``#`` starts a
    comment; blank lines are skipped.
    """
    edges = []
    path = Path(source)
    for n, raw in read_text_lines(path):
        line = raw.split("#", 1)[0].rstrip("\n").rstrip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLine(f"{path}:{n}: expected 'parent<TAB>child', got {raw!r}")
        edges.append((fields[0], fields[1]))
    if not edges:
        raise EmptyHierarchy(f"{path}: no edges")
    return LabelHierarchy.from_edges(edges)


def save_hierarchy(h: LabelHierarchy, path: str | Path) -> None:
    """Write a hierarchy back out in the edge-list format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in h.top:
            fh.write(f"{ROOT}\t{t}\n")
        for name in h.labels:
            for c in h.children[name]:
                fh.write(f"{name}\t{c}\n")


def dataset_stats(h: LabelHierarchy, label_sets: Sequence[Iterable[str]]) -> DatasetStats:
    """Summarize a split: label counts per sample, split into parent and leaf parts.

    A sample label counts as a leaf if none of its children are in the same
    sample; the rest are parent labels. Averages are 0 with ``empty=True``
    for an empty split.
    """
    n = len(label_sets)
    if n == 0:
        return DatasetStats(len(h), h.max_depth, 0, 0.0, 0.0, 0.0, empty=True)
    tot = tot_leaf = 0
    for labels in label_sets:
        s = set(labels)
        leaves = h.leaf_labels(s)
        tot += len(s)
        tot_leaf += len(leaves)
    return DatasetStats(
        n_labels=len(h),
        max_depth=h.max_depth,
        n_samples=n,
        avg_labels=tot / n,
        avg_parent_labels=(tot - tot_leaf) / n,
        avg_leaf_labels=tot_leaf / n,
    )
