"""Symbolic label vocabulary and the fixed-capacity label-sequence codec.

The decoder sees labels only as opaque token ids, so no linguistic content
from the names reaches it. Label ids follow the hierarchy's label order;
the symbols ``[a_0]``, ``[a_1]``, ... name those tokens only in
checkpoints. A sample's label set is serialized into a fixed-size
token-id vector whose layout depends on the chosen ordering strategy;
``LAYOUTS`` holds each ordering's rules in one entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityExceeded, ConfigError, UnknownLabel
from .taxonomy import LabelHierarchy

BOS_ID, EOS_ID, PAD_ID, SEP_ID = 0, 1, 2, 3
BOS_TOKEN, EOS_TOKEN, PAD_TOKEN = "<s>", "</s>", "<pad>"
#: The level separator deliberately reuses the name "<unk>"; it delimits
#: hierarchy levels (or paths, in one ordering) inside a sequence.
SEP_TOKEN = "<unk>"

SPECIAL_TOKENS = {BOS_TOKEN: BOS_ID, EOS_TOKEN: EOS_ID, PAD_TOKEN: PAD_ID, SEP_TOKEN: SEP_ID}
N_SPECIALS = 4


class Ordering(str, enum.Enum):
    """How a label set is laid out as a token sequence."""

    CHILD_TO_PARENT = "child_to_parent_levelwise"
    PARENT_TO_CHILD = "parent_to_child_levelwise"
    CHILD_TO_PARENT_NOSEP = "child_to_parent_nosep"
    PATH_SEPARATED = "path_separated"
    SHUFFLED = "shuffled"
    MINIMAL_CHILDREN = "minimal_children_levelwise"

    @classmethod
    def from_string(cls, s: str) -> "Ordering":
        try:
            return cls(s)
        except ValueError:
            raise ConfigError(f"unknown ordering {s!r}; expected one of "
                              f"{[m.value for m in cls]}") from None


class SymbolicVocab:
    """Token vocabulary of the decoder: four specials plus one id per label.

    Label k of ``h.labels`` has id ``N_SPECIALS + k``. The ``[a_k]``
    symbols that name these tokens appear only in checkpoints.
    """

    def __init__(self, h: LabelHierarchy):
        self.labels = list(h.labels)
        self._ids = {name: N_SPECIALS + k for k, name in enumerate(self.labels)}
        self.size = N_SPECIALS + len(self.labels)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def id_of(self, original_name: str) -> int:
        """Token id for an original label name."""
        try:
            return self._ids[original_name]
        except KeyError:
            raise UnknownLabel(original_name) from None

    def name_of(self, token_id: int) -> str:
        """Original label name for a label token id; KeyError for any other id."""
        if not N_SPECIALS <= token_id < self.size:
            raise KeyError(token_id)
        return self.labels[token_id - N_SPECIALS]

    def is_label_id(self, token_id: int) -> bool:
        return N_SPECIALS <= token_id < self.size


def build_vocab(h: LabelHierarchy) -> SymbolicVocab:
    """Deterministic vocabulary over a hierarchy's stable label enumeration."""
    return SymbolicVocab(h)


@dataclass
class LabelSequence:
    """Fixed-length token-id vector with a validity mask.

    ``mask`` is 1 on real tokens (BOS/EOS/SEP included) and 0 on padding.
    """

    ids: np.ndarray
    mask: np.ndarray

    @property
    def capacity(self) -> int:
        return int(self.ids.shape[0])

    def trimmed(self) -> list[int]:
        """Token ids up to and including EOS (whole vector if EOS absent)."""
        ids = self.ids.tolist()
        return ids[: ids.index(EOS_ID) + 1] if EOS_ID in ids else ids


@dataclass
class DecodeDiagnostics:
    unknown_ids: int = 0
    repeated_labels_dropped: int = 0
    pad_inside: int = 0
    missing_bos: bool = False
    missing_eos: bool = False

    @property
    def clean(self) -> bool:
        return (self.unknown_ids == 0 and self.repeated_labels_dropped == 0
                and self.pad_inside == 0 and not self.missing_bos and not self.missing_eos)


@dataclass
class DecodeResult:
    labels: set[str]
    groups: list[list[str]]
    diagnostics: DecodeDiagnostics = field(default_factory=DecodeDiagnostics)


@dataclass(frozen=True)
class Layout:
    """One ordering's rules: ``groups(labels, h, vocab, rng)`` turns a label
    set into groups of label ids, ``sep`` ends each group with a SEP, and
    ``closes`` makes ``decode`` close the decoded set under ancestors."""

    groups: Callable[..., list[list[int]]]
    sep: bool = True
    closes: bool = False


def _levels(deepest_first: bool, minimal: bool = False):
    """Level groups, ascending ids inside; ``minimal`` keeps a closed set's deepest labels."""
    def groups(labels, h, vocab, rng):
        by_level: dict[int, list[int]] = {}
        for l in (h.minimize(labels) if minimal else labels):
            by_level.setdefault(h.level[l], []).append(vocab.id_of(l))
        return [sorted(by_level[lvl]) for lvl in sorted(by_level, reverse=deepest_first)]
    return groups


def _paths(labels, h, vocab, rng):
    """One group per leaf of the set: the leaf, then its ancestors nearest first."""
    return [[vocab.id_of(l) for l in (leaf, *h.ancestors(leaf))]
            for leaf in sorted(h.leaf_labels(labels), key=vocab.id_of)]


def _shuffled(labels, h, vocab, rng):
    if rng is None:
        raise ValueError("the shuffled ordering needs an rng")
    ids = sorted(vocab.id_of(l) for l in labels)
    return [[ids[i] for i in rng.permutation(len(ids))]]


LAYOUTS: dict[Ordering, Layout] = {
    Ordering.CHILD_TO_PARENT: Layout(_levels(deepest_first=True)),
    Ordering.PARENT_TO_CHILD: Layout(_levels(deepest_first=False)),
    Ordering.CHILD_TO_PARENT_NOSEP: Layout(_levels(deepest_first=True), sep=False),
    Ordering.PATH_SEPARATED: Layout(_paths),
    Ordering.SHUFFLED: Layout(_shuffled, sep=False),
    Ordering.MINIMAL_CHILDREN: Layout(_levels(deepest_first=True, minimal=True), closes=True),
}


def _sequence(labels: Iterable[str], h: LabelHierarchy, vocab: SymbolicVocab,
              strategy: Ordering, rng: np.random.Generator | None = None) -> list[int]:
    """``BOS + body + EOS`` for a label set under its ordering's layout."""
    s = set(labels)
    h.check_known(s)
    layout = LAYOUTS[strategy]
    seq = [BOS_ID]
    for group in layout.groups(s, h, vocab, rng):
        seq.extend(group)
        if layout.sep:
            seq.append(SEP_ID)
    return seq + [EOS_ID]


def continuation(prefix: Sequence[int] | np.ndarray, h: LabelHierarchy,
                 vocab: SymbolicVocab, strategy: Ordering) -> list[int]:
    """The tokens that complete ``prefix`` into the sequence of the ancestor
    closure of its labels: the rest of the sequence the hierarchy predicts.

    ``[]`` when the prefix does not start that sequence (no BOS, a repeated
    label, a label the closure places elsewhere, a token that is neither a
    label nor SEP), and for the layouts without separators: shuffled,
    whose order needs an rng, and child-to-parent without SEP, where no
    token says that the leaf group is complete. Greedy decoding checks
    this draft against the model (see ``inference``).
    """
    layout = LAYOUTS[strategy]
    if not layout.sep:
        return []
    prefix = np.asarray(prefix).ravel().tolist()
    labels = h.closure(vocab.name_of(t) for t in prefix if vocab.is_label_id(t))
    seq = _sequence(labels, h, vocab, strategy)
    return seq[len(prefix):] if seq[:len(prefix)] == prefix else []


def capacity_for(
    label_sets: Sequence[Iterable[str]],
    h: LabelHierarchy,
    strategy: Ordering | None = None,
) -> int:
    """Fixed vector size accommodating the largest sample of a dataset.

    A set needs the length of its encoded sequence, and the size is never
    below 4 (BOS, one label, SEP, EOS). Path-separated layouts repeat shared
    ancestors, so they are sized by their own layout; every other ordering
    is sized by the child-to-parent one (labels + one SEP per level + BOS
    and EOS), so an ordering ablation keeps the base model's decode budget.
    """
    sizing = (Ordering.PATH_SEPARATED if strategy is Ordering.PATH_SEPARATED
              else Ordering.CHILD_TO_PARENT)
    vocab = build_vocab(h)
    return max([4, *(len(_sequence(s, h, vocab, sizing)) for s in label_sets)])


def encode(
    labels: Iterable[str],
    h: LabelHierarchy,
    vocab: SymbolicVocab,
    strategy: Ordering,
    capacity: int,
    rng: np.random.Generator | None = None,
) -> LabelSequence:
    """Serialize a label set into a fixed-capacity token-id vector.

    Level-wise layouts emit one separator after every level group,
    including the last one before EOS. Sibling order inside a level is
    ascending token id, which is stable and dataset-independent.
    """
    seq = _sequence(labels, h, vocab, strategy, rng)
    if len(seq) > capacity:
        raise CapacityExceeded(
            f"sequence needs {len(seq)} tokens but capacity is {capacity}")
    ids = np.full(capacity, PAD_ID, dtype=np.int32)
    ids[: len(seq)] = seq
    mask = np.zeros(capacity, dtype=np.int8)
    mask[: len(seq)] = 1
    return LabelSequence(ids=ids, mask=mask)


def decode(
    ids: Sequence[int] | np.ndarray,
    vocab: SymbolicVocab,
    h: LabelHierarchy,
    strategy: Ordering,
) -> DecodeResult:
    """Read a (possibly model-generated) token vector back into a label set.

    Lenient by design: structural oddities are counted in the diagnostics
    rather than raised. A layout with ``closes`` (minimal children) also
    closes the decoded set under ancestors.
    """
    ids = [int(t) for t in np.asarray(ids).ravel().tolist()]
    diag = DecodeDiagnostics(missing_bos=not ids or ids[0] != BOS_ID)

    seen: set[int] = set()
    groups: list[list[str]] = []
    current: list[str] = []
    for t in ids[0 if diag.missing_bos else 1:]:
        if t == EOS_ID:
            break
        if t == SEP_ID:
            if current:
                groups.append(current)
                current = []
            continue
        if t == PAD_ID:
            diag.pad_inside += 1
            continue
        if not vocab.is_label_id(t):
            diag.unknown_ids += 1
            continue
        if t in seen:
            diag.repeated_labels_dropped += 1
            continue
        seen.add(t)
        current.append(vocab.name_of(t))
    else:
        diag.missing_eos = True
    if current:
        groups.append(current)

    labels = {vocab.name_of(t) for t in seen}
    if LAYOUTS[strategy].closes and labels:
        labels = h.closure(labels)
    return DecodeResult(labels=labels, groups=groups, diagnostics=diag)
