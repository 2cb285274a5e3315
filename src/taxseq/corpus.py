"""Dataset ingestion and the synthetic corpus generator.

Samples live in JSONL files ({"id", "text", "labels"}), one sample per
line, with label sets validated against the taxonomy on load. The
synthetic generator builds a complete b-ary label tree and bag-of-words
documents whose words are drawn from disjoint per-label pools plus noise,
giving a fully separable desk-scale task with known structure.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, EmptyCorpus, MalformedLine, MissingRawData
from .taxonomy import (ROOT, LabelHierarchy, dataset_stats, load_hierarchy, read_text_lines,
                       save_hierarchy)

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "dev", "test")

__all__ = ["Sample", "SynthConfig", "SynthResult", "read_jsonl", "load_jsonl", "write_jsonl",
           "generate_synthetic", "adapt_dataset", "SPLIT_NAMES"]


@dataclass
class Sample:
    id: str
    text: str
    labels: set[str]


def read_jsonl(path, expected: str = "a JSON object") -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file.

    A line that is not UTF-8, not JSON, or not a JSON object, raises
    ``MalformedLine`` naming ``path:line``; ``expected`` says in that message
    what the caller wants each line to hold.
    """
    path = Path(path)
    for n, raw in read_text_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedLine(f"{path}:{n}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise MalformedLine(f"{path}:{n}: expected {expected}")
        yield n, obj


def _names(value) -> bool:
    """True for a list of strings, the type of every label and token list."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_jsonl(path, h: LabelHierarchy) -> list[Sample]:
    """Read one split, validating fields and labels against the hierarchy.

    ``text`` must be a string and ``labels`` a non-empty list of strings.
    A label set that is not closed under ancestors is closed, with a logged
    warning naming the line. An unknown label is an error.
    """
    path = Path(path)
    samples: list[Sample] = []
    for n, obj in read_jsonl(path):
        if not {"id", "text", "labels"} <= obj.keys():
            raise MalformedLine(f"{path}:{n}: expected keys id/text/labels")
        if not isinstance(obj["text"], str):
            raise MalformedLine(f"{path}:{n}: 'text' must be a string")
        if not _names(obj["labels"]):
            raise MalformedLine(f"{path}:{n}: 'labels' must be a list of label names")
        labels = set(obj["labels"])
        if not labels:
            raise MalformedLine(f"{path}:{n}: empty label set")
        h.check_known(labels)
        closed = h.closure(labels)
        if closed != labels:
            log.warning("%s:%d: sample %s auto-closed (+%d ancestors)",
                        path, n, obj["id"], len(closed - labels))
        samples.append(Sample(str(obj["id"]), obj["text"], closed))
    if not samples:
        raise EmptyCorpus(f"{path}: no samples")
    return samples


def write_jsonl(path, samples) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(
                {"id": s.id, "text": s.text, "labels": sorted(s.labels)}) + "\n")


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    depth: int = 3
    branching: int = 4
    vocab_size: int = 2000
    docs_per_leaf: int = 94
    noise_rate: float = 0.3
    signal_strength: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.depth < 2 or self.branching < 2:
            raise ConfigError("depth and branching must both be >= 2")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError("noise_rate must lie in [0, 1)")
        if self.signal_strength < 1 or self.docs_per_leaf < 1:
            raise ConfigError("signal_strength and docs_per_leaf must be >= 1")
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be >= 1, got {self.vocab_size}")


@dataclass
class SynthResult:
    out_dir: Path
    taxonomy_path: Path
    split_paths: dict[str, Path]
    n_labels: int
    n_leaves: int
    split_sizes: dict[str, int]


def _complete_tree(depth: int, branching: int) -> list[tuple[str, str]]:
    """Edges of a complete tree, breadth-first, parents before children."""
    edges: list[tuple[str, str]] = []
    frontier = []
    for i in range(branching):
        name = f"c{i}"
        edges.append((ROOT, name))
        frontier.append(name)
    for _ in range(depth - 1):
        nxt = []
        for parent in frontier:
            for i in range(branching):
                child = f"{parent}_{i}"
                edges.append((parent, child))
                nxt.append(child)
        frontier = nxt
    return edges


def generate_synthetic(cfg: SynthConfig, out_dir) -> SynthResult:
    """Emit taxonomy.tsv plus stratified train/dev/test JSONL files.

    Each document targets one leaf: its text holds ``signal_strength``
    words per ancestor level drawn from that label's private pool, mixed
    with noise words at roughly ``noise_rate`` of the final length.
    Labels are the closure of the leaf. Fixed seed, byte-identical output.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    edges = _complete_tree(cfg.depth, cfg.branching)
    h = LabelHierarchy.from_edges(edges)
    tax_path = out / "taxonomy.tsv"
    save_hierarchy(h, tax_path)

    share = max(1, (3 * cfg.vocab_size // 4) // len(h))
    n_noise_words = max(1, cfg.vocab_size - share * len(h))
    # One word table: each label's pool of ``share`` words in label order,
    # then the noise pool.
    table = np.array([f"w_{lb}_{j}" for lb in h.labels for j in range(share)]
                     + [f"nz{j}" for j in range(n_noise_words)], dtype=object)
    pool_start = {lb: k * share for k, lb in enumerate(h.labels)}

    leaves = [lb for lb in h.labels if not h.children[lb]]
    splits: dict[str, list[Sample]] = {name: [] for name in SPLIT_NAMES}
    counter = 0
    for leaf in leaves:
        chain = [leaf] + h.ancestors(leaf)
        n_signal = cfg.signal_strength * len(chain)
        n_noise = int(round(n_signal * cfg.noise_rate / (1.0 - cfg.noise_rate)))
        # A document's slot i reads table[offsets[i] + a draw below highs[i]]:
        # ``signal_strength`` slots per label of the chain, then the noise.
        # One draw over the array of bounds takes the same stream as one
        # scalar-bound draw per pool, a one-word pool (bound 1) taking none.
        offsets = np.repeat([pool_start[lb] for lb in chain] + [share * len(h)],
                            [cfg.signal_strength] * len(chain) + [n_noise])
        highs = np.repeat([share, n_noise_words], [n_signal, n_noise])
        docs = []
        for _ in range(cfg.docs_per_leaf):
            picks = offsets + rng.integers(0, highs)
            order = rng.permutation(len(picks))
            docs.append(Sample(f"s{counter}", " ".join(table[picks[order]]), set(chain)))
            counter += 1
        order = rng.permutation(len(docs))
        n_train = int(round(0.70 * len(docs)))
        n_dev = int(round(0.15 * len(docs)))
        for rank, k in enumerate(order):
            if rank < n_train:
                splits["train"].append(docs[k])
            elif rank < n_train + n_dev:
                splits["dev"].append(docs[k])
            else:
                splits["test"].append(docs[k])

    split_paths = {}
    for name in SPLIT_NAMES:
        p = out / f"{name}.jsonl"
        write_jsonl(p, splits[name])
        split_paths[name] = p
    return SynthResult(out, tax_path, split_paths, len(h), len(leaves),
                       {name: len(splits[name]) for name in SPLIT_NAMES})


# ---------------------------------------------------------------------------
# adapters for public corpora
# ---------------------------------------------------------------------------

_RAW_FILES = {
    "wos": ("wos.taxonomy", "wos_train.json", "wos_val.json", "wos_test.json"),
    "nyt": ("nyt.taxonomy", "nyt_train.json", "nyt_val.json", "nyt_test.json"),
    "rcv1": ("rcv1.taxonomy", "rcv1_train.json", "rcv1_val.json", "rcv1_test.json"),
}


def _read_raw_taxonomy(path: Path) -> list[tuple[str, str]]:
    """Raw taxonomies list one parent per line followed by its children,
    tab-separated, with the virtual root spelled ``Root``."""
    edges = []
    for n, raw in read_text_lines(path):
        fields = [f for f in raw.rstrip("\n").split("\t") if f]
        if not fields:
            continue
        if len(fields) < 2:
            raise MalformedLine(f"{path}:{n}: parent with no children")
        parent = ROOT if fields[0] in ("Root", "root", ROOT) else fields[0]
        for child in fields[1:]:
            edges.append((parent, child))
    return edges


def adapt_dataset(fmt: str, raw_dir, out_dir):
    """Convert a raw public corpus into this package's layout.

    Expects the preprocessed per-line-JSON distribution of the named
    corpus ({"token": [...], "label": [...]} or {"text", "labels"}) next
    to its taxonomy file. ``token``, ``label`` and ``labels`` must be
    lists of strings and ``text`` a string; any other line raises
    MalformedLine naming ``path:line``. The corpora themselves are not
    bundled; a missing file raises MissingRawData naming exactly what to
    supply.
    Returns per-split statistics computed from the converted files.
    """
    if fmt not in _RAW_FILES:
        raise MissingRawData(f"unknown format {fmt!r}; expected one of {sorted(_RAW_FILES)}")
    raw = Path(raw_dir)
    names = _RAW_FILES[fmt]
    missing = [n for n in names if not (raw / n).exists()]
    if missing:
        raise MissingRawData(
            f"{fmt}: place the raw files {missing} under {raw} "
            f"(licensing prevents bundling them); expected layout: "
            f"{names[0]} plus per-split JSON lines files {names[1:]}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges = _read_raw_taxonomy(raw / names[0])
    h = LabelHierarchy.from_edges(edges)
    save_hierarchy(h, out / "taxonomy.tsv")

    stats = {}
    for split, fname in zip(SPLIT_NAMES, names[1:]):
        samples = []
        for n, obj in read_jsonl(raw / fname):
            where = f"{raw / fname}:{n}"
            if "token" in obj and "label" in obj:
                if not _names(obj["token"]):
                    raise MalformedLine(f"{where}: 'token' must be a list of strings")
                text, key = " ".join(obj["token"]), "label"
            elif "text" in obj and "labels" in obj:
                if not isinstance(obj["text"], str):
                    raise MalformedLine(f"{where}: 'text' must be a string")
                text, key = obj["text"], "labels"
            else:
                raise MalformedLine(f"{where}: expected token/label or text/labels keys")
            if not _names(obj[key]):
                raise MalformedLine(f"{where}: '{key}' must be a list of label names")
            labels = set(obj[key])
            h.check_known(labels)
            samples.append(Sample(f"{split}-{n}", text, h.closure(labels)))
        write_jsonl(out / f"{split}.jsonl", samples)
        stats[split] = dataset_stats(h, [s.labels for s in samples])
    return stats


def load_splits(data_dir):
    """Read taxonomy.tsv plus the three split files from one directory."""
    data_dir = Path(data_dir)
    h = load_hierarchy(data_dir / "taxonomy.tsv")
    splits = {}
    for name in SPLIT_NAMES:
        p = data_dir / f"{name}.jsonl"
        if p.exists():
            splits[name] = load_jsonl(p, h)
    if not splits:
        raise EmptyCorpus(f"{data_dir}: no split files found")
    return h, splits
