"""Set-level F1 scoring and the sequence-error taxonomy.

Every score comes from one counting pass over the (prediction, gold)
label-set pairs, which tallies each label's true positives, false
positives and false negatives. Micro-F1 sums those counts; Macro-F1 is
the unweighted mean of per-label F1 with 0/0 defined as 0. By default the
macro mean runs over labels that appear in gold or prediction within the
evaluated split; ``all_labels`` sets another universe, such as the full
taxonomy.

The error taxonomy buckets wrong samples by generated-vs-gold token
sequence length. On two-level taxonomies it further splits them, from
the decoded label sets, into child-wrong-parent-right (with a
shared-parent subcount) versus both-wrong. Only the codec maps token ids
to labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import LengthMismatch
from .taxonomy import LabelHierarchy

__all__ = [
    "PRF", "ErrorBuckets", "EvalReport", "micro_macro_f1", "per_label_scores",
    "error_taxonomy", "build_report", "decode_summary", "format_report",
    "write_report",
]


@dataclass
class PRF:
    precision: float
    recall: float
    f1: float
    gold_count: int
    pred_count: int


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _check_lengths(*columns) -> None:
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise LengthMismatch(f"predictions and golds differ in length: {lengths}")


def _scores(preds, golds, all_labels=None) -> tuple[float, float, dict[str, PRF]]:
    """(micro, macro, per-label) F1 from each label's (tp, fp, fn), counted in
    one pass over the set pairs. Without ``all_labels`` the per-label
    universe is in first appearance over the predictions, then the golds,
    each set read sorted."""
    _check_lengths(preds, golds)
    tps, fps, fns = Counter(), Counter(), Counter()
    pred_seen: dict[str, None] = {}
    gold_seen: dict[str, None] = {}
    for p, g in zip(preds, golds):
        p, g = set(p), set(g)
        tps.update(p & g)
        fps.update(p - g)
        fns.update(g - p)
        pred_seen.update(dict.fromkeys(sorted(p)))  # a seen key keeps its place
        gold_seen.update(dict.fromkeys(sorted(g)))
    per_label: dict[str, PRF] = {}
    for lb in {**pred_seen, **gold_seen} if all_labels is None else all_labels:
        tp, fp, fn = tps[lb], fps[lb], fns[lb]
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_label[lb] = PRF(prec, rec, _f1(tp, fp, fn), tp + fn, tp + fp)
    micro = _f1(sum(tps.values()), sum(fps.values()), sum(fns.values()))
    macro = sum(s.f1 for s in per_label.values()) / len(per_label) if per_label else 0.0
    return micro, macro, per_label


def micro_macro_f1(preds, golds, all_labels=None) -> tuple[float, float]:
    """F1 over label sets -> (micro, macro).

    ``all_labels``, when given, is the label universe of the macro mean;
    otherwise the universe is whatever occurs in ``preds`` or ``golds``.
    """
    return _scores(preds, golds, all_labels)[:2]


def per_label_scores(preds, golds, all_labels=None) -> dict[str, PRF]:
    """Per-label precision/recall/F1 with 0/0 := 0, over the universe of
    ``micro_macro_f1``."""
    return _scores(preds, golds, all_labels)[2]


@dataclass
class ErrorBuckets:
    """Sequence-level error census; the four primary buckets sum to n."""

    n: int = 0
    exact_match: int = 0
    shorter: int = 0
    longer: int = 0
    equal_length_wrong: int = 0
    two_level: bool = False
    child_wrong_parent_right: int = 0
    shared_parent: int = 0
    both_wrong: int = 0

    def as_dict(self) -> dict:
        out = {"n": self.n, "exact_match": self.exact_match,
               "shorter": self.shorter, "longer": self.longer,
               "equal_length_wrong": self.equal_length_wrong}
        if self.two_level:
            out.update({"child_wrong_parent_right": self.child_wrong_parent_right,
                        "shared_parent": self.shared_parent,
                        "both_wrong": self.both_wrong})
        return out


def error_taxonomy(preds, golds, pred_sequences, gold_sequences,
                   h: LabelHierarchy) -> ErrorBuckets:
    """Classify each (generated, gold) pair.

    Exact match compares full token sequences. Wrong pairs fall into
    shorter/longer/equal-length buckets by sequence length. On two-level
    taxonomies the level-1/level-2 overlay reads the decoded label sets
    ``preds`` and the gold sets ``golds``.
    """
    _check_lengths(preds, golds, pred_sequences, gold_sequences)
    buckets = ErrorBuckets(n=len(pred_sequences), two_level=h.max_depth == 2)
    for p_set, g_set, pred, gold in zip(preds, golds, pred_sequences, gold_sequences):
        pred = [int(t) for t in pred]
        gold = [int(t) for t in gold]
        if pred == gold:
            buckets.exact_match += 1
            continue
        if len(pred) < len(gold):
            buckets.shorter += 1
        elif len(pred) > len(gold):
            buckets.longer += 1
        else:
            buckets.equal_length_wrong += 1
        if not buckets.two_level:
            continue
        p_parents = {lb for lb in p_set if h.level[lb] == 1}
        g_parents = {lb for lb in g_set if h.level[lb] == 1}
        if p_parents == g_parents:
            buckets.child_wrong_parent_right += 1
            p_children = {lb for lb in p_set if h.level[lb] == 2}
            g_children = {lb for lb in g_set if h.level[lb] == 2}
            wrong_p = p_children - g_children
            wrong_g = g_children - p_children
            if wrong_p and wrong_g and (
                    {h.parent[lb] for lb in wrong_p} == {h.parent[lb] for lb in wrong_g}):
                buckets.shared_parent += 1
        else:
            buckets.both_wrong += 1
    return buckets


@dataclass
class EvalReport:
    micro_f1: float
    macro_f1: float
    per_label: dict[str, PRF]
    buckets: ErrorBuckets | None = None
    extras: dict = field(default_factory=dict)


def build_report(preds, golds, h: LabelHierarchy, all_labels=None,
                 pred_sequences=None, gold_sequences=None) -> EvalReport:
    """Score decoded label sets over the macro universe ``all_labels`` (see
    ``micro_macro_f1``), with the sequence error census when both token
    sequence lists are given."""
    micro, macro, per_label = _scores(preds, golds, all_labels)
    buckets = None
    if pred_sequences is not None and gold_sequences is not None:
        buckets = error_taxonomy(preds, golds, pred_sequences, gold_sequences, h)
    return EvalReport(micro, macro, per_label, buckets)


def decode_summary(preds, h: LabelHierarchy) -> dict:
    """Aggregate the decode diagnostics of ``inference.Prediction``s.

    ``decode.hit_capacity_share`` is the share of predictions that ran to
    capacity without EOS and ``decode.not_closed_share`` the share whose
    label set lacks an ancestor of one of its labels;
    ``decode.repeats_dropped`` and ``decode.malformed`` total the
    per-prediction ``repeated_labels_dropped`` and ``unknown_structure``.
    """
    n = max(len(preds), 1)
    return {
        "decode.hit_capacity_share": sum(p.diagnostics["hit_max_len"] for p in preds) / n,
        "decode.repeats_dropped": sum(p.diagnostics["repeated_labels_dropped"] for p in preds),
        "decode.malformed": sum(p.diagnostics["unknown_structure"] for p in preds),
        "decode.not_closed_share": sum(h.closure(p.labels) != p.labels for p in preds) / n,
    }


def format_report(report: EvalReport) -> str:
    lines = [
        f"micro_f1 {report.micro_f1:.4f}",
        f"macro_f1 {report.macro_f1:.4f}",
    ]
    lines += [f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
              for k, v in report.extras.items()]
    lines += [
        "",
        f"{'label':<32}{'prec':>8}{'rec':>8}{'f1':>8}{'gold':>7}{'pred':>7}",
    ]
    for lb, s in report.per_label.items():
        lines.append(f"{lb:<32}{s.precision:>8.3f}{s.recall:>8.3f}"
                     f"{s.f1:>8.3f}{s.gold_count:>7}{s.pred_count:>7}")
    if report.buckets is not None:
        lines.append("")
        lines.append("error buckets")
        for k, v in report.buckets.as_dict().items():
            lines.append(f"  {k:<24}{v:>7}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path_prefix) -> tuple[Path, Path]:
    """Emit the human table (.txt) and machine key-value (.kv) files."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    txt = prefix.with_suffix(".txt")
    kv = prefix.with_suffix(".kv")
    txt.write_text(format_report(report), encoding="utf-8")
    lines = [f"micro_f1={report.micro_f1:.6f}", f"macro_f1={report.macro_f1:.6f}"]
    if report.buckets is not None:
        lines += [f"bucket.{k}={v}" for k, v in report.buckets.as_dict().items()]
    for k, v in report.extras.items():
        lines.append(f"{k}={v}")
    for lb, s in report.per_label.items():
        lines.append(f"label.{lb}.f1={s.f1:.6f}")
    kv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return txt, kv
