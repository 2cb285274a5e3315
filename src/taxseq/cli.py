"""Command-line surface: train, evaluate, predict, ablate, gen-synth, stats.

Heavy imports happen inside the command functions so the global
``--threads`` and ``--deterministic`` flags can pin the numeric library
thread pools before anything numeric loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path

# variant -> (ablation table row, its section.key=value overrides)
ABLATION_VARIANTS: dict[str, tuple[str, list[str]]] = {
    "base": ("base model", []),
    "parent-to-child": ("but parent-to-child ordering",
                        ["codec.ordering=parent_to_child_levelwise"]),
    "no-separator": ("w/o <unk> token separators", ["codec.ordering=child_to_parent_nosep"]),
    "path-separated": ("using <unk> to separate paths instead of levels",
                       ["codec.ordering=path_separated"]),
    "shuffled": ("but shuffled labels w/o <unk>", ["codec.ordering=shuffled"]),
    "children-only": ("children only + hierarchy",
                      ["codec.ordering=minimal_children_levelwise"]),
    "focal-per-label": ("focal loss on label level", ["loss.variant=focal_per_token"]),
    "no-focal": ("w/o focal loss", ["loss.variant=plain_ce"]),
    "label-init": ("with labels semantics", ["decoder.use_label_init=true"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxseq",
        description="Hierarchical text classification via label-sequence decoding.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured training seed")
    parser.add_argument("--deterministic", action="store_true",
                        help="single-threaded numerics for bit-reproducible runs")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="pin numeric library thread pools (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a data directory")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--data", required=True, help="directory with taxonomy.tsv + splits")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--out", default=None, help="report path prefix")
    p.add_argument("--macro-all-labels", action="store_true",
                   help="average macro-F1 over every taxonomy label")
    p.add_argument("--precomputed", default=None,
                   help="precomputed encoder-state directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="decode labels for new texts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="JSONL with id and text fields")
    p.add_argument("--out", default=None, help="output JSONL (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="run the base config plus named variants")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                   help="comma-separated variant names")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--parallel", type=_positive_int, default=1,
                   help="run up to N variants concurrently (>= 1)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--branching", type=int, default=4)
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--docs-per-leaf", type=int, default=94)
    p.add_argument("--noise-rate", type=float, default=0.3)
    p.add_argument("--signal-strength", type=int, default=4)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("stats", help="summarize a data directory")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _apply_global_flags(args) -> None:
    threads = args.threads
    if args.deterministic and threads is None:
        threads = 1
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)


def _load_config(args):
    from .config import RunConfig

    cfg = (RunConfig.from_file(args.config, args.overrides)
           if args.config else RunConfig.defaults(args.overrides))
    if args.seed is not None:
        cfg.set("train", "seed", int(args.seed))
    return cfg


def _build_bundle(cfg, h, splits, store=None):
    """Construct a ModelBundle (plus codec capacity) from a RunConfig; with a
    states ``store`` it has no text vocabulary, else its encoder is trainable."""
    from .codec import Ordering, capacity_for
    from .encoder import TextVocab
    from .errors import ConfigError
    from .model import ModelBundle

    enc_cfg = cfg.build("encoder")
    try:
        ordering = Ordering.from_string(cfg.get("codec", "ordering"))
    except ConfigError as e:
        raise ConfigError(f"[codec] {e}") from None
    capacity = int(cfg.get("codec", "capacity"))
    if capacity < 0:
        raise ConfigError(f"[codec] capacity must be >= 0 (0 sizes it from the data), "
                          f"got {capacity}")
    if capacity == 0:
        sets = [s.labels for split in splits.values() for s in split]
        capacity = capacity_for(sets, h, strategy=ordering)

    text_vocab = None
    if store is not None:
        enc_cfg = dataclasses.replace(enc_cfg, d_model=store.d_model, max_len=store.max_len)
    else:
        text_vocab = TextVocab.build(
            (s.text for s in splits["train"]),
            min_count=cfg.get("encoder", "word_min_count"),
            max_size=cfg.get("encoder", "word_max_size"))

    label_init = None
    if cfg.get("decoder", "use_label_init"):
        label_init = cfg.get("decoder", "label_init")
        if not label_init:
            raise ConfigError("use_label_init requires [decoder] label_init = <path>")
    dec_cfg = cfg.build("decoder", vocab_size=0, d_model=enc_cfg.d_model,
                        max_positions=capacity)
    return ModelBundle.build(h, ordering, capacity, enc_cfg, dec_cfg,
                             seed=cfg.get("train", "seed"),
                             text_vocab=text_vocab, label_init=label_init)


def _run_training(cfg, data_dir, out_dir):
    """Train on ``train.jsonl`` and ``dev.jsonl``, the only splits it reads."""
    from .corpus import load_jsonl
    from .encoder import PrecomputedStates
    from .errors import EmptyCorpus
    from .taxonomy import load_hierarchy
    from .trainer import prepare_data, train

    train_cfg = cfg.build("train", loss=cfg.build("loss"))
    data_dir = Path(data_dir)
    h = load_hierarchy(data_dir / "taxonomy.tsv")
    splits = {}
    for need in ("train", "dev"):
        path = data_dir / f"{need}.jsonl"
        if not path.exists():
            raise EmptyCorpus(f"{data_dir}: missing {need}.jsonl")
        splits[need] = load_jsonl(path, h)
    store_dir = cfg.get("data", "precomputed_dir")
    store = PrecomputedStates.open(store_dir) if store_dir else None
    bundle = _build_bundle(cfg, h, splits, store)
    seed = cfg.get("train", "seed")
    prep_train = prepare_data(bundle, splits["train"], seed=seed, store=store)
    prep_dev = prepare_data(bundle, splits["dev"], seed=seed + 1, store=store)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_resolved(out / "resolved.ini")
    result = train(bundle, prep_train, prep_dev, train_cfg, out_dir=out)
    return bundle, result, h, store


def _score_split(bundle, samples, store=None, all_labels=None):
    from .inference import predict_prepared
    from .metrics import build_report, decode_summary
    from .trainer import prepare_data

    prep = prepare_data(bundle, samples, seed=0, store=store)
    preds = predict_prepared(bundle, prep)
    gold_seqs = [prep.seq_ids[i][prep.seq_mask[i] == 1].tolist()
                 for i in range(prep.n)]
    report = build_report([p.labels for p in preds], prep.gold, bundle.hierarchy,
                          all_labels, pred_sequences=[p.token_ids for p in preds],
                          gold_sequences=gold_seqs)
    report.extras.update(decode_summary(preds, bundle.hierarchy))
    return report


def cmd_train(args) -> int:
    cfg = _load_config(args)
    bundle, result, _, _ = _run_training(cfg, args.data, args.out)
    print(f"trained {bundle.n_params()} parameters, "
          f"{result.epochs_run} epochs ({result.stopped}), "
          f"best val {result.best_val:.4f} at epoch {result.best_epoch}")
    print(f"checkpoints: {result.best_dir} (best), {result.last_dir} (last)")
    return 0


def cmd_evaluate(args) -> int:
    from .corpus import load_jsonl
    from .metrics import write_report
    from .trainer import load_checkpoint

    bundle, _ = load_checkpoint(args.checkpoint)
    store = None
    if args.precomputed:  # prepare_data rejects it for a trainable encoder
        from .encoder import PrecomputedStates
        store = PrecomputedStates.open(args.precomputed)
    elif bundle.text_vocab is None:
        from .errors import ConfigError
        raise ConfigError("a checkpoint without a text vocabulary needs --precomputed DIR")
    samples = load_jsonl(Path(args.data) / f"{args.split}.jsonl", bundle.hierarchy)
    report = _score_split(bundle, samples, store,
                          bundle.hierarchy.labels if args.macro_all_labels else None)
    prefix = Path(args.out) if args.out else Path(args.checkpoint) / f"eval_{args.split}"
    txt, kv = write_report(report, prefix)
    print(f"micro_f1 {report.micro_f1:.4f}  macro_f1 {report.macro_f1:.4f} "
          f"({len(samples)} samples; report: {txt}, {kv})")
    return 0


def cmd_predict(args) -> int:
    from .corpus import read_jsonl
    from .errors import MalformedLine
    from .inference import predict_texts
    from .trainer import load_checkpoint

    bundle, _ = load_checkpoint(args.checkpoint)
    ids, texts = [], []
    expected = "an object with a string 'text' field"
    for n, obj in read_jsonl(args.input, expected):
        if not isinstance(obj.get("text"), str):
            raise MalformedLine(f"{args.input}:{n}: expected {expected}")
        ids.append(str(obj.get("id", n)))
        texts.append(obj["text"])
    preds = predict_texts(bundle, texts, sample_ids=ids)
    sink = Path(args.out).open("w", encoding="utf-8") if args.out else sys.stdout
    try:
        for p in preds:
            sink.write(json.dumps({"id": p.sample_id,
                                   "labels": sorted(p.labels),
                                   "levels": p.groups,
                                   "diagnostics": p.diagnostics}) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _ablate_one(payload):
    """Train one (variant, seed) cell and score it on the test split."""
    cfg_values, data_dir, out_dir, variant, seed = payload
    from .config import RunConfig
    from .corpus import load_jsonl
    from .trainer import load_checkpoint

    cfg = RunConfig(cfg_values)
    cfg.apply_overrides(ABLATION_VARIANTS[variant][1])
    cfg.set("train", "seed", seed)
    run_dir = Path(out_dir) / variant.replace("/", "_") / f"seed{seed}"
    bundle, result, h, store = _run_training(cfg, data_dir, run_dir)
    best, _ = load_checkpoint(result.best_dir)
    test = load_jsonl(Path(data_dir) / "test.jsonl", h)
    report = _score_split(best, test, store)
    return {"variant": variant, "seed": seed,
            "micro_f1": report.micro_f1, "macro_f1": report.macro_f1,
            "best_val": result.best_val, "epochs": result.epochs_run}


def cmd_ablate(args) -> int:
    from .errors import ConfigError

    cfg = _load_config(args)
    variants = ["base"] + [v for v in args.variants.split(",") if v and v != "base"]
    unknown = [v for v in variants[1:] if v not in ABLATION_VARIANTS]
    if unknown:
        raise ConfigError(f"unknown ablation variants {unknown}; "
                          f"choose from {sorted(ABLATION_VARIANTS)}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        seeds = []
    if not seeds:
        raise ConfigError(f"--seeds takes comma-separated integers, got {args.seeds!r}")
    jobs = [(cfg.values, args.data, args.out, v, s) for v in variants for s in seeds]

    workers = min(args.parallel, len(jobs))
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(workers) as pool:
            cells = pool.map(_ablate_one, jobs)
    else:
        cells = [_ablate_one(j) for j in jobs]

    rows = []
    for v in variants:
        own = [c for c in cells if c["variant"] == v]
        rows.append({"variant": v, "display": ABLATION_VARIANTS[v][0],
                     "micro_f1": statistics.median(c["micro_f1"] for c in own),
                     "macro_f1": statistics.median(c["macro_f1"] for c in own),
                     "seeds": seeds})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.json").write_text(
        json.dumps({"rows": rows, "cells": cells}, indent=1), encoding="utf-8")
    width = max(len(r["display"]) for r in rows) + 2
    lines = [f"{'experiment':<{width}}{'micro_f1':>10}{'macro_f1':>10}"]
    for r in rows:
        lines.append(f"{r['display']:<{width}}{r['micro_f1']:>10.4f}{r['macro_f1']:>10.4f}")
    table = "\n".join(lines) + "\n"
    (out / "ablation.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_gen_synth(args) -> int:
    from .corpus import SynthConfig, generate_synthetic

    cfg = SynthConfig(depth=args.depth, branching=args.branching,
                      vocab_size=args.vocab_size, docs_per_leaf=args.docs_per_leaf,
                      noise_rate=args.noise_rate, signal_strength=args.signal_strength,
                      seed=args.seed if args.seed is not None else 0)
    result = generate_synthetic(cfg, args.out)
    sizes = ", ".join(f"{k}={v}" for k, v in result.split_sizes.items())
    print(f"wrote {result.n_labels} labels ({result.n_leaves} leaves) and "
          f"{sizes} under {result.out_dir}")
    return 0


def cmd_stats(args) -> int:
    from .corpus import load_splits
    from .taxonomy import dataset_stats

    h, splits = load_splits(args.data)
    print(f"labels {len(h)}  depth {h.max_depth}")
    print(f"{'split':<8}{'samples':>9}{'avg_labels':>12}{'avg_parent':>12}{'avg_leaf':>10}")
    for name, samples in splits.items():
        st = dataset_stats(h, [s.labels for s in samples])
        print(f"{name:<8}{st.n_samples:>9}{st.avg_labels:>12.2f}"
              f"{st.avg_parent_labels:>12.2f}{st.avg_leaf_labels:>10.2f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_global_flags(args)
    from .errors import TaxseqError
    try:
        return args.func(args)
    except TaxseqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
