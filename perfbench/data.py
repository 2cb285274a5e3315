"""Benchmark inputs and the trained models the inference workloads load.

Two corpora, both made by ``corpus.generate_synthetic`` from a seed:

* desk: the criterion-6 corpus (depth 3 x branching 4, 84 labels, one
  leaf per document, capacity 8).
* deep: depth 5 x branching 2. Each document joins the words of several
  single-leaf documents from distinct leaves and carries the union of
  their label sets, so label sequences are long (capacity 21).

The generator names its words after the labels they signal, so a model
trained on one seed's corpus reads any other seed's documents. The
inference workloads therefore load a model trained once on a fixed seed
and cached under the checkout's build directory, and take their requests
from the run seed's corpus. Run this file directly to build one model:

    python3 perfbench/data.py desk OUT_DIR [--preset tiny]
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import env

FIXTURE_SEED = 0
KINDS = ("desk", "deep")


@dataclass(frozen=True)
class Shape:
    """One corpus plus the model and training recipe sized for it."""

    synth: dict
    max_len: int
    leaves_per_doc: int = 1
    joined_docs: dict = field(default_factory=dict)  # per split, deep only
    lr: tuple = (2e-3, 4e-3)  # encoder, decoder
    epochs: int = 3
    dev_docs: int = 256


@dataclass(frozen=True)
class Preset:
    desk: Shape
    deep: Shape
    probes: int  # batch-1 greedy and beam-4 requests, at least, of each kind
    check_docs: int  # documents in the fixed correctness subsets
    setup_reps: int
    f1_floor: tuple | None  # train-desk's (micro, macro) test F1 floor

    def shape(self, kind: str) -> Shape:
        return getattr(self, kind)


PRESETS = {
    "full": Preset(
        desk=Shape(synth=dict(depth=3, branching=4, vocab_size=2000, docs_per_leaf=94,
                              noise_rate=0.3, signal_strength=4),
                   max_len=20),
        deep=Shape(synth=dict(depth=5, branching=2, vocab_size=800, docs_per_leaf=40,
                              noise_rate=0.3, signal_strength=3),
                   max_len=64, leaves_per_doc=3,
                   joined_docs={"train": 2048, "dev": 256, "test": 256},
                   lr=(3e-3, 6e-3), epochs=6),
        probes=100, check_docs=16, setup_reps=6, f1_floor=(0.95, 0.90)),
    "tiny": Preset(
        desk=Shape(synth=dict(depth=2, branching=3, vocab_size=200, docs_per_leaf=12,
                              noise_rate=0.3, signal_strength=3),
                   max_len=12, epochs=1, dev_docs=16),
        deep=Shape(synth=dict(depth=3, branching=2, vocab_size=200, docs_per_leaf=10,
                              noise_rate=0.3, signal_strength=3),
                   max_len=24, leaves_per_doc=2,
                   joined_docs={"train": 64, "dev": 16, "test": 16}, epochs=1,
                   dev_docs=16),
        probes=4, check_docs=3, setup_reps=2, f1_floor=None),
}


def capacity(shape: Shape) -> int:
    """Longest child-to-parent sequence any document of the shape can need:
    per level the labels present, one separator per level, BOS and EOS."""
    depth, branching = shape.synth["depth"], shape.synth["branching"]
    labels = sum(min(branching ** lvl, shape.leaves_per_doc)
                 for lvl in range(1, depth + 1))
    return labels + depth + 2


def make_corpus(shape: Shape, seed: int, out_dir: Path) -> Path:
    """Write the corpus for ``seed`` under ``out_dir``; return the directory
    that ``corpus.load_splits`` should read."""
    import numpy as np
    from taxseq import corpus

    cfg = corpus.SynthConfig(**shape.synth, seed=seed)
    if shape.leaves_per_doc == 1:
        corpus.generate_synthetic(cfg, out_dir)
        return out_dir
    corpus.generate_synthetic(cfg, out_dir / "single")
    h, single = corpus.load_splits(out_dir / "single")
    rng = np.random.default_rng(seed)
    joined = out_dir / "joined"
    joined.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(out_dir / "single" / "taxonomy.tsv", joined / "taxonomy.tsv")
    for split, n_docs in shape.joined_docs.items():
        by_leaf: dict[str, list] = {}
        for s in single[split]:
            leaf = max(s.labels, key=lambda lb: h.level[lb])
            by_leaf.setdefault(leaf, []).append(s)
        leaves = sorted(by_leaf)
        docs = []
        for i in range(n_docs):
            words, labels = [], set()
            for k in rng.choice(len(leaves), size=shape.leaves_per_doc, replace=False):
                pool = by_leaf[leaves[k]]
                part = pool[rng.integers(len(pool))]
                words.extend(part.text.split())
                labels |= part.labels
            order = rng.permutation(len(words))
            docs.append(corpus.Sample(f"{split}{i}", " ".join(words[j] for j in order),
                                      labels))
        corpus.write_jsonl(joined / f"{split}.jsonl", docs)
    return joined


def build_model(kind: str, preset_name: str, out_dir: Path) -> None:
    """Train the cached model for ``kind`` on the fixed seed's corpus."""
    from taxseq import codec, corpus, trainer
    from taxseq.encoder import TextVocab
    from taxseq.metrics import micro_macro_f1
    from taxseq.model import ModelBundle
    from taxseq.inference import predict_prepared

    shape = PRESETS[preset_name].shape(kind)
    start = time.perf_counter()
    h, splits = corpus.load_splits(make_corpus(shape, FIXTURE_SEED, out_dir / "corpus"))
    cap = capacity(shape)
    enc_cfg, dec_cfg = model_configs(shape, cap)
    bundle = ModelBundle.build(h, codec.Ordering.CHILD_TO_PARENT, cap, enc_cfg, dec_cfg,
                               seed=FIXTURE_SEED,
                               text_vocab=TextVocab.build(s.text for s in splits["train"]))
    prep_train = trainer.prepare_data(bundle, splits["train"], seed=FIXTURE_SEED)
    prep_dev = trainer.prepare_data(bundle, splits["dev"][:shape.dev_docs],
                                    seed=FIXTURE_SEED + 1)
    result = trainer.train(bundle, prep_train, prep_dev, train_config(shape, FIXTURE_SEED))
    trainer.save_checkpoint(out_dir / "model", bundle)
    prep_test = trainer.prepare_data(bundle, splits["test"], seed=FIXTURE_SEED + 2)
    preds = predict_prepared(bundle, prep_test, batch_size=128)
    micro, macro = micro_macro_f1([p.labels for p in preds], prep_test.gold)
    info = {"kind": kind, "preset": preset_name, "seed": FIXTURE_SEED,
            "epochs": result.epochs_run, "history": result.history,
            "test_micro_f1": micro, "test_macro_f1": macro,
            "build_s": time.perf_counter() - start}
    (out_dir / "fixture.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    shutil.rmtree(out_dir / "corpus")


def model_configs(shape: Shape, cap: int):
    from taxseq.decoder import DecoderConfig
    from taxseq.encoder import EncoderConfig
    enc = EncoderConfig(d_model=64, layers=2, heads=4, max_len=shape.max_len, dropout=0.0)
    dec = DecoderConfig(d_model=64, layers=2, heads=8, dropout=0.0, max_positions=cap)
    return enc, dec


def train_config(shape: Shape, seed: int):
    from taxseq.trainer import TrainConfig
    return TrainConfig(lr_encoder=shape.lr[0], lr_decoder=shape.lr[1], micro_batch=32,
                       accumulation_steps=2, max_epochs=shape.epochs,
                       early_stop_patience=1000, seed=seed)


def fixture_dir(kind: str, preset_name: str) -> Path:
    """Cache directory of one model, keyed by everything that shapes it: the
    package sources, the shape and the code here that builds the model."""
    digest = hashlib.sha256(repr(PRESETS[preset_name].shape(kind)).encode())
    for path in sorted((env.SRC / "taxseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    for fn in (make_corpus, build_model, model_configs, train_config, capacity):
        digest.update(inspect.getsource(fn).encode())
    return env.BUILD / "fixtures" / f"{kind}-{preset_name}-{digest.hexdigest()[:12]}"


def ensure_models(preset_name: str) -> dict[str, Path]:
    """Build every missing cached model, each in its own process, so that
    training does not count toward the benchmark process's peak memory.
    The (at most two) builds run at once, one BLAS thread each."""
    dirs = {kind: fixture_dir(kind, preset_name) for kind in KINDS}
    builds = {}  # kind -> (process, temporary directory)
    try:
        for kind, final in dirs.items():
            if not (final / "fixture.json").is_file():
                tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
                shutil.rmtree(tmp, ignore_errors=True)
                builds[kind] = (subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), kind, str(tmp),
                     "--preset", preset_name], stdout=subprocess.DEVNULL), tmp)
        for kind, (proc, tmp) in builds.items():
            if proc.wait() != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            shutil.rmtree(dirs[kind], ignore_errors=True)
            os.replace(tmp, dirs[kind])
    finally:
        for proc, tmp in builds.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            shutil.rmtree(tmp, ignore_errors=True)
    return dirs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=KINDS)
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--preset", choices=sorted(PRESETS), default="full")
    args = ap.parse_args(argv)
    env.use_checkout_sources()
    build_model(args.kind, args.preset, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
