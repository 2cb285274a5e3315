"""The three workloads: what each sets up, measures and checks.

* train-desk: the public ``train()`` on the criterion-6 shapes for a fixed
  epoch budget, checkpoints written as the CLI writes them, then
  ``predict_texts`` over the test split. The only workload that runs
  backward, the loss and AdamW; its decoder runs teacher-forced only.
* predict-desk: repeated ``predict_texts(..., batch_size=128)`` passes
  over the desk test split with a trained capacity-8 model loaded from a
  checkpoint. Batch-throughput inference on short label sequences.
* serve-deep: one client in a closed loop sending one raw text at a time,
  alternating greedy and beam-4 requests, on capacity-21 multi-leaf
  documents. Batch-1 latency where the decode loop dominates.

Every workload reports the same end-to-end metrics. Their timings are
scaled to the nominal host speed with ``hostspeed``; the raw ones are
reported under ``raw.``. The desk workloads
also send untraced batch-1 greedy and beam-4 requests to their model,
spread over the measured phase, so greedy and beam-4 latency exist at
capacity 8 as well as at capacity 21. Spreading matters: on a shared
machine the speed drifts over seconds, and a burst of requests would
sample one moment of it.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from taxseq import autodiff, codec, corpus, encoder, inference, trainer
from taxseq.corpus import Sample
from taxseq.encoder import TextVocab
from taxseq.errors import NonFiniteLoss, TaxseqError
from taxseq.loss import LossConfig
from taxseq.metrics import micro_macro_f1
from taxseq.model import ModelBundle
from taxseq.trainer import AdamW

import data
import hostspeed

PREDICT_BATCH = 128
BEAM_WIDTH = 4


def p50_p90_ms(values_s) -> tuple[float, float]:
    ms = np.asarray(values_s, dtype=np.float64) * 1000.0
    return float(np.median(ms)), float(np.percentile(ms, 90))


@dataclass
class Ops:
    """Attempted and failed operations; a failure is a TaxseqError."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, e: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{type(e).__name__}: {e}")

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except TaxseqError as e:
            self.fail(e)
            return None


class Workload:
    """Set-up, a measured phase and a check, over one seed's inputs."""

    name = ""

    def __init__(self, preset: data.Preset, seed: int, models: dict[str, Path],
                 workdir: Path, tracer=None):
        self.preset = preset
        self.tracer = tracer
        self.seed = seed
        self.models = models
        self.workdir = workdir
        self.ops = Ops()
        self.checks: dict[str, bool] = {}
        self.report: dict[str, tuple[float, str]] = {}  # name -> (value, unit)
        self.greedy_s: list[float] = []  # scaled to the nominal host speed
        self.beam_s: list[float] = []
        self.greedy_raw_s: list[float] = []
        self.beam_raw_s: list[float] = []
        self.ref_s: list[float] = []  # every host speed reference timed
        self.gen_ids: list[list[int]] = []  # every greedy sequence generated
        self.gen_hit: list[bool] = []
        self.beam_ids: list[list[int]] = []
        self.answered: list[tuple[Sample, object]] = []  # greedy requests

    def note(self, name: str, value: float, unit: str) -> None:
        self.report[name] = (value, unit)

    # -- the phases each workload fills in -------------------------------------

    def setup(self, rep_dir: Path) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """The phase that defines the workload; a traced run traces it."""
        raise NotImplementedError

    def epilogue(self) -> None:
        """Untraced: top up the batch-1 requests to the sample size."""
        while self.requests_short():
            self.request()

    def finish(self) -> dict[str, float]:
        """Output checks and the end-to-end metrics, after measurement."""
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------------

    def load_requests(self, shape: data.Shape, rep_dir: Path):
        h, splits = corpus.load_splits(data.make_corpus(shape, self.seed, rep_dir))
        order = np.random.default_rng(self.seed).permutation(len(splits["test"]))
        self.requests = [splits["test"][i] for i in order]
        self.dev = splits["dev"][:shape.dev_docs]
        return h, splits

    def greedy_request(self, text: str):
        return inference.predict_texts(self.bundle, [text])[0]

    def beam_request(self, text: str, width: int = BEAM_WIDTH) -> list[int]:
        b = self.bundle
        ids, mask = encoder.tokenize_text(text, b.text_vocab, b.enc_cfg.max_len)
        with autodiff.no_grad():
            hidden = b.encode_batch(ids[None], mask[None])
        out = inference.beam_decode_ids(b, hidden, mask[None], width)
        codec.decode(np.asarray(out, dtype=np.int32), b.vocab, b.hierarchy, b.ordering)
        return out

    def scaled(self, raw_s: float) -> float:
        """Time the host speed reference now and scale ``raw_s`` by it."""
        self.ref_s.append(hostspeed.reference())
        return hostspeed.scaled(raw_s, self.ref_s[-1])

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def request(self) -> None:
        """Send the next batch-1 request of the closed loop: greedy and
        beam-4 alternate, over the test documents in seeded order."""
        i = len(self.greedy_s) + len(self.beam_s)
        req = self.requests[i % len(self.requests)]
        t0 = time.perf_counter()
        if i % 2 == 0:
            pred = self.ops.run(self.greedy_request, req.text)
            self.greedy_raw_s.append(time.perf_counter() - t0)
            self.greedy_s.append(self.scaled(self.greedy_raw_s[-1]))
            if pred is not None:
                self.answered.append((req, pred))
                self.record_predictions([pred])
        else:
            out = self.ops.run(self.beam_request, req.text)
            self.beam_raw_s.append(time.perf_counter() - t0)
            self.beam_s.append(self.scaled(self.beam_raw_s[-1]))
            if out is not None:
                self.beam_ids.append(out)

    def requests_short(self) -> bool:
        return min(len(self.greedy_s), len(self.beam_s)) < self.preset.probes

    def record_predictions(self, preds) -> None:
        for p in preds:
            self.gen_ids.append(p.token_ids)
            self.gen_hit.append(p.hit_max_len)

    def dev_loss(self) -> float:
        prep = trainer.prepare_data(self.bundle, self.dev, seed=self.seed + 1)
        return trainer.evaluate_epoch(self.bundle, prep, LossConfig())

    def common_finish(self, dev_loss: float, pred_sets, gold_sets) -> dict[str, float]:
        b = self.bundle
        micro, macro = micro_macro_f1(pred_sets, gold_sets)
        self.checks["ids_in_vocab"] = all(0 <= t < b.vocab.size
                                          for row in self.gen_ids + self.beam_ids
                                          for t in row)
        self.checks["ops_succeeded"] = self.ops.failed == 0
        tokens = [encoder.tokenize_text(r.text, b.text_vocab, b.enc_cfg.max_len)[1].sum()
                  for r in self.requests]
        gold_len = [codec.encode(r.labels, b.hierarchy, b.vocab, b.ordering,
                                 b.capacity).mask.sum() for r in self.requests]
        self.note("input.capacity", b.capacity, "tokens")
        self.note("input.text_tokens_mean", float(np.mean(tokens)), "tokens")
        self.note("input.gold_len_mean", float(np.mean(gold_len)), "tokens")
        self.note("output.gen_len_mean", float(np.mean([len(r) for r in self.gen_ids])),
                  "tokens")
        self.note("output.hit_cap_share", float(np.mean(self.gen_hit)), "share")
        self.note("output.not_closed_share", float(np.mean(
            [b.hierarchy.closure(s) != set(s) for s in pred_sets])), "share")
        self.note("host.ref_ms_p50", 1000.0 * float(np.median(self.ref_s)), "ms")
        metrics = {"docs_per_s": self.docs_per_s}
        for kind, samples, raw in (("greedy", self.greedy_s, self.greedy_raw_s),
                                   ("beam4", self.beam_s, self.beam_raw_s)):
            self.note(f"{kind}_ms_n", len(samples), "count")
            metrics[f"{kind}_ms_p50"], metrics[f"{kind}_ms_p90"] = p50_p90_ms(samples)
            raw_p50, raw_p90 = p50_p90_ms(raw)
            self.note(f"raw.{kind}_ms_p50", raw_p50, "ms")
            self.note(f"raw.{kind}_ms_p90", raw_p90, "ms")
        metrics.update(dev_loss=dev_loss, micro_f1=micro, macro_f1=macro)
        return metrics


class TrainDesk(Workload):
    name = "train-desk"

    def setup(self, rep_dir: Path) -> None:
        shape = self.preset.desk
        h, splits = self.load_requests(shape, rep_dir)
        cap = data.capacity(shape)
        enc_cfg, dec_cfg = data.model_configs(shape, cap)
        self.bundle = ModelBundle.build(
            h, codec.Ordering.CHILD_TO_PARENT, cap, enc_cfg, dec_cfg, seed=self.seed,
            text_vocab=TextVocab.build(s.text for s in splits["train"]))
        self.prep_train = trainer.prepare_data(self.bundle, splits["train"], seed=self.seed)
        self.prep_dev = trainer.prepare_data(self.bundle, self.dev, seed=self.seed + 1)
        self.test = splits["test"]
        self.cfg = data.train_config(shape, self.seed)

    def measure(self, seconds: float) -> None:
        # A window runs from the end of one optimizer step, or the start of
        # an epoch, to the end of the next step. Each window is one op; a
        # non-finite window loss stops train() and is one failed op. One
        # untraced batch-1 request follows each window, so that latency is
        # sampled across the whole run; its time is excluded from training.
        # The host speed reference timed after that request scales the
        # window; the training time is scaled by the windows' mean factor.
        windows: list[float] = []
        scaled_windows: list[float] = []
        mark = [0.0]
        epochs = [0]
        request_s = [0.0]
        inner_step = AdamW.step

        def timed_step(opt):
            inner_step(opt)
            now = time.perf_counter()
            windows.append(now - mark[0])
            with self.untraced():
                self.request()
            scaled_windows.append(hostspeed.scaled(windows[-1], self.ref_s[-1]))
            mark[0] = time.perf_counter()
            request_s[0] += mark[0] - now

        def epoch_end(epoch, row, bundle):
            epochs[0] += 1
            mark[0] = time.perf_counter()
            return False

        self.history: list[dict] = []
        self.non_finite = False
        AdamW.step = timed_step
        start = mark[0] = time.perf_counter()
        try:
            self.history = trainer.train(self.bundle, self.prep_train, self.prep_dev,
                                         self.cfg, self.workdir / "train",
                                         on_epoch_end=epoch_end).history
        except NonFiniteLoss as e:
            self.non_finite = True
            self.ops.attempted += 1
            self.ops.fail(e)
        finally:
            AdamW.step = inner_step
        train_s = time.perf_counter() - start - request_s[0]
        self.ops.attempted += len(windows)
        raw_docs_per_s = epochs[0] * self.prep_train.n / train_s
        self.docs_per_s = raw_docs_per_s * sum(windows) / sum(scaled_windows)
        self.note("raw.docs_per_s", raw_docs_per_s, "docs/s")
        p50, p90 = p50_p90_ms(windows)
        self.note("train.docs_per_s", self.docs_per_s, "docs/s")
        self.note("train.window_ms_p50", p50, "ms")
        self.note("train.window_ms_p90", p90, "ms")
        self.note("train.window_ms_n", len(windows), "count")
        self.note("train.epochs", epochs[0], "count")

    def epilogue(self) -> None:
        texts = [s.text for s in self.test]
        self.test_preds = self.ops.run(inference.predict_texts, self.bundle, texts,
                                       [s.id for s in self.test], PREDICT_BATCH) or []
        self.record_predictions(self.test_preds)
        super().epilogue()

    def finish(self) -> dict[str, float]:
        losses = [r[k] for r in self.history for k in ("train_loss", "val_loss")]
        self.checks["losses_finite"] = (not self.non_finite and bool(losses)
                                        and all(math.isfinite(v) for v in losses))
        dev_loss = self.history[-1]["val_loss"] if self.history else float("nan")
        pred_sets = [p.labels for p in self.test_preds]
        gold_sets = [s.labels for s in self.test][:len(pred_sets)]
        metrics = self.common_finish(dev_loss, pred_sets, gold_sets)
        if self.preset.f1_floor is not None:
            micro_floor, macro_floor = self.preset.f1_floor
            self.checks["f1_floor"] = (metrics["micro_f1"] >= micro_floor
                                       and metrics["macro_f1"] >= macro_floor)
        self.note("train.dev_loss", dev_loss, "nat")
        self.note("train.test_micro_f1", metrics["micro_f1"], "share")
        self.note("train.test_macro_f1", metrics["macro_f1"], "share")
        return metrics


class PredictDesk(Workload):
    name = "predict-desk"

    def setup(self, rep_dir: Path) -> None:
        self.load_requests(self.preset.desk, rep_dir)
        self.bundle, _ = trainer.load_checkpoint(self.models["desk"] / "model")

    def measure(self, seconds: float) -> None:
        # Batches of 128 in test-split order. After each batch, untraced
        # batch-1 requests catch up with an even spread of the request
        # sample over ``seconds``, so that both are sampled across the run.
        texts = [r.text for r in self.requests]
        starts = range(0, len(texts), PREDICT_BATCH)
        n_requests = 2 * self.preset.probes
        batch_s: list[float] = []  # scaled to the nominal host speed
        raw_batch_s: list[float] = []
        docs = 0
        first_pass: dict[int, list] = {}  # batch start -> its predictions
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or self.requests_short()
               or len(batch_s) < len(starts)):
            lo = starts[len(batch_s) % len(starts)]
            t0 = time.perf_counter()
            preds = self.ops.run(inference.predict_texts, self.bundle,
                                 texts[lo:lo + PREDICT_BATCH], None, PREDICT_BATCH)
            raw_batch_s.append(time.perf_counter() - t0)
            batch_s.append(self.scaled(raw_batch_s[-1]))
            if preds is not None:
                docs += len(preds)
                if len(batch_s) <= len(starts):
                    first_pass[lo] = preds
                    self.record_predictions(preds)
            due = n_requests * min(1.0, (time.perf_counter() - start) / seconds)
            with self.untraced():
                while len(self.greedy_s) + len(self.beam_s) < due:
                    self.request()
        self.batched = [(self.requests[lo + i], p)
                        for lo, preds in sorted(first_pass.items())
                        for i, p in enumerate(preds)]
        self.docs_per_s = docs / sum(batch_s)
        self.note("raw.docs_per_s", docs / sum(raw_batch_s), "docs/s")
        self.note("predict.docs_per_s", self.docs_per_s, "docs/s")
        self.note("predict.batches", len(batch_s), "count")

    def finish(self) -> dict[str, float]:
        # Criterion 10: batched greedy equals batch-1 greedy.
        subset = self.batched[:self.preset.check_docs]
        self.checks["batched_equals_batch1"] = bool(subset) and all(
            p.token_ids == self.greedy_request(r.text).token_ids for r, p in subset)
        pred_sets = [p.labels for _, p in self.batched]
        gold_sets = [r.labels for r, _ in self.batched]
        return self.common_finish(self.dev_loss(), pred_sets, gold_sets)


class ServeDeep(Workload):
    name = "serve-deep"

    def setup(self, rep_dir: Path) -> None:
        self.load_requests(self.preset.deep, rep_dir)
        self.bundle, _ = trainer.load_checkpoint(self.models["deep"] / "model")

    def measure(self, seconds: float) -> None:
        with self.untraced():  # warm-up, neither timed nor counted
            self.greedy_request(self.requests[0].text)
            self.beam_request(self.requests[0].text)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or self.requests_short():
            self.request()
        n = len(self.greedy_s) + len(self.beam_s)
        self.docs_per_s = n / (sum(self.greedy_s) + sum(self.beam_s))
        self.note("raw.docs_per_s", n / (time.perf_counter() - start), "docs/s")

    def finish(self) -> dict[str, float]:
        # Criterion 10: beam search of width 1 equals greedy.
        k = self.preset.check_docs
        self.checks["beam1_equals_greedy"] = all(
            self.beam_request(r.text, 1) == self.greedy_request(r.text).token_ids
            for r in self.requests[:k])
        pred_sets = [p.labels for _, p in self.answered]
        gold_sets = [r.labels for r, _ in self.answered]
        metrics = self.common_finish(self.dev_loss(), pred_sets, gold_sets)
        for kind in ("greedy", "beam4"):
            for q in ("p50", "p90"):
                self.note(f"serve.{kind}_ms_{q}", metrics[f"{kind}_ms_{q}"], "ms")
        return metrics


WORKLOADS = {w.name: w for w in (TrainDesk, PredictDesk, ServeDeep)}
