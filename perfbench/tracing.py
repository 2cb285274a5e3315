"""Span tracing around the public functions of each taxseq layer.

The tracer wraps module attributes and methods from outside the package:
nothing inside ``src/taxseq`` knows it is being measured. Each call made
while a wrapper is installed records one span (name, start, end, parent
index) in memory, and some wrappers also count work at the same boundary
(tokens encoded, decoder positions computed and used, checkpoint bytes).
Spans are written out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from taxseq import autodiff, codec, corpus, encoder, inference, trainer
from taxseq.codec import EOS_ID, PAD_ID
from taxseq.model import ModelBundle
from taxseq.trainer import AdamW

# Layer metrics reported as self time of one or more span names.
SELF_TIME = {
    "encoder.forward_s": ("encoder.forward",),
    "encoder.tokenize_s": ("encoder.tokenize",),
    "decoder.forward_s": ("decoder.forward",),
    "inference.greedy_self_s": ("inference.greedy",),
    "inference.beam_self_s": ("inference.beam",),
    "codec.decode_s": ("codec.decode",),
    "loss.forward_s": ("loss.pieces", "loss.combine", "loss.compute"),
    "autodiff.backward_s": ("autodiff.backward",),
    "trainer.adamw_s": ("trainer.adamw",),
    "trainer.checkpoint_save_s": ("trainer.checkpoint_save",),
    "trainer.checkpoint_load_s": ("trainer.checkpoint_load",),
    "trainer.prepare_s": ("trainer.prepare",),
    "corpus.generate_s": ("corpus.generate",),
    "corpus.load_s": ("corpus.load",),
    "model.build_s": ("model.build",),
}
# Evaluation is reported inclusive of the encoder, decoder and loss work it
# drives, because its whole cost is what an epoch pays for it.
INCLUSIVE_TIME = {"trainer.evaluate_s": "trainer.evaluate"}

_DECODE_LOOPS = ("inference.greedy", "inference.beam")


class Tracer:
    """Installs span wrappers, collects spans and counters, removes them."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active = True

    @contextmanager
    def paused(self):
        """Calls made inside this block pass through the wrappers unrecorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- recording -------------------------------------------------------

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, self.spans[idx][3])
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, before, after))
        else:
            replacement = self._wrap(name, original, before, after)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        p = self.patch
        p(ModelBundle, "encode_batch", "encoder.forward", before=_count_encoder)
        p(ModelBundle, "decoder_logits", "decoder.forward", before=_count_decoder)
        p(ModelBundle, "build", "model.build")
        p(autodiff, "backward", "autodiff.backward", before=_count_backward)
        p(trainer, "loss_pieces", "loss.pieces")
        p(trainer, "combine_pieces", "loss.combine")
        p(trainer, "compute_loss", "loss.compute")
        p(trainer, "evaluate_epoch", "trainer.evaluate")
        p(trainer, "save_checkpoint", "trainer.checkpoint_save", after=_count_ckpt_bytes)
        p(trainer, "load_checkpoint", "trainer.checkpoint_load")
        p(trainer, "prepare_data", "trainer.prepare")
        p(AdamW, "step", "trainer.adamw")
        p(inference, "greedy_decode_ids", "inference.greedy", after=_count_greedy)
        p(inference, "beam_decode_ids", "inference.beam", after=_count_beam)
        for module in (inference, codec):
            p(module, "decode", "codec.decode", after=_count_decode)
        for module in (inference, encoder):
            p(module, "tokenize_text", "encoder.tokenize")
        p(corpus, "generate_synthetic", "corpus.generate")
        p(corpus, "load_splits", "corpus.load")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -------------------------------------------------------

    def inclusive_times(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            total[name] += end - start
        return total

    def self_times(self) -> dict[str, float]:
        total = self.inclusive_times()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        incl = self.inclusive_times()
        c = self.counts
        out = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
        out.update({m: incl.get(n, 0.0) for m, n in INCLUSIVE_TIME.items()})
        out.update({
            "encoder.calls": c["encoder.calls"],
            "encoder.tokens": c["encoder.tokens"],
            "decoder.calls": c["decoder.calls"],
            "decoder.positions_computed": c["decoder.positions_computed"],
            "decoder.positions_used": c["decoder.positions_used"],
            "decoder.useful_ratio": _ratio(c["decoder.positions_used"],
                                           c["decoder.positions_computed"]),
            "inference.steps": c["inference.steps"],
            "inference.gen_len_mean": _ratio(c["inference.gen_len_sum"],
                                             c["inference.sequences"]),
            "inference.hit_cap_share": _ratio(c["inference.hit_cap"],
                                              c["inference.sequences"]),
            "codec.closure_violations": c["codec.closure_violations"],
            "codec.repeats_dropped": c["codec.repeats_dropped"],
            "codec.malformed": c["codec.malformed"],
            "autodiff.backward_calls": c["autodiff.backward_calls"],
            "trainer.checkpoint_bytes": c["trainer.checkpoint_bytes"],
        })
        return out

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}),
                        encoding="utf-8")


def span_cost_s(repeats: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured here."""
    def noop():
        return None
    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max((time.perf_counter() - start - direct) / repeats, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_backward(tracer, args, kwargs):
    tracer.counts["autodiff.backward_calls"] += 1


def _count_encoder(tracer, args, kwargs):
    # encode_batch(self, text_ids, text_mask, ...)
    tracer.counts["encoder.calls"] += 1
    tracer.counts["encoder.tokens"] += int(np.count_nonzero(args[2]))


def _count_decoder(tracer, args, kwargs):
    # decoder_logits(self, label_ids, label_mask, ...)
    label_ids, label_mask = np.asarray(args[1]), np.asarray(args[2])
    tracer.counts["decoder.calls"] += 1
    tracer.counts["decoder.positions_computed"] += label_ids.size
    if tracer._parent_name() in _DECODE_LOOPS:
        # The loop reads the last position of each row still generating.
        last = label_ids[:, -1]
        used = int(np.count_nonzero((last != EOS_ID) & (last != PAD_ID)))
        tracer.counts["inference.steps"] += 1
    else:
        # Teacher forcing reads every non-pad position.
        used = int(np.count_nonzero(label_mask))
    tracer.counts["decoder.positions_used"] += used


def _count_sequences(tracer, ids_list, hit_flags):
    tracer.counts["inference.sequences"] += len(ids_list)
    tracer.counts["inference.gen_len_sum"] += sum(len(ids) for ids in ids_list)
    tracer.counts["inference.hit_cap"] += sum(bool(h) for h in hit_flags)


def _count_greedy(tracer, args, kwargs, result):
    ids, hit = result
    _count_sequences(tracer, ids, hit)


def _count_beam(tracer, args, kwargs, result):
    _count_sequences(tracer, [result], [not result or result[-1] != EOS_ID])


def _count_decode(tracer, args, kwargs, result):
    # decode(ids, vocab, h, strategy)
    hierarchy = args[2]
    diag = result.diagnostics
    tracer.counts["codec.repeats_dropped"] += diag.repeated_labels_dropped
    tracer.counts["codec.malformed"] += (diag.unknown_ids + diag.pad_inside
                                         + int(diag.missing_bos))
    if result.labels and hierarchy.closure(result.labels) != result.labels:
        tracer.counts["codec.closure_violations"] += 1


def _count_ckpt_bytes(tracer, args, kwargs, result):
    tracer.counts["trainer.checkpoint_bytes"] += sum(
        f.stat().st_size for f in Path(result).rglob("*") if f.is_file())
