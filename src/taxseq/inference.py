"""Greedy and beam generation of label sequences.

Decoding is incremental. Both searches advance through one step function,
which feeds each row's newest token to ``ModelBundle.decoder_logits`` with
a ``DecodeCache``: the cache holds the self-attention keys and values of
every position consumed so far, plus cross-attention keys and values
projected from the encoder states once, so a step computes one position
per row and its logits match a teacher-forced pass truncated to that
position, to float32 rounding. Batched greedy decoding stops per sample:
a row that emits EOS leaves the batch, its cache rows with it. Beam search
stacks its live beams into one batch and moves the cache rows to follow
their parents after each selection; its one-row encoder side is not
copied per beam, as attention broadcasts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import BOS_ID, EOS_ID, PAD_ID, decode
from .decoder import DecodeCache
# perfbench/tracing.py wraps ``inference.tokenize_text`` by name
from .encoder import tokenize_text, tokenize_texts  # noqa: F401
from .errors import ConfigError, ShapeMismatch
from .model import ModelBundle
from .trainer import PreparedData

__all__ = ["Prediction", "greedy_decode_ids", "greedy_decode", "beam_decode_ids",
           "predict_texts", "predict_prepared"]


@dataclass
class Prediction:
    """One decoded sample: raw token ids plus the decoded label view."""

    sample_id: str
    token_ids: list[int]
    labels: set[str]
    groups: list[list[str]]
    hit_max_len: bool
    diagnostics: dict = field(default_factory=dict)


def _step(bundle: ModelBundle, tokens: np.ndarray, enc_hidden, enc_mask,
          cache: DecodeCache) -> np.ndarray:
    """Feed one token per cached row -> (rows, V) next-token logits."""
    ids = tokens[:, None]
    logits = bundle.decoder_logits(ids, (ids != PAD_ID).astype(np.int8), enc_hidden,
                                   enc_mask, cache=cache)
    return logits.data[:, -1, :]


def greedy_decode_ids(bundle: ModelBundle, enc_hidden, enc_mask) -> tuple[list[list[int]], list[bool]]:
    """Batched greedy decode -> (per-sample token ids BOS..EOS, hit-cap flags).

    Ties in the argmax resolve to the lowest token id. A sample is finished
    once it emits EOS and then leaves the batch. PAD tokens the model
    emits stay in its prefix, masked as keys, and are stripped from the
    returned ids.
    """
    b = np.atleast_2d(enc_mask).shape[0]
    cap = bundle.capacity

    seq = np.full((b, cap), PAD_ID, dtype=np.int32)
    seq[:, 0] = BOS_ID
    live = np.arange(b)  # rows still generating; the cache holds these, in order
    cache = DecodeCache()
    with ad.no_grad():
        for t in range(1, cap):
            if live.size == 0:
                break
            nxt = _step(bundle, seq[live, t - 1], enc_hidden, enc_mask, cache).argmax(axis=-1)
            seq[live, t] = nxt
            going = nxt != EOS_ID
            if not going.all():
                live = live[going]
                cache.select(np.flatnonzero(going))

    hit = np.zeros(b, dtype=bool)
    hit[live] = True
    out_ids = [[int(t) for t in row if t != PAD_ID] for row in seq]
    return out_ids, hit.tolist()


def _to_prediction(bundle: ModelBundle, sample_id: str, ids: list[int],
                   hit_max_len: bool) -> Prediction:
    result = decode(np.asarray(ids, dtype=np.int32), bundle.vocab,
                    bundle.hierarchy, bundle.ordering)
    diag = {
        "hit_max_len": hit_max_len,
        "repeated_labels_dropped": result.diagnostics.repeated_labels_dropped,
        "unknown_structure": result.diagnostics.unknown_ids
        + result.diagnostics.pad_inside
        + int(result.diagnostics.missing_bos)
        + (0 if hit_max_len else int(result.diagnostics.missing_eos)),
    }
    return Prediction(sample_id=sample_id, token_ids=ids, labels=result.labels,
                      groups=result.groups, hit_max_len=hit_max_len,
                      diagnostics=diag)


def greedy_decode(bundle: ModelBundle, enc_hidden, enc_mask,
                  sample_ids=None) -> list[Prediction]:
    ids, hit = greedy_decode_ids(bundle, enc_hidden, enc_mask)
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(ids))]
    return [_to_prediction(bundle, sid, row, flag)
            for sid, row, flag in zip(sample_ids, ids, hit)]


def beam_decode_ids(bundle: ModelBundle, enc_hidden, enc_mask,
                    beam_width: int = 1) -> list[int]:
    """Length-normalized beam search over one sample; width 1 equals greedy.

    The encoder side must have one row (a (T, d) or (1, T, d) state and its
    mask), else ``ShapeMismatch``. The live beams run as one stacked batch
    through the same cached step as greedy decoding, and after each
    selection the cache rows follow the parents of the surviving beams;
    the encoder side stays one row that every beam reads. All beams are
    scored at once: each proposes its ``beam_width`` best tokens (one
    float64 log-softmax and one stable argsort over the stacked logits);
    candidates rank by log-probability over generated length, ties broken
    by their ids.
    Emitted PAD tokens are masked out of later steps and stripped from the
    returned ids, matching the greedy contract.
    """
    if beam_width < 1:
        raise ConfigError("beam_width must be >= 1")
    rows = np.atleast_2d(np.asarray(enc_mask)).shape[0]
    if rows != 1:
        raise ShapeMismatch(f"beam search decodes one sample; the encoder mask has {rows} rows")
    cap = bundle.capacity

    beams: list[tuple[list[int], float]] = [([BOS_ID], 0.0)]
    done: list[tuple[list[int], float]] = []
    cache = DecodeCache()
    with ad.no_grad():
        while beams and len(beams[0][0]) < cap:
            tokens = np.asarray([ids[-1] for ids, _ in beams], dtype=np.int32)
            logp = ad.log_softmax(
                _step(bundle, tokens, enc_hidden, enc_mask, cache).astype(np.float64))
            best = np.argsort(-logp, axis=1, kind="stable")[:, :beam_width]
            best_logp = np.take_along_axis(logp, best, axis=1).tolist()
            candidates = [(ids + [tok], score + lp, parent)
                          for parent, (ids, score) in enumerate(beams)
                          for tok, lp in zip(best[parent].tolist(), best_logp[parent])]
            candidates.sort(key=lambda c: (-c[1] / (len(c[0]) - 1), c[0]))
            beams, parents = [], []
            for ids, score, parent in candidates[:beam_width]:
                if ids[-1] == EOS_ID:
                    done.append((ids, score))
                else:
                    beams.append((ids, score))
                    parents.append(parent)
            cache.select(parents)
        done.extend(beams)
    done.sort(key=lambda c: (-c[1] / max(len(c[0]) - 1, 1), c[0]))
    return [t for t in done[0][0] if t != PAD_ID]


def predict_prepared(bundle: ModelBundle, data: PreparedData,
                     batch_size: int = 32) -> list[Prediction]:
    """Decode every sample of a prepared split in fixed order."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    preds: list[Prediction] = []
    for lo in range(0, data.n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, data.n))
        with ad.no_grad():
            hidden, enc_mask = bundle.encoder_states(data, idx)
        preds.extend(greedy_decode(bundle, hidden, enc_mask,
                                   sample_ids=[data.ids[i] for i in idx]))
    return preds


def predict_texts(bundle: ModelBundle, texts, sample_ids=None,
                  batch_size: int = 32) -> list[Prediction]:
    """End-to-end prediction for raw texts (a model with a text vocabulary).

    The texts are tokenized as ``prepare_data`` tokenizes a split and
    decoded by ``predict_prepared``; no texts give no predictions.
    """
    if bundle.text_vocab is None:
        raise ConfigError("text prediction needs the trainable encoder's vocabulary")
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(texts))]
    if len(sample_ids) != len(texts):
        raise ShapeMismatch(f"{len(sample_ids)} sample ids for {len(texts)} texts")
    text_ids, text_mask = tokenize_texts(texts, bundle.text_vocab, bundle.enc_cfg.max_len)
    data = PreparedData(list(sample_ids), text_ids=text_ids, text_mask=text_mask)
    return predict_prepared(bundle, data, batch_size)
