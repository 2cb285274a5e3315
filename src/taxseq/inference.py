"""Greedy and beam generation of label sequences.

Decoding is incremental. Both searches advance through one step function,
which feeds each row's newest tokens to ``ModelBundle.decoder_logits`` with
a ``DecodeCache``: the decoder's cached step, on plain arrays and off the
tape. The first call (the BOS tokens) projects the encoder side once, and
every call computes only the new positions, whose logits match a
teacher-forced pass truncated there, to float32 rounding. A call's
self-attention reads the cache's whole key buffer under one mask, so a
call of n positions costs one attention call a layer, not n.
Batched greedy decoding stops per sample: a row that emits EOS leaves the
batch, its cache rows with it. When one row is left and it has just
emitted SEP, the hierarchy drafts the rest of its sequence and one call
checks the whole draft, with the ids of one step per token. Beam search
stacks its live beams into one batch and moves the cache rows to follow
their parents after each selection; every beam reads the one-row encoder
side. It ranks candidates without building their id lists and stops as
soon as no live beam can reach the best finished hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import BOS_ID, EOS_ID, PAD_ID, SEP_ID, continuation, decode
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


def _step(bundle: ModelBundle, ids: np.ndarray, enc_hidden, enc_mask,
          cache: DecodeCache) -> np.ndarray:
    """Feed (rows, n) new tokens per cached row -> (rows, n, V) next-token logits."""
    return bundle.decoder_logits(ids, (ids != PAD_ID).astype(np.int8), enc_hidden,
                                 enc_mask, cache=cache).data


def greedy_decode_ids(bundle: ModelBundle, enc_hidden, enc_mask) -> tuple[list[list[int]], list[bool]]:
    """Batched greedy decode -> (per-sample token ids BOS..EOS, hit-cap flags).

    Ties in the argmax resolve to the lowest token id. A sample is finished
    once it emits EOS and then leaves the batch. PAD tokens the model
    emits stay in its prefix, masked as keys, and are stripped from the
    returned ids.

    When one row is live and has just emitted SEP, the hierarchy drafts
    the rest of its sequence (``codec.continuation``), clipped to capacity,
    and one decoder call checks the draft: the row keeps the longest part
    of it that the argmax agrees with, plus the model's own token where it
    first disagrees, and the cache drops the positions after that. The
    call's logits are those of one-position steps to the bit, so the ids
    are those of plain greedy decoding.
    """
    b = np.atleast_2d(enc_mask).shape[0]
    cap = bundle.capacity

    seq = np.full((b, cap), PAD_ID, dtype=np.int32)
    seq[:, 0] = BOS_ID
    live = np.arange(b)  # rows still generating; the cache holds these, in order
    cache = DecodeCache()
    t = 1  # the next position to fill
    with ad.no_grad():
        while live.size and t < cap:
            ids = seq[live, t - 1:t]
            draft = (continuation(seq[live[0], :t], bundle.hierarchy, bundle.vocab,
                                  bundle.ordering)[:cap - t]
                     if live.size == 1 and ids[0, 0] == SEP_ID else [])
            if draft:
                ids = np.asarray([[ids[0, 0], *draft[:-1]]], dtype=np.int32)
            picks = _step(bundle, ids, enc_hidden, enc_mask, cache).argmax(axis=-1)
            n = 1
            if draft:
                agree = picks[0] == draft
                n = len(draft) if agree.all() else int(agree.argmin()) + 1
                cache.truncate(t - 1 + n)
            seq[live, t:t + n] = picks[:, :n]
            t += n
            going = picks[:, n - 1] != EOS_ID
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
    by their ids. The live beams are kept in the order of their id lists,
    so a candidate's ids compare as its parent's index and then its token,
    and only the surviving candidates' id lists are built.

    The search stops early once a hypothesis has finished and every live
    beam's score over ``capacity - 1`` is below the best finished
    normalized score: log-probabilities are at most 0, so no descendant
    can reach it, and the ids are those of the full search.
    Emitted PAD tokens are masked out of later steps and stripped from the
    returned ids, matching the greedy contract.
    """
    if beam_width < 1:
        raise ConfigError("beam_width must be >= 1")
    rows = np.atleast_2d(np.asarray(enc_mask)).shape[0]
    if rows != 1:
        raise ShapeMismatch(f"beam search decodes one sample; the encoder mask has {rows} rows")
    cap = bundle.capacity

    beams = [[BOS_ID]]  # live id lists, in their own order, which the cache rows follow
    scores = [0.0]  # their summed log-probabilities
    done: list[tuple[list[int], float]] = []
    best_done = -math.inf  # the best finished normalized score
    cache = DecodeCache()
    with ad.no_grad():
        for length in range(1, cap):  # ids per live beam
            tokens = np.asarray([ids[-1:] for ids in beams])
            logp = ad.log_softmax(
                _step(bundle, tokens, enc_hidden, enc_mask, cache)[:, 0].astype(np.float64))
            best = np.argsort(-logp, axis=1, kind="stable")[:, :beam_width]
            best_logp = logp[np.arange(len(best))[:, None], best].tolist()
            # a candidate's ids order as its parent's index, then its token
            candidates = sorted((-(score + lp) / length, parent, tok, score + lp)
                                for parent, (score, toks, lps)
                                in enumerate(zip(scores, best.tolist(), best_logp))
                                for tok, lp in zip(toks, lps))
            live = []
            for _, parent, tok, score in candidates[:beam_width]:
                if tok == EOS_ID:
                    done.append((beams[parent] + [tok], score))
                    best_done = max(best_done, score / length)
                else:
                    live.append((parent, tok, score))
            live.sort()  # by (parent, token): the order of the new id lists
            beams = [beams[parent] + [tok] for parent, tok, _ in live]
            scores = [score for _, _, score in live]
            # stop when no live beam is left, or none can reach the best finished one
            if all(score / (cap - 1) < best_done for score in scores):
                break
            cache.select([parent for parent, _, _ in live])
        done.extend(zip(beams, scores))
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
