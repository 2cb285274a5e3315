"""Greedy autoregressive generation of label sequences.

Decoding is cache-free: each step reruns the decoder over the whole
prefix, so the logits used at step t always match a full forward pass
truncated to t. Batched decoding stops per sample: finished rows emit PAD
and take no further part in argmax selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import BOS_ID, EOS_ID, PAD_ID, decode
from .encoder import tokenize_text
from .errors import ConfigError
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


def _enc_tensor(enc_hidden) -> ad.Tensor:
    if isinstance(enc_hidden, ad.Tensor):
        return enc_hidden
    return ad.Tensor(np.asarray(enc_hidden, dtype=np.float32))


def greedy_decode_ids(bundle: ModelBundle, enc_hidden, enc_mask) -> tuple[list[list[int]], list[bool]]:
    """Batched greedy decode -> (per-sample token ids BOS..EOS, hit-cap flags).

    Ties in the argmax resolve to the lowest token id. A sample is finished
    once it emits EOS; finished samples keep emitting PAD internally, which
    is stripped from the returned ids.
    """
    h = _enc_tensor(enc_hidden)
    if h.data.ndim == 2:
        h = ad.reshape(h, (1,) + h.data.shape)
    enc_mask = np.atleast_2d(np.asarray(enc_mask))
    b = h.data.shape[0]
    cap = bundle.capacity

    seq = np.full((b, 1), BOS_ID, dtype=np.int32)
    finished = np.zeros(b, dtype=bool)
    with ad.no_grad():
        while seq.shape[1] < cap and not finished.all():
            mask = (seq != PAD_ID).astype(np.int8)
            logits = bundle.decoder_logits(seq, mask, h, enc_mask,
                                           train_mode=False)
            nxt = np.argmax(logits.data[:, -1, :], axis=-1).astype(np.int32)
            nxt[finished] = PAD_ID
            seq = np.concatenate([seq, nxt[:, None]], axis=1)
            finished |= nxt == EOS_ID

    out_ids, hit = [], []
    for i in range(b):
        row = [int(t) for t in seq[i] if t != PAD_ID]
        out_ids.append(row)
        hit.append(not finished[i])
    return out_ids, hit


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

    Emitted PAD tokens are masked out of later steps and stripped from the
    returned ids, matching the greedy contract.
    """
    if beam_width < 1:
        raise ConfigError("beam_width must be >= 1")
    h = _enc_tensor(enc_hidden)
    if h.data.ndim == 2:
        h = ad.reshape(h, (1,) + h.data.shape)
    enc_mask = np.atleast_2d(np.asarray(enc_mask))
    cap = bundle.capacity

    beams: list[tuple[list[int], float]] = [([BOS_ID], 0.0)]
    done: list[tuple[list[int], float]] = []
    with ad.no_grad():
        while beams and len(beams[0][0]) < cap:
            candidates: list[tuple[list[int], float]] = []
            for ids, score in beams:
                seq = np.asarray([ids], dtype=np.int32)
                logits = bundle.decoder_logits(
                    seq, (seq != PAD_ID).astype(np.int8), h, enc_mask,
                    train_mode=False)
                row = logits.data[0, -1, :].astype(np.float64)
                logp = row - (np.log(np.sum(np.exp(row - row.max()))) + row.max())
                order = np.argsort(-logp, kind="stable")[:beam_width]
                for tok in order:
                    candidates.append((ids + [int(tok)], score + float(logp[tok])))
            candidates.sort(key=lambda c: (-c[1] / (len(c[0]) - 1), c[0]))
            beams = []
            for ids, score in candidates[:beam_width]:
                if ids[-1] == EOS_ID:
                    done.append((ids, score))
                else:
                    beams.append((ids, score))
        for ids, score in beams:
            done.append((ids, score))
    done.sort(key=lambda c: (-c[1] / max(len(c[0]) - 1, 1), c[0]))
    return [t for t in done[0][0] if t != PAD_ID]


def predict_prepared(bundle: ModelBundle, data: PreparedData,
                     batch_size: int = 32) -> list[Prediction]:
    """Decode every sample of a prepared split in fixed order."""
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
    """End-to-end prediction for raw texts (trainable encoder mode)."""
    if bundle.text_vocab is None:
        raise ConfigError("text prediction needs the trainable encoder's vocabulary")
    t = bundle.enc_cfg.max_len
    ids = np.zeros((len(texts), t), dtype=np.int32)
    mask = np.zeros((len(texts), t), dtype=np.int8)
    for i, text in enumerate(texts):
        ids[i], mask[i] = tokenize_text(text, bundle.text_vocab, t)
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(texts))]
    preds: list[Prediction] = []
    for lo in range(0, len(texts), batch_size):
        hi = min(lo + batch_size, len(texts))
        with ad.no_grad():
            hidden = bundle.encode_batch(ids[lo:hi], mask[lo:hi])
        preds.extend(greedy_decode(bundle, hidden, mask[lo:hi],
                                   sample_ids=sample_ids[lo:hi]))
    return preds
