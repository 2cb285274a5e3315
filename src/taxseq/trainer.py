"""Training procedure: dual learning rates, decoupled weight decay,
plateau-driven decay with encoder freezing, early stopping, teacher
forcing, and gradient accumulation.

Accumulation windows are exact and hold one micro-batch's tape at a time:
each micro-batch runs its forward and a backward of its own summed loss
term, and its tape is freed before the next one records. The window
objective depends on the terms only through their sum, so one backward
through that objective, built on a leaf holding the sum, gives the factor
that scales every accumulated gradient once before the optimizer step.
Backward is linear in its seed, so a 2 x 32 window makes the update of one
64-sample batch up to float32 rounding.

Teacher forcing decodes only the label columns some target scores: a
batch's decoder input stops just before its last EOS column, whose target
(like that of every later column) is PAD. So the label capacity is a cap,
not a cost: a batch pays for its longest label sequence less one column.

Checkpoints are directories holding a JSON manifest (configs, taxonomy
edges, token-id maps, vocab hash, rng state, metric history) plus one raw
float32 little-endian blob per named parameter, and the optimizer moment
vectors so a resumed run continues bit-identically. Resume restores into
the bundle it is given, once the manifest describes that bundle's model.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .codec import Ordering, PAD_ID, SPECIAL_TOKENS, SymbolicVocab, encode
from .encoder import EncoderConfig, PrecomputedStates, TextVocab, tokenize_texts
from .decoder import DecoderConfig
from .errors import ConfigError, EmptyCorpus, NonFiniteLoss, ShapeMismatch
from .loss import LossConfig, combine_pieces, compute_loss, loss_pieces
from .model import ModelBundle, ModelLayout
from .taxonomy import LabelHierarchy

__all__ = [
    "TrainConfig", "TrainResult", "PreparedData", "AdamW",
    "prepare_data", "make_targets", "train", "evaluate_epoch",
    "save_checkpoint", "load_checkpoint", "grad_norm",
]


@dataclass
class TrainConfig:
    lr_encoder: float = 5e-5
    lr_decoder: float = 3e-4
    plateau_patience: int = 3
    plateau_factor: float = 0.1
    improve_eps: float = 1e-6
    encoder_freeze_threshold: float = 5e-7
    early_stop_patience: int = 10
    micro_batch: int = 32
    accumulation_steps: int = 2
    max_epochs: int = 100
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if min(self.lr_encoder, self.lr_decoder) <= 0:
            raise ConfigError("learning rates must be positive")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patience values must be positive")
        if self.accumulation_steps < 1:
            raise ConfigError("accumulation_steps must be >= 1")
        if self.micro_batch < 1:
            raise ConfigError("micro_batch must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 < self.plateau_factor <= 1.0:
            raise ConfigError(f"plateau_factor must be in (0, 1], got {self.plateau_factor}")
        for key in ("improve_eps", "encoder_freeze_threshold"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")


def _decays(name: str, p: Parameter) -> bool:
    """Weight decay applies to matrices only; norm gains, biases, and
    embeddings are exempt."""
    return p.data.ndim >= 2 and "embed" not in name


class _FlatGroup:
    """One group's parameters and AdamW moments in three flat buffers.

    Matrices that take weight decay come first, so decay is the leading
    slice ``[:n_decay]``. ``entries`` holds, per parameter, the
    ``Parameter``, its state key and its reshaped views of the parameter,
    moment and gradient buffers; ``p.data`` and ``state[key]["m"/"v"]`` are
    those views. ``grad`` is the one vector a step gathers gradients into.
    """

    __slots__ = ("entries", "p", "m", "v", "grad", "n_decay")

    def __init__(self, group: dict, state: dict):
        params = group["params"]
        decayed = [n for n in params if _decays(n, params[n])]
        names = decayed + [n for n in params if not _decays(n, params[n])]
        dtype = np.result_type(*{p.data.dtype for p in params.values()})
        total = sum(params[n].data.size for n in names)
        self.p, self.m, self.v, self.grad = (np.empty(total, dtype) for _ in range(4))
        self.n_decay = sum(params[n].data.size for n in decayed)
        self.entries = []
        lo = 0
        for n in names:
            p = params[n]
            key = f"{group['name']}/{n}"
            hi = lo + p.data.size
            pv, mv, vv, gv = (b[lo:hi].reshape(p.data.shape)
                              for b in (self.p, self.m, self.v, self.grad))
            pv[...] = p.data
            st = state.get(key)
            if st is None:
                mv.fill(0)
                vv.fill(0)
            else:
                mv[...] = st["m"]
                vv[...] = st["v"]
            p.data = pv
            state[key] = {"m": mv, "v": vv}
            self.entries.append((p, key, pv, mv, vv, gv))
            lo = hi

    def current(self, state: dict) -> bool:
        """Whether every parameter and moment is still its buffer view."""
        for p, key, pv, mv, vv, _ in self.entries:
            st = state.get(key)
            if p.data is not pv or st is None or st["m"] is not mv or st["v"] is not vv:
                return False
        return True


class AdamW:
    """Bias-corrected adaptive-moment optimizer with decoupled weight decay.

    Each group steps as one flat vector (see ``_FlatGroup``): its first
    step copies the parameters and moments into flat buffers and points
    every ``Parameter.data`` and ``state[key]["m"/"v"]`` at a view of them,
    as does the next step after any of those arrays is replaced (a resume's
    ``p.data = ...``, ``load_state_dict``, a dtype cast). A step gathers the
    gradients into one vector, an absent one as zeros, and updates in place
    with the elementwise operations of the per-tensor recurrence, in its
    order, so every value is the same to the bit.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, weight_decay=0.01):
        self.weight_decay = weight_decay
        self.groups: list[dict] = []
        self.state: dict[str, dict[str, np.ndarray]] = {}

    def add_group(self, name: str, params: dict[str, Parameter], lr: float) -> None:
        self.groups.append({"name": name, "params": params, "lr": lr,
                            "frozen": False, "t": 0, "flat": None})

    def group(self, name: str) -> dict:
        for g in self.groups:
            if g["name"] == name:
                return g
        raise KeyError(name)

    def step(self) -> None:
        """One update of every group that is not frozen.

        Every gradient's shape is checked before anything changes, so a
        ``ShapeMismatch`` leaves parameters, moments and step counts as
        they were.
        """
        live = [g for g in self.groups if not g["frozen"] and g["params"]]
        for g in live:
            for pname, p in g["params"].items():
                if p.grad is not None and p.grad.shape != p.data.shape:
                    raise ShapeMismatch(
                        f"{pname}: grad shape {p.grad.shape} != param {p.data.shape}")
        for g in live:
            self._step_group(g)

    def _step_group(self, g: dict) -> None:
        flat = g["flat"]
        if flat is None or not flat.current(self.state):
            flat = g["flat"] = _FlatGroup(g, self.state)
        g["t"] += 1
        t = g["t"]
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        grad, m, v, p = flat.grad, flat.m, flat.v, flat.p
        for param, _, _, _, _, gv in flat.entries:
            if param.grad is None:
                gv.fill(0)
            else:
                gv[...] = param.grad
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        s = np.multiply(grad, 1.0 - b2)
        s *= grad
        v *= b2
        v += s
        m *= b1
        grad *= 1.0 - b1
        m += grad
        # p = p - lr ((m / c1) / (sqrt(v / c2) + eps) + wd p), decay on [:n_decay]
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.EPS
        np.divide(m, c1, out=grad)
        grad /= s
        nd = flat.n_decay if self.weight_decay else 0
        if nd:
            np.multiply(p[:nd], self.weight_decay, out=s[:nd])
            grad[:nd] += s[:nd]
        grad *= g["lr"]
        p -= grad

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g["params"].values():
                p.grad = None

    def freeze_group(self, name: str) -> None:
        g = self.group(name)
        g["frozen"] = True
        for p in g["params"].values():
            p.requires_grad = False
            p.grad = None

    def load_state_dict(self, meta: dict, moments: dict) -> None:
        for saved in meta["groups"]:
            g = self.group(saved["name"])
            g["lr"] = float(saved["lr"])
            g["t"] = int(saved["t"])
            if saved["frozen"]:
                self.freeze_group(saved["name"])
        self.state = moments


def grad_norm(params: dict[str, Parameter]) -> float:
    """L2 norm over all present gradients; absent gradients count as zero.

    Each square sum is ``np.add.reduce`` over every axis, the reduction
    ``np.sum`` makes, without its Python-level wrapper."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.add.reduce(np.square(p.grad, dtype=np.float64), axis=None))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------


@dataclass
class PreparedData:
    """Tensorized split: tokenized text (or precomputed states) plus the
    encoded teacher-forcing label sequences. A split of bare texts, as
    ``predict_texts`` builds, has no label fields."""

    ids: list[str]
    seq_ids: np.ndarray | None = None
    seq_mask: np.ndarray | None = None
    gold: list[set] | None = None
    text_ids: np.ndarray | None = None
    text_mask: np.ndarray | None = None
    enc_hidden: np.ndarray | None = None
    enc_mask: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.ids)


def make_targets(seq_ids: np.ndarray) -> np.ndarray:
    """Next-token targets: ids shifted left, final column PAD (ignored)."""
    targets = np.full_like(seq_ids, PAD_ID)
    targets[:, :-1] = seq_ids[:, 1:]
    return targets


def prepare_data(
    bundle: ModelBundle,
    samples,
    seed: int = 0,
    store: PrecomputedStates | None = None,
) -> PreparedData:
    """Tokenize texts, or gather their rows of a states store, and encode
    label sets for one split.

    The shuffled ordering draws its per-sample permutations from a
    generator seeded here, so preparation is reproducible.
    """
    rng = np.random.default_rng(seed)
    n = len(samples)
    if n == 0:
        raise EmptyCorpus("no samples to prepare")
    cap = bundle.capacity
    seq_ids = np.zeros((n, cap), dtype=np.int32)
    seq_mask = np.zeros((n, cap), dtype=np.int8)
    ids, gold = [], []
    for i, s in enumerate(samples):
        seq = encode(s.labels, bundle.hierarchy, bundle.vocab, bundle.ordering,
                     cap, rng=rng)
        seq_ids[i] = seq.ids
        seq_mask[i] = seq.mask
        ids.append(s.id)
        gold.append(set(s.labels))

    if bundle.text_vocab is None:
        if store is None:
            raise ConfigError("a model without a text vocabulary needs a states store")
        if store.d_model != bundle.dec_cfg.d_model:
            raise ConfigError(
                f"store d_model {store.d_model} != model {bundle.dec_cfg.d_model}")
        rows = store.rows(ids)
        return PreparedData(ids, seq_ids, seq_mask, gold,
                            enc_hidden=store.hidden[rows], enc_mask=store.mask[rows])
    if store is not None:
        raise ConfigError("a states store was given for a model whose encoder "
                          "is trainable; only a model without a text vocabulary reads one")

    text_ids, text_mask = tokenize_texts([s.text for s in samples], bundle.text_vocab,
                                         bundle.enc_cfg.max_len)
    return PreparedData(ids, seq_ids, seq_mask, gold,
                        text_ids=text_ids, text_mask=text_mask)


def _label_columns(data: PreparedData, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forcing decoder input (label ids and mask) for rows ``idx``.

    This is the one place that picks a batch's label columns. The input
    stops just before the batch's last EOS column, the last column of its
    longest sequence: the target of an EOS input is PAD, and so is that of
    every column after the last EOS, so no scored position needs them, and
    causal self-attention keeps them from every position before. At least
    one column stays.
    """
    mask = data.seq_mask[idx]
    width = max(1, int(mask.sum(axis=1).max()) - 1)
    return data.seq_ids[idx, :width], mask[:, :width]


def _micro_logits(bundle: ModelBundle, data: PreparedData, idx: np.ndarray,
                  rng=None) -> Tensor:
    """Teacher-forced logits for rows ``idx`` over the columns
    ``_label_columns`` keeps; dropout runs when ``rng`` is given. Score them
    against ``targets[idx, :logits.shape[1]]``."""
    h, enc_mask = bundle.encoder_states(data, idx, rng)
    ids, mask = _label_columns(data, idx)
    return bundle.decoder_logits(ids, mask, h, enc_mask, rng)


def evaluate_epoch(bundle: ModelBundle, data: PreparedData,
                   loss_cfg: LossConfig, micro_batch: int = 32) -> float:
    """Mean teacher-forced loss over fixed-order batches, dropout off."""
    if data.n == 0:
        raise EmptyCorpus("empty validation split")
    targets = make_targets(data.seq_ids)
    losses = []
    with ad.no_grad():
        for lo in range(0, data.n, micro_batch):
            idx = np.arange(lo, min(lo + micro_batch, data.n))
            logits = _micro_logits(bundle, data, idx)
            losses.append(compute_loss(logits, targets[idx, :logits.shape[1]],
                                       loss_cfg).item())
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def _label_symbols(vocab: SymbolicVocab) -> tuple[dict[str, str], dict[str, int]]:
    """Label tokens as checkpoints name them, ``[a_k]`` for label k:
    label -> symbol and symbol -> token id."""
    symbols = {name: f"[a_{k}]" for k, name in enumerate(vocab.labels)}
    return symbols, {sym: vocab.id_of(name) for name, sym in symbols.items()}


def _vocab_hash(vocab: SymbolicVocab) -> str:
    symbols, ids = _label_symbols(vocab)
    payload = json.dumps({"labels": ids, "symbols": symbols}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_checkpoint(out_dir, bundle: ModelBundle, train_state: dict | None = None,
                    optimizer: AdamW | None = None) -> Path:
    """Write a self-contained checkpoint directory, atomically.

    The files go to a sibling temporary directory that then takes
    ``out_dir``'s place by ``os.replace``; an existing ``out_dir`` is moved
    aside first and deleted after the swap. A write that fails part way
    leaves the previous checkpoint as it was.
    """
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{uuid.uuid4().hex}.tmp")
    try:
        _write_checkpoint(tmp, bundle, train_state, optimizer)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    old = tmp.with_suffix(".old")
    if out.exists():
        os.replace(out, old)
    os.replace(tmp, out)
    shutil.rmtree(old, ignore_errors=True)
    return out


def _describe_model(bundle: ModelBundle) -> dict:
    """The manifest fields that fix the model: its configs, layout,
    taxonomy, vocabularies and parameter shapes."""
    symbols, ids = _label_symbols(bundle.vocab)
    return {
        "enc_cfg": asdict(bundle.enc_cfg),
        "dec_cfg": asdict(bundle.dec_cfg),
        "ordering": bundle.ordering.value,
        "capacity": bundle.capacity,
        "taxonomy": {"labels": bundle.hierarchy.labels,
                     "parents": bundle.hierarchy.parent},
        "label_map": symbols,
        "token_ids": {**SPECIAL_TOKENS, **ids},
        "vocab_hash": _vocab_hash(bundle.vocab),
        "text_vocab": bundle.text_vocab.to_json() if bundle.text_vocab else None,
        "param_shapes": {k: list(p.data.shape) for k, p in bundle.all_params().items()},
    }


def _write_checkpoint(out: Path, bundle: ModelBundle, train_state: dict | None,
                      optimizer: AdamW | None) -> None:
    """Write the manifest, and each parameter and moment from its live array."""
    (out / "params").mkdir(parents=True)
    manifest = {"format": 1, **_describe_model(bundle), "train_state": train_state}
    if optimizer is not None:
        manifest["optimizer"] = [{"name": g["name"], "lr": g["lr"], "frozen": g["frozen"],
                                  "t": g["t"]} for g in optimizer.groups]
        (out / "moments").mkdir()
        for key, mv in optimizer.state.items():
            for which in ("m", "v"):
                path = out / "moments" / f"{key.replace('/', '.')}.{which}.bin"
                path.write_bytes(np.ascontiguousarray(mv[which], "<f4"))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    for k, p in bundle.all_params().items():
        (out / "params" / f"{k}.bin").write_bytes(np.ascontiguousarray(p.data, "<f4"))


def _read_manifest(ckpt_dir, resume: bool = False) -> tuple[Path, dict]:
    """A checkpoint's manifest path and content: JSON of format 1 with every
    key that describes the model, else ``ConfigError`` names the file. An
    older version's ``enc_cfg.mode`` is dropped: ``text_vocab`` records it.

    With ``resume``, the manifest must also hold every key of the training
    state and optimizer groups that ``train`` reads back, else
    ``ConfigError`` names the file and the key.
    """
    mf = Path(ckpt_dir) / "manifest.json"
    try:
        manifest = json.loads(mf.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{mf}: not a JSON manifest ({e})") from None
    if not isinstance(manifest, dict) or manifest.get("format") != 1:
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        raise ConfigError(f"{mf}: unsupported checkpoint format {fmt!r}")
    for key in ("enc_cfg", "dec_cfg", "ordering", "capacity", "taxonomy", "label_map",
                "token_ids", "vocab_hash", "text_vocab", "param_shapes"):
        if key not in manifest:
            raise ConfigError(f"{mf}: missing key {key!r}")
    if isinstance(manifest["enc_cfg"], dict):
        manifest["enc_cfg"].pop("mode", None)
    if resume:
        if not manifest.get("train_state") or "optimizer" not in manifest:
            raise ConfigError(f"{ckpt_dir}: no training state to resume from; "
                              "resume from a run's last/ checkpoint")
        state = manifest["train_state"]
        _require_keys(mf, state, "train_state",
                      ("rng_state", "history", "scheduler", "best", "epoch"))
        _require_keys(mf, state["scheduler"], "train_state.scheduler",
                      ("best_val", "bad", "stall"))
        _require_keys(mf, state["best"], "train_state.best", ("epoch", "val"))
        if not isinstance(manifest["optimizer"], list):
            raise ConfigError(f"{mf}: 'optimizer' must be a list of groups")
        for i, group in enumerate(manifest["optimizer"]):
            _require_keys(mf, group, f"optimizer[{i}]", ("name", "lr", "frozen", "t"))
    return mf, manifest


def _require_keys(mf: Path, obj, where: str, keys) -> None:
    """Raise ``ConfigError`` naming ``mf`` unless ``obj``, the manifest's
    ``where``, is a JSON object with every one of ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{mf}: {where!r} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{mf}: missing key '{where}.{key}'")


def load_checkpoint(ckpt_dir) -> tuple[ModelBundle, dict]:
    """Rebuild a ModelBundle (and manifest) from a checkpoint directory.

    The model's layout comes from the manifest and every parameter from
    its blob: no random model is built or drawn. A manifest that is not
    JSON, lacks a key or carries a field the configs do not know raises
    ``ConfigError``; a parameter whose recorded shape or blob size differs
    from what the configs build raises ``ShapeMismatch``. Both name the
    file.
    """
    mf, manifest = _read_manifest(ckpt_dir)
    try:
        h = LabelHierarchy.from_parts(manifest["taxonomy"]["labels"],
                                      manifest["taxonomy"]["parents"])
        enc_cfg = EncoderConfig(**manifest["enc_cfg"])
        dec_cfg = DecoderConfig(**manifest["dec_cfg"])
        text_vocab = (TextVocab.from_json(manifest["text_vocab"])
                      if manifest["text_vocab"] else None)
        ordering, capacity = Ordering(manifest["ordering"]), int(manifest["capacity"])
        shapes = {k: tuple(v) for k, v in manifest["param_shapes"].items()}
    except KeyError as e:
        raise ConfigError(f"{mf}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{mf}: {e}") from None
    layout = ModelLayout.resolve(h, ordering, capacity, enc_cfg, dec_cfg, text_vocab)
    if _vocab_hash(layout.vocab) != manifest["vocab_hash"]:
        raise ConfigError("checkpoint vocabulary does not match its taxonomy")
    params = []
    for prefix, specs in (("enc", layout.enc_specs), ("dec", layout.dec_specs)):
        group = {}
        for name, (shape, _) in specs.items():
            k = f"{prefix}.{name}"
            if k not in shapes:
                raise ConfigError(f"{mf}: no shape recorded for parameter {k}")
            if shapes[k] != shape:
                raise ShapeMismatch(f"{mf}: parameter {k} has shape {shapes[k]}, "
                                    f"the configs give {shape}")
            group[name] = Parameter(_read_blob(mf.parent / "params" / f"{k}.bin", shape),
                                    name=name)
        params.append(group)
    return layout.filled(*params), manifest


def _read_blob(path: Path, shape) -> np.ndarray:
    """A raw float32 little-endian blob as a fresh array of ``shape``.

    The array starts on a 64-byte boundary, a cache line; numpy's
    allocator promises only 16 bytes. Batch-128 prediction on the desk
    model ran 3-4 % faster with every weight aligned this way than with
    the 16-byte alignment ``np.fromfile`` gave.
    """
    size = path.stat().st_size
    want = 4 * int(np.prod(shape))
    if size != want:
        raise ShapeMismatch(f"{path}: {size} bytes, expected {want} "
                            f"for shape {tuple(shape)}")
    buf = np.empty(want + 64, dtype=np.uint8)
    lo = -buf.ctypes.data % 64
    with path.open("rb") as fh:
        fh.readinto(buf[lo:lo + want])
    return buf[lo:lo + want].view("<f4").reshape(shape)


def _check_same_model(mf: Path, manifest: dict, bundle: ModelBundle) -> None:
    """Raise unless the checkpoint behind ``mf`` describes the model
    ``bundle`` holds, compared in the JSON form the manifest stores:
    resuming reads arrays and moments by parameter name."""
    for key, want in json.loads(json.dumps(_describe_model(bundle))).items():
        have = manifest[key]
        if have == want:
            continue
        if key.endswith("_cfg") and isinstance(have, dict):
            sub = next(k for k in {**want, **have}
                       if k not in have or k not in want or have[k] != want[k])
            key, have, want = f"{key}.{sub}", have.get(sub, "absent"), want.get(sub, "absent")
        shown = ("" if isinstance(want, (dict, list)) or isinstance(have, (dict, list))
                 else f" ({have} in the checkpoint, {want} here)")
        raise ConfigError(f"{mf}: cannot resume a different model; {key} differs{shown}")


def _load_moments(ckpt_dir, manifest: dict, optimizer: AdamW) -> None:
    """Read the AdamW moments back; a group that has stepped saved both
    blobs for every parameter, so a missing one raises ``ConfigError``."""
    moments = {}
    mdir = Path(ckpt_dir) / "moments"
    steps = {g["name"]: int(g["t"]) for g in manifest["optimizer"]}
    for g in optimizer.groups:
        if steps.get(g["name"], 0) == 0:
            continue
        for pname, p in g["params"].items():
            pair = {}
            for which in ("m", "v"):
                path = mdir / f"{g['name']}.{pname}.{which}.bin"
                if not path.exists():
                    raise ConfigError(f"{path}: missing, though the optimizer group "
                                      f"{g['name']!r} has taken {steps[g['name']]} steps")
                pair[which] = _read_blob(path, p.data.shape)
            moments[f"{g['name']}/{pname}"] = pair
    optimizer.load_state_dict({"groups": manifest["optimizer"]}, moments)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _train_window(bundle: ModelBundle, data: PreparedData, targets: np.ndarray,
                  rows: np.ndarray, rng, cfg: TrainConfig, opt: AdamW,
                  params: dict[str, Parameter], where: str) -> tuple[float, float]:
    """One accumulation window over ``rows``: each micro-batch records its
    tape and runs ``ad.backward`` on its own summed loss term in
    ``_micro_backward``, and its tape is freed before the next micro-batch
    records; then the window objective scales the summed gradients once
    and one optimizer step follows.

    The objective depends on the micro-batches only through the float64 sum
    of their terms and their position count n (see ``loss_pieces``), so it
    is ``combine_pieces(head, n, cfg.loss)`` on one scalar leaf ``head``
    holding that sum, and one backward through that head gives d objective
    / d sum: f'(ce) / n for the batch-modulated loss, 1 / n for the others.
    Backward is linear in its seed, so scaling every summed gradient by
    that value is the update of one backward through the whole window;
    only float32 rounding differs.

    The last micro-batch's tape is released when the window returns, after
    the optimizer step. The arrays the step allocates (on the first step,
    the optimizer's flat buffers) then lie above that tape on the heap, so
    freeing it leaves its memory mapped for the next window instead of
    handing it back to the operating system for the next forward to fault
    in again. Holding it costs no peak memory: its backward needed more.

    A term or window loss that is not finite raises ``NonFiniteLoss``
    (``where`` opens its message) before its backward, and every gradient
    the window accumulated is cleared, so no step is taken and nothing of
    the window remains. Returns the window's loss value and its gradient
    norm before the step.
    """
    total, n = 0.0, 0
    try:
        for k, lo in enumerate(range(0, len(rows), cfg.micro_batch)):
            term = None  # the previous tape goes before this micro-batch records
            term, count = _micro_backward(bundle, data, targets,
                                          rows[lo:lo + cfg.micro_batch], rng,
                                          cfg.loss, opt, f"{where} micro-batch {k}")
            total = total + term.data
            n += count
        head = Tensor(total, requires_grad=True)
        loss = combine_pieces(head, n, cfg.loss)
        value = loss.item()
        _check_finite(value, opt, where)
        ad.backward(loss)
    except BaseException:
        opt.zero_grad()
        raise
    for p in params.values():
        if p.grad is not None:
            np.multiply(p.grad, head.grad, out=p.grad)
    norm = grad_norm(params)
    opt.step()
    opt.zero_grad()
    return value, norm


def _micro_backward(bundle: ModelBundle, data: PreparedData, targets: np.ndarray,
                    idx: np.ndarray, rng, loss_cfg: LossConfig, opt: AdamW,
                    where: str) -> tuple[Tensor, int]:
    """Forward and backward of micro-batch ``idx``: adds d term / d leaf to
    every gradient and returns the summed loss term (float64), which holds
    the micro-batch's tape, and its position count."""
    logits = _micro_logits(bundle, data, idx, rng)
    term, n = loss_pieces(logits, targets[idx, :logits.shape[1]], loss_cfg)
    _check_finite(term.item(), opt, where)
    ad.backward(term)
    return term, n


def _check_finite(value: float, opt: AdamW, where: str) -> None:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{where}: loss={value}, "
                            f"lr_enc={opt.group('enc')['lr']:g}, "
                            f"lr_dec={opt.group('dec')['lr']:g}")


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_val: float
    epochs_run: int
    stopped: str
    best_dir: Path | None = None
    last_dir: Path | None = None


def train(
    bundle: ModelBundle,
    train_data: PreparedData,
    dev_data: PreparedData,
    cfg: TrainConfig,
    out_dir=None,
    resume=None,
    on_epoch_end=None,
) -> TrainResult:
    """Run the full loop; returns history plus best/last checkpoint paths.

    ``on_epoch_end(epoch, row, bundle)`` may return True to request a stop
    after the current epoch. With ``resume`` pointing at a ``last``
    checkpoint directory the run continues exactly where it left off.

    Each history row (also appended to ``train_log.jsonl``) carries
    ``grad_norm``, the mean over the epoch's windows of the gradient norm
    taken before the optimizer step, and ``docs_per_s``, training documents
    over the time spent in the windows, evaluation and checkpoints excluded.

    Each accumulation window runs in ``_train_window``, and each
    micro-batch's tape (every activation it saved for backward) is freed
    before the next micro-batch's forward, a window's last one when the
    window returns: so after an epoch's last window, before evaluation and
    the checkpoint writes.
    """
    if train_data.n == 0:
        raise EmptyCorpus("empty training split")
    if dev_data.n == 0:
        raise EmptyCorpus("empty dev split")

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl" if out is not None else None

    opt = AdamW()
    opt.add_group("enc", dict(bundle.enc_params), cfg.lr_encoder)
    opt.add_group("dec", dict(bundle.dec_params), cfg.lr_decoder)
    params = bundle.all_params()

    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    sched = {"best_val": float("inf"), "bad": 0, "stall": 0}
    best = {"epoch": 0, "val": float("inf")}
    start_epoch = 1

    if resume is not None:
        mf, manifest = _read_manifest(resume, resume=True)
        _check_same_model(mf, manifest, bundle)
        # every blob is read before the caller's bundle takes the first array
        arrays = {k: _read_blob(mf.parent / "params" / f"{k}.bin", p.data.shape)
                  for k, p in params.items()}
        _load_moments(resume, manifest, opt)
        for k, p in params.items():
            p.data = arrays[k]
        state = manifest["train_state"]
        rng.bit_generator.state = state["rng_state"]
        history = list(state["history"])
        sched = dict(state["scheduler"])
        best = dict(state["best"])
        start_epoch = int(state["epoch"]) + 1

    targets_all = make_targets(train_data.seq_ids)
    stopped = "max_epochs"
    epoch = start_epoch - 1

    for epoch in range(start_epoch, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        frozen_now = opt.group("enc")["frozen"]
        perm = rng.permutation(train_data.n)
        window_losses: list[float] = []
        window_norms: list[float] = []
        span = cfg.micro_batch * cfg.accumulation_steps
        for lo in range(0, train_data.n, span):
            value, norm = _train_window(bundle, train_data, targets_all,
                                        perm[lo:lo + span], rng, cfg, opt, params,
                                        f"epoch {epoch} step {len(window_losses)}")
            window_losses.append(value)
            window_norms.append(norm)
        train_s = time.perf_counter() - t0

        val_loss = evaluate_epoch(bundle, dev_data, cfg.loss, cfg.micro_batch)
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(window_losses)),
            "val_loss": val_loss,
            "grad_norm": float(np.mean(window_norms)),
            "lr_enc": opt.group("enc")["lr"],
            "lr_dec": opt.group("dec")["lr"],
            "frozen": bool(frozen_now),
            "docs_per_s": train_data.n / train_s,
            "wall_time": time.perf_counter() - t0,
        }
        history.append(row)
        if log_path is not None:
            with log_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")

        if val_loss < best["val"]:
            best = {"epoch": epoch, "val": val_loss}
            if out is not None:
                save_checkpoint(out / "best", bundle,
                                {"epoch": epoch, "val_loss": val_loss})

        if sched["best_val"] - val_loss >= cfg.improve_eps:
            sched["best_val"] = val_loss
            sched["bad"] = 0
            sched["stall"] = 0
        else:
            sched["bad"] += 1
            sched["stall"] += 1
        if sched["bad"] >= cfg.plateau_patience:
            sched["bad"] = 0
            for g in opt.groups:
                g["lr"] *= cfg.plateau_factor
            if (not opt.group("enc")["frozen"]
                    and opt.group("enc")["lr"] < cfg.encoder_freeze_threshold):
                opt.freeze_group("enc")

        if out is not None:
            save_checkpoint(out / "last", bundle, {
                "epoch": epoch,
                "history": history,
                "scheduler": sched,
                "best": best,
                "rng_state": rng.bit_generator.state,
            }, optimizer=opt)

        if on_epoch_end is not None and on_epoch_end(epoch, row, bundle):
            stopped = "callback"
            break
        if sched["stall"] >= cfg.early_stop_patience:
            stopped = "early_stop"
            break

    return TrainResult(
        history=history,
        best_epoch=best["epoch"],
        best_val=best["val"],
        epochs_run=epoch,
        stopped=stopped,
        best_dir=(out / "best") if out is not None and best["epoch"] > 0 else None,
        last_dir=(out / "last") if out is not None else None,
    )
