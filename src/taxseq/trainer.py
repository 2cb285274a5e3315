"""Training procedure: dual learning rates, decoupled weight decay,
plateau-driven decay with encoder freezing, early stopping, teacher
forcing, and gradient accumulation.

Accumulation windows are exact: per-micro-batch loss terms are combined
on the autodiff tape into a single window objective before one backward
pass, so a 2 x 32 window produces the same update as one 64-sample batch
up to float summation order. A window's tape lives only for its window,
so training holds the saved activations of one window at a time.

Checkpoints are directories holding a JSON manifest (configs, taxonomy
edges, token-id maps, vocab hash, rng state, metric history) plus one raw
float32 little-endian blob per named parameter, and the optimizer moment
vectors so a resumed run continues bit-identically.
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
from .codec import Ordering, PAD_ID, encode
from .encoder import EncoderConfig, PrecomputedStates, TextVocab, tokenize_texts
from .decoder import DecoderConfig
from .errors import ConfigError, EmptyCorpus, NonFiniteLoss, ShapeMismatch
from .loss import LossConfig, combine_pieces, compute_loss, loss_pieces
from .model import ModelBundle
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

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        b1, b2 = self.beta1, self.beta2
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
        s += self.eps
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

    def state_dict(self) -> dict:
        return {
            "groups": [{"name": g["name"], "lr": g["lr"], "frozen": g["frozen"],
                        "t": g["t"]} for g in self.groups],
            "moments": {k: {"m": v["m"].copy(), "v": v["v"].copy()}
                        for k, v in self.state.items()},
        }

    def load_state_dict(self, meta: dict, moments: dict) -> None:
        for saved in meta["groups"]:
            g = self.group(saved["name"])
            g["lr"] = float(saved["lr"])
            g["t"] = int(saved["t"])
            if saved["frozen"]:
                self.freeze_group(saved["name"])
        self.state = moments


def grad_norm(params: dict[str, Parameter]) -> float:
    """L2 norm over all present gradients; absent gradients count as zero."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(np.square(p.grad, dtype=np.float64)))
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
    """Tokenize texts and encode label sets for one split.

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

    if bundle.enc_cfg.mode == "precomputed":
        if store is None:
            raise ConfigError("precomputed encoder mode needs a states store")
        if store.d_model != bundle.dec_cfg.d_model:
            raise ConfigError(
                f"store d_model {store.d_model} != model {bundle.dec_cfg.d_model}")
        hidden = np.zeros((n, store.max_len, store.d_model), dtype=np.float32)
        mask = np.zeros((n, store.max_len), dtype=np.int8)
        for i, s in enumerate(samples):
            enc = store.read(s.id)
            hidden[i] = enc.hidden
            mask[i] = enc.mask
        return PreparedData(ids, seq_ids, seq_mask, gold,
                            enc_hidden=hidden, enc_mask=mask)
    if store is not None:
        raise ConfigError("a states store was given for a model whose encoder "
                          "is trainable; only a precomputed encoder reads one")

    text_ids, text_mask = tokenize_texts([s.text for s in samples], bundle.text_vocab,
                                         bundle.enc_cfg.max_len)
    return PreparedData(ids, seq_ids, seq_mask, gold,
                        text_ids=text_ids, text_mask=text_mask)


def _micro_logits(bundle: ModelBundle, data: PreparedData, idx: np.ndarray,
                  rng=None) -> Tensor:
    """Teacher-forced logits for rows ``idx``; dropout runs when ``rng`` is given."""
    h, enc_mask = bundle.encoder_states(data, idx, rng)
    return bundle.decoder_logits(data.seq_ids[idx], data.seq_mask[idx], h, enc_mask, rng)


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
            losses.append(compute_loss(logits, targets[idx], loss_cfg).item())
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def _vocab_hash(bundle: ModelBundle) -> str:
    payload = json.dumps(
        {"labels": bundle.vocab.label_to_id,
         "symbols": bundle.vocab.symbol_of}, sort_keys=True)
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
    return {
        "enc_cfg": asdict(bundle.enc_cfg),
        "dec_cfg": asdict(bundle.dec_cfg),
        "ordering": bundle.ordering.value,
        "capacity": bundle.capacity,
        "taxonomy": {"labels": bundle.hierarchy.labels,
                     "parents": bundle.hierarchy.parent},
        "label_map": bundle.vocab.symbol_of,
        "token_ids": {bundle.vocab.token_string(i): i for i in range(bundle.vocab.size)},
        "vocab_hash": _vocab_hash(bundle),
        "text_vocab": bundle.text_vocab.to_json() if bundle.text_vocab else None,
        "param_shapes": {k: list(p.data.shape) for k, p in bundle.all_params().items()},
    }


def _write_checkpoint(out: Path, bundle: ModelBundle, train_state: dict | None,
                      optimizer: AdamW | None) -> None:
    (out / "params").mkdir(parents=True)
    params = bundle.all_params()
    manifest = {"format": 1, **_describe_model(bundle), "train_state": train_state}
    if optimizer is not None:
        sd = optimizer.state_dict()
        manifest["optimizer"] = sd["groups"]
        mdir = out / "moments"
        mdir.mkdir(exist_ok=True)
        for key, mv in sd["moments"].items():
            stem = key.replace("/", ".")
            (mdir / f"{stem}.m.bin").write_bytes(mv["m"].astype("<f4").tobytes())
            (mdir / f"{stem}.v.bin").write_bytes(mv["v"].astype("<f4").tobytes())
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    for k, p in params.items():
        (out / "params" / f"{k}.bin").write_bytes(p.data.astype("<f4").tobytes())


def load_checkpoint(ckpt_dir) -> tuple[ModelBundle, dict]:
    """Rebuild a ModelBundle (and manifest) from a checkpoint directory.

    A manifest that is not JSON, lacks a key or carries a field the
    configs do not know raises ``ConfigError``; a parameter whose recorded
    shape or blob size differs from what the configs build raises
    ``ShapeMismatch``. Both name the file.
    """
    out = Path(ckpt_dir)
    mf = out / "manifest.json"
    try:
        manifest = json.loads(mf.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{mf}: not a JSON manifest ({e})") from None
    if not isinstance(manifest, dict) or manifest.get("format") != 1:
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        raise ConfigError(f"{out}: unsupported checkpoint format {fmt!r}")
    try:
        h = LabelHierarchy.from_parts(manifest["taxonomy"]["labels"],
                                      manifest["taxonomy"]["parents"])
        enc_cfg = EncoderConfig(**manifest["enc_cfg"])
        dec_cfg = DecoderConfig(**manifest["dec_cfg"])
        text_vocab = (TextVocab.from_json(manifest["text_vocab"])
                      if manifest.get("text_vocab") else None)
        ordering, capacity = Ordering(manifest["ordering"]), int(manifest["capacity"])
        vocab_hash = manifest["vocab_hash"]
        shapes = {k: tuple(v) for k, v in manifest["param_shapes"].items()}
    except KeyError as e:
        raise ConfigError(f"{mf}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{mf}: {e}") from None
    bundle = ModelBundle.build(h, ordering, capacity, enc_cfg, dec_cfg, seed=0,
                               text_vocab=text_vocab)
    if _vocab_hash(bundle) != vocab_hash:
        raise ConfigError("checkpoint vocabulary does not match its taxonomy")
    for k, p in bundle.all_params().items():
        if k not in shapes:
            raise ConfigError(f"{mf}: no shape recorded for parameter {k}")
        if shapes[k] != p.data.shape:
            raise ShapeMismatch(f"{mf}: parameter {k} has shape {shapes[k]}, "
                                f"the configs give {p.data.shape}")
        p.data = _read_blob(out / "params" / f"{k}.bin", p.data.shape)
    return bundle, manifest


def _read_blob(path: Path, shape) -> np.ndarray:
    """A raw float32 little-endian blob as a fresh array of ``shape``."""
    blob = path.read_bytes()
    want = 4 * int(np.prod(shape))
    if len(blob) != want:
        raise ShapeMismatch(f"{path}: {len(blob)} bytes, expected {want} "
                            f"for shape {tuple(shape)}")
    return np.frombuffer(blob, dtype="<f4").reshape(shape).copy()


def _check_same_model(mf: Path, manifest: dict, bundle: ModelBundle) -> None:
    """Raise unless the checkpoint behind ``mf`` describes the model
    ``bundle`` holds, compared in the JSON form the manifest stores:
    resuming copies arrays and moments by parameter name."""
    for key, want in json.loads(json.dumps(_describe_model(bundle))).items():
        have = manifest[key]
        if have == want:
            continue
        if key.endswith("_cfg"):
            sub = next(k for k in want if have[k] != want[k])
            key, have, want = f"{key}.{sub}", have[sub], want[sub]
        shown = ("" if isinstance(want, (dict, list))
                 else f" ({have!r} in the checkpoint, {want!r} here)")
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
    """One accumulation window over ``rows``: record each micro-batch's
    tape, combine the loss pieces, run one backward and one optimizer step.

    Returns the window's loss value and its gradient norm before the step.
    The tape is referenced only from this frame, so it is freed on return,
    before the next window records its own. ``where`` opens the
    ``NonFiniteLoss`` message.
    """
    pieces = []
    for lo in range(0, len(rows), cfg.micro_batch):
        idx = rows[lo:lo + cfg.micro_batch]
        logits = _micro_logits(bundle, data, idx, rng)
        pieces.append(loss_pieces(logits, targets[idx], cfg.loss))
    loss = combine_pieces(pieces, cfg.loss)
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{where}: loss={value}, "
                            f"lr_enc={opt.group('enc')['lr']:g}, "
                            f"lr_dec={opt.group('dec')['lr']:g}")
    ad.backward(loss)
    norm = grad_norm(params)
    opt.step()
    opt.zero_grad()
    return value, norm


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

    Each accumulation window runs in ``_train_window``, and its tape (every
    activation its micro-batches saved for backward) is freed when that
    window returns: before the next window's first forward, and after an
    epoch's last window before evaluation and the checkpoint writes.
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
        loaded, manifest = load_checkpoint(resume)
        if not manifest.get("train_state") or "optimizer" not in manifest:
            raise ConfigError(f"{resume}: no training state to resume from; "
                              "resume from a run's last/ checkpoint")
        _check_same_model(Path(resume) / "manifest.json", manifest, bundle)
        for k, p in bundle.all_params().items():
            p.data = loaded.all_params()[k].data
        state = manifest["train_state"]
        _load_moments(resume, manifest, opt)
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
    else:
        stopped = "max_epochs"

    return TrainResult(
        history=history,
        best_epoch=best["epoch"],
        best_val=best["val"],
        epochs_run=epoch,
        stopped=stopped,
        best_dir=(out / "best") if out is not None and best["epoch"] > 0 else None,
        last_dir=(out / "last") if out is not None else None,
    )
