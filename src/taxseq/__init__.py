"""Hierarchical text classification by autoregressive label-sequence decoding.

A taxonomy-aware codec turns label sets into symbolic token sequences
(children before parents, level groups separated), a transformer decoder
learns to emit those sequences from encoded text, and set-level F1 plus a
sequence error taxonomy measure the result. Everything runs on a small
reverse-mode autodiff tape over numpy; no deep-learning framework needed.

Importing the package loads no submodule: each exported name imports its
module on first access, so the CLI can pin the numeric thread pools before
numpy loads.
"""

import importlib

_EXPORTS = {
    "autodiff": ("Parameter", "Tensor", "backward", "no_grad"),
    "codec": ("BOS_ID", "EOS_ID", "PAD_ID", "SEP_ID", "LabelSequence", "Ordering",
              "SymbolicVocab", "build_vocab", "capacity_for", "decode", "encode"),
    "corpus": ("Sample", "SynthConfig", "generate_synthetic", "load_jsonl", "load_splits"),
    "decoder": ("DecoderConfig", "decoder_forward", "init_decoder_params"),
    "encoder": ("EncodedText", "EncoderConfig", "PrecomputedStates", "TextVocab",
                "encode_tokens", "tokenize_text"),
    "errors": ("TaxseqError",),
    "inference": ("Prediction", "beam_decode_ids", "greedy_decode", "predict_texts"),
    "loss": ("LossConfig", "LossVariant", "compute_loss"),
    "metrics": ("build_report", "error_taxonomy", "micro_macro_f1", "write_report"),
    "model": ("ModelBundle",),
    "taxonomy": ("DatasetStats", "LabelHierarchy", "dataset_stats", "load_hierarchy"),
    "trainer": ("AdamW", "TrainConfig", "TrainResult", "evaluate_epoch",
                "load_checkpoint", "prepare_data", "save_checkpoint", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """Import the submodule behind an exported name on first access."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
