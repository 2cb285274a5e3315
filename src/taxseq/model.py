"""Full model bundle: taxonomy, vocabularies, encoder and decoder.

``ModelBundle`` owns everything needed to map raw text to a label set:
the label hierarchy, the symbolic label vocabulary and sequence layout,
the word vocabulary (none when encoder states come from a store), both
parameter dictionaries, and the configs that shaped them. Training,
checkpointing, and inference all operate on this one object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Parameter, Tensor
from .codec import Ordering, SymbolicVocab, build_vocab
from .decoder import (DecodeCache, DecoderConfig, decoder_forward, decoder_param_specs,
                      seed_label_vectors)
from .encoder import (EncoderConfig, ParamSpec, TextVocab, encode_tokens, encoder_param_specs,
                      init_params)
from .errors import ConfigError
from .taxonomy import LabelHierarchy

__all__ = ["ModelBundle", "ModelLayout"]


@dataclass
class ModelLayout:
    """Everything that fixes a model but its parameter values: the
    taxonomy, vocabularies and layout, the configs with the vocabulary
    sizes and position count resolved, and each parameter's name, shape
    and start. ``ModelBundle.build`` fills it with seeded draws,
    ``trainer.load_checkpoint`` with a checkpoint's arrays."""
    hierarchy: LabelHierarchy
    vocab: SymbolicVocab
    text_vocab: TextVocab | None
    ordering: Ordering
    capacity: int
    enc_cfg: EncoderConfig
    dec_cfg: DecoderConfig
    enc_specs: dict[str, ParamSpec]  # empty when the encoder states come from a store
    dec_specs: dict[str, ParamSpec]

    @classmethod
    def resolve(cls, hierarchy: LabelHierarchy, ordering: Ordering, capacity: int,
                enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                text_vocab: TextVocab | None = None) -> "ModelLayout":
        """The layout for the given taxonomy and configs; it holds copies of
        the configs, so the caller's objects are left unchanged."""
        vocab = build_vocab(hierarchy)
        dec_cfg = replace(dec_cfg, vocab_size=vocab.size,
                          max_positions=max(dec_cfg.max_positions, capacity))
        if enc_cfg.d_model != dec_cfg.d_model:
            raise ConfigError(
                f"encoder d_model {enc_cfg.d_model} != decoder d_model {dec_cfg.d_model}")
        enc_specs = {}
        if text_vocab is not None:
            enc_cfg = replace(enc_cfg, vocab_size=text_vocab.size)
            enc_specs = encoder_param_specs(enc_cfg)
        return cls(hierarchy, vocab, text_vocab, ordering, capacity, enc_cfg, dec_cfg,
                   enc_specs, decoder_param_specs(dec_cfg))

    def filled(self, enc_params: dict[str, Parameter],
               dec_params: dict[str, Parameter]) -> "ModelBundle":
        return ModelBundle(**vars(self), enc_params=enc_params, dec_params=dec_params)


@dataclass
class ModelBundle(ModelLayout):
    """A ``ModelLayout`` with its parameter values."""
    enc_params: dict[str, Parameter]
    dec_params: dict[str, Parameter]

    @classmethod
    def build(
        cls,
        hierarchy: LabelHierarchy,
        ordering: Ordering,
        capacity: int,
        enc_cfg: EncoderConfig,
        dec_cfg: DecoderConfig,
        seed: int = 0,
        text_vocab: TextVocab | None = None,
        label_init=None,
    ) -> "ModelBundle":
        """Initialize fresh parameters for the given taxonomy and layout.

        The bundle holds copies of the configs with the vocabulary sizes and
        position count resolved; the caller's objects are left unchanged.
        """
        layout = ModelLayout.resolve(hierarchy, ordering, capacity, enc_cfg, dec_cfg,
                                     text_vocab)
        rng = np.random.default_rng(seed)
        enc_params = init_params(layout.enc_specs, rng)
        dec_params = init_params(layout.dec_specs, rng)
        if label_init is not None:
            seed_label_vectors(dec_params, layout.vocab, label_init)
        return layout.filled(enc_params, dec_params)

    def all_params(self) -> dict[str, Parameter]:
        out = {f"enc.{k}": v for k, v in self.enc_params.items()}
        out.update({f"dec.{k}": v for k, v in self.dec_params.items()})
        return out

    def n_params(self) -> int:
        return sum(p.data.size for p in self.all_params().values())

    def encode_batch(self, text_ids, text_mask, rng=None) -> Tensor:
        """Encoder states over exactly the columns given: (B, T) -> (B, T, d)."""
        if self.text_vocab is None:
            raise ConfigError("encode_batch needs a trainable encoder; "
                              "a model without a text vocabulary reads stored states")
        return encode_tokens(text_ids, text_mask, self.enc_cfg, self.enc_params, rng)

    def encoder_states(self, data, idx, rng=None) -> tuple[Tensor, np.ndarray]:
        """Encoder states and key mask for rows ``idx`` of a ``PreparedData``.

        This is the one place that picks a batch's text columns. The batch
        keeps its columns up to the last one that any of its rows uses, and
        at least one, so the encoder and cross-attention pay for its
        longest text, not for ``max_len``. A store's mask may have holes,
        so the width is that last column, not a token count. Precomputed
        splits gather the batch's store rows, then cut their columns;
        tokenized ones run through ``encode_batch``.
        """
        precomputed = data.enc_hidden is not None
        if precomputed:
            idx = data.enc_rows[idx]
        mask = (data.enc_mask if precomputed else data.text_mask)[idx]
        used = np.flatnonzero(mask.any(axis=0))
        width = int(used[-1]) + 1 if used.size else 1
        mask = mask[:, :width]
        if precomputed:
            return Tensor(data.enc_hidden[idx, :width]), mask
        return self.encode_batch(data.text_ids[idx, :width], mask, rng), mask

    def decoder_logits(self, label_ids, label_mask, enc_hidden, enc_mask,
                       rng=None, capture_cross=None,
                       cache: DecodeCache | None = None) -> Tensor:
        """Decoder logits for the positions after those ``cache`` has
        consumed; without one, the teacher-forced pass (see ``decoder_forward``)."""
        return decoder_forward(label_ids, label_mask, enc_hidden, enc_mask,
                               self.dec_cfg, self.dec_params, rng,
                               capture_cross=capture_cross, cache=cache)
