"""Label-sequence decoder: masking, causality, and initialization."""

from dataclasses import replace

import numpy as np
import pytest

from taxseq import autodiff as ad
from taxseq.codec import build_vocab
from taxseq.decoder import (DecodeCache, DecoderConfig, decoder_forward,
                            decoder_param_specs, read_label_embeddings,
                            seed_label_vectors, self_attention_mask,
                            write_label_embeddings)
from taxseq.encoder import EncoderConfig, encode_tokens, encoder_param_specs, init_params
from taxseq.errors import (ConfigError, InitDimensionMismatch, ShapeMismatch)


def small_cfg(**kw):
    base = dict(vocab_size=12, d_model=16, layers=2, heads=4, max_positions=8,
                dropout=0.0)
    base.update(kw)
    return DecoderConfig(**base)


def make_inputs(rng, b=2, n=5, t=4, d=16):
    label_ids = rng.integers(0, 12, size=(b, n))
    label_mask = np.ones((b, n), dtype=np.int8)
    enc_hidden = rng.standard_normal((b, t, d)).astype(np.float32)
    enc_mask = np.ones((b, t), dtype=np.int8)
    return label_ids, label_mask, enc_hidden, enc_mask


class TestConfig:
    def test_ff_dim_defaults_to_four_d(self):
        assert small_cfg().ff_dim == 64
        assert small_cfg(ff_dim=20).ff_dim == 20

    def test_full_scale_defaults(self):
        cfg = DecoderConfig(vocab_size=100)
        assert (cfg.d_model, cfg.layers, cfg.heads, cfg.dropout) == (128, 2, 8, 0.2)
        assert cfg.ff_dim == 512

    def test_validation(self):
        with pytest.raises(ConfigError):
            DecoderConfig(vocab_size=12, d_model=10, heads=4)
        with pytest.raises(ConfigError):
            DecoderConfig(vocab_size=12, max_positions=0)
        with pytest.raises(ConfigError, match="layers"):
            DecoderConfig(vocab_size=12, layers=0)
        with pytest.raises(ConfigError, match="heads 0"):
            DecoderConfig(vocab_size=12, heads=0)
        with pytest.raises(ConfigError, match="d_model must be >= 1"):
            DecoderConfig(vocab_size=12, d_model=0)
        with pytest.raises(ConfigError, match="dropout"):
            DecoderConfig(vocab_size=12, dropout=-0.1)
        with pytest.raises(ConfigError):
            decoder_param_specs(DecoderConfig(vocab_size=4))


class TestTapeNodes:
    """Exact tape-node counts, so un-fusing a sublayer fails here. Each
    sublayer is one node. Decoder embedding: two lookups and their sum (3).
    Per decoder layer: the cross-attention keys and values and the
    self-attention keys and values (``kv_heads``, one node each, 4), the
    self- and cross-attention reads (``attend``, 1 each, 2), three residual
    sums with their layer norms (``add_norm``, 3) and the feed-forward
    (``feed_forward``, 1): 10. Output projection: 1. A call on a
    ``DecodeCache`` runs on plain arrays and makes no node. An encoder
    layer: keys, values, ``attend``, two ``add_norm`` and ``feed_forward``:
    6."""

    def count_nodes(self, monkeypatch, fn):
        calls = []
        real = ad._node

        def counting(data, parents, backward):
            calls.append(None)
            return real(data, parents, backward)

        with monkeypatch.context() as m:
            m.setattr(ad, "_node", counting)
            fn()
        return len(calls)

    def test_teacher_forced_pass_and_cached_step(self, rng, monkeypatch):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=2, n=4)
        teacher = self.count_nodes(monkeypatch, lambda: decoder_forward(
            ids, mask, hidden, emask, cfg, params))
        assert teacher == 3 + 2 * 10 + 1 == 24
        cache = DecodeCache()
        with ad.no_grad():
            for lo, hi in ((0, 1), (1, 2), (2, 4)):  # the first call, a step, a draft
                assert self.count_nodes(monkeypatch, lambda: decoder_forward(
                    ids[:, lo:hi], mask[:, lo:hi], hidden, emask, cfg, params,
                    cache=cache)) == 0, (lo, hi)
        assert cache.length == 4

    def test_encoder_layer(self, rng, monkeypatch):
        cfg = EncoderConfig(vocab_size=20, d_model=16, layers=1, heads=4, max_len=6,
                            dropout=0.0)
        params = init_params(encoder_param_specs(cfg), rng)
        ids = rng.integers(0, 20, size=(2, 6))
        one = self.count_nodes(monkeypatch, lambda: encode_tokens(
            ids, np.ones((2, 6), np.int8), cfg, params))
        two = self.count_nodes(monkeypatch, lambda: encode_tokens(
            ids, np.ones((2, 6), np.int8), replace(cfg, layers=2),
            init_params(encoder_param_specs(replace(cfg, layers=2)), rng)))
        assert two - one == 6


class TestSelfAttentionMask:
    def test_causal_and_pad_blocking(self):
        mask = self_attention_mask(np.array([[1, 1, 0]]))
        m = mask[0, 0]
        assert m[0, 0] == 0 and m[1, 0] == 0 and m[1, 1] == 0
        assert m[0, 1] <= ad.NEG_INF          # future
        assert m[2, 2] <= ad.NEG_INF          # pad key
        assert m[1, 2] <= ad.NEG_INF
        assert mask.shape == (1, 1, 3, 3)


class TestForward:
    def test_output_shape(self, rng):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng)
        out = decoder_forward(ids, mask, hidden, emask, cfg, params)
        assert out.data.shape == (2, 5, 12)

    def test_causality(self, rng):
        """Changing a future label token never changes earlier logits."""
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        for trial in range(25):
            ids, mask, hidden, emask = make_inputs(rng, b=1)
            base = decoder_forward(ids, mask, hidden, emask, cfg, params).data
            pos = int(rng.integers(1, ids.shape[1]))
            tampered = ids.copy()
            tampered[0, pos] = (tampered[0, pos] + 1 + rng.integers(10)) % 12
            out = decoder_forward(tampered, mask, hidden, emask, cfg, params).data
            assert np.allclose(base[0, :pos], out[0, :pos], atol=1e-6), trial
            assert not np.allclose(base[0, pos], out[0, pos], atol=1e-6)

    def test_prefix_extension_consistency(self, rng):
        """Logits over a prefix are unchanged when the prefix grows."""
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, _, hidden, emask = make_inputs(rng, b=1, n=6)
        for k in range(1, 6):
            short = decoder_forward(ids[:, :k], np.ones((1, k), int), hidden, emask,
                                    cfg, params).data
            full = decoder_forward(ids[:, :k + 1], np.ones((1, k + 1), int), hidden,
                                   emask, cfg, params).data
            assert np.allclose(short[0], full[0, :k], atol=1e-5)

    def test_cross_attention_ignores_padded_encoder_states(self, rng):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=2, t=6)
        emask[0, 3:] = 0
        emask[1, 1:] = 0
        cap = []
        decoder_forward(ids, mask, hidden, emask, cfg, params, capture_cross=cap)
        assert len(cap) == cfg.layers
        for rec in cap:
            probs = rec["probs"]  # (B, heads, n, T)
            assert probs[0, :, :, 3:].max() < 1e-6
            assert probs[1, :, :, 1:].max() < 1e-6

    def test_padded_encoder_values_never_leak(self, rng):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=1, t=5)
        emask[0, 2:] = 0
        base = decoder_forward(ids, mask, hidden, emask, cfg, params).data
        hidden2 = hidden.copy()
        hidden2[0, 2:] = 37.0
        out = decoder_forward(ids, mask, hidden2, emask, cfg, params).data
        assert np.allclose(base, out, atol=1e-6)

    def test_accepts_tensor_and_2d_encoder_states(self, rng):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=1)
        a = decoder_forward(ids, mask, ad.Tensor(hidden), emask, cfg, params).data
        b = decoder_forward(ids, mask, hidden[0], emask[0], cfg, params).data
        assert np.allclose(a, b, atol=1e-7)

    def test_gradients_reach_encoder_states(self, rng):
        cfg = small_cfg(layers=1)
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=1)
        h = ad.Tensor(hidden, requires_grad=True)
        out = decoder_forward(ids, mask, h, emask, cfg, params)
        ad.backward(ad.tsum(ad.mul(out, out)))
        assert h.grad is not None and np.abs(h.grad).sum() > 0
        for name, p in params.items():
            assert p.grad is not None and np.abs(p.grad).sum() > 0, name

    def test_shape_errors(self, rng):
        cfg = small_cfg()
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng)
        with pytest.raises(ShapeMismatch):
            decoder_forward(ids, mask[:, :3], hidden, emask, cfg, params)
        with pytest.raises(ShapeMismatch):
            decoder_forward(np.zeros((1, 9), int), np.ones((1, 9), int),
                            hidden[:1], emask[:1], cfg, params)
        with pytest.raises(InitDimensionMismatch):
            decoder_forward(ids[:1], mask[:1],
                            hidden[:1, :, :8], emask[:1], cfg, params)
        with pytest.raises(ShapeMismatch):
            decoder_forward(ids, mask, hidden, emask[:, :2], cfg, params)

    def test_feed_past_the_buffers(self):
        cache = DecodeCache()
        cache.open(rows=1, positions=2, layers=1, heads=2, d_h=4, dtype=np.float32)
        cache.feed(np.ones((1, 1), np.int8))
        with pytest.raises(ShapeMismatch, match="cannot feed 2 positions after 1 to a "
                                                "cache of 2"):
            cache.feed(np.ones((1, 2), np.int8))
        assert cache.length == 1

    def test_dropout_changes_training_pass(self, rng):
        cfg = small_cfg(dropout=0.3)
        params = init_params(decoder_param_specs(cfg), rng)
        ids, mask, hidden, emask = make_inputs(rng, b=1)
        a = decoder_forward(ids, mask, hidden, emask, cfg, params).data
        b = decoder_forward(ids, mask, hidden, emask, cfg, params,
                            np.random.default_rng(1)).data
        assert not np.allclose(a, b)


class TestLabelInit:
    def test_file_round_trip(self, tmp_path, rng):
        vecs = {"A": rng.standard_normal(6).astype(np.float32),
                "B": rng.standard_normal(6).astype(np.float32)}
        path = tmp_path / "vectors.bin"
        write_label_embeddings(path, 6, vecs)
        d, got = read_label_embeddings(path)
        assert d == 6
        assert set(got) == {"A", "B"}
        assert np.allclose(got["A"], vecs["A"]) and np.allclose(got["B"], vecs["B"])

    def test_seeds_embedding_rows_and_output_columns(self, tmp_path, rng, tiny_tree):
        vocab = build_vocab(tiny_tree)
        vecs = {"B": np.full(16, 0.5, dtype=np.float32),
                "D": np.arange(16, dtype=np.float32) / 16}
        path = tmp_path / "vectors.bin"
        write_label_embeddings(path, 16, vecs)
        cfg = small_cfg(vocab_size=vocab.size)
        params = init_params(decoder_param_specs(cfg), np.random.default_rng(0))
        seed_label_vectors(params, vocab, path)
        b_id, d_id = vocab.id_of("B"), vocab.id_of("D")
        assert np.allclose(params["word_embed"].data[b_id], 0.5)
        assert np.allclose(params["out.w"].data[:, d_id], np.arange(16) / 16)
        # untouched rows keep their random init
        plain = init_params(decoder_param_specs(cfg), np.random.default_rng(0))
        a_id = vocab.id_of("A")
        assert np.array_equal(params["word_embed"].data[a_id],
                              plain["word_embed"].data[a_id])

    def test_dimension_mismatch(self, tmp_path, rng, tiny_tree):
        vocab = build_vocab(tiny_tree)
        path = tmp_path / "vectors.bin"
        write_label_embeddings(path, 8, {"A": np.zeros(8, dtype=np.float32)})
        params = init_params(decoder_param_specs(small_cfg(vocab_size=vocab.size)),
                             np.random.default_rng(0))
        with pytest.raises(InitDimensionMismatch):
            seed_label_vectors(params, vocab, path)

    def test_wrong_vector_shape_on_write(self, tmp_path):
        with pytest.raises(InitDimensionMismatch):
            write_label_embeddings(tmp_path / "v.bin", 4,
                                   {"A": np.zeros(5, dtype=np.float32)})
        assert not (tmp_path / "v.bin").exists()
        path = tmp_path / "v.bin"
        write_label_embeddings(path, 4, {"A": np.ones(4, dtype=np.float32)})
        before = path.read_bytes()
        # a rejected write leaves a good file as it was
        with pytest.raises(InitDimensionMismatch, match="'B'"):
            write_label_embeddings(path, 4, {"A": np.zeros(4, dtype=np.float32),
                                             "B": np.zeros(3, dtype=np.float32)})
        assert path.read_bytes() == before

    def test_truncated_file_on_read(self, tmp_path):
        path = tmp_path / "v.bin"
        write_label_embeddings(path, 4, {"A": np.zeros(4, dtype=np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(InitDimensionMismatch):
            read_label_embeddings(path)

    def test_label_init_needs_vocab(self, tmp_path):
        path = tmp_path / "v.bin"
        write_label_embeddings(path, 16, {"A": np.zeros(16, dtype=np.float32)})
        params = init_params(decoder_param_specs(small_cfg()), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            seed_label_vectors(params, None, path)

    @pytest.mark.parametrize("header, floats", [
        (b"not json at all", 16),
        (b"[16, 2]", 16),
        (b'{"labels": ["A"]}', 16),
        (b'{"d_model": "16", "labels": ["A"]}', 16),
        (b'{"d_model": 16}', 16),
        (b'{"d_model": 16, "labels": "AB"}', 32),
        (b'{"d_model": 16, "labels": ["A", 7]}', 32),
    ], ids=["not-json", "not-object", "no-d_model", "string-d_model", "no-labels",
            "labels-string", "labels-non-string"])
    def test_corrupt_header_names_the_path(self, tmp_path, header, floats):
        """The float count matches the header's labels, so only the header
        itself is at fault."""
        path = tmp_path / "v.bin"
        path.write_bytes(header + b"\n" + np.zeros(floats, dtype="<f4").tobytes())
        with pytest.raises(InitDimensionMismatch, match="v.bin"):
            read_label_embeddings(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_names_the_path(self, tmp_path, kind):
        path = tmp_path / "v.bin"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(InitDimensionMismatch, match="v.bin: cannot read label vectors"):
            read_label_embeddings(path)
