"""Text front end: tokenizer, word vocabulary, encoder, state store."""

import json

import numpy as np
import pytest

from taxseq import autodiff as ad
from taxseq.encoder import (TEXT_PAD, TEXT_PAD_ID, TEXT_UNK, TEXT_UNK_ID,
                            EncoderConfig, PrecomputedStates, TextVocab,
                            encode_tokens, encoder_param_specs, init_params,
                            tokenize_text, trunc_normal,
                            words_of)
from taxseq.errors import ConfigError, MissingPrecomputed, ShapeMismatch

TEXTS = ["the cat sat on the mat",
         "the dog sat",
         "a cat and a dog and a bird"]


def small_cfg(**kw):
    base = dict(vocab_size=32, d_model=16, layers=2, heads=4, max_len=10,
                dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


class TestTokenizer:
    def test_words_lowercase_and_punctuation(self):
        assert words_of("The CAT, sat!") == ["the", "cat", "sat"]
        assert words_of("tech-news v2.0 o'brien under_score") == [
            "tech-news", "v2.0", "o'brien", "under_score"]
        assert words_of("???") == []

    def test_vocab_frequency_then_alpha(self):
        v = TextVocab.build(TEXTS)
        assert v.word_to_id[TEXT_PAD] == TEXT_PAD_ID
        assert v.word_to_id[TEXT_UNK] == TEXT_UNK_ID
        # "a" and "the" both occur 3 times; alphabetical tie-break
        assert v.word_to_id["a"] == 2
        assert v.word_to_id["the"] == 3
        assert v.word_to_id["and"] == 4
        assert v.word_to_id["cat"] == 5 and v.word_to_id["dog"] == 6
        assert v.word_to_id["sat"] == 7

    def test_min_count_and_max_size(self):
        v = TextVocab.build(TEXTS, min_count=2)
        assert "bird" not in v.word_to_id and "cat" in v.word_to_id
        v2 = TextVocab.build(TEXTS, max_size=4)
        assert v2.size == 4

    def test_json_round_trip(self):
        v = TextVocab.build(TEXTS)
        assert TextVocab.from_json(v.to_json()).word_to_id == v.word_to_id

    def test_tokenize_pads_truncates_unks(self):
        v = TextVocab.build(TEXTS)
        ids, mask = tokenize_text("the zebra sat", v, max_len=5)
        assert ids.tolist() == [v.word_to_id["the"], TEXT_UNK_ID,
                                v.word_to_id["sat"], TEXT_PAD_ID, TEXT_PAD_ID]
        assert mask.tolist() == [1, 1, 1, 0, 0]
        long_ids, long_mask = tokenize_text(" ".join(["cat"] * 20), v, max_len=5)
        assert long_mask.sum() == 5 and (long_ids == v.word_to_id["cat"]).all()

    def test_empty_text_degrades_to_unk(self):
        v = TextVocab.build(TEXTS)
        ids, mask = tokenize_text("", v, max_len=4)
        assert ids.tolist()[:1] == [TEXT_UNK_ID] and mask.tolist() == [1, 0, 0, 0]


class TestInit:
    def test_trunc_normal_bounded(self, rng):
        x = trunc_normal(rng, (4000,), std=0.02)
        assert np.abs(x).max() <= 0.04 + 1e-9
        assert x.dtype == np.float32
        assert 0.01 < x.std() < 0.03

    def test_param_names_and_shapes(self, rng):
        cfg = small_cfg()
        params = init_params(encoder_param_specs(cfg), rng)
        assert params["embed"].data.shape == (32, 16)
        assert params["pos_embed"].data.shape == (10, 16)
        for i in range(cfg.layers):
            assert params[f"l{i}.attn.wq"].data.shape == (16, 16)
            assert params[f"l{i}.ff.w1"].data.shape == (16, 64)
            assert params[f"l{i}.ff.w2"].data.shape == (64, 16)
            assert np.all(params[f"l{i}.norm1.g"].data == 1.0)
            assert np.all(params[f"l{i}.norm2.b"].data == 0.0)
        for name, p in params.items():
            assert p.name == name and p.requires_grad

    def test_seeded_init_reproducible(self):
        cfg = small_cfg()
        a = init_params(encoder_param_specs(cfg), np.random.default_rng(7))
        b = init_params(encoder_param_specs(cfg), np.random.default_rng(7))
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d_model=10, heads=4)
        with pytest.raises(ConfigError):
            EncoderConfig(max_len=0)
        with pytest.raises(ConfigError, match="layers"):
            EncoderConfig(layers=-1)
        with pytest.raises(ConfigError, match="heads 0"):
            EncoderConfig(heads=0)
        assert EncoderConfig(layers=0).layers == 0
        with pytest.raises(ConfigError, match="d_model must be >= 1"):
            EncoderConfig(d_model=0)
        with pytest.raises(ConfigError, match="dropout"):
            EncoderConfig(dropout=1.5)

    def test_specs_need_two_words(self):
        with pytest.raises(ConfigError, match="vocab_size >= 2"):
            encoder_param_specs(small_cfg(vocab_size=1))


class TestEncodeTokens:
    def test_shapes_and_padding_independence(self, rng):
        cfg = small_cfg()
        params = init_params(encoder_param_specs(cfg), rng)
        ids = np.array([[2, 3, 4, 0, 0]])
        mask = np.array([[1, 1, 1, 0, 0]])
        out = encode_tokens(ids, mask, cfg, params)
        assert out.data.shape == (1, 5, 16)
        # garbage beyond the mask must not leak into real positions
        ids2 = ids.copy()
        ids2[0, 3:] = 9
        out2 = encode_tokens(ids2, mask, cfg, params)
        assert np.allclose(out.data[0, :3], out2.data[0, :3], atol=1e-6)

    def test_batch_matches_single(self, rng):
        cfg = small_cfg()
        params = init_params(encoder_param_specs(cfg), rng)
        ids = np.array([[2, 3, 4, 5], [6, 7, 0, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
        batch = encode_tokens(ids, mask, cfg, params)
        for i in range(2):
            single = encode_tokens(ids[i], mask[i], cfg, params)
            assert np.allclose(batch.data[i], single.data[0], atol=1e-5)

    def test_unpadded_batch_passes_no_mask(self, rng, monkeypatch):
        cfg = small_cfg()
        params = init_params(encoder_param_specs(cfg), rng)
        ids = np.array([[2, 3, 4, 5], [6, 7, 8, 9]])
        real = ad._attention
        masks = []

        def spy(q, k, v, mask, capture):
            masks.append(mask)
            return real(q, k, v, mask, capture)

        monkeypatch.setattr(ad, "_attention", spy)
        bare = encode_tokens(ids, np.ones_like(ids), cfg, params)
        assert len(masks) == cfg.layers and all(m is None for m in masks)
        padded = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
        encode_tokens(ids, padded, cfg, params)
        assert all(m is not None for m in masks[cfg.layers:])

        def zero_mask(q, k, v, mask, capture):
            zeros = np.zeros((q.shape[0], 1, 1, k.shape[-2]), np.float32)
            return real(q, k, v, zeros if mask is None else mask, capture)

        monkeypatch.setattr(ad, "_attention", zero_mask)
        zeroed = encode_tokens(ids, np.ones_like(ids), cfg, params)
        assert np.array_equal(bare.data, zeroed.data)

    def test_too_long_rejected(self, rng):
        cfg = small_cfg(max_len=3)
        params = init_params(encoder_param_specs(cfg), rng)
        with pytest.raises(ShapeMismatch):
            encode_tokens(np.zeros((1, 4), int), np.ones((1, 4), int), cfg, params)

    def test_train_mode_uses_dropout(self, rng):
        cfg = small_cfg(dropout=0.3)
        params = init_params(encoder_param_specs(cfg), rng)
        ids = np.array([[2, 3, 4]])
        mask = np.ones((1, 3), int)
        eval_out = encode_tokens(ids, mask, cfg, params)
        train_out = encode_tokens(ids, mask, cfg, params, np.random.default_rng(0))
        assert not np.allclose(eval_out.data, train_out.data)

    def test_dropout_draws_only_given_columns(self, rng):
        # each of the 1 + 2*layers masks covers the (B, T, d) batch it is
        # given, padded columns included, and not max_len columns
        cfg = small_cfg(dropout=0.3)
        params = init_params(encoder_param_specs(cfg), rng)
        b, t = 2, 4
        assert t < cfg.max_len
        ids = rng.integers(2, 32, size=(b, t))
        mask = np.ones((b, t), int)
        mask[1, 2:] = 0
        gen = np.random.default_rng(7)
        encode_tokens(ids, mask, cfg, params, gen)
        used = (1 + 2 * cfg.layers) * b * t * cfg.d_model
        assert gen.random() == np.random.default_rng(7).random(used + 1)[-1]

    def test_gradients_flow_to_all_params(self, rng):
        cfg = small_cfg(layers=1)
        params = init_params(encoder_param_specs(cfg), rng)
        out = encode_tokens(np.array([[2, 3]]), np.array([[1, 1]]), cfg, params)
        ad.backward(ad.tsum(ad.mul(out, out)))
        for name, p in params.items():
            assert p.grad is not None and np.abs(p.grad).sum() > 0, name


def write_raw(root, ids, hidden, mask):
    """A store written past ``save``'s checks, as any framework could write it."""
    root.mkdir(parents=True, exist_ok=True)
    np.save(root / "hidden.npy", hidden)
    np.save(root / "mask.npy", mask)
    (root / "manifest.json").write_text(json.dumps(ids), encoding="utf-8")


def rejected_at_save_and_open(tmp_path, ids, hidden, mask, match):
    """``save`` refuses the arrays and writes nothing; ``open`` refuses them
    written past it."""
    with pytest.raises(ShapeMismatch, match=match):
        PrecomputedStates.save(tmp_path / "saved", ids, hidden, mask)
    assert not (tmp_path / "saved").exists()
    write_raw(tmp_path / "raw", ids, hidden, mask)
    with pytest.raises(ShapeMismatch, match=match):
        PrecomputedStates.open(tmp_path / "raw")


class TestPrecomputedStates:
    def test_round_trip(self, tmp_path, rng):
        hidden = rng.standard_normal((2, 6, 8)).astype(np.float32)
        mask = np.array([[1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 0, 1]], dtype=np.float32)
        PrecomputedStates.save(tmp_path / "enc", ["doc-1", "doc-2"], hidden, mask)
        again = PrecomputedStates.open(tmp_path / "enc")
        assert (again.d_model, again.max_len) == (8, 6)
        assert isinstance(again.hidden, np.memmap)
        rows = again.rows(["doc-2", "doc-1"])
        assert rows.tolist() == [1, 0]
        assert np.array_equal(again.hidden[rows], hidden[::-1])
        assert again.mask.dtype == np.int8
        assert again.mask[rows].tolist() == [[1, 0, 1, 0, 0, 1], [1, 1, 1, 0, 0, 0]]

    def test_missing_manifest_and_sample(self, tmp_path):
        with pytest.raises(MissingPrecomputed, match="manifest.json"):
            PrecomputedStates.open(tmp_path / "nope")
        store = PrecomputedStates.save(tmp_path / "enc", ["a"], np.zeros((1, 2, 4), np.float32),
                                       np.ones((1, 2)))
        with pytest.raises(MissingPrecomputed, match="'ghost'"):
            store.rows(["a", "ghost"])

    def test_shape_validation(self, tmp_path):
        hidden, mask = np.zeros((2, 3, 4), np.float32), np.ones((2, 3), np.int8)
        for i, (ids, h, m, match) in enumerate([
            (["a", "b"], hidden[0], mask[0], "float32 of shape \\(3, 4\\)"),
            (["a", "b"], hidden, mask[:, :2], "mask shape"),
            (["a", "b"], hidden.astype(np.float64), mask, "got float64"),
            (["a"], hidden, mask, "1 sample ids \\(1 distinct\\) for 2 rows"),
            (["a", "a"], hidden, mask, "2 sample ids \\(1 distinct\\) for 2 rows"),
            (["a", "b"], hidden, mask * 2, "other than 0 and 1"),
        ]):
            rejected_at_save_and_open(tmp_path / str(i), ids, h, m, match)

    def test_row_needs_a_real_token(self, tmp_path):
        mask = np.array([[1, 0, 0], [0, 0, 0]], dtype=np.int8)
        rejected_at_save_and_open(tmp_path, ["a", "b"], np.zeros((2, 3, 4), np.float32),
                                  mask, "row 1 has no real position")

    @pytest.mark.parametrize("text, match", [
        ('{"d_model": 4, "max_len"', "not a JSON manifest"),
        ('{"d_model": 4}', "not a JSON list of sample ids"),
        ('{"d_model": 4, "max_len": 2.5}', "not a JSON list of sample ids"),
        ('{"d_model": 4, "max_len": 2}', "not a JSON list of sample ids"),
        (b"\xff[]", "not a JSON manifest"),
        ('["a", ["b"]]', "not a JSON list of sample ids"),
    ], ids=["not-json", "missing-key", "non-integer", "old-layout", "not-utf8",
            "non-string-id"])
    def test_corrupt_manifest(self, tmp_path, text, match):
        """Old-layout manifests (objects, whole or damaged) are rejected too."""
        PrecomputedStates.save(tmp_path / "enc", ["a"], np.zeros((1, 2, 4), np.float32),
                               np.ones((1, 2)))
        mf = tmp_path / "enc" / "manifest.json"
        mf.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(MissingPrecomputed, match=match) as info:
            PrecomputedStates.open(tmp_path / "enc")
        assert "manifest.json" in str(info.value)

    @pytest.mark.parametrize("name", ["hidden.npy", "mask.npy"])
    @pytest.mark.parametrize("damage", ["missing", "truncated", "not-npy"])
    def test_missing_or_corrupt_array(self, tmp_path, name, damage):
        PrecomputedStates.save(tmp_path / "enc", ["a", "b"], np.zeros((2, 8, 4), np.float32),
                               np.ones((2, 8)))
        path = tmp_path / "enc" / name
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            path.write_bytes(b"0.5 0.5 0.5")
        with pytest.raises(MissingPrecomputed, match=name):
            PrecomputedStates.open(tmp_path / "enc")
