"""Corpus IO, the synthetic generator, and raw-dataset adapters."""

import hashlib
import json
import logging

import numpy as np
import pytest

from taxseq.corpus import (Sample, SynthConfig, adapt_dataset,
                           generate_synthetic, load_jsonl, load_splits,
                           write_jsonl)
from taxseq.errors import (ConfigError, EmptyCorpus, MalformedLine,
                           MissingRawData, NotClosureConsistent, UnknownLabel)
from taxseq.taxonomy import load_hierarchy


def write_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")


class TestLoadJsonl:
    def test_round_trip(self, tmp_path, tiny_tree):
        samples = [Sample("s0", "hello", {"A", "B"}),
                   Sample("s1", "bye", {"A", "C"})]
        path = tmp_path / "x.jsonl"
        write_jsonl(path, samples)
        got = load_jsonl(path, tiny_tree)
        assert [(s.id, s.text, s.labels) for s in got] == [
            ("s0", "hello", {"A", "B"}), ("s1", "bye", {"A", "C"})]

    def test_auto_closes_with_warning(self, tmp_path, tiny_tree, caplog):
        path = tmp_path / "x.jsonl"
        write_lines(path, [{"id": "s0", "text": "t", "labels": ["D"]}])
        with caplog.at_level(logging.WARNING):
            got = load_jsonl(path, tiny_tree)
        assert got[0].labels == {"A", "B", "D"}
        assert any("auto-closed" in r.message for r in caplog.records)

    def test_strict_rejects_open_sets(self, tmp_path, tiny_tree):
        path = tmp_path / "x.jsonl"
        write_lines(path, [{"id": "s0", "text": "t", "labels": ["D"]}])
        with pytest.raises(NotClosureConsistent, match=":1"):
            load_jsonl(path, tiny_tree, strict=True)

    def test_unknown_label_always_fatal(self, tmp_path, tiny_tree):
        path = tmp_path / "x.jsonl"
        write_lines(path, [{"id": "s0", "text": "t", "labels": ["Q"]}])
        with pytest.raises(UnknownLabel):
            load_jsonl(path, tiny_tree)

    def test_malformed_lines(self, tmp_path, tiny_tree):
        path = tmp_path / "x.jsonl"
        path.write_text('{"id": "s0"\n', encoding="utf-8")
        with pytest.raises(MalformedLine, match=":1"):
            load_jsonl(path, tiny_tree)
        write_lines(path, [{"id": "s0", "text": "t"}])
        with pytest.raises(MalformedLine, match="id/text/labels"):
            load_jsonl(path, tiny_tree)
        write_lines(path, [{"id": "s0", "text": "t", "labels": []}])
        with pytest.raises(MalformedLine, match="empty label set"):
            load_jsonl(path, tiny_tree)

    @pytest.mark.parametrize("row, message", [
        ({"id": "s0", "text": "t", "labels": "AB"}, "'labels' must be a list"),
        ({"id": "s0", "text": "t", "labels": 5}, "'labels' must be a list"),
        ({"id": "s0", "text": None, "labels": ["A"]}, "'text' must be a string"),
    ], ids=["labels-string", "labels-int", "text-null"])
    def test_field_types_checked(self, tmp_path, tiny_tree, row, message):
        path = tmp_path / "x.jsonl"
        write_lines(path, [{"id": "ok", "text": "t", "labels": ["A"]}, row])
        with pytest.raises(MalformedLine, match=f"x.jsonl:2: {message}"):
            load_jsonl(path, tiny_tree)

    def test_bytes_not_utf8_are_malformed(self, tmp_path, tiny_tree):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"id": "s0", "text": "caf\xc3\xa9", "labels": ["A"]}\n'
                         b'{"id": "s1", "text": "caf\xe9", "labels": ["A"]}\n')
        with pytest.raises(MalformedLine, match=r"x.jsonl:2: not UTF-8 \(byte 0xe9 at column 26\)"):
            load_jsonl(path, tiny_tree)

    def test_blank_lines_skipped_and_empty_fatal(self, tmp_path, tiny_tree):
        path = tmp_path / "x.jsonl"
        path.write_text(
            '\n{"id": "s0", "text": "t", "labels": ["A"]}\n\n', encoding="utf-8")
        assert len(load_jsonl(path, tiny_tree)) == 1
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyCorpus):
            load_jsonl(path, tiny_tree)


class TestSyntheticGenerator:
    CFG = dict(depth=2, branching=3, vocab_size=300, docs_per_leaf=20,
               noise_rate=0.25, signal_strength=3, seed=11)

    def test_layout_and_sizes(self, tmp_path):
        res = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "d")
        assert res.n_labels == 3 + 9 and res.n_leaves == 9
        assert res.split_sizes == {"train": 9 * 14, "dev": 9 * 3, "test": 9 * 3}
        h, splits = load_splits(res.out_dir)
        assert len(h) == 12
        assert {s.id for split in splits.values() for s in split} == {
            f"s{i}" for i in range(9 * 20)}

    def test_byte_identical_reruns(self, tmp_path):
        a = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "a")
        b = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "b")
        for name in ("taxonomy.tsv", "train.jsonl", "dev.jsonl", "test.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        c = generate_synthetic(SynthConfig(**{**self.CFG, "seed": 12}),
                               tmp_path / "c")
        assert (tmp_path / "a" / "train.jsonl").read_bytes() != \
               (tmp_path / "c" / "train.jsonl").read_bytes()

    def test_stratified_split_per_leaf(self, tmp_path):
        res = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "d")
        h, splits = load_splits(res.out_dir)
        for leaf in (lb for lb in h.labels if not h.children[lb]):
            counts = {name: sum(leaf in s.labels for s in split)
                      for name, split in splits.items()}
            assert counts == {"train": 14, "dev": 3, "test": 3}

    def test_labels_are_leaf_closures(self, tmp_path):
        res = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "d")
        h, splits = load_splits(res.out_dir)
        for split in splits.values():
            for s in split:
                leaves = h.leaf_labels(s.labels)
                assert len(leaves) == 1
                assert s.labels == h.closure(leaves)

    def test_signal_words_match_label_chain(self, tmp_path):
        res = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "d")
        h, splits = load_splits(res.out_dir)
        for s in splits["train"][:40]:
            words = s.text.split()
            signal = [w for w in words if w.startswith("w_")]
            noise = [w for w in words if w.startswith("nz")]
            assert len(signal) + len(noise) == len(words)
            assert len(signal) == 3 * len(s.labels)  # signal_strength per level
            owners = {"_".join(w.split("_")[1:-1]) for w in signal}
            assert owners == s.labels
            # noise ≈ rate/(1-rate) of the signal count
            assert len(noise) == round(len(signal) * 0.25 / 0.75)

    def test_word_pools_disjoint_per_label(self, tmp_path):
        res = generate_synthetic(SynthConfig(**self.CFG), tmp_path / "d")
        h, splits = load_splits(res.out_dir)
        seen: dict[str, str] = {}
        for split in splits.values():
            for s in split:
                for w in s.text.split():
                    if not w.startswith("w_"):
                        continue
                    owner = "_".join(w.split("_")[1:-1])
                    assert seen.setdefault(w, owner) == owner

    # sha256 of taxonomy.tsv, train.jsonl, dev.jsonl and test.jsonl, recorded
    # from the generator that drew each word with its own ``rng.integers``
    # call; the output for a given config and seed must never change.
    GOLDEN = {
        "desk": (dict(depth=3, branching=4, vocab_size=2000, docs_per_leaf=94,
                      noise_rate=0.3, signal_strength=4, seed=0), (
            "c9c3052c6191e60894f9feafc23cefaa874b17a83655fc5ff90ace0e90f9a446",
            "1492b221abb092b16787f7ea93ac5c7e3a1126f3f6415717cc425781b077c80a",
            "5ad208dc819e05c4025b1afa63c33a1b70dc1e51b8793bb4c108272fe8abf286",
            "ab45e78ab3ee1b3211312ebdced57499a5d158c29ab62f31640ea4ebf9bdafcc")),
        "deep": (dict(depth=5, branching=2, vocab_size=800, docs_per_leaf=40,
                      noise_rate=0.3, signal_strength=3, seed=1), (
            "26b94509200838dd18f62b3df83933ac3e55a869a73a4146c7c7ba39e46c04d8",
            "06ca3ce58d3b609468e7ef1454c346175e2a58e9a29d1dca2819179c1e69db2d",
            "1004d11811b70440d3abf6ac2047bedf064100ee75bf158dee4453d63314df12",
            "10c1f2520f93f72df3f387c8fe7dd7d3e49f4f4851a89429cb65b1b374bce500")),
        "no-noise": (dict(depth=2, branching=3, vocab_size=300, docs_per_leaf=20,
                          noise_rate=0.0, signal_strength=3, seed=11), (
            "1626cb1b474a96ff413a80249b96e747038d7394cbc42fd940167f2173909a34",
            "722daae310683ce03bc6764e99c4d60ebbfb6effdf6ab180a305c28f2b68b899",
            "ab1ae86f656ef24db8726727725641c238722d2a33560d693ec6a1bcc131a28c",
            "321396f0d8403ba3c1504bf2a8e1677c3dd855daca6bc910dd7ac63a73004000")),
        # 12 labels share 10 words: every label pool and the noise pool hold one
        "one-word-pools": (dict(depth=2, branching=3, vocab_size=10, docs_per_leaf=20,
                                noise_rate=0.25, signal_strength=3, seed=5), (
            "1626cb1b474a96ff413a80249b96e747038d7394cbc42fd940167f2173909a34",
            "c5ac90d25022ac7d5fe2f2b1c767eec1e1ffaf90bd7e3cc108f47fe864b7b206",
            "84fe000e3b94ae149afa2b545b7f81570b5121f397f1ea1519b23fd2dfcd4039",
            "b3f7016f0333f837053136a950b936c232b4a4ebce1fb092969c40e0b97bc406")),
        "high-noise": (dict(depth=2, branching=2, vocab_size=200, docs_per_leaf=30,
                            noise_rate=0.9, signal_strength=2, seed=3), (
            "5b0168c793e2107dec4bc5e9b9e3d30428e7d15f3cf845bfd7779d5023498e1c",
            "3fd018dac7abe52a0f4e667dee1c99164f3cdca7352472f257829950df04d6d5",
            "8745b3203b8e7bf62a978a299431ee46e89915096b95de9e80c1bc825b38646c",
            "f71074213ebb1fe3afcc0587fdba89a9d456847629ffb6c2070ed907849f7ddb")),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_bytes_match_recorded_digests(self, tmp_path, name):
        cfg, digests = self.GOLDEN[name]
        generate_synthetic(SynthConfig(**cfg), tmp_path / name)
        files = ("taxonomy.tsv", "train.jsonl", "dev.jsonl", "test.jsonl")
        got = tuple(hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
                    for f in files)
        assert dict(zip(files, got)) == dict(zip(files, digests))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(depth=1)
        with pytest.raises(ConfigError):
            SynthConfig(branching=1)
        with pytest.raises(ConfigError):
            SynthConfig(noise_rate=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(signal_strength=0)
        with pytest.raises(ConfigError, match="vocab_size"):
            SynthConfig(vocab_size=0)


class TestAdapters:
    def rows(self, labels):
        return [{"token": ["alpha", "beta"], "label": labels}]

    def make_raw(self, raw, fmt="wos"):
        raw.mkdir()
        (raw / f"{fmt}.taxonomy").write_text(
            "Root\tCS\tMed\nCS\tSymbolic-computation\nMed\tCancer\n",
            encoding="utf-8")
        write_lines(raw / f"{fmt}_train.json",
                    self.rows(["CS", "Symbolic-computation"]) * 3)
        write_lines(raw / f"{fmt}_val.json", self.rows(["Med", "Cancer"]))
        write_lines(raw / f"{fmt}_test.json", self.rows(["Cancer"]))

    def test_missing_files_named_explicitly(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        with pytest.raises(MissingRawData) as err:
            adapt_dataset("wos", raw, tmp_path / "out")
        msg = str(err.value)
        assert "wos.taxonomy" in msg and "wos_train.json" in msg
        with pytest.raises(MissingRawData, match="unknown format"):
            adapt_dataset("reuters", raw, tmp_path / "out")

    def test_convert_and_stats(self, tmp_path):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        stats = adapt_dataset("wos", raw, tmp_path / "out")
        h, splits = load_splits(tmp_path / "out")
        assert len(h) == 4 and h.max_depth == 2
        assert len(splits["train"]) == 3
        assert splits["test"][0].labels == {"Med", "Cancer"}  # auto-closed
        assert stats["train"].avg_labels == pytest.approx(2.0)
        assert stats["train"].n_samples == 3

    def test_adapted_output_loads_strict(self, tmp_path):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        adapt_dataset("wos", raw, tmp_path / "out")
        h, splits = load_splits(tmp_path / "out", strict=True)
        assert all(s.labels == h.closure(s.labels)
                   for split in splits.values() for s in split)

    def test_non_object_line_is_malformed(self, tmp_path):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        with (raw / "wos_train.json").open("a", encoding="utf-8") as fh:
            fh.write("5\n")
        with pytest.raises(MalformedLine, match="wos_train.json:4: expected a JSON object"):
            adapt_dataset("wos", raw, tmp_path / "out")

    @pytest.mark.parametrize("line, message", [
        ({"text": None, "labels": ["CS"]}, "'text' must be a string"),
        ({"text": "alpha beta", "labels": "CS"}, "'labels' must be a list of label names"),
        ({"token": "alpha beta", "label": ["CS"]}, "'token' must be a list of strings"),
        ({"token": ["alpha", 3], "label": ["CS"]}, "'token' must be a list of strings"),
        ({"token": ["alpha"], "label": [["CS"]]}, "'label' must be a list of label names"),
        ({"text": "alpha beta", "label": ["CS"]}, "expected token/label or text/labels keys"),
    ], ids=["text-null", "labels-string", "token-string", "token-int", "label-nested",
            "no-key-pair"])
    def test_field_types_checked(self, tmp_path, line, message):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        with (raw / "wos_val.json").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        with pytest.raises(MalformedLine, match=f"wos_val.json:2: {message}"):
            adapt_dataset("wos", raw, tmp_path / "out")

    def test_raw_taxonomy_malformed(self, tmp_path):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        (raw / "wos.taxonomy").write_text("CS\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="no children"):
            adapt_dataset("wos", raw, tmp_path / "out")

    def test_raw_taxonomy_not_utf8(self, tmp_path):
        raw = tmp_path / "raw"
        self.make_raw(raw)
        (raw / "wos.taxonomy").write_bytes(b"Root\tCS\tMed\nCS\tSymbolic\xff\n")
        with pytest.raises(MalformedLine, match="wos.taxonomy:2: not UTF-8"):
            adapt_dataset("wos", raw, tmp_path / "out")

    def test_load_splits_requires_some_split(self, tmp_path, tiny_tree):
        from taxseq.taxonomy import save_hierarchy
        save_hierarchy(tiny_tree, tmp_path / "taxonomy.tsv")
        with pytest.raises(EmptyCorpus):
            load_splits(tmp_path)
