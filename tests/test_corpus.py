"""Corpus IO, the synthetic generator, and raw-dataset adapters."""

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

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(depth=1)
        with pytest.raises(ConfigError):
            SynthConfig(branching=1)
        with pytest.raises(ConfigError):
            SynthConfig(noise_rate=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(signal_strength=0)


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
    ], ids=["text-null", "labels-string", "token-string", "token-int", "label-nested"])
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
