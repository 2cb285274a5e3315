"""Command-line entry points and run configuration."""

import configparser
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import taxseq
from taxseq.cli import ABLATION_VARIANTS, main
from taxseq.config import DEFAULTS, RunConfig
from taxseq.errors import ConfigError

TINY_INI = """\
[encoder]
d_model = 16
layers = 1
heads = 2
max_len = 16
dropout = 0.0

[decoder]
layers = 1
heads = 2
dropout = 0.0

[train]
micro_batch = 8
accumulation_steps = 1
max_epochs = 2
early_stop_patience = 100
"""

# `RunConfig.defaults().to_ini()` before the INI defaults were derived from
# the config dataclasses, less the lines of the keys since removed (see
# REMOVED_KEYS); the derived table must reproduce it byte for byte.
DEFAULTS_INI = """\
[encoder]
d_model = 128
layers = 2
heads = 4
max_len = 128
dropout = 0.1
word_min_count = 1
word_max_size = 50000

[decoder]
layers = 2
heads = 8
ff_dim = 0
dropout = 0.2
label_init =\x20
use_label_init = false

[codec]
ordering = child_to_parent_levelwise
capacity = 0

[loss]
variant = focal_batch
gamma = 2.0
smoothing = 0.1

[train]
lr_encoder = 5e-05
lr_decoder = 0.0003
plateau_patience = 3
plateau_factor = 0.1
improve_eps = 1e-06
encoder_freeze_threshold = 5e-07
early_stop_patience = 10
micro_batch = 32
accumulation_steps = 2
max_epochs = 100
seed = 0

[data]
precomputed_dir =\x20

"""


# INI keys removed once the code fixed or derived their values; a
# resolved.ini written by an older version still carries them.
REMOVED_KEYS = ["encoder.mode", "train.beta1", "train.beta2", "train.adam_eps",
                "train.weight_decay", "train.val_plain_ce"]


def write_store(data_dir, root, d_model, max_len):
    """A precomputed-states store with random states for every sample."""
    import numpy as np

    from taxseq.corpus import load_splits
    from taxseq.encoder import PrecomputedStates

    ids = [s.id for samples in load_splits(data_dir)[1].values() for s in samples]
    hidden = np.random.default_rng(0).standard_normal((len(ids), max_len, d_model))
    mask = np.broadcast_to(np.arange(max_len) < 3, (len(ids), max_len))
    PrecomputedStates.save(root, ids, hidden.astype(np.float32), mask)
    return root


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with no thread-count variables set."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(taxseq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus one tiny trained run, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synth", "--out", str(data), "--depth", "2",
                 "--branching", "2", "--vocab-size", "120",
                 "--docs-per-leaf", "6", "--noise-rate", "0.25",
                 "--signal-strength", "3"]) == 0
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI, encoding="utf-8")
    run = root / "run1"
    assert main(["--seed", "7", "train", "--config", str(ini),
                 "--data", str(data), "--out", str(run),
                 "--set", "train.lr_decoder=1e-3"]) == 0
    return {"root": root, "data": data, "ini": ini, "run": run}


@pytest.fixture(scope="module")
def no_test_data(tmp_path_factory):
    """A synthetic corpus whose test split is empty: too few docs per leaf."""
    data = tmp_path_factory.mktemp("no-test") / "data"
    assert main(["gen-synth", "--out", str(data), "--depth", "2", "--branching", "2",
                 "--docs-per-leaf", "5"]) == 0
    assert (data / "test.jsonl").read_text() == ""
    return data


class TestRunConfig:
    def test_defaults_are_typed(self):
        cfg = RunConfig.defaults()
        assert cfg.get("train", "lr_decoder") == 3e-4
        assert cfg.get("decoder", "heads") == 8
        assert cfg.get("decoder", "use_label_init") is False
        assert cfg.get("codec", "ordering") == "child_to_parent_levelwise"

    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[train]\nmicro_batch = 4\nseed = 5\n", encoding="utf-8")
        cfg = RunConfig.from_file(p)
        assert cfg.get("train", "micro_batch") == 4
        assert cfg.get("train", "seed") == 5
        assert cfg.get("train", "max_epochs") == 100

    def test_config_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_bytes(b"[train]\nmax_epochs = 1 \xff\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}:2: not UTF-8 \(byte 0xff\)"):
            RunConfig.from_file(p)

    def test_unparsable_config_names_the_file(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("max_epochs = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: .*no section headers"):
            RunConfig.from_file(p)

    def test_cli_overrides_beat_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[train]\nmicro_batch = 4\n", encoding="utf-8")
        cfg = RunConfig.from_file(p, ["train.micro_batch=8", "loss.gamma=0"])
        assert cfg.get("train", "micro_batch") == 8
        assert cfg.get("loss", "gamma") == 0.0

    def test_unknown_entries_rejected(self, tmp_path):
        bad_section = tmp_path / "a.ini"
        bad_section.write_text("[nope]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown section"):
            RunConfig.from_file(bad_section)
        bad_key = tmp_path / "b.ini"
        bad_key.write_text("[train]\nlearning = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_file(bad_key)
        with pytest.raises(ConfigError, match="unknown config entry"):
            RunConfig.defaults(["train.nope=1"])

    def test_type_errors_name_the_entry(self):
        with pytest.raises(ConfigError, match=r"\[train\] micro_batch"):
            RunConfig.defaults(["train.micro_batch=lots"])
        with pytest.raises(ConfigError, match="boolean"):
            RunConfig.defaults(["decoder.use_label_init=maybe"])
        with pytest.raises(ConfigError, match="section.key=value"):
            RunConfig.defaults(["micro_batch=8"])

    def test_set_reads_strings_as_ini_text(self):
        cfg = RunConfig.defaults()
        cfg.set("decoder", "use_label_init", "false")
        cfg.set("train", "micro_batch", "8")
        assert cfg.get("decoder", "use_label_init") is False
        assert cfg.build("train").micro_batch == 8
        with pytest.raises(ConfigError, match=r"\[train\] seed: expected int"):
            cfg.set("train", "seed", "x")

    def test_resolved_ini_round_trips(self, tmp_path):
        cfg = RunConfig.defaults(["train.seed=3", "encoder.d_model=32"])
        path = tmp_path / "resolved.ini"
        cfg.write_resolved(path)
        again = RunConfig.from_file(path)
        assert again.values == cfg.values

    def test_defaults_ini_is_unchanged(self):
        assert RunConfig.defaults().to_ini() == DEFAULTS_INI

    def test_defaults_build_the_dataclass_defaults(self):
        from taxseq import DecoderConfig, EncoderConfig, LossConfig, TrainConfig
        cfg = RunConfig.defaults()
        assert cfg.build("encoder") == EncoderConfig()
        assert cfg.build("decoder", vocab_size=0, d_model=128,
                         max_positions=64) == DecoderConfig()
        assert cfg.build("loss") == LossConfig()
        assert cfg.build("train", loss=LossConfig()) == TrainConfig()

    def test_build_errors_name_the_section(self):
        cfg = RunConfig.defaults(["loss.gamma=-1", "train.micro_batch=0"])
        with pytest.raises(ConfigError, match=r"^\[loss\] gamma"):
            cfg.build("loss")
        with pytest.raises(ConfigError, match=r"^\[train\] micro_batch"):
            cfg.build("train")

    def test_defaults_table_covers_every_section(self):
        for section in ("encoder", "decoder", "codec", "loss", "train",
                        "data"):
            assert section in DEFAULTS


class TestTrainCommand:
    def test_run_artifacts(self, workdir):
        run = workdir["run"]
        assert (run / "best" / "manifest.json").exists()
        assert (run / "last" / "manifest.json").exists()
        log_rows = [json.loads(line) for line in
                    (run / "train_log.jsonl").read_text().splitlines()]
        assert len(log_rows) == 2

    def test_resolved_config_records_overrides(self, workdir):
        parser = configparser.ConfigParser()
        parser.read(workdir["run"] / "resolved.ini")
        assert parser["encoder"]["d_model"] == "16"
        assert parser["train"]["lr_decoder"] == "0.001"
        assert parser["train"]["seed"] == "7"

    def test_train_summary_line(self, workdir, tmp_path, capsys):
        out = tmp_path / "run2"
        code = main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(out),
                     "--set", "train.max_epochs=1"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "trained" in stdout and "parameters" in stdout
        assert "best" in stdout and "last" in stdout


    def test_label_init_naming_unknown_label_exits_2(self, workdir, tmp_path, capsys):
        import numpy as np

        from taxseq.decoder import write_label_embeddings

        vectors = tmp_path / "v.bin"
        write_label_embeddings(vectors, 16, {"Zed": np.ones(16)})
        code = main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(tmp_path / "run"),
                     "--set", "decoder.use_label_init=true",
                     "--set", f"decoder.label_init={vectors}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "v.bin" in err
        assert "'Zed' is not in the taxonomy" in err

    @pytest.mark.parametrize("setting, min_count, max_size", [
        ("word_max_size=2", 1, 2), ("word_min_count=100000", 100000, 50000)])
    def test_word_vocabulary_without_words_exits_2(self, workdir, tmp_path, capsys, setting,
                                                   min_count, max_size):
        code = main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(tmp_path / "run"),
                     "--set", f"encoder.{setting}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "[encoder]" in err and "keep no word" in err
        assert f"word_min_count = {min_count}" in err
        assert f"word_max_size = {max_size}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dotted", REMOVED_KEYS)
    def test_removed_key_exits_2(self, workdir, tmp_path, capsys, dotted):
        section, key = dotted.split(".")
        ini = tmp_path / "old.ini"
        ini.write_text(f"[{section}]\n{key} = 0\n", encoding="utf-8")
        for named, args in ((f"unknown config entry '{dotted}'", ["--set", f"{dotted}=0"]),
                            (f"unknown key [{section}] {key}", ["--config", str(ini)])):
            code = main(["train", "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "r"), *args])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error:") and named in err
        assert not (tmp_path / "r").exists()

    def test_store_alone_selects_precomputed_encoder(self, workdir, tmp_path, capsys):
        store = write_store(workdir["data"], tmp_path / "states", d_model=8, max_len=4)
        run = tmp_path / "run"
        assert main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(run),
                     "--set", f"data.precomputed_dir={store}",
                     "--set", "train.max_epochs=1"]) == 0
        manifest = json.loads((run / "best" / "manifest.json").read_text())
        assert "mode" not in manifest["enc_cfg"]
        assert manifest["enc_cfg"]["d_model"] == 8 and manifest["text_vocab"] is None
        capsys.readouterr()
        evaluate = ["evaluate", "--checkpoint", str(run / "best"),
                    "--data", str(workdir["data"]), "--out", str(tmp_path / "report")]
        assert main(evaluate + ["--precomputed", str(store)]) == 0
        assert "micro_f1" in capsys.readouterr().out
        assert main(evaluate) == 2
        assert "needs --precomputed" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, named", [("old-layout", "manifest.json"),
                                              ("missing-sample", "no precomputed states")])
    def test_unusable_store_exits_2(self, workdir, tmp_path, capsys, fault, named):
        """An old-layout store (one ``<id>.bin`` a sample, an object for a
        manifest) and a store that lacks a sample both stop the run before
        it writes anything."""
        store = write_store(workdir["data"], tmp_path / "states", d_model=8, max_len=4)
        manifest = store / "manifest.json"
        if fault == "old-layout":
            manifest.write_text('{"d_model": 8, "max_len": 4}')
        else:
            manifest.write_text(json.dumps(["extra"] + json.loads(manifest.read_text())[1:]))
        code = main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(tmp_path / "run"),
                     "--set", f"data.precomputed_dir={store}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_empty_test_split_is_not_read(self, workdir, no_test_data, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", str(workdir["ini"]), "--data", str(no_test_data),
                     "--out", str(run), "--set", "train.max_epochs=1"]) == 0
        assert (run / "best" / "manifest.json").exists()
        code = main(["train", "--data", str(no_test_data), "--out", str(tmp_path / "r"),
                     "--set", "encoder.heads=3"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: [encoder] d_model 128 not divisible by heads 3")

    @pytest.mark.parametrize("header", [b"{not json", b'{"d_model": 16}'],
                             ids=["not-json", "no-labels"])
    def test_corrupt_label_init_exits_2(self, workdir, tmp_path, capsys, header):
        vectors = tmp_path / "vectors.bin"
        vectors.write_bytes(header + b"\n")
        code = main(["train", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(tmp_path / "run"),
                     "--set", "decoder.use_label_init=true",
                     "--set", f"decoder.label_init={vectors}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "vectors.bin" in err


class TestEvaluateCommand:
    def test_writes_report_and_prints_scores(self, workdir, tmp_path, capsys):
        prefix = tmp_path / "report"
        code = main(["evaluate", "--checkpoint", str(workdir["run"] / "best"),
                     "--data", str(workdir["data"]), "--split", "test",
                     "--out", str(prefix)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "micro_f1" in stdout and "macro_f1" in stdout
        assert prefix.with_suffix(".txt").exists()
        kv = dict(line.split("=", 1) for line in
                  prefix.with_suffix(".kv").read_text().splitlines())
        assert 0.0 <= float(kv["micro_f1"]) <= 1.0

    def test_default_report_lands_in_checkpoint(self, workdir, capsys):
        code = main(["evaluate", "--checkpoint", str(workdir["run"] / "best"),
                     "--data", str(workdir["data"]), "--split", "dev"])
        assert code == 0
        capsys.readouterr()
        assert (workdir["run"] / "best" / "eval_dev.txt").exists()

    def test_report_aggregates_decode_diagnostics(self, tmp_path):
        """A decoder rigged on the text length gives known diagnostic counts
        in the report's extras and in both report files."""
        import numpy as np
        from test_inference import consumed_ids, tiny_bundle

        from taxseq.autodiff import Tensor
        from taxseq.cli import _score_split
        from taxseq.codec import BOS_ID, EOS_ID, SEP_ID
        from taxseq.corpus import Sample
        from taxseq.metrics import write_report

        bundle = tiny_bundle()
        a, b, c, d = (bundle.vocab.id_of(x) for x in "ABCD")
        # text length -> first token; each prefix then has one next token
        first = {1: d, 2: b, 3: a, 4: c, 5: BOS_ID}
        table = {(BOS_ID, d): SEP_ID,                    # {D}: clean
                 (BOS_ID, b): SEP_ID,                    # {B}: not closed
                 (BOS_ID, a): a, (BOS_ID, a, a): SEP_ID,  # {A}: one repeat
                 (BOS_ID, BOS_ID): d}                    # {D}: one unknown id
        table |= {(BOS_ID, c) + (SEP_ID,) * n: SEP_ID    # {C}: SEP to capacity
                  for n in range(bundle.capacity)}

        def rigged(label_ids, label_mask, enc_hidden, enc_mask,
                   rng=None, capture_cross=None, cache=None):
            fresh = cache.length == 0
            rows = consumed_ids(cache, label_ids, label_mask)
            out = np.full((len(rows), 1, bundle.vocab.size), -30.0)
            for i, row in enumerate(rows):
                nxt = (first[int(enc_mask[i].sum())] if fresh
                       else table.get(tuple(int(t) for t in row), EOS_ID))
                out[i, 0, nxt] = 0.0
            return Tensor(out)

        bundle.decoder_logits = rigged
        lengths = [1, 2, 2, 3, 4, 4, 5, 1]
        samples = [Sample(f"s{i}", " ".join(["bat"] * n), {"A", "B"})
                   for i, n in enumerate(lengths)]
        report = _score_split(bundle, samples)
        want = {"decode.hit_capacity_share": 0.25, "decode.repeats_dropped": 1,
                "decode.malformed": 1, "decode.not_closed_share": 0.5}
        assert report.extras == want
        txt, kv = write_report(report, tmp_path / "report")
        lines = txt.read_text().splitlines()
        assert lines[2:6] == ["decode.hit_capacity_share 0.2500",
                              "decode.repeats_dropped 1", "decode.malformed 1",
                              "decode.not_closed_share 0.5000"]
        pairs = dict(line.split("=", 1) for line in kv.read_text().splitlines())
        assert {k: float(pairs[k]) for k in want} == want

    def test_truncated_blob_exits_2(self, workdir, tmp_path, capsys):
        ck = tmp_path / "ck"
        shutil.copytree(workdir["run"] / "best", ck)
        blob = ck / "params" / "dec.out.b.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        code = main(["evaluate", "--checkpoint", str(ck),
                     "--data", str(workdir["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "dec.out.b.bin" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corrupt", [
        lambda m: "{not json",
        lambda m: {k: v for k, v in m.items() if k != "param_shapes"},
        lambda m: {**m, "enc_cfg": {**m["enc_cfg"], "depth": 3}},
        lambda m: {**m, "dec_cfg": {**m["dec_cfg"], "depth": 3}},
        lambda m: {**m, "param_shapes": {
            **m["param_shapes"],
            "dec.l0.ff.w1": m["param_shapes"]["dec.l0.ff.w1"][::-1]}},
    ], ids=["not-json", "missing-key", "unknown-enc-field", "unknown-dec-field",
            "reversed-shape"])
    def test_corrupt_manifest_exits_2(self, workdir, tmp_path, capsys, corrupt):
        ck = tmp_path / "ck"
        shutil.copytree(workdir["run"] / "best", ck)
        mf = ck / "manifest.json"
        bad = corrupt(json.loads(mf.read_text()))
        mf.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        code = main(["evaluate", "--checkpoint", str(ck),
                     "--data", str(workdir["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "manifest.json" in err
        assert "Traceback" not in err

    def test_store_for_trainable_checkpoint_exits_2(self, workdir, tmp_path, capsys):
        store = write_store(workdir["data"], tmp_path / "states", d_model=16, max_len=16)
        code = main(["evaluate", "--checkpoint", str(workdir["run"] / "best"),
                     "--data", str(workdir["data"]), "--precomputed", str(store),
                     "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "trainable" in err
        assert not (tmp_path / "report.txt").exists()

    def test_missing_checkpoint_exits_1(self, workdir, tmp_path, capsys):
        code = main(["evaluate", "--checkpoint", str(tmp_path / "nowhere"),
                     "--data", str(workdir["data"])])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestPredictCommand:
    def test_jsonl_out_with_default_ids(self, workdir, tmp_path):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"id": "q1", "text": "alpha beta"}\n'
                       '{"text": "gamma delta"}\n', encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(inp), "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["q1", "2"]
        for r in rows:
            assert set(r) == {"id", "labels", "levels", "diagnostics"}
            assert r["labels"] == sorted(r["labels"])

    def test_stdout_when_no_out_flag(self, workdir, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"id": "a", "text": "hello"}\n', encoding="utf-8")
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(inp)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert json.loads(stdout.splitlines()[0])["id"] == "a"

    def test_missing_input_exits_1(self, workdir, tmp_path, capsys):
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_json_exits_2(self, workdir, tmp_path, capsys):
        inp = tmp_path / "bad.jsonl"
        inp.write_text("not json\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(inp)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, workdir, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(b"[train]\nmax_epochs = 1 \xff\n")
        code = main(["train", "--config", str(ini), "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {ini}:2: not UTF-8")
        assert "Traceback" not in err

    def test_input_not_utf8_exits_2(self, workdir, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_bytes(b'{"text": "fine"}\n{"text": "bad \xff"}\n')
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(inp)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {inp}:2: not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ['["a list"]', '{"id": "no-text"}', '{"text": null}'],
                             ids=["not-object", "no-text", "null-text"])
    def test_line_without_text_object_exits_2(self, workdir, tmp_path, capsys, line):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"text": "fine"}\n' + line + "\n", encoding="utf-8")
        code = main(["predict", "--checkpoint", str(workdir["run"] / "best"),
                     "--input", str(inp)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"{inp}:2" in err and "'text'" in err
        assert "Traceback" not in err


class TestAblateCommand:
    def test_two_variant_run(self, workdir, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main(["ablate", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(out),
                     "--variants", "no-focal", "--seeds", "0",
                     "--set", "train.max_epochs=1"])
        stdout = capsys.readouterr().out
        assert code == 0
        blob = json.loads((out / "ablation.json").read_text())
        assert [r["variant"] for r in blob["rows"]] == ["base", "no-focal"]
        assert len(blob["cells"]) == 2
        for cell in blob["cells"]:
            assert 0.0 <= cell["micro_f1"] <= 1.0
        table = (out / "ablation.txt").read_text()
        assert table.splitlines()[0].split() == ["experiment", "micro_f1", "macro_f1"]
        assert "w/o focal loss" in table
        assert table == "".join(
            line + "\n" for line in stdout.splitlines() if line)
        assert (out / "no-focal" / "seed0" / "resolved.ini").exists()

    def test_parallel_run_matches_serial(self, workdir, tmp_path, capsys):
        blobs = []
        for parallel in ("1", "2"):
            out = tmp_path / f"abl{parallel}"
            assert main(["ablate", "--config", str(workdir["ini"]),
                         "--data", str(workdir["data"]), "--out", str(out),
                         "--variants", "no-focal", "--seeds", "0",
                         "--parallel", parallel, "--set", "train.max_epochs=1"]) == 0
            blobs.append(json.loads((out / "ablation.json").read_text()))
        capsys.readouterr()
        assert blobs[1]["rows"] == blobs[0]["rows"]
        assert blobs[1]["cells"] == blobs[0]["cells"]

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_parallel_below_one_exits_2(self, workdir, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["ablate", "--data", str(workdir["data"]), "--out", str(tmp_path / "x"),
                  "--parallel", value])
        assert exit_info.value.code == 2
        assert "argument --parallel" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_variant_exits_2(self, workdir, tmp_path, capsys):
        code = main(["ablate", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "x"), "--variants", "bogus"])
        assert code == 2
        assert "unknown ablation variants" in capsys.readouterr().err

    def test_bad_seeds_exit_2(self, workdir, tmp_path, capsys):
        code = main(["ablate", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "x"), "--seeds", "0,x"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "--seeds" in err and "'0,x'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, named", [("--variants", "no-focal,no-focal", "no-focal"),
                                                    ("--seeds", "0,1,0", "0")])
    def test_repeated_variant_or_seed_exits_2(self, workdir, tmp_path, capsys, flag, value,
                                              named):
        code = main(["ablate", "--config", str(workdir["ini"]),
                     "--data", str(workdir["data"]), "--out", str(tmp_path / "x"),
                     flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"{flag} repeats {named};" in err
        assert not (tmp_path / "x").exists()

    def test_empty_test_split_exits_2_naming_it(self, workdir, no_test_data, tmp_path,
                                                capsys):
        code = main(["ablate", "--config", str(workdir["ini"]), "--data", str(no_test_data),
                     "--out", str(tmp_path / "abl"), "--variants", "base", "--seeds", "0",
                     "--set", "train.max_epochs=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"{no_test_data / 'test.jsonl'}: no samples" in err

    def test_variant_config_checked_before_any_cell_trains(self, workdir, tmp_path,
                                                          capsys):
        """The default variants include label-init, which needs a
        ``label_init`` path to a file that reads: without one, or with a
        missing file, the command exits 2 at once, naming the variant, and
        trains no cell."""
        out = tmp_path / "abl"
        missing = tmp_path / "missing.bin"
        for extra, named in (
                ([], "use_label_init requires [decoder] label_init"),
                (["--variants", "no-focal,label-init", "--set", f"decoder.label_init={missing}"],
                 f"[decoder] label_init {missing}: cannot read label vectors")):
            code = main(["ablate", "--config", str(workdir["ini"]),
                         "--data", str(workdir["data"]), "--out", str(out), *extra])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(f"error: variant 'label-init': {named}")
            assert not out.exists()

    def test_variant_table_matches_display_names(self):
        # one table row a variant, each with a distinct name and overrides
        # that set config entries; "base" overrides nothing
        names = [display for display, _ in ABLATION_VARIANTS.values()]
        assert all(names) and len(set(names)) == len(names)
        assert ABLATION_VARIANTS["base"][1] == []
        for _, overrides in ABLATION_VARIANTS.values():
            RunConfig.defaults(overrides)

    def test_rows_hold_median_over_seeds(self, tmp_path, monkeypatch, capsys):
        import taxseq.cli as cli
        f1 = {0: 0.25, 1: 0.75}
        monkeypatch.setattr(cli, "_ablate_one", lambda job: {
            "variant": job[3], "seed": job[4], "micro_f1": f1[job[4]],
            "macro_f1": 2 * f1[job[4]], "best_val": 0.0, "epochs": 1})
        out = tmp_path / "abl"
        assert main(["ablate", "--data", str(tmp_path), "--out", str(out),
                     "--variants", "no-focal", "--seeds", "0,1"]) == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert [(r["micro_f1"], r["macro_f1"]) for r in rows] == [(0.5, 1.0)] * 2
        assert "    0.5000    1.0000" in capsys.readouterr().out


class TestStatsAndGlobals:
    def test_stats_table(self, workdir, capsys):
        code = main(["stats", "--data", str(workdir["data"])])
        stdout = capsys.readouterr().out
        assert code == 0
        assert stdout.splitlines()[0].startswith("labels 6  depth 2")
        for split in ("train", "dev", "test"):
            assert any(line.startswith(split) for line in stdout.splitlines())

    def test_deterministic_pins_threads(self, workdir, monkeypatch, capsys):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert main(["--deterministic", "stats",
                     "--data", str(workdir["data"])]) == 0
        capsys.readouterr()
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["NUMEXPR_NUM_THREADS"] == "1"

    def test_threads_flag_overrides(self, workdir, monkeypatch, capsys):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["--threads", "2", "stats",
                     "--data", str(workdir["data"])]) == 0
        capsys.readouterr()
        assert os.environ["OMP_NUM_THREADS"] == "2"

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_threads_below_one_exit_2(self, workdir, monkeypatch, capsys, value):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with pytest.raises(SystemExit) as exit_info:
            main(["--threads", value, "stats", "--data", str(workdir["data"])])
        assert exit_info.value.code == 2
        assert "argument --threads" in capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("threads", ["4", "2"])
    def test_deterministic_with_other_thread_count_exits_2(self, workdir, monkeypatch,
                                                           capsys, threads):
        """``--deterministic`` runs one thread, so another ``--threads`` count
        is refused, naming both flags, before any thread pool is pinned;
        ``--threads 1`` agrees with it."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # restored after the test
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        with pytest.raises(SystemExit) as exit_info:
            main(["--deterministic", "--threads", threads, "stats",
                  "--data", str(workdir["data"])])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "--deterministic" in err and f"--threads {threads}" in err
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert main(["--deterministic", "--threads", "1", "stats",
                     "--data", str(workdir["data"])]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_cli_import_loads_no_numpy(self):
        out = run_python("import sys, taxseq.cli\nprint('numpy' in sys.modules)")
        assert out == "False"

    def test_every_exported_name_resolves(self):
        for name in taxseq.__all__:
            assert getattr(taxseq, name) is not None, name
        for info in pkgutil.iter_modules(taxseq.__path__):
            module = importlib.import_module(f"taxseq.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"taxseq.{info.name}.{name}"

    def test_threads_flag_is_set_before_numpy_loads(self, workdir):
        script = f"""
import os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Watch())
from taxseq.cli import main
code = main(["--threads", "3", "stats", "--data", {str(workdir["data"])!r}])
print(code, seen)
"""
        out = run_python(script)
        assert out.splitlines()[-1] == "0 ['3']"

    def test_unknown_ordering_exits_2(self, workdir, tmp_path, capsys):
        code = main(["train", "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "r"), "--set", "codec.ordering=bogus"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'bogus'" in err
        assert "child_to_parent_levelwise" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("override, named", [
        ("decoder.layers=0", "[decoder] layers must be >= 1"),
        ("encoder.mode=bogus", "unknown config entry 'encoder.mode'"),
        ("encoder.heads=3", "[encoder] d_model 128 not divisible by heads 3"),
        ("codec.capacity=-1", "[codec] capacity must be >= 0"),
        ("decoder.heads=0", "[decoder] d_model 128 not divisible by heads 0"),
        ("train.max_epochs=0", "[train] max_epochs must be >= 1, got 0"),
        ("encoder.d_model=0", "[encoder] d_model must be >= 1, got 0"),
        ("encoder.dropout=1.5", "[encoder] dropout must be in [0, 1), got 1.5"),
        ("decoder.dropout=-0.1", "[decoder] dropout must be in [0, 1), got -0.1"),
        ("decoder.ff_dim=-5", "[decoder] ff_dim must be >= 0, got -5"),
        ("train.plateau_factor=-1", "[train] plateau_factor must be in (0, 1], got -1.0"),
        ("train.improve_eps=-1e-6", "[train] improve_eps must be >= 0, got -1e-06"),
        ("train.encoder_freeze_threshold=-1",
         "[train] encoder_freeze_threshold must be >= 0, got -1.0"),
        ("decoder.use_label_init=true", "use_label_init requires [decoder] label_init"),
        ("decoder.use_label_init=true decoder.label_init=missing.bin",
         "[decoder] label_init missing.bin: cannot read label vectors"),
    ], ids=["decoder-layers", "encoder-mode", "encoder-heads", "codec-capacity",
            "decoder-heads", "train-max-epochs", "encoder-d-model", "encoder-dropout",
            "decoder-dropout", "decoder-ff-dim", "train-plateau-factor",
            "train-improve-eps", "train-encoder-freeze-threshold", "use-label-init",
            "label-init-missing"])
    def test_bad_setting_exits_2_naming_it(self, workdir, tmp_path, capsys, monkeypatch,
                                           override, named):
        monkeypatch.chdir(tmp_path)  # where a relative path names no file
        code = main(["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "r"),
                     *(a for o in override.split() for a in ("--set", o))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {named}")
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_missing_split_exits_2_naming_it(self, workdir, tmp_path, capsys, split):
        data = tmp_path / "data"
        shutil.copytree(workdir["data"], data)
        (data / f"{split}.jsonl").unlink()
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {data}: missing {split}.jsonl")
        assert not (tmp_path / "r").exists()

    def test_bad_override_exits_2(self, workdir, tmp_path, capsys):
        code = main(["train", "--data", str(workdir["data"]),
                     "--out", str(tmp_path / "r"), "--set", "nonsense"])
        assert code == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_gen_synth_summary(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "d"), "--depth", "2",
                     "--branching", "2", "--vocab-size", "100",
                     "--docs-per-leaf", "5", "--noise-rate", "0.2",
                     "--signal-strength", "2"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "labels" in stdout and "train=" in stdout

    def test_gen_synth_bad_depth_exits_2(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "d"), "--depth", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "depth" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_gen_synth_vocab_size_zero_exits_2(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "d"), "--vocab-size", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "vocab_size" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()
