"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that every workload, untraced
and traced, prints as its last line a result with exactly the metrics
BENCHMARK.json names, each with its unit; that each workload loads the
layers it was chosen for; and that the benchmark refuses to run in a
directory without the program. Takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestFailure(Exception):
    pass


def expect(condition, detail) -> None:
    if not condition:
        raise SelfTestFailure(str(detail))


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec))
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "a name is used twice")
    expect(all(NAME.fullmatch(n) for n in names), names)
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200, w)
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, m)
        expect(0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower"), m)
        expect(UNIT.fullmatch(m["unit"]), m)
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, m)
        expect(m["better"] in ("higher", "lower") and UNIT.fullmatch(m["unit"]), m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s must be an end-to-end metric in s, lower is better")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must have the largest bound")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--preset", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> dict:
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    expect(result["correct"] is True, proc.stdout[-2000:])
    expect(result["attempted"] >= 1 and result["failed"] == 0, result)
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in wanted],
           (workload, trace, sorted(result["metrics"])))
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], (m, got))
        expect(isinstance(got["value"], float), (m, got))
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_without_program() -> None:
    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "train-desk", 0)
        expect(proc.returncode != 0, "ran without the program")
        expect('"metrics"' not in proc.stdout, "printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    layers = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            values = check_result(spec, w["name"], trace)
            if trace:
                layers[w["name"]] = values
            print(f"ok {w['name']} trace={trace}")
    # Each workload loads the layers it was chosen for.
    train, predict, serve = layers["train-desk"], layers["predict-desk"], layers["serve-deep"]
    expect(train["autodiff.backward_s"] > 0 and train["trainer.adamw_s"] > 0,
           "train-desk runs backward and AdamW")
    expect(predict["autodiff.backward_s"] == 0 and serve["autodiff.backward_s"] == 0,
           "the inference workloads run no backward")
    expect(train["decoder.useful_ratio"] == 1.0, "train-desk decodes teacher-forced only")
    expect(serve["decoder.useful_ratio"] < predict["decoder.useful_ratio"] < 1.0,
           "serve-deep wastes more decoder positions than predict-desk")
    expect(serve["inference.beam_self_s"] > 0 and predict["inference.greedy_self_s"] > 0,
           "serve-deep runs beam search, predict-desk the greedy loop")
    print("ok layers")
    check_without_program()
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
