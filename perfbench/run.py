"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The lines before the last are a readable report: the machine, the inputs,
every metric under its workload-specific name, and the output checks. The
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``. Full results and
the spans of a traced run are also written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import env  # first: pins the thread pools before numpy loads

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCHMARK_JSON = env.ROOT / "BENCHMARK.json"


def run(workload: str, seed: int, seconds: float, trace: bool, preset_name: str) -> dict:
    import data
    import hostspeed
    from tracing import Tracer, span_cost_s
    from workloads import WORKLOADS

    preset = data.PRESETS[preset_name]
    models = data.ensure_models(preset_name)
    workdir = env.BUILD / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if trace else None
    work = WORKLOADS[workload](preset, seed, models, workdir, tracer)
    # Half the set-ups run before the measured phase, the other half after
    # the result is computed, so that their median spans the whole run and
    # not one moment of the host's speed drift. Each is scaled by the host
    # speed reference timed just before and just after it.
    before = (preset.setup_reps + 1) // 2
    setup_s, raw_setup_s = [], []

    def set_up(rep: int) -> None:
        gc.collect()  # each set-up starts from the same heap state
        ref = hostspeed.reference()
        start = time.perf_counter()
        work.setup(workdir / f"setup{rep}")
        raw_setup_s.append(time.perf_counter() - start)
        ref = (ref + hostspeed.reference()) / 2
        setup_s.append(hostspeed.scaled(raw_setup_s[-1], ref))

    try:
        for rep in range(before):
            if tracer is not None and rep == before - 1:
                tracer.install()  # trace the last set-up and the measured phase
            set_up(rep)
        gc.collect()
        start = time.perf_counter()
        work.measure(seconds)
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        work.epilogue()
        e2e = work.finish()
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rep in range(before, preset.setup_reps):
            set_up(rep)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e["setup_s"] = statistics.median(setup_s)
    ops = work.ops
    fail_share = ops.failed / max(ops.attempted, 1)
    work.note("setup_s", e2e["setup_s"], "s")
    work.note("raw.setup_s", statistics.median(raw_setup_s), "s")
    work.note("setup_reps", len(setup_s), "count")
    work.note("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    work.note("fail_share", fail_share, "share")
    work.note("measured_s", main_s, "s")
    layers = {}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["fail_share"] = fail_share
        layers["trace.main_s"] = main_s
        layers["trace.overhead_share"] = len(tracer.spans) * span_cost_s() / main_s
        work.note("trace.spans", len(tracer.spans), "count")
    return {"work": work, "e2e": e2e, "layers": layers, "tracer": tracer,
            "setup_samples": setup_s, "raw_setup_samples": raw_setup_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="least time the measured phase of an inference workload runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the self-test")
    args = ap.parse_args(argv)

    try:
        env.use_checkout_sources()
    except env.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.preset)
    work = out["work"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = out["layers"] if args.trace else out["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    correct = all(work.checks.values())
    result = {"correct": correct, "attempted": work.ops.attempted,
              "failed": work.ops.failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "preset": args.preset, "machine": env.machine(),
              "checks": work.checks, "errors": work.ops.errors[:20],
              "report": {k: v for k, (v, _) in work.report.items()},
              "setup_s_samples": out["setup_samples"],
              "raw_setup_s_samples": out["raw_setup_samples"],
              "greedy_s_samples": work.greedy_s, "beam4_s_samples": work.beam_s,
              "raw_greedy_s_samples": work.greedy_raw_s,
              "raw_beam4_s_samples": work.beam_raw_s, "ref_s_samples": work.ref_s,
              "end_to_end": out["e2e"], "per_layer": out["layers"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.preset}"
    results = env.BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if out["tracer"] is not None:
        out["tracer"].write(results / f"{stem}-spans.json")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"preset={args.preset}")
    print("machine " + json.dumps(record["machine"]))
    for key, (value, unit) in work.report.items():
        print(f"  {key} {value:.6g} {unit}")
    for m in wanted:
        if m["name"] not in work.report:
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print("checks " + json.dumps(work.checks))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
