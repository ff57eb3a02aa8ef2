"""The repository benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload separate-full --seed 3 --seconds 36 --trace 0

Workloads: ``separate-full`` (full-scale ``separate`` on 1 s of 16 kHz
audio, at the full cycle count and then at ``--fast``), ``train-toy`` (the
toy overfit through ``trainer.train_toy``, a fixed step count) and
``gradcheck`` (``checks.run_all()``). See README.md for every metric.

With ``--trace 0`` the worker runs a timed plan and the end-to-end metrics
are printed. With ``--trace 1`` the same fixed plan runs twice, untraced
and then traced, and the per-layer metrics of the traced run are printed
with the tracing overhead. Every workload run is a fresh worker process.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record, stamped with the
environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import common

# The whole invocation, set-up and input generation included. A traced run
# makes a fixed count of calls, so its length does not depend on --seconds;
# a timed run measures for --seconds and needs up to MARGIN_S more for input
# generation, set-up trials and the overrun of its last call.
DEADLINE_S = 175
MARGIN_S = 60


def _child(script: str, args: list[str], deadline: float) -> None:
    """Run a benchmark script in a fresh interpreter and wait for it. On
    timeout it is killed and waited for before the error propagates."""
    cmd = [sys.executable, str(common.BENCH_DIR / script), *args]
    subprocess.run(cmd, env=common.worker_env(), cwd=common.ROOT, check=True,
                   stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))


def environment(worker: dict) -> dict:
    """Facts stamped into every record; the worker reports its numpy build."""
    env = {key: worker[key] for key in ("numpy", "blas", "blas_version", "blas_config")}
    env.update(commit=common.commit_id(), source_sha256=common.source_digest(),
               python=platform.python_version(), blas_threads=common.blas_threads(),
               nproc=common.nproc(), machine=platform.machine(),
               load="closed loop, one caller, one worker process per run")
    return env


def _worker(args, plan: str, trace: int, work, deadline: float) -> dict:
    out = work / f"result-{plan}-{trace}.json"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--plan", plan, "--trace", str(trace),
           "--work", str(work), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")]
    _child("worker.py", cmd, deadline)
    return json.loads(out.read_text())


def measure(args, deadline: float) -> dict:
    work = common.WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    common.OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "separate-full":
            _child("inputs.py", ["--seed", str(args.seed), "--dir", str(work)], deadline)
        if not args.trace:
            return {"untraced": _worker(args, "timed", 0, work, deadline)}
        return {"untraced": _worker(args, "fixed", 0, work, deadline),
                "traced": _worker(args, "fixed", 1, work, deadline)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(args, runs: dict) -> tuple[dict, dict]:
    """The result object and the per-workload named metrics."""
    base = runs["untraced"]
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    problems = [f for r in runs.values() for f in r["failures"]]
    named = {}
    for name, unit, better in common.WORKLOAD_METRICS[args.workload]:
        value = failed / attempted if name == "fail_ratio" else base[name]
        named[name] = {"value": value, "unit": unit, "better": better}

    if not args.trace:
        metrics = {name: {"value": base[name], "unit": unit}
                   for name, unit, _ in common.END_TO_END}
    else:
        traced = runs["traced"]
        layers = dict(traced["layers"])
        layers["trace_overhead_ratio"] = traced["plan_wall_s"] / base["plan_wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in common.PER_LAYER}
        if not traced["balance"]["ok"]:
            problems.append(f"self times do not add up to the traced wall time: "
                            f"{traced['balance']}")
        check = traced["mac_check"]
        if args.workload in common.MAC_CROSS_CHECK and (
                check["mismatched"] or not check["separate_calls"]):
            problems.append(f"conv MAC cross-check failed: {check}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, {"workload_metrics": named, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not common.PACKAGE_INIT.is_file():
        print(f"error: no avsep sources at {common.PACKAGE_INIT.parent}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    limit = DEADLINE_S if args.trace else max(DEADLINE_S, args.seconds + MARGIN_S)
    deadline = time.monotonic() + limit
    try:
        runs = measure(args, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result, detail = summarize(args, runs)
    env = environment(runs["untraced"])

    record = {"workload": args.workload, "seed": args.seed, "input_seed":
              common.input_seed(args.seed), "seconds": args.seconds, "trace": args.trace,
              "environment": env, **detail, "result": result, "runs": runs}
    if args.workload == "gradcheck":
        record["inputs"] = "fixed inside checks.run_all(); the seed is recorded only"
    path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed} (inputs {record['input_seed']})  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={env[k]}" for k in
                                    ("commit", "source_sha256", "python", "numpy", "blas",
                                     "blas_version", "blas_threads", "nproc")))
    if not args.trace:
        for name, m in detail["workload_metrics"].items():
            print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for p in detail["problems"]:
        print(f"  FAILED {p}")
    print(f"record {path.relative_to(common.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
