"""stablecount benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, starts a fresh interpreter
that sends them one at a time to ``stablecount.cli.run`` (a closed loop
with one client) for S seconds, then checks every answer against the
benchmark's own reference.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs the same ops twice, untraced for S/2
seconds and then traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
``failed`` counts ops that failed the checks; a refusal that the checks
confirm (the input is over the program's counting cap) is tallied as
``refused`` and counted in ``fail_share``, but is not a failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6  # before the client and again after it, so host drift averages out
CLIENT_TIMEOUT_S = 150
DEEP_CHECKS = 2  # ops whose refusal is re-derived from a rotation poset (about 0.5 s each)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_samples(root: Path, count: int) -> list[float]:
    """Times from starting a fresh interpreter until ``import
    stablecount.cli`` returns, after one unmeasured start that writes the
    bytecode cache."""
    code = "import time, stablecount.cli; print(time.perf_counter())"
    samples = []
    for _ in range(count + 1):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        done = subprocess.run(
            [sys.executable, "-c", code], env=_env(root), cwd=root,
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout) - t0)
    return samples[1:]


def run_client(root: Path, work: Path, ops_path: Path, seconds: float,
               limit: int, spans_path: Path | None) -> tuple[list[dict], dict]:
    results = work / ("traced.jsonl" if spans_path else "plain.jsonl")
    argv = [sys.executable, str(HERE / "client.py"), str(ops_path), str(results),
            str(seconds), str(limit)]
    if spans_path:
        argv.append(str(spans_path))
    subprocess.run(argv, env=_env(root), cwd=root, check=True, timeout=CLIENT_TIMEOUT_S)
    with open(results, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return records[:-1], records[-1]


def tail(times: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten ops beyond it
    (nearest rank): (value, percentile, ops beyond).  With ten ops or
    fewer there is none, and the maximum is returned as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # ceil
    return ordered[rank - 1], pct, n - rank


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stablecount" / "cli.py").is_file():
        print("perfbench: run from the root of a stablecount checkout "
              "(src/stablecount/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import inputs  # needs stablecount on the path

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, root, work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path, inputs) -> int:
    workload, seed, seconds = args.workload, args.seed, args.seconds
    ops = inputs.generate(workload, seed, inputs.pool_size(workload, seconds), work / "in")
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps(ops))

    print(f"perfbench {workload}: seed {seed}, {seconds:g} s, trace {args.trace}, "
          f"{inputs.WORKLOADS[workload].params}")
    if args.trace:
        plain, _ = run_client(root, work, ops_path, seconds / 2, 0, None)
        spans_path = work / "spans.jsonl"
        records, summary = run_client(root, work, ops_path, math.inf, len(plain), spans_path)
        if not plain or len(records) != len(plain):
            print("perfbench: traced replay did not run every op", file=sys.stderr)
            return 1
    else:
        setup = setup_samples(root, SETUP_SAMPLES)
        records, summary = run_client(root, work, ops_path, seconds, 0, None)
        setup += setup_samples(root, SETUP_SAMPLES)
    if not records:
        print("perfbench: no op finished", file=sys.stderr)
        return 1

    env = dict(summary["env"], commit=git_commit(root), seed=seed)
    print("env " + json.dumps(env))
    if summary["inputs_exhausted"] and not args.trace:
        print(f"note: all {len(records)} inputs used before {seconds:g} s were up")

    attempted = len(records)
    deep = set(random.Random(f"deep:{seed}").sample(range(attempted), min(DEEP_CHECKS, attempted)))
    tallies = dict.fromkeys(inputs.FAILURE_KINDS, 0)
    for index, rec in enumerate(records):
        kind = inputs.check(workload, ops[index], rec["cmds"], seed, index, index in deep)
        if kind:
            tallies[kind] += 1
    not_ok = sum(tallies.values())
    failed = not_ok - sum(tallies[k] for k in inputs.DECLINED_KINDS)
    print(f"ops {attempted} attempted, {not_ok} not answered ({failed} failed checks): "
          + ", ".join(f"{k} {v}" for k, v in tallies.items()))

    times = [sum(rec["durations"]) for rec in records]
    if args.trace:
        import spans

        plain_p50 = statistics.median(sum(r["durations"]) for r in plain)
        metrics = spans.layer_metrics(str(spans_path), attempted)
        metrics["trace.overhead"] = statistics.median(times) / plain_p50
        metrics["fail_share"] = not_ok / attempted
        traces = HERE / "_traces"
        traces.mkdir(exist_ok=True)
        shutil.copyfile(spans_path, traces / f"{workload}.spans.jsonl")
    else:
        tail_s, pct, beyond = tail(times)
        metrics = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "ops_per_s": attempted / sum(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        print(f"op_tail_s is p{pct}: {beyond} of {attempted} ops beyond it")
        print(f"fail_share {not_ok / attempted:.4f} fraction")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    correct = tallies["wrong"] == 0 and tallies["crash"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
