"""The aldbraid benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {freeness,decide,words} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a checkout with the standard library only; the package
is imported from the checkout's `src/`.  Every round of the workload runs in
its own interpreter (perfbench/worker.py), so module-level caches start cold
in each round.  With `--trace 0` rounds repeat until S seconds have passed
(at least MIN_ROUNDS of the workload); every round runs the same operations,
and `run_s` and `op_p50_ms` take each operation's median time over the
rounds.
Set-up is measured in every round plus extra set-up-only interpreters until
there are SETUP_SAMPLES samples, and reported as their median.  With
`--trace 1` untraced and traced rounds alternate for S seconds (at least one
pair); the last traced round gives the per-layer metrics, and its spans are
written under perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("freeness", "decide", "words")
SETUP_SAMPLES = 7
#: a `freeness` round takes 20-40 s, so two rounds already take longer than
#: a run; the others have at least three rounds to take medians over
MIN_ROUNDS = {"freeness": 2, "decide": 3, "words": 3}
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    # a fixed hash seed keeps set and dict layouts, and so the timings, the
    # same from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=HERE
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{mode} worker timed out after {err.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict]:
    rounds = []
    min_rounds = MIN_ROUNDS[args.workload]
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < args.seconds:
        rounds.append(worker(args.workload, args.seed, "round"))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args.workload, args.seed, "setup")["setup_s"])
    errors = [e for r in rounds for e in r["errors"]]
    # every round runs the same operations in the same order; each one's
    # median time over the rounds leaves out the rounds that the machine
    # slowed down or sped up most
    weights = rounds[0]["op_weight"]
    if any(r["op_weight"] != weights for r in rounds):
        errors.append("rounds ran different operations")
    op_ms = [statistics.median(times) for times in zip(*(r["op_ms"] for r in rounds))]
    single_ms = [ms for ms, weight in zip(op_ms, weights) if weight == 1]
    decided = {r["decided"] for r in rounds}
    if len(decided) != 1:
        errors.append(f"decided differs between rounds: {sorted(decided)}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(sum(op_ms) / 1000.0, "s"),
        "op_p50_ms": metric(statistics.median(single_ms), "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
        "decided": metric(min(decided), "count"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_s": f"{len(op_ms)} operations, median of {len(rounds)} rounds",
        "op_p50_ms": f"{len(single_ms)} operations, median of {len(rounds)} rounds",
        "peak_rss_mb": f"median of {len(rounds)} rounds",
        "decided": f"the same in all {len(rounds)} rounds",
    }
    summary = {
        "correct": all(r["correct"] for r in rounds) and not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
    }
    return summary, {"metrics": metrics, "samples": samples}


def traced(args) -> tuple[dict, dict]:
    import layertrace

    # untraced and traced rounds alternate, so that both sides of the
    # overhead see the machine at the same times; the last traced round's
    # spans and per-layer metrics are the ones kept
    plain, traced_rounds = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < args.seconds:
        plain.append(worker(args.workload, args.seed, "round"))
        traced_rounds.append(worker(args.workload, args.seed, "trace"))
    tr = traced_rounds[-1]
    metrics = {name: metric(value, layertrace.metric_unit(name)) for name, value in tr["per_layer"].items()}
    untraced_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced_rounds)
    metrics["trace.overhead"] = metric(traced_s / untraced_s, "ratio")
    with open(layertrace.out_path(args.workload, args.seed, "json"), "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "round_pairs": len(plain),
                "untraced_run_s": untraced_s,
                "traced_run_s": traced_s,
                "spans": tr["spans"],
                "traced_peak_rss_mb": tr["peak_rss_mb"],
                "per_layer": tr["per_layer"],
                "self_s": tr["self_s"],
            },
            fh,
            indent=1,
        )
    rounds = plain + traced_rounds
    errors = [e for r in rounds for e in r["errors"]]
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
    }
    samples = {"trace.overhead": f"medians of {len(plain)} round pairs"}
    return summary, {"metrics": metrics, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aldbraid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        # the first interpreter compiles the package's bytecode; not measured
        worker(args.workload, args.seed, "setup")
        summary, detail = (traced if args.trace else end_to_end)(args)
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for name, m in detail["metrics"].items():
        n = detail["samples"].get(name)
        suffix = f"  ({n})" if n is not None else ""
        print(f"{args.workload:9s} {name:34s} {m['value']:14.6g} {m['unit']}{suffix}")
    for err in summary["errors"]:
        print(f"check failed: {err}")
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": detail["metrics"],
            }
        )
    )
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
