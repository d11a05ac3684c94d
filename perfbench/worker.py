"""One workload round in a fresh interpreter: set up, run, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is `setup` (import and input generation only), `round` (one untraced
round) or `trace` (one round with every layer boundary traced; its spans go
to perfbench/out/trace-NAME-seedN.spans).  The last line of standard output
is a JSON object.  An operation that raises counts as failed and as a
failed check, so an exception never stands in for a checked output.  Each
round runs in its own interpreter, so the package's module-level caches start
cold, as they do for a user of the `aldbraid` command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    """Import `aldbraid` from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import aldbraid

    if not os.path.abspath(aldbraid.__file__).startswith(SRC + os.sep):
        raise ImportError(f"aldbraid imported from {aldbraid.__file__}, not from {SRC}")


def run_round(workload, ops) -> dict:
    outs, op_ms = [], []
    failed = 0
    clock = time.perf_counter
    started = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.call()
        except Exception as err:  # a failed operation is counted, not fatal
            out = err
            failed += op.weight
        op_ms.append((clock() - t0) * 1000.0)
        outs.append(out)
    run_s = clock() - started
    return {"run_s": run_s, "op_ms": op_ms, "outs": outs, "failed": failed}


def check_outputs(workload, ops, outs) -> list[str]:
    """The workload's output checks, plus one error per operation that raised."""
    errors = [
        f"{op.kind} operation raised {type(out).__name__}: {out}"
        for op, out in zip(ops, outs)
        if isinstance(out, Exception)
    ]
    kept = [(op, out) for op, out in zip(ops, outs) if not isinstance(out, Exception)]
    return errors + workload.check([op for op, _ in kept], [out for _, out in kept])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round", "trace"), required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_package()
    import reference
    import workloads

    workload = workloads.build(args.workload, args.seed, reference.load())
    ops = workload.ops()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.Tracer(extra_modules=(workloads,))
        tracer.install()
    try:
        measured = run_round(workload, ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # the high-water mark before the checks, which are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outs = measured["outs"]
    errors = check_outputs(workload, ops, outs)
    result.update(
        {
            "run_s": measured["run_s"],
            "op_ms": measured["op_ms"],
            "op_weight": [op.weight for op in ops],
            "attempted": sum(op.weight for op in ops),
            "failed": measured["failed"],
            "decided": sum(
                workload.definite(op, out)
                for op, out in zip(ops, outs)
                if not isinstance(out, Exception)
            ),
            "errors": errors[:20],
            "correct": not errors,
            "peak_rss_mb": peak_rss_mb,
        }
    )
    if tracer is not None:
        summary = tracer.summary()
        result["spans"] = tracer.span_count()
        result["per_layer"] = tracer.layer_metrics(summary)
        result["self_s"] = {
            name: row["self_s"]
            for name, row in sorted(summary["by_name"].items(), key=lambda kv: -kv[1]["self_s"])
        }
        tracer.dump(layertrace.out_path(args.workload, args.seed, "spans"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
