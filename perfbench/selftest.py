"""Show that every output check of the benchmark fires on a corrupted result.

    python3 perfbench/selftest.py

For each workload the uncorrupted outputs must pass their check, and each
corruption below (a flipped verdict, a dropped relation row, a wrong count,
an operation that raises) must make the check report an error.  `decide` and
`words` run one real round on the inputs of seed `SEED` for their outputs;
`freeness` corrupts reports built from the reference figures, since its
check reads only the reports.  Exits 1 if a corruption goes unnoticed or the
clean outputs fail.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: the inputs every case below is taken from; each corruption has a target
#: operation in them
SEED = 1


def freeness_cases():
    import reference
    import workloads
    from aldbraid.pbwords import render_pb

    wl = workloads.build("freeness", SEED, reference.load())
    ref = wl.reference
    ops = wl.ops()
    clean = [
        {
            "gammas": [render_pb(g) for g in config.gamma_samples],
            "term_count": workloads.one_variable_term_count(workloads.FREENESS_MAX_SIZE),
            "class_count": ref["class_count"],
            "critical_pairs_checked": ref["critical_pairs_per_gamma"],
            "constant_failures": [],
            "separation_collisions": [],
            "critical_failures": [],
            "ok": True,
        }
        for config in wl.configs
    ]

    def corrupt(**changes):
        reports = list(clean)
        reports[-1] = dict(reports[-1], **changes)
        return ops, reports

    yield "clean", wl, ops, clean, False
    yield "term count off by one", wl, *corrupt(term_count=clean[0]["term_count"] - 1), True
    yield "one class lost", wl, *corrupt(class_count=ref["class_count"] - 1), True
    yield "critical pairs skipped", wl, *corrupt(critical_pairs_checked=0), True
    for key in ("constant_failures", "separation_collisions", "critical_failures"):
        yield f"{key} reported", wl, *corrupt(**{key: [{"gamma": ""}]}), True
    yield "vacuous ok=False", wl, *corrupt(ok=False), True
    yield "two sample words in one scan", wl, *corrupt(gammas=["1", "s1"]), True
    yield "one scan missing", wl, ops[:-1], clean[:-1], True


def _first(ops, outs, pred):
    for i, (op, out) in enumerate(zip(ops, outs)):
        if pred(op, out):
            return i
    raise LookupError("no operation to corrupt")


def decide_cases():
    import workloads
    from aldbraid.invariants import inv_I
    from aldbraid.terms import rightmost_variable, size, variables
    from worker import run_round

    wl = workloads.build("decide", SEED, {})
    ops = wl.ops()
    outs = run_round(wl, ops)["outs"]
    yield "clean", wl, ops, outs, False
    small = workloads.CROSS_MODEL_MAX_SIZE

    def flipped(pred, new):
        i = _first(ops, outs, pred)
        bad = list(outs)
        bad[i] = new(bad[i])
        return ops, bad

    def one_var(op):
        return variables(op.data["s"]) == {1} and variables(op.data["t"]) == {1}

    def is_small(op):
        return size(op.data["s"]) <= small and size(op.data["t"]) <= small

    def filters_differ(op):
        s, t = op.data["s"], op.data["t"]
        return variables(s) != variables(t) or rightmost_variable(s) != rightmost_variable(t)

    yield "one-variable walk told apart", wl, *flipped(
        lambda op, out: op.kind == "walk" and one_var(op) and not is_small(op), lambda _: "not-equal"
    ), True
    yield "one-variable walk left unknown", wl, *flipped(
        lambda op, out: op.kind == "walk" and one_var(op), lambda _: "unknown"
    ), True
    yield "multi-variable walk told apart", wl, *flipped(
        lambda op, out: op.kind == "walk" and not one_var(op) and not is_small(op), lambda _: "not-equal"
    ), True
    yield "big LD-expansion told apart", wl, *flipped(
        lambda op, out: op.kind == "big", lambda _: "not-equal"
    ), True
    yield "filter difference not seen", wl, *flipped(
        lambda op, out: filters_differ(op) and not is_small(op), lambda _: "unknown"
    ), True
    yield "iterated left subterm called equal", wl, *flipped(
        lambda op, out: op.kind == "sq" and not is_small(op), lambda _: "equal"
    ), True
    yield "small one-variable pair called equal", wl, *flipped(
        lambda op, out: op.kind == "skel" and is_small(op) and out == "not-equal"
        and inv_I(op.data["s"]) == inv_I(op.data["t"]),
        lambda _: "equal",
    ), True
    yield "small perturbed pair flipped", wl, *flipped(
        lambda op, out: op.kind == "perturb" and one_var(op) and is_small(op),
        lambda out: "not-equal" if out == "equal" else "equal",
    ), True
    yield "verdict garbled", wl, *flipped(lambda op, out: True, lambda _: "maybe"), True
    yield "walk pair raised", wl, *flipped(
        lambda op, out: op.kind == "walk", lambda _: RecursionError("raised")
    ), True


def words_cases():
    import workloads
    from worker import run_round

    wl = workloads.build("words", SEED, {})
    ops = wl.ops()
    outs = run_round(wl, ops)["outs"]
    yield "clean", wl, ops, outs, False

    def flipped(kind, new):
        i = _first(ops, outs, lambda op, out: op.kind == kind)
        bad = list(outs)
        bad[i] = new(copy.deepcopy(bad[i]))
        return ops, bad

    def drop(section):
        def edit(report):
            report[section].pop()
            return report

        return edit

    def fail_row(report):
        report["defining"][0]["holds"] = False
        return report

    def not_ok(report):
        report["ok"] = False
        return report

    yield "formula check flipped", wl, *flipped("formula", lambda _: False), True
    yield "intertwine check flipped", wl, *flipped("intertwine", lambda _: False), True
    yield "negative control called equal", wl, *flipped("negative", lambda _: True), True
    yield "defining relation row dropped", wl, *flipped("audit", drop("defining")), True
    yield "derived identity row dropped", wl, *flipped("audit", drop("derived")), True
    yield "relation row failing", wl, *flipped("audit", fail_row), True
    yield "audit not ok", wl, *flipped("audit", not_ok), True
    yield "relation audit raised", wl, *flipped("audit", lambda _: ValueError("raised")), True


def main() -> int:
    from worker import check_outputs, import_package

    import_package()
    bad = 0
    for cases in (freeness_cases, decide_cases, words_cases):
        for label, wl, ops, outs, should_fail in cases():
            errors = check_outputs(wl, ops, outs)
            fired = bool(errors)
            good = fired == should_fail
            bad += not good
            state = "fires" if fired else "passes"
            print(f"{'ok  ' if good else 'BAD '} {wl.name:9s} {label:40s} check {state}"
                  + (f": {errors[0][:80]}" if fired else ""))
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
