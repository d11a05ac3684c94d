"""
Command-line workbench tying the library together.

Subcommands:

    decide-ald T1 T2     decide ALD-equivalence (exit 0 equal, 1 not, 2 unknown)
    decide-ld  T1 T2     decide/compare LD-equivalence of *-terms
    order-ald  T1 T2     compare one-variable terms in the ALD order
    normalize  T         print the special form and its rewriting trace
    eval       T GAMMA   evaluate a term at a word (recursive/closed/diagram)
    verify-relations     audit the defining and derived relations
    freeness-scan        enumerate terms, partition into ALD-classes, and
                         check the evaluations separate exactly the classes

Flags: --json for machine-readable reports; --budget SIZE,STEPS on the two
decision commands.  Usage errors exit 64.  Term and word grammars are those
of the library.  The CLI adds no logic of its own: every verdict is
reproducible from library calls.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key

from .braids import braid_key
from .diagrams import diagram_eval_term, word_eq_oracle, word_to_diagram
from .invariants import (
    ald_class_key,
    decide_ald,
    derive_special,
    inv_I,
    inv_J,
    order_ald,
    specialize,
)
from .ldoracle import Verdict, decide_ld_1var, decide_ld_bounded
from .pbwords import (
    MAX_WORD_LETTERS,
    audit_derived_identities,
    check_word_length,
    parse_pb,
    pb_eval_closed,
    pb_eval_term,
    pb_term_length,
    relation_instances,
    render_pb,
)
from .terms import (
    MAX_DEPTH,
    Term,
    circ_cmp,
    enumerate_terms,
    is_one_variable,
    is_special,
    iter_left_subterms,
    parse_term,
    render_term,
    seq_sq,
)

EX_EQUAL = 0
EX_DIFFERENT = 1
EX_UNKNOWN = 2
EX_USAGE = 64

DEFAULT_GAMMAS = ("", "s1", "a1", "s1 a2")

#: Largest term size a freeness scan accepts.  Size 10 has 2^9·C9 = 2,489,344
#: terms, projected at about 8 GiB and 3 minutes per word: a one-word scan
#: grew 7.0-fold in memory and 7.5-fold in time from size 8 to size 9 (26 s,
#: 1.2 GiB on 2 cores); size 11 has 2^10·C10 = 17,199,104, about seven
#: times as many.
MAX_SCAN_SIZE = 10

#: Most z-samples a relation audit accepts: each costs about 2.5 KiB of peak
#: memory, and 100,000 took 9.2 s and 252 MiB on 2 cores.
MAX_Z_SAMPLES = 100_000


@dataclass
class ExperimentConfig:
    max_term_size: int = 5
    gamma_samples: tuple = tuple(parse_pb(g) for g in DEFAULT_GAMMAS)
    seed: int = 0
    z_sample_count: int = 20
    relation_index_cap: int = 5

    def __post_init__(self):
        if not 1 <= self.max_term_size <= MAX_SCAN_SIZE:
            raise ValueError(f"max_term_size must be between 1 and {MAX_SCAN_SIZE}")
        # one relation needs two indices, and the audit always uses two fixed
        # z-samples; the shift relations at index i use the letter i + 1, and
        # the diagram of letter k has a comb of k + 2 leaves
        if not 2 <= self.relation_index_cap <= MAX_DEPTH - 3:
            raise ValueError(f"relation_index_cap must be between 2 and {MAX_DEPTH - 3}")
        if not 2 <= self.z_sample_count <= MAX_Z_SAMPLES:
            raise ValueError(f"z_sample_count must be between 2 and {MAX_Z_SAMPLES}")
        # a scan with no sample word checks nothing and would report ok
        if not self.gamma_samples:
            raise ValueError("gamma_samples must name at least one word")


# ---------------------------------------------------------------------------
# Experiments


def ald_partition(terms) -> dict:
    """Group terms by their ALD-class key, each class in order of appearance;
    one memo dict serves every term, so each distinct J entry is keyed once."""
    keys: dict = {}
    classes: dict = {}
    for t in terms:
        classes.setdefault(ald_class_key(t, keys), []).append(t)
    return classes


def _equality_labels(terms, diagrams) -> dict:
    """Map each term to the first term whose reduced diagram equals its own:
    two labels agree exactly when `diagram_equal` holds, since reduced
    diagrams are equal iff their trees are and their braids have the same
    key.  The scan passes evaluations of the reduced `word_to_diagram`
    output, which `diagram_eval_term` keeps reduced, so nothing is reduced
    here.  Evaluations often share their braid word (the trivial word most
    of all, and b∘c often has the braid of b·sh(c)), so each distinct word
    is keyed once per call."""
    keys: dict = {}  # braid word -> braid_key
    first: dict = {}
    labels: dict = {}
    for t, d in zip(terms, diagrams):
        key = keys.get(d.braid)
        if key is None:
            key = keys[d.braid] = braid_key(d.braid)
        labels[t] = first.setdefault((d.dom, d.cod, key), t)
    return labels


def _critical_pairs(specials) -> int:
    """Ordered special-form pairs (u[s], v[t]) with u below v in rank, or the
    same skeleton and s ⃗⊏ t: the pairs each sample word checks.  The rank
    fixes the length of s and t, so s ⃗⊏ t says that s has the prefix
    t[:k] + (w,) for some entry k and some w ⊏ t_k, and the pair has exactly
    one such k and w.  The count of each (rank, prefix) is taken once, and
    each t looks up one count per iterated left subterm of its entries, in
    place of a `seq_sq` test on every pair of a rank group."""
    prefixes = Counter((r, seq[: k + 1]) for _, r, seq in specials for k in range(len(seq)))
    ordered = sum(
        prefixes.get((r, seq[:k] + (w,)), 0)
        for _, r, seq in specials
        for k, entry in enumerate(seq)
        for w in iter_left_subterms(entry)
    )
    same_rank = sum(n * n for n in Counter(r for _, r, _ in specials).values())
    return (len(specials) ** 2 - same_rank) // 2 + ordered


def freeness_scan(config: ExperimentConfig) -> dict:
    """Partition terms into ALD-classes and test that evaluation into the
    diagram model is constant on classes and injective across them, plus the
    critical special-form pairs that must evaluate apart.

    Collisions and critical failures need equal labels, so each word looks
    for them only among the terms that share a label, and reports them in
    the order of a double loop over all pairs."""
    terms = list(enumerate_terms(1, "*o", config.max_term_size))
    classes = list(ald_partition(terms).values())
    reps = [members[0] for members in classes]
    report = {
        "max_term_size": config.max_term_size,
        "gammas": [render_pb(g) for g in config.gamma_samples],
        "term_count": len(terms),
        "class_count": len(classes),
        "constant_failures": [],
        "separation_collisions": [],
        "critical_pairs_checked": 0,
        "critical_failures": [],
    }

    def failure(word: str, **at) -> dict:
        return {"gamma": word, **{key: render_term(t) for key, t in at.items()}}

    # critical pairs: special forms u[s] vs v[t] with u < v, or u = v and
    # s strictly below t entrywise, must evaluate apart; skeletons compare by rank
    specials = [(t, inv_I(t), inv_J(t)) for t in terms if is_special(t)]
    skeletons = sorted({u for _, u, _ in specials}, key=cmp_to_key(circ_cmp))
    rank = {u: r for r, u in enumerate(skeletons)}
    specials = [(t, rank[u], seq) for t, u, seq in specials]
    report["critical_pairs_checked"] = _critical_pairs(specials) * len(config.gamma_samples)
    for gamma in config.gamma_samples:
        word = render_pb(gamma)
        gamma_d, cache = word_to_diagram(gamma), {}
        label = _equality_labels(terms, [diagram_eval_term(t, gamma_d, cache) for t in terms])
        for rep, *rest in classes:
            for other in rest:
                if label[other] != label[rep]:
                    report["constant_failures"].append(failure(word, term=other, representative=rep))
        reps_with: dict = {}  # label -> class representatives in order
        for left in reps:
            reps_with.setdefault(label[left], []).append(left)
        for left in reps:
            group = reps_with[label[left]]
            for right in group[group.index(left) + 1 :]:
                report["separation_collisions"].append(failure(word, left=left, right=right))
        specials_with: dict = {}  # label -> special forms in order
        for special in specials:
            specials_with.setdefault(label[special[0]], []).append(special)
        for s, ru, sv in specials:
            for t, rv, tv in specials_with[label[s]]:
                if ru < rv or (ru == rv and seq_sq(sv, tv)):
                    report["critical_failures"].append(failure(word, left=s, right=t))
    report["ok"] = not (
        report["constant_failures"]
        or report["separation_collisions"]
        or report["critical_failures"]
    )
    return report


def relation_audit(config: ExperimentConfig) -> dict:
    """Check the defining relations in the diagram model and the derived
    word identities with sampled substitutions."""
    rng = random.Random(config.seed)
    letters = [("s", 1), ("s", -1), ("s", 2), ("s", -2), ("a", 1), ("a", -1), ("a", 2), ("a", -2)]
    zs = [(), (("s", 1),)] + [
        tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        for _ in range(config.z_sample_count - 2)
    ]
    defining = []
    for rel in relation_instances(config.relation_index_cap):
        defining.append(
            {
                "family": rel.family,
                "i": rel.i,
                "j": rel.j,
                "lhs": render_pb(rel.lhs),
                "rhs": render_pb(rel.rhs),
                "holds": word_eq_oracle(rel.lhs, rel.rhs),
            }
        )
    derived = audit_derived_identities(word_eq_oracle, zs)
    return {
        "defining": defining,
        "derived": derived,
        "ok": all(r["holds"] for r in defining) and all(r["holds"] for r in derived),
    }


# ---------------------------------------------------------------------------
# Subcommands


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _budget(text: str) -> tuple[int, int]:
    try:
        size_cap, step_cap = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be SIZE,STEPS, got {text!r}") from None
    if size_cap < 1:
        raise argparse.ArgumentTypeError(f"budget SIZE must be >= 1, got {text!r}")
    if step_cap < 1:
        raise argparse.ArgumentTypeError(f"budget STEPS must be >= 1, got {text!r}")
    return size_cap, step_cap


def _render(t: Term) -> str:
    """render_term, refusing a term with more leaves than a word may have letters."""
    if t.size > MAX_WORD_LETTERS:
        raise ValueError(f"a term of {t.size} leaves is too large to print")
    return render_term(t)


def cmd_decide_ald(args) -> int:
    t1, t2 = parse_term(args.left), parse_term(args.right)
    verdict = decide_ald(t1, t2, *args.budget)
    payload = {
        "verdict": verdict.kind,
        "i_left": _render(inv_I(t1)),
        "i_right": _render(inv_I(t2)),
        "j_left": [_render(e) for e in inv_J(t1)],
        "j_right": [_render(e) for e in inv_J(t2)],
    }
    if verdict is Verdict.UNKNOWN:
        payload["reason"] = "LD oracle budget exhausted on a multi-variable entry pair"
    _emit(
        args,
        payload,
        [
            verdict.kind,
            f"I: {payload['i_left']} vs {payload['i_right']}",
            f"J: {payload['j_left']} vs {payload['j_right']}",
        ],
    )
    return {"equal": EX_EQUAL, "not-equal": EX_DIFFERENT, "unknown": EX_UNKNOWN}[verdict.kind]


def cmd_decide_ld(args) -> int:
    t1, t2 = parse_term(args.left), parse_term(args.right)
    if is_one_variable(t1) and is_one_variable(t2):
        sign = decide_ld_1var(t1, t2)
        kind = {0: "equal", -1: "less", 1: "greater"}[sign]
    else:
        kind = decide_ld_bounded(t1, t2, *args.budget).kind
    _emit(args, {"verdict": kind}, [kind])
    return {"equal": EX_EQUAL, "unknown": EX_UNKNOWN}.get(kind, EX_DIFFERENT)


def cmd_order_ald(args) -> int:
    t1, t2 = parse_term(args.left), parse_term(args.right)
    sign = order_ald(t1, t2)
    kind = {0: "equal", -1: "less", 1: "greater"}[sign]
    _emit(args, {"order": kind}, [kind])
    return EX_EQUAL


def cmd_normalize(args) -> int:
    t = parse_term(args.term)
    special = specialize(t)
    trace = derive_special(t)
    payload = {
        "input": render_term(t),
        "special": _render(special),
        "trace": [
            {"law": s.law, "pos": "".join(s.pos), "direction": s.direction} for s in trace
        ],
    }
    lines = [f"special: {payload['special']}"] + [
        f"  {s['law']} {s['direction']} @ {s['pos'] or 'root'}" for s in payload["trace"]
    ]
    _emit(args, payload, lines)
    return EX_EQUAL


def cmd_eval(args) -> int:
    t = parse_term(args.term)
    gamma = parse_pb(args.gamma)
    # refused before anything is built: a term whose word would be too long (the
    # closed form's is as long as the special form's); `_cable` caps the diagram braid
    closed = args.mode == "closed-form"
    check_word_length(pb_term_length(specialize(t) if closed else t, len(gamma)))
    if args.mode == "diagram":
        d = diagram_eval_term(t, word_to_diagram(gamma))
        _emit(args, d.to_json(), [json.dumps(d.to_json())])
        return EX_EQUAL
    word = pb_eval_closed(inv_I(t), inv_J(t), gamma) if closed else pb_eval_term(t, gamma)
    _emit(args, {"word": render_pb(word)}, [render_pb(word)])
    return EX_EQUAL


def cmd_verify_relations(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        z_sample_count=args.samples,
        relation_index_cap=args.max_index,
    )
    report = relation_audit(config)
    lines = []
    for row in report["defining"]:
        lines.append(
            f"{'pass' if row['holds'] else 'FAIL'}  {row['family']}(i={row['i']}, j={row['j']}): "
            f"{row['lhs']} = {row['rhs']}"
        )
    for row in report["derived"]:
        z = f" [z = {row['z']}]" if row["z"] is not None else ""
        lines.append(f"{'pass' if row['holds'] else 'FAIL'}  {row['identity']}{z}")
    lines.append("ok" if report["ok"] else "FAILED")
    _emit(args, report, lines)
    return EX_EQUAL if report["ok"] else EX_DIFFERENT


def cmd_freeness_scan(args) -> int:
    gammas = tuple(parse_pb(g) for g in (args.gamma or DEFAULT_GAMMAS))
    config = ExperimentConfig(max_term_size=args.max_size, gamma_samples=gammas)
    report = freeness_scan(config)
    lines = [
        f"terms: {report['term_count']}  classes: {report['class_count']}",
        f"constant on classes: {'yes' if not report['constant_failures'] else 'NO'}",
        f"separates classes: {'yes' if not report['separation_collisions'] else 'NO'}",
        f"critical pairs apart: {report['critical_pairs_checked']} checked, "
        f"{'all pass' if not report['critical_failures'] else 'FAILURES'}",
        "ok" if report["ok"] else "FAILED",
    ]
    _emit(args, report, lines)
    return EX_EQUAL if report["ok"] else EX_DIFFERENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aldbraid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("decide-ald", help="decide ALD-equivalence of two terms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--budget", type=_budget, default=(), help="SIZE,STEPS caps for the bounded LD oracle"
    )
    common(p)
    p.set_defaults(run=cmd_decide_ald)

    p = sub.add_parser("decide-ld", help="decide LD-equivalence of two *-terms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--budget", type=_budget, default=(), help="SIZE,STEPS caps for the bounded closure"
    )
    common(p)
    p.set_defaults(run=cmd_decide_ld)

    p = sub.add_parser("order-ald", help="compare one-variable terms in the ALD order")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(run=cmd_order_ald)

    p = sub.add_parser("normalize", help="special form plus its rewriting trace")
    p.add_argument("term")
    common(p)
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("eval", help="evaluate a one-variable term at a word")
    p.add_argument("term")
    p.add_argument("gamma")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--recursive", dest="mode", action="store_const", const="recursive", default="recursive"
    )
    mode.add_argument("--closed-form", dest="mode", action="store_const", const="closed-form")
    mode.add_argument("--diagram", dest="mode", action="store_const", const="diagram")
    common(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("verify-relations", help="audit defining and derived relations")
    p.add_argument("--max-index", type=int, default=5)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=cmd_verify_relations)

    p = sub.add_parser("freeness-scan", help="class-by-class separation experiment")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--gamma", action="append", help="evaluation word (repeatable)")
    common(p)
    p.set_defaults(run=cmd_freeness_scan)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exit_:
        # argparse exits 2 on a usage error, and 2 is the "unknown" verdict here
        return EX_USAGE if exit_.code == 2 else exit_.code
    except ValueError as err:  # a ParseError too
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except RecursionError:
        # derived terms far deeper than MAX_DEPTH: the LD closure's rewriting
        # positions, and trees nested to the left by a long run of regrouping
        # letters, such as `eval --diagram` builds from its word
        print("error: a term derived from the input is nested too deeply", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
