"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built from a seed (`build`), exposes its operations as
zero-argument callables grouped in one round (`ops`), and checks the outputs
of a round against computations or properties independent of the code under
test (`check`).  Importing this module imports `aldbraid`, so the import cost
is part of the measured set-up time.

Only names that the package's modules export without a leading underscore
are called here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from aldbraid.cli import ExperimentConfig, freeness_scan, relation_audit
from aldbraid.diagrams import diagram_equal, diagram_eval_term, word_eq_oracle, word_to_diagram
from aldbraid.invariants import decide_ald, specialize
from aldbraid.ldoracle import decide_ld_1var
from aldbraid.pbwords import (
    check_shift_intertwine,
    parse_pb,
    pb_eval_closed,
    pb_eval_term,
)
from aldbraid.terms import (
    CIRC,
    EXPAND,
    LD,
    STAR,
    Compound,
    LawInstance,
    Variable,
    apply_law,
    decompose_special,
    enumerate_terms,
    law_instances,
    parse_term,
    random_term,
    render_term,
    rightmost_variable,
    size,
    substitute,
    variables,
)

X = Variable(1)
EQUAL, NOT_EQUAL, UNKNOWN = "equal", "not-equal", "unknown"

#: Sample words of the size-6 freeness scan (the scan's defaults).
FREENESS_MAX_SIZE = 6
#: Criterion 8's evaluation words and term size.
FORMULA_GAMMAS = ("", "s1", "a1", "s1 a2")
FORMULA_MAX_SIZE = 5
#: Terms up to this size take part in the cross-model check of `decide`.
CROSS_MODEL_MAX_SIZE = 7
#: The relation audit of `words` covers indices up to this cap.
AUDIT_INDEX_CAP = 5
AUDIT_Z_SAMPLES = 20


@dataclass
class Op:
    """One timed operation and what its check needs to know about it."""

    kind: str
    call: object  # zero-argument callable
    data: dict = field(default_factory=dict)
    weight: int = 1  # operations it stands for in `attempted`


# ---------------------------------------------------------------------------
# Term helpers of the benchmark's own (independent of the code under test)


def left_comb(n: int):
    """((x*x)*x)*...*x with n leaves; its braid evaluation has 2^n - 1 letters."""
    t = X
    for _ in range(n - 1):
        t = Compound(STAR, t, X)
    return t


def project(t):
    """The x_i -> x projection, an ALD-homomorphism onto one-variable terms."""
    if isinstance(t, Variable):
        return X
    return Compound(t.op, project(t.left), project(t.right))


def random_star_term(rng, n: int, n_vars: int = 1):
    return random_term(rng, n, n_vars=n_vars, ops=(STAR,))


def walk(rng, t, steps: int, max_size: int):
    """A seeded rewriting walk: `steps` law steps, each keeping size <= max_size."""
    for _ in range(steps):
        insts = list(law_instances(t))
        rng.shuffle(insts)
        for inst in insts:
            nxt = apply_law(t, inst)
            if size(nxt) <= max_size:
                t = nxt
                break
    return t


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def one_variable_term_count(max_size: int) -> int:
    """Binary trees with s leaves times 2^(s-1) operator choices, summed."""
    return sum(catalan(s - 1) * 2 ** (s - 1) for s in range(1, max_size + 1))


# ---------------------------------------------------------------------------
# freeness


class Freeness:
    """`freeness_scan` on all one-variable terms of size <= 6, four sample words.

    One operation is the scan with one of the four default sample words, so a
    round is the CLI's `freeness-scan --max-size 6` split at its per-word loop;
    each call also enumerates and partitions the terms again (about 0.5 s of
    a 22 s round here).  Split so, a round has four timed operations of
    4-7 s instead of one of 20-40 s, and `op_p50_ms` is a median over them.
    The scan is exhaustive, so the seed changes nothing here.
    """

    name = "freeness"

    def __init__(self, seed: int, reference: dict):
        self.reference = reference
        scan = ExperimentConfig(max_term_size=FREENESS_MAX_SIZE)
        self.configs = [replace(scan, gamma_samples=(g,)) for g in scan.gamma_samples]

    def ops(self) -> list[Op]:
        return [Op("scan", lambda c=c: freeness_scan(c)) for c in self.configs]

    @staticmethod
    def definite(op: Op, out) -> int:
        return 1 if isinstance(out, dict) and "ok" in out else 0

    def check(self, ops: list[Op], outs: list) -> list[str]:
        errors = []
        if len(outs) != len(self.configs):
            errors.append(f"{len(outs)} scan reports, want {len(self.configs)}")
        ref = self.reference
        if ref["max_term_size"] != FREENESS_MAX_SIZE:
            errors.append(f"reference figures are for size {ref['max_term_size']}")
        want_terms = one_variable_term_count(FREENESS_MAX_SIZE)
        for report in outs:
            where = f"scan at {report['gammas']}"
            if len(report["gammas"]) != 1:
                errors.append(f"{where}: one sample word per scan expected")
            if report["term_count"] != want_terms:
                errors.append(f"{where}: term_count {report['term_count']} != {want_terms}")
            for key in ("constant_failures", "separation_collisions", "critical_failures"):
                if report[key]:
                    errors.append(f"{where}: {key} not empty: {report[key][:3]}")
            if report["ok"] is not True:
                errors.append(f"{where}: scan reported not ok")
            if report["class_count"] != ref["class_count"]:
                errors.append(
                    f"{where}: class_count {report['class_count']} != reference {ref['class_count']}"
                )
            if report["critical_pairs_checked"] != ref["critical_pairs_per_gamma"]:
                errors.append(
                    f"{where}: critical_pairs_checked {report['critical_pairs_checked']}"
                    f" != reference {ref['critical_pairs_per_gamma']}"
                )
        return errors


# ---------------------------------------------------------------------------
# decide


class Decide:
    """A seeded corpus of `decide_ald` calls, mixing six kinds of pair.

    walk:    one-, two- and three-variable terms joined by a rewriting walk
    perturb: the special form with one J entry perturbed (same skeleton)
    big:     left combs L under a product, L * (a * b), against the LD-expansion
             (L * a) * (L * b); L's braid word has 2^n - 1 letters
    sq:      iterated-left-subterm pairs s, ((s*t1)*...)*tp
    skel:    random one-variable pairs, mostly with different I-parts
    hard:    a fixed pair of multi-variable pairs whose closure is large
    """

    name = "decide"

    #: (variables, size range, walk step range, count); a walk keeps its
    #: terms within the range's top plus 3.  Multi-variable terms stop at
    #: size 5: from size 6, walked to size 9, about one seed in three draws a
    #: pair whose closure takes 0.2-0.5 s, which would make the round time
    #: depend on the seed.
    WALKS = (
        (1, (3, 7), (1, 4), 400),
        (2, (3, 5), (1, 3), 200),
        (3, (3, 5), (1, 3), 120),
    )
    PERTURB_ONE_VAR = 200
    PERTURB_MULTI_VAR = 120  # alternately change a filter invariant or keep both
    BIG_COMB_SIZES = (9, 10, 11, 12)
    BIG_A = tuple(parse_term(a) for a in ("x", "x*x", "(x*x)*x", "x*(x*x)"))
    SQ = 200
    SKEL = 120
    #: Same-skeleton two-variable pairs the bounded LD oracle leaves unknown
    #: after a closure of about 1,300 states each.  They are the same for
    #: every seed: a seeded pair of this kind costs either next to nothing or
    #: a whole closure, which would make the round time depend on the seed.
    HARD = (
        ("(x2 o x1 o x1)*x2*x2", "x2*x2*x1*x1*x2*x2"),
        ("((x2 o x2) o x1 o x2)*x2", "x1*x2*x2*x1*x2*x2"),
    )
    #: Seeded pairs that keep both filters perturb an entry of at most this
    #: size, so that their closure stays small.
    KEEP_FILTERS_MAX_ENTRY = 2

    def __init__(self, seed: int, reference: dict | None = None):
        rng = random.Random(seed)
        self.pairs: list[tuple[str, object, object]] = []
        add = self.pairs.append
        for n_vars, (lo, hi), (w_lo, w_hi), count in self.WALKS:
            for _ in range(count):
                t = random_term(rng, rng.randint(lo, hi), n_vars=n_vars)
                add(("walk", t, walk(rng, t, rng.randint(w_lo, w_hi), hi + 3)))
        for _ in range(self.PERTURB_ONE_VAR):
            t = random_term(rng, rng.randint(3, 7))
            add(("perturb", t, self._perturb_one_var(rng, t)))
        for k in range(self.PERTURB_MULTI_VAR):
            t = random_term(rng, rng.randint(3, 5), n_vars=rng.randint(2, 3))
            add(("perturb", t, self._perturb_multi_var(rng, t, keep_filters=k % 2 == 1)))
        for left, right in self.HARD:
            add(("hard", parse_term(left), parse_term(right)))
        for n in self.BIG_COMB_SIZES:
            # every one-variable *-term a of size <= 3, since the cost of a
            # pair depends on a (x*(x*x) costs about three times the others)
            # and hardly on b
            for a in self.BIG_A:
                # L * (a * b) and its root LD-expansion (L * a) * (L * b)
                b = random_star_term(rng, rng.randint(1, 3))
                base = Compound(STAR, left_comb(n), Compound(STAR, a, b))
                add(("big", base, apply_law(base, LawInstance(LD, (), EXPAND))))
        for _ in range(self.SQ):
            s = random_star_term(rng, rng.randint(2, 6))
            t = s
            for _ in range(rng.randint(1, 3)):
                t = Compound(STAR, t, random_star_term(rng, rng.randint(1, 4)))
            add(("sq", s, t))
        for _ in range(self.SKEL):
            add(("skel", random_term(rng, rng.randint(2, 6)), random_term(rng, rng.randint(2, 6))))

    @staticmethod
    def _special_parts(t):
        return decompose_special(specialize(t))

    def _perturb_one_var(self, rng, t):
        v, js = self._special_parts(t)
        js = list(js)
        k = rng.randrange(len(js))
        js[k] = rng.choice((Compound(STAR, js[k], X), Compound(STAR, X, js[k]), left_comb(size(js[k]))))
        return substitute(v, tuple(js))

    def _perturb_multi_var(self, rng, t, keep_filters: bool):
        v, js = self._special_parts(t)
        js = list(js)
        n_vars = max(variables(t))
        small = [k for k, e in enumerate(js) if size(e) <= self.KEEP_FILTERS_MAX_ENTRY]
        if keep_filters and small:
            # x_i * e has the variables and the rightmost variable of e when
            # x_i occurs in e: the pair passes both filters of the LD oracle
            k = rng.choice(small)
            js[k] = Compound(STAR, Variable(rng.choice(sorted(variables(js[k])))), js[k])
        else:
            # the last entry carries the term's rightmost variable; e * x_j
            # with a fresh or different j changes the variable set or the
            # rightmost variable
            k = len(js) - 1
            other = [j for j in range(1, n_vars + 2) if j != rightmost_variable(js[k])]
            js[k] = Compound(STAR, js[k], Variable(rng.choice(other)))
        return substitute(v, tuple(js))

    def ops(self) -> list[Op]:
        return [
            Op(kind, (lambda s=s, t=t: decide_ald(s, t).kind), {"s": s, "t": t})
            for kind, s, t in self.pairs
        ]

    @staticmethod
    def definite(op: Op, out) -> int:
        return 1 if out in (EQUAL, NOT_EQUAL) else 0

    def check(self, ops: list[Op], outs: list) -> list[str]:
        errors = []
        gamma = word_to_diagram(())
        evals: dict = {}

        def diagram_of(t):
            if t not in evals:
                evals[t] = diagram_eval_term(t, gamma)
            return evals[t]

        for op, verdict in zip(ops, outs):
            s, t = op.data["s"], op.data["t"]
            where = f"{op.kind} {render_term(s)} vs {render_term(t)}: {verdict}"
            if verdict not in (EQUAL, NOT_EQUAL, UNKNOWN):
                errors.append(f"bad verdict {where}")
                continue
            one_var = variables(s) == {1} and variables(t) == {1}
            if op.kind in ("walk", "big"):
                # joined by law steps, so never told apart
                if verdict == NOT_EQUAL or (one_var and verdict != EQUAL):
                    errors.append(f"rewriting walk not joined: {where}")
            if variables(s) != variables(t) or rightmost_variable(s) != rightmost_variable(t):
                # all three laws preserve both
                if verdict != NOT_EQUAL:
                    errors.append(f"filter invariant differs: {where}")
            if op.kind == "sq":
                if decide_ld_1var(s, t) != -1 or verdict != NOT_EQUAL:
                    errors.append(f"iterated left subterm not below: {where}")
            if one_var and verdict == UNKNOWN:
                errors.append(f"one-variable pair left unknown: {where}")
            small = size(s) <= CROSS_MODEL_MAX_SIZE and size(t) <= CROSS_MODEL_MAX_SIZE
            if small and (verdict == EQUAL or (one_var and verdict == NOT_EQUAL)):
                # freeness: evaluation at the identity separates exactly the classes
                same = diagram_equal(diagram_of(project(s)), diagram_of(project(t)))
                if same != (verdict == EQUAL):
                    errors.append(f"diagram model disagrees: {where}")
        return errors


# ---------------------------------------------------------------------------
# words


def relation_rows_expected(max_index: int) -> int:
    """Defining relations with indices <= max_index: two far-commutation
    families for j >= i+2, two shift families for j < i, three j = i+1
    families."""
    total = 0
    for i in range(1, max_index + 1):
        total += 2 * max(0, max_index - i - 1) + 2 * (i - 1) + (3 if i < max_index else 0)
    return total


class Words:
    """Checks in the word model, each decided by `word_eq_oracle`."""

    name = "words"

    LETTERS = ("s1", "S1", "s2", "S2", "a1", "A1", "a2", "A2")
    INTERTWINE_RANDOM = 10
    NEGATIVES = 40

    def __init__(self, seed: int, reference: dict | None = None):
        rng = random.Random(seed)
        self.gammas = [parse_pb(g) for g in FORMULA_GAMMAS]
        self.formula_terms = list(enumerate_terms(1, "*o", FORMULA_MAX_SIZE))
        letters = [parse_pb(x)[0] for x in self.LETTERS]
        self.bs = [(letter,) for letter in letters] + [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
            for _ in range(self.INTERTWINE_RANDOM)
        ]
        self.skeletons = list(enumerate_terms(1, CIRC, 4))
        self.negatives = [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(self.NEGATIVES)
        ]
        self.audit_config = ExperimentConfig(
            seed=seed, z_sample_count=AUDIT_Z_SAMPLES, relation_index_cap=AUDIT_INDEX_CAP
        )

    @staticmethod
    def _formula(t, gamma) -> bool:
        v, ts = decompose_special(specialize(t))
        return word_eq_oracle(pb_eval_term(t, gamma), pb_eval_closed(v, ts, gamma))

    def ops(self) -> list[Op]:
        out = []
        for gamma in self.gammas:
            for t in self.formula_terms:
                out.append(Op("formula", lambda t=t, g=gamma: self._formula(t, g)))
        for v in self.skeletons:
            for b in self.bs:
                out.append(
                    Op("intertwine", lambda v=v, b=b: check_shift_intertwine(v, b, word_eq_oracle))
                )
        rows = relation_rows_expected(AUDIT_INDEX_CAP) + 3 + AUDIT_Z_SAMPLES * 4
        out.append(Op("audit", lambda: relation_audit(self.audit_config), weight=rows))
        for w in self.negatives:
            out.append(Op("negative", lambda w=w: word_eq_oracle(w, w + (("a", 1),)), {"w": w}))
        return out

    @staticmethod
    def definite(op: Op, out) -> int:
        if op.kind == "audit":
            return sum(1 for row in out["defining"] + out["derived"] if row["holds"] in (True, False))
        return 1 if out in (True, False) else 0

    def check(self, ops: list[Op], outs: list) -> list[str]:
        errors = []
        for op, out in zip(ops, outs):
            if op.kind == "audit":
                errors += self._check_audit(out)
            elif op.kind == "negative":
                # every defining relation preserves the a-exponent sum, and
                # w and w.a1 differ in it by one
                if out is not False:
                    errors.append(f"negative control reported equal: {op.data['w']}")
            elif out is not True:
                errors.append(f"{op.kind} check failed")
        return errors

    def _check_audit(self, report) -> list[str]:
        errors = []
        want_defining = relation_rows_expected(AUDIT_INDEX_CAP)
        want_derived = 3 + 4 * AUDIT_Z_SAMPLES
        if len(report["defining"]) != want_defining:
            errors.append(f"audit has {len(report['defining'])} defining rows, want {want_defining}")
        if len(report["derived"]) != want_derived:
            errors.append(f"audit has {len(report['derived'])} derived rows, want {want_derived}")
        failed = [row for row in report["defining"] + report["derived"] if row["holds"] is not True]
        if failed:
            errors.append(f"audit rows fail: {failed[:3]}")
        if report["ok"] is not True:
            errors.append("audit reported not ok")
        return errors


WORKLOADS = {w.name: w for w in (Freeness, Decide, Words)}


def build(name: str, seed: int, reference: dict):
    return WORKLOADS[name](seed, reference)
