"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is a few minutes of wall time.
"""

import functools
import itertools
import math
import random
import time

from aldbraid.braids import (
    braid_equal,
    braid_key,
    exponent_sum,
    handle_reduce,
    permutation,
)
from aldbraid.cli import ExperimentConfig, freeness_scan, relation_audit
from aldbraid.diagrams import (
    PBDiagram,
    diagram_equal,
    diagram_shift,
    gen_a,
    gen_sigma,
    word_eq_oracle,
)
from aldbraid.invariants import (
    decide_ald,
    derive_special,
    inv_I,
    inv_J,
    order_ald,
    replay,
    specialize,
    ald_class_key,
)
from aldbraid.ldoracle import (
    Verdict,
    decide_ld_1var,
    decide_ld_bounded,
    ld_closure,
)
from aldbraid.pbwords import (
    check_shift_intertwine,
    not_in_image_shift,
    parse_pb,
    pb_eval_closed,
    pb_eval_term,
    pb_inverse,
    v_of_1,
)
from aldbraid.terms import (
    ALD1,
    ALD2,
    CIRC,
    CONTRACT,
    EXPAND,
    LD,
    STAR,
    Compound,
    LawInstance,
    Variable,
    apply_law,
    decompose_special,
    enumerate_terms,
    ht_r,
    law_instances,
    parse_term,
    random_term,
    size,
)

from oracles import BraidClassIndex, braid_letters, relation_closure

T = parse_term


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {number:2d} ({name}): PASS{suffix}")


def test_criterion_01_ald_word_problem_exhaustive():
    started = time.time()
    terms = list(enumerate_terms(1, "*o", 4))
    # the enumeration count is pinned by the Catalan * 2^(s-1) formula
    by_size = {}
    for t in terms:
        by_size[size(t)] = by_size.get(size(t), 0) + 1
    for s in range(1, 5):
        assert by_size[s] == math.comb(2 * (s - 1), s - 1) // s * 2 ** (s - 1)
    assert len(terms) == 51
    laws = (LD, ALD1, ALD2)
    closures = {t: ld_closure(t, size_cap=9, step_cap=10**6, laws=laws) for t in terms}
    for s in terms:
        for t in terms:
            assert (decide_ald(s, t).kind == "equal") == (t in closures[s]), (s, t)
    _report(1, "ALD word problem vs brute-force closure",
            f"{len(terms) ** 2} ordered pairs, {time.time() - started:.1f}s")


def test_criterion_02_normalization():
    for t in enumerate_terms(1, "*o", 6):
        special = specialize(t)
        assert replay(t, derive_special(t)) == special
        assert decide_ald(t, special).kind == "equal"
    _report(2, "normalization to special form", "1619 terms of size <= 6")


def test_criterion_03_invariance_fuzz():
    rng = random.Random(20240817)
    steps = multi_unknowns = 0
    while steps < 10_000:
        one_var = steps % 10 < 7
        t = random_term(rng, rng.randint(2, 8), n_vars=1 if one_var else 3)
        insts = list(law_instances(t))
        if not insts:
            continue
        t2 = apply_law(t, rng.choice(insts))
        assert inv_I(t) == inv_I(t2)
        js, jt = inv_J(t), inv_J(t2)
        assert len(js) == len(jt)
        for a, b in zip(js, jt):
            if a == b:
                continue
            if one_var:
                # total decision; no Unknown is possible on this path
                assert decide_ld_1var(a, b) == 0
            else:
                verdict = decide_ld_bounded(a, b, step_cap=300)
                assert verdict is not Verdict.NOT_EQUAL
                if verdict is Verdict.UNKNOWN:
                    multi_unknowns += 1
        steps += 1
    _report(3, "invariants under 10^4 random law steps",
            f"multi-variable unknowns tolerated: {multi_unknowns}")


def test_criterion_04_non_ld_monoid_witnesses():
    assert decide_ald(T("x1 o x2"), T("(x1*x2) o x1")).kind == "not-equal"
    rng = random.Random(97531)
    for _ in range(1_000):
        t1 = random_term(rng, rng.randint(1, 3))
        t2 = random_term(rng, rng.randint(1, 3))
        t3 = random_term(rng, rng.randint(1, 3))
        redex = Compound(STAR, t1, Compound(STAR, t2, t3))
        assert ht_r(apply_law(redex, LawInstance(LD, (), EXPAND))) == ht_r(redex)
        contracted = apply_law(redex, LawInstance(ALD1, (), CONTRACT))
        assert ht_r(contracted) == ht_r(redex) - 1
    _report(4, "height invariant separates LD from ALD1")


def test_criterion_05_braid_engine_cross_validation():
    started = time.time()
    root_of = relation_closure(max_index=3, cap=8)
    index = BraidClassIndex()
    # exact partition agreement on all words of length <= 6 over indices <= 3:
    # the closure's moves are sound, so it refines true equality; checking the
    # root -> class map is a bijection then forces the partitions to coincide.
    # The same bijection check gates the Dynnikov key.
    root_to_class: dict = {}
    class_to_root: dict = {}
    root_to_key: dict = {}
    key_to_root: dict = {}
    words = 0
    for length in range(7):
        for w in itertools.product(braid_letters(3), repeat=length):
            words += 1
            root = root_of(w)
            cls = index.class_id(w)
            assert root_to_class.setdefault(root, cls) == cls, w
            assert class_to_root.setdefault(cls, root) == root, w
            key = braid_key(w)
            assert root_to_key.setdefault(root, key) == key, w
            assert key_to_root.setdefault(key, root) == root, w
    assert len(key_to_root) == len(class_to_root)
    closure_time = time.time() - started

    rng = random.Random(8675309)
    for _ in range(10_000):
        w = tuple(rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(rng.randint(0, 40)))
        r = handle_reduce(w)
        assert permutation(r, 7) == permutation(w, 7)
        assert exponent_sum(r) == exponent_sum(w)
        assert braid_equal(w, r)
    _report(5, "braid engine vs relation-closure oracle",
            f"{words} words, {len(class_to_root)} classes, "
            f"{time.time() - started:.0f}s total ({closure_time:.0f}s closure)")


def test_criterion_06_ld_freeness_substrate():
    terms = list(enumerate_terms(1, "*", 5))
    for s in terms:
        closure = ld_closure(s, size_cap=11, step_cap=10**6)
        for t in terms:
            assert (decide_ld_1var(s, t) == 0) == (t in closure), (s, t)
    _report(6, "one-variable LD decision vs bounded closure",
            f"{len(terms) ** 2} ordered pairs at size cap 11")


def test_criterion_07_relation_audit():
    config = ExperimentConfig(seed=20240817, z_sample_count=20, relation_index_cap=5)
    report = relation_audit(config)
    failures = [row for row in report["defining"] if not row["holds"]]
    failures += [row for row in report["derived"] if not row["holds"]]
    assert not failures, failures
    assert report["ok"]
    _report(7, "defining and derived relations",
            f"{len(report['defining'])} defining + {len(report['derived'])} derived instances")


def test_criterion_08_evaluation_formulas():
    gammas = [parse_pb(g) for g in ("", "s1", "a1", "s1 a2")]
    checks = 0
    for gamma in gammas:
        for t in enumerate_terms(1, "*o", 5):
            recursive = pb_eval_term(t, gamma)
            v, ts = decompose_special(specialize(t))
            closed = pb_eval_closed(v, ts, gamma)
            assert word_eq_oracle(recursive, closed), (t, gamma)
            checks += 1
    rng = random.Random(1357)
    letters = list(parse_pb("s1 S1 s2 S2 a1 A1 a2 A2"))
    bs = [(letter,) for letter in letters]
    bs += [tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(10)]
    intertwine_checks = 0
    for v in enumerate_terms(1, CIRC, 4):
        for b in bs:
            assert check_shift_intertwine(v, b, word_eq_oracle), (v, b)
            intertwine_checks += 1
    _report(8, "closed evaluation formula and shift intertwine",
            f"{checks} formula checks, {intertwine_checks} intertwine checks")


def test_criterion_09_shift_image_exclusions():
    circ_terms = list(enumerate_terms(1, CIRC, 4))
    for u in circ_terms:
        for v in circ_terms:
            if u == v:
                continue
            quotient = pb_inverse(v_of_1(u)) + v_of_1(v)
            assert not_in_image_shift(quotient) is not None, (u, v)
    # independent diagram-side search: no shifted diagram equals σ1 or a1
    trees = {n: [t for t in enumerate_terms(1, CIRC, n) if size(t) == n] for n in range(1, 5)}
    targets = [gen_sigma(1), gen_a(1)]
    searched = 0
    for n in range(1, 5):
        max_len = 3 if n <= 3 else 2
        letters = [e * i for i in range(1, n) for e in (1, -1)]
        words = [
            w for length in range(max_len + 1) for w in itertools.product(letters, repeat=length)
        ]
        for dom in trees[n]:
            for cod in trees[n]:
                for braid in words:
                    shifted = diagram_shift(PBDiagram(dom, tuple(braid), cod))
                    searched += 1
                    for target in targets:
                        assert not diagram_equal(shifted, target)
    _report(9, "shift image excludes the low generators",
            f"{len(circ_terms) * (len(circ_terms) - 1)} quotients certified, "
            f"{searched} diagrams searched")


def test_criterion_10_freeness_experiment():
    started = time.time()
    report = freeness_scan(ExperimentConfig(max_term_size=5))
    assert report["term_count"] == 275
    assert report["class_count"] == 163
    assert report["critical_pairs_checked"] == 22_760
    assert report["constant_failures"] == []
    assert report["separation_collisions"] == []
    assert report["critical_failures"] == []
    assert report["ok"]
    _report(10, "freeness of the evaluation into the diagram model",
            f"{report['term_count']} terms, {report['class_count']} classes, "
            f"{report['critical_pairs_checked']} critical pairs, {time.time() - started:.1f}s")


def test_criterion_11_ordering():
    terms = list(enumerate_terms(1, "*o", 5))
    ranked = sorted(terms, key=functools.cmp_to_key(order_ald))
    memo: dict = {}
    keys = {t: ald_class_key(t, memo) for t in terms}
    # pairwise consistency with the sorted arrangement gives totality and
    # transitivity at once; the kernel must be exactly ALD-equality
    for i, a in enumerate(ranked):
        assert order_ald(a, a) == 0
        for b in ranked[i + 1 :]:
            c = order_ald(a, b)
            assert c <= 0
            assert order_ald(b, a) == -c
            assert (c == 0) == (keys[a] == keys[b])
            assert (c == 0) == (decide_ald(a, b).kind == "equal")
    _report(11, "ALD order is total with kernel ALD-equality",
            f"{len(terms)} terms, {len(terms) * (len(terms) - 1) // 2} pairs")


def test_criterion_12_sequence_length_bounds():
    length_of = {}

    def j_len(t):
        if t in length_of:
            return length_of[t]
        if isinstance(t, Variable):
            out = 1
        elif t.op == STAR:
            out = j_len(t.right)
        else:
            out = j_len(t.left) + j_len(t.right)
        length_of[t] = out
        return out

    # cross-check the cheap recursion against the real invariant on small terms
    for t in enumerate_terms(1, "*o", 5):
        assert j_len(t) == len(inv_J(t))
    worst = 0
    count = 0
    for t in enumerate_terms(1, "*o", 8):
        count += 1
        assert j_len(t) <= 2 ** size(t)
        worst = max(worst, j_len(t))
    # doubling family: x * (balanced ∘-tree) doubles the sequence length with
    # every extra level, and realizing the special form takes one ALD2
    # expansion per ∘-node
    def balanced(depth):
        if depth == 0:
            return Variable(1)
        sub = balanced(depth - 1)
        return Compound(CIRC, sub, sub)

    for k in range(1, 7):
        t = Compound(STAR, Variable(1), balanced(k))
        assert j_len(t) == 2**k
        trace = derive_special(t)
        assert sum(1 for s in trace if s.law == "ald2") == 2**k - 1
    _report(12, "J-sequence length bounds and ALD2 doubling",
            f"{count} terms of size <= 8, max length {worst}")
