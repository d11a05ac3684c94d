import functools
import os
import random
import subprocess
import sys

import pytest

from aldbraid.braids import braid_compare, braid_equal, eval_star_braid
from aldbraid.invariants import decide_ald
from aldbraid.ldoracle import (
    Verdict,
    decide_ld_1var,
    decide_ld_bounded,
    find_sq_witness,
    ld_class_key,
    ld_closure,
    seq_ld_equal,
)
from aldbraid.terms import (
    LD,
    STAR,
    Compound,
    apply_law,
    enumerate_terms,
    is_iter_left_subterm,
    law_instances,
    parse_term,
    random_term,
    rightmost_variable,
    seq_star,
    size,
    star_chain,
    variables,
)
from oracles import closure_only_decide_ld, projection_decide_ld, projections_differ

T = parse_term

#: An LD-equal pair two steps apart: expand x2*(x1*x2), then the root.
TWO_STEPS = (T("x1*(x2*(x1*x2))"), T("(x1*(x2*x1))*(x1*(x2*x2))"))


def left_comb(n):
    t = T("x")
    for _ in range(n - 1):
        t = Compound(STAR, t, T("x"))
    return t


def ld_walk(rng, t, steps, max_size):
    """t after `steps` random LD steps in either direction, each within max_size."""
    for _ in range(steps):
        nexts = [apply_law(t, i) for i in law_instances(t, laws=(LD,))]
        nexts = [n for n in nexts if size(n) <= max_size]
        if nexts:
            t = rng.choice(nexts)
    return t


def test_decide_ld_1var_examples():
    assert decide_ld_1var(T("x*(x*x)"), T("(x*x)*(x*x)")) == 0
    assert decide_ld_1var(T("x*x"), T("(x*x)*x")) == -1
    assert decide_ld_1var(T("x"), T("x")) == 0


def test_decide_ld_1var_rejects():
    with pytest.raises(ValueError):
        decide_ld_1var(T("x o x"), T("x"))
    with pytest.raises(ValueError):
        decide_ld_1var(T("x1*x2"), T("x"))


def test_decide_ld_bounded_examples():
    assert decide_ld_bounded(T("x1*(x2*x3)"), T("(x1*x2)*(x1*x3)")) is Verdict.EQUAL
    assert (
        decide_ld_bounded(T("x*(x*x)"), T("((x*x)*x)*((x*x)*x)")) is Verdict.EQUAL
    )
    assert decide_ld_bounded(T("x1"), T("x2")) is Verdict.NOT_EQUAL
    # same variable set and rightmost variable, no connecting path at any cap:
    # the projections x*x and x tell the pair apart before any closure
    assert decide_ld_bounded(T("x1*x1"), T("x1"), size_cap=4) is Verdict.NOT_EQUAL
    # LD-equal two steps apart: the projections agree, and one closure step
    # cannot reach the other term
    assert decide_ld_bounded(*TWO_STEPS, size_cap=6, step_cap=1) is Verdict.UNKNOWN
    assert decide_ld_bounded(*TWO_STEPS) is Verdict.EQUAL


def test_caps_are_checked_before_any_verdict():
    # a closure of no step, or capped below either term's size, could only
    # answer "unknown"; the filters and the s == t shortcut answer only
    # after the caps are checked
    s, t = T("x1*(x2*x3)"), T("(x1*x2)*(x1*x3)")
    assert ld_closure(s, 10, 1) == {s, t}  # one step, t among its results
    with pytest.raises(ValueError, match="step_cap"):
        ld_closure(s, 10, 0)
    for decide in (decide_ld_bounded, decide_ald):
        with pytest.raises(ValueError, match="step_cap"):
            decide(s, t, step_cap=0)
    for pair in ((s, t), (T("x1*x2"), T("x2*x1")), (T("x1*x2"), T("x1*x2"))):
        with pytest.raises(ValueError, match="size_cap"):
            decide_ld_bounded(*pair, size_cap=1)
    # a pair whose I-parts differ compares no J-entry pair, so no cap applies
    assert decide_ald(T("x1*x2"), T("x2 o x1"), size_cap=1) is Verdict.NOT_EQUAL
    # one-variable pairs are decided whatever the caps
    assert decide_ld_bounded(T("x*x"), T("x*x"), size_cap=1, step_cap=0) is Verdict.EQUAL
    assert decide_ld_bounded(T("x*x"), T("(x*x)*x"), size_cap=1, step_cap=0) is Verdict.NOT_EQUAL


def test_one_variable_pair_gets_one_verdict_from_every_entry_point():
    # LD-equal one step apart, and the closure may take no step at all
    s, t = T("x*(x*(x*x))"), T("(x*x)*((x*x)*(x*x))")
    tiny = dict(size_cap=6, step_cap=1)
    assert decide_ld_bounded(s, t, **tiny) is Verdict.EQUAL
    assert seq_ld_equal((s,), (t,), **tiny) is Verdict.EQUAL
    assert decide_ald(s, t, **tiny) is Verdict.EQUAL


def test_one_variable_pairs_are_never_unknown():
    terms = list(enumerate_terms(1, "*", 5))
    for budget in ({}, dict(size_cap=1, step_cap=1)):
        for s in terms:
            for t in terms:
                verdict = decide_ld_bounded(s, t, **budget)
                assert verdict is not Verdict.UNKNOWN, (s, t)
                assert (verdict is Verdict.EQUAL) == (decide_ld_1var(s, t) == 0), (s, t)


def test_projection_test_skipped_past_the_word_cap():
    # 30- and 29-leaf left combs ending in x2: the projections' braid words
    # would have 2^29 - 1 and 2^28 - 1 letters, so only the closure runs
    s, t = (star_chain([left_comb(n - 1)], T("x2")) for n in (30, 29))
    assert decide_ld_bounded(s, t, step_cap=5) is Verdict.UNKNOWN
    # from 21 leaves, at 2^20 - 1 letters, the one-variable decision refuses
    for n in (21, 30):
        with pytest.raises(ValueError, match="exceeds the cap"):
            decide_ld_1var(left_comb(n), T("x"))


def test_ld_step_invariants_back_the_filters():
    # The NOT_EQUAL filters rely on single LD steps preserving the variable
    # set and the rightmost variable; check that over random steps.
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        t = random_term(rng, rng.randint(2, 9), n_vars=3, ops="*")
        insts = [i for i in law_instances(t, laws=(LD,))]
        if not insts:
            continue
        t2 = apply_law(t, rng.choice(insts))
        assert variables(t2) == variables(t)
        assert rightmost_variable(t2) == rightmost_variable(t)
        checked += 1


def test_ld_walks_are_never_not_equal():
    # soundness of every NOT_EQUAL path: terms joined by LD steps are LD-equal
    rng = random.Random(59)
    for _ in range(300):
        s = random_term(rng, rng.randint(2, 8), n_vars=rng.randint(1, 4), ops="*")
        t = ld_walk(rng, s, rng.randint(1, 6), max_size=14)
        assert decide_ld_bounded(s, t, step_cap=20) is not Verdict.NOT_EQUAL


def test_projection_agrees_with_closure_only_oracle():
    # seeded multi-variable pairs, alternately random and joined by a walk;
    # the projection test only turns closure-only UNKNOWNs into NOT_EQUAL
    rng = random.Random(61)
    newly_decided = 0
    for k in range(400):
        n_vars = rng.randint(2, 3)
        s = random_term(rng, rng.randint(2, 6), n_vars=n_vars, ops="*")
        if k % 2:
            t = ld_walk(rng, s, rng.randint(1, 3), max_size=9)
        else:
            t = random_term(rng, rng.randint(2, 6), n_vars=n_vars, ops="*")
        old = closure_only_decide_ld(s, t, step_cap=50)
        new = decide_ld_bounded(s, t, step_cap=50)
        if old is not Verdict.UNKNOWN:
            assert new is old, (s, t)
        elif new is not Verdict.UNKNOWN:
            assert new is Verdict.NOT_EQUAL, (s, t)
            newly_decided += 1
    assert newly_decided > 0


@pytest.mark.parametrize("n_vars, count", [(2, 3528), (3, 22872)])
def test_evaluation_test_matches_projection_oracle(n_vars, count):
    # every ordered pair of *-terms of size <= 4 in several of the variables
    # x1..x{n_vars} that passes both filters, s = t included; a size cap of 6
    # gives the closure the same EQUAL verdicts here as the default cap
    terms = [t for t in enumerate_terms(n_vars, "*", 4) if len(variables(t)) > 1]
    pairs = [
        (s, t) for s in terms for t in terms
        if variables(s) == variables(t) and rightmost_variable(s) == rightmost_variable(t)
    ]
    assert len(pairs) == count
    for s, t in pairs:
        differ = not braid_equal(eval_star_braid(s, ()), eval_star_braid(t, ()))
        assert differ == projections_differ(s, t), (s, t)
        verdict = decide_ld_bounded(s, t, size_cap=6)
        assert verdict is projection_decide_ld(s, t, size_cap=6), (s, t)


def test_ld_class_key_rejects_several_variables():
    assert ld_class_key(T("x*(x*x)")) == ld_class_key(T("(x*x)*(x*x)"))
    with pytest.raises(ValueError, match="one-variable"):
        ld_class_key(T("x1*x2"))
    with pytest.raises(ValueError, match="one-variable"):
        ld_class_key(T("x2"))


def test_agreement_1var_vs_bounded_size_4():
    terms = list(enumerate_terms(1, "*", 4))
    for s in terms:
        closure = ld_closure(s, size_cap=9)
        for t in terms:
            assert (decide_ld_1var(s, t) == 0) == (t in closure)


def test_1var_order_is_total_on_ld_classes():
    terms = list(enumerate_terms(1, "*", 4))
    ranked = sorted(terms, key=functools.cmp_to_key(decide_ld_1var))
    for i, a in enumerate(ranked):
        for b in ranked[i + 1 :]:
            assert decide_ld_1var(a, b) <= 0
            assert decide_ld_1var(b, a) == -decide_ld_1var(a, b)


def test_seq_ld_equal():
    x = T("x")
    assert seq_ld_equal((x,), (x,)) is Verdict.EQUAL
    assert seq_ld_equal((T("x*x"), x), (x, x)) is Verdict.NOT_EQUAL
    assert seq_ld_equal((x, x), (x, x, x)) is Verdict.NOT_EQUAL
    assert seq_ld_equal((T("x*(x*x)"),), (T("(x*x)*(x*x)"),)) is Verdict.EQUAL
    # an exhausted budget is UNKNOWN, unless another entry pair differs
    tiny = dict(size_cap=6, step_cap=1)
    assert seq_ld_equal((T("(x1*x2)*(x1*x2)"),), (T("x1*x2"),), **tiny) is Verdict.NOT_EQUAL
    undecided = (TWO_STEPS[0],), (TWO_STEPS[1],)
    assert seq_ld_equal(*undecided, **tiny) is Verdict.UNKNOWN
    differing = undecided[0] + (x,), undecided[1] + (T("x*x"),)
    assert seq_ld_equal(*differing, **tiny) is Verdict.NOT_EQUAL


def test_find_sq_witness_examples():
    assert find_sq_witness(T("x*x"), T("(x*x)*x")) == (T("x*x"), T("(x*x)*x"))
    assert find_sq_witness(T("x"), T("x*x")) == (T("x"), T("x*x"))
    got = find_sq_witness(T("x*(x*x)"), T("(x*x)*x"))
    assert got is not None
    s2, t2 = got
    # orientation: (x*x)*x is below x*(x*x), so the witness has t2 ⊏ s2
    assert is_iter_left_subterm(t2, s2)
    assert decide_ld_1var(s2, T("x*(x*x)")) == 0
    assert decide_ld_1var(t2, T("(x*x)*x")) == 0


def test_find_sq_witness_rejects_equal_inputs():
    with pytest.raises(ValueError):
        find_sq_witness(T("x"), T("x"))


def test_witnesses_do_not_depend_on_the_hash_seed():
    # the closures are walked in breadth-first order, not in the order of a
    # set of terms, which can change from one process to the next
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, os.path.join(here, "witness_probe.py")],
                                capture_output=True, text=True, env=env, check=True)
        outputs.append(result.stdout)
    assert len(outputs[0].splitlines()) == 70
    assert "none" not in outputs[0]
    assert outputs[0] == outputs[1]


def test_witness_orientation_matches_braid_order():
    # s' ⊏ t' must force eval(s') < eval(t') in the braid order.
    terms = list(enumerate_terms(1, "*", 4))
    rng = random.Random(43)
    for _ in range(40):
        s, t = rng.choice(terms), rng.choice(terms)
        if decide_ld_1var(s, t) == 0:
            continue
        got = find_sq_witness(s, t)
        assert got is not None
        s2, t2 = got
        lo, hi = (s2, t2) if is_iter_left_subterm(s2, t2) else (t2, s2)
        assert is_iter_left_subterm(lo, hi)
        assert braid_compare(eval_star_braid(lo, ()), eval_star_braid(hi, ())) == -1


def test_sequence_structure_satisfies_ald_laws_up_to_oracle():
    # Sequences of one-variable *-terms under entrywise chaining and
    # concatenation satisfy LD (up to the oracle) and ALD1/ALD2 on the nose.
    rng = random.Random(47)
    pool = list(enumerate_terms(1, "*", 3))

    def rand_seq():
        return tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))

    for _ in range(25):
        s, t, u = rand_seq(), rand_seq(), rand_seq()
        ld_l = seq_star(s, seq_star(t, u))
        ld_r = seq_star(seq_star(s, t), seq_star(s, u))
        assert seq_ld_equal(ld_l, ld_r) is Verdict.EQUAL
        assert seq_star(s + t, u) == seq_star(s, seq_star(t, u))
        assert seq_star(s, t + u) == seq_star(s, t) + seq_star(s, u)
