import functools
import random

import pytest

from aldbraid.braids import braid_compare, eval_star_braid
from aldbraid.ldoracle import (
    LdOracle,
    Verdict,
    decide_ld_1var,
    decide_ld_bounded,
    find_sq_witness,
    ld_closure,
    seq_ld_equal,
)
from aldbraid.terms import (
    LD,
    apply_law,
    enumerate_terms,
    is_iter_left_subterm,
    law_instances,
    parse_term,
    random_term,
    rightmost_variable,
    seq_star,
    variables,
)

T = parse_term


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
    # same variable set and rightmost variable, no connecting path at any cap
    # small enough to exhaust: verdict stays UNKNOWN
    assert decide_ld_bounded(T("x1*x1"), T("x1"), size_cap=4) is Verdict.UNKNOWN


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
    tiny = LdOracle(size_cap=4, step_cap=10)
    undecided = (T("(x1*x2)*(x1*x2)"),), (T("x1*x2"),)
    assert seq_ld_equal(*undecided, tiny) is Verdict.UNKNOWN
    differing = undecided[0] + (x,), undecided[1] + (T("x*x"),)
    assert seq_ld_equal(*differing, tiny) is Verdict.NOT_EQUAL


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
