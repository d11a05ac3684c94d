import random

import pytest

from aldbraid import invariants
from aldbraid.braids import eval_star_braid
from aldbraid.cli import ald_partition
from aldbraid.invariants import (
    ald_class_key,
    decide_ald,
    derive_special,
    inv_I,
    inv_J,
    order_ald,
    replay,
    specialize,
)
from aldbraid.ldoracle import Verdict, ld_closure
from aldbraid.terms import (
    ALD1,
    ALD2,
    LD,
    apply_law,
    enumerate_terms,
    is_special,
    is_star_term,
    law_instances,
    parse_term,
    random_term,
    size,
)
from oracles import BraidClassIndex

T = parse_term
ALD_LAWS = (LD, ALD1, ALD2)


def test_inv_I_examples():
    assert inv_I(T("x1*((x2*x3)o x4)")) == T("x o x")
    assert inv_I(T("x7")) == T("x")
    t1, t2 = T("x1 o x2"), T("(x1*x2) o (x3 o x4)")
    assert inv_I(Ts(t1, t2)) == inv_I(t2)


def Ts(a, b):
    from aldbraid.terms import Compound

    return Compound("*", a, b)


def test_inv_J_examples():
    assert inv_J(T("x1*((x2*x3)o x4)")) == (T("x1*(x2*x3)"), T("x1*x4"))
    assert inv_J(T("x5")) == (T("x5"),)
    assert inv_J(T("x1 o x2")) == (T("x1"), T("x2"))


def test_inv_lengths_agree():
    for t in enumerate_terms(2, "*o", 4):
        assert size(inv_I(t)) == len(inv_J(t))


def test_specialize_examples():
    assert specialize(T("x1*((x2*x3)o x4)")) == T("(x1*(x2*x3)) o (x1*x4)")
    assert specialize(T("x*(x o x)")) == T("(x*x) o (x*x)")
    for t in enumerate_terms(1, "*o", 4):
        if is_special(t):
            assert specialize(t) == t
        assert is_special(specialize(t))


def test_derive_special_examples():
    assert derive_special(T("(x1*x2) o x3")) == []
    steps = derive_special(T("x*(x o x)"))
    assert len(steps) == 1 and steps[0].law == "ald2" and steps[0].pos == ()
    steps = derive_special(T("(x o x)*x"))
    assert [s.law for s in steps] == ["ald1"]
    assert replay(T("(x o x)*x"), steps) == T("x*(x*x)")


def test_derive_special_replays_to_specialize():
    for t in enumerate_terms(1, "*o", 5):
        assert replay(t, derive_special(t)) == specialize(t)
    rng = random.Random(53)
    for _ in range(100):
        t = random_term(rng, rng.randint(1, 8), n_vars=3)
        assert replay(t, derive_special(t)) == specialize(t)


def test_decide_ald_examples():
    assert decide_ald(T("x1 o x2"), T("(x1*x2) o x1")).kind == "not-equal"
    t = T("x1*((x2*x3)o x4)")
    assert decide_ald(t, t).kind == "equal"
    assert decide_ald(T("x*(x*x)"), T("(x o x)*x")).kind == "equal"


def test_decide_ald_specialize():
    for t in enumerate_terms(1, "*o", 4):
        assert decide_ald(t, specialize(t)).kind == "equal"


def test_weak_ald2_consequence():
    lhs = T("(x*(x o x))*(x*x)")
    rhs = T("((x*x) o (x*x))*(x*x)")
    assert decide_ald(lhs, rhs).kind == "equal"
    lhs = T("(x1*(x2 o x3))*(x1*x4)")
    rhs = T("((x1*x2) o (x1*x3))*(x1*x4)")
    assert decide_ald(lhs, rhs).kind == "equal"


def test_ald_closure_examples():
    x = T("x")
    assert ld_closure(x, size_cap=5, laws=ALD_LAWS) == {x}
    assert ld_closure(T("x1 o x2"), size_cap=4, laws=ALD_LAWS) == {T("x1 o x2")}
    c = ld_closure(T("x*(x*x)"), size_cap=4, laws=ALD_LAWS)
    assert T("(x*x)*(x*x)") in c and T("(x o x)*x") in c


def test_ald_closure_respects_caps():
    with pytest.raises(ValueError):
        ld_closure(T("x*x*x"), size_cap=2, laws=ALD_LAWS)
    c = ld_closure(T("x*(x*x)"), size_cap=6, laws=ALD_LAWS)
    assert all(size(t) <= 6 for t in c)


def test_invariance_under_single_steps_exhaustive():
    # every single law step on every one-variable term of size <= 6
    for t in enumerate_terms(1, "*o", 6):
        for inst in law_instances(t):
            t2 = apply_law(t, inst)
            assert inv_I(t) == inv_I(t2)
            assert decide_ald(t, t2).kind == "equal"


def test_order_ald_examples():
    assert order_ald(T("x"), T("x o x")) == -1  # proper prefix of the J-sequence
    assert order_ald(T("x*x"), T("x o x")) == 1  # first entries x*x > x in LD order
    t = T("x*(x o x)")
    assert order_ald(t, t) == 0


def test_order_ald_rejects_multi_variable():
    with pytest.raises(ValueError):
        order_ald(T("x1"), T("x2"))


def test_order_ald_kernel_is_ald_equality_small():
    terms = list(enumerate_terms(1, "*o", 3))
    for s in terms:
        for t in terms:
            assert (order_ald(s, t) == 0) == (decide_ald(s, t).kind == "equal")


def test_ald_class_key_partitions_like_decide_ald():
    terms = list(enumerate_terms(1, "*o", 3))
    memo: dict = {}
    keys = {t: ald_class_key(t, memo) for t in terms}
    for s in terms:
        for t in terms:
            assert (keys[s] == keys[t]) == (decide_ald(s, t).kind == "equal")


def test_class_index_looks_up_each_distinct_entry_once(monkeypatch):
    terms = list(enumerate_terms(1, "*o", 5))
    key, calls = invariants.ld_class_key, []
    monkeypatch.setattr(invariants, "ld_class_key", lambda t: calls.append(1) or key(t))
    classes = ald_partition(terms)
    monkeypatch.undo()
    assert len(calls) == len({e for t in terms for e in inv_J(t)})
    # the same partition as a fresh test-side class index over the whole term list
    reference, expected = BraidClassIndex(), {}
    for t in terms:
        entries = tuple(reference.class_id(eval_star_braid(e, ())) for e in inv_J(t))
        expected.setdefault((inv_I(t), entries), []).append(t)
    assert list(classes.values()) == list(expected.values())


def test_ald_class_keys_do_not_depend_on_the_order_of_lookups():
    terms = list(enumerate_terms(1, "*o", 4))
    forward, backward = {}, {}
    keys = [ald_class_key(t, forward) for t in terms]
    reversed_keys = [ald_class_key(t, backward) for t in reversed(terms)]
    assert keys == reversed_keys[::-1]
    assert len(set(keys)) < len(terms)


def test_ald_class_key_invariants():
    for t in enumerate_terms(1, "*o", 4):
        assert size(inv_I(t)) == len(inv_J(t))
        assert all(is_star_term(e) for e in inv_J(t))


def test_verdict_truthiness():
    assert Verdict.EQUAL
    assert not Verdict.NOT_EQUAL
    assert not Verdict.UNKNOWN
    assert [v.kind for v in Verdict] == ["equal", "not-equal", "unknown"]
