import math
import random

import pytest

from aldbraid.terms import (
    ALD1,
    ALD2,
    CIRC,
    CONTRACT,
    EXPAND,
    LD,
    Compound,
    LawApplicationError,
    LawInstance,
    NotSpecial,
    ParseError,
    Variable,
    X,
    apply_law,
    circ_cmp,
    circ_less,
    decompose_special,
    enumerate_terms,
    fold,
    ht_r,
    is_circ_term,
    is_iter_left_subterm,
    is_one_variable,
    is_special,
    is_star_term,
    law_instances,
    parse_term,
    random_term,
    render_term,
    right_spine,
    rightmost_variable,
    seq_sq,
    seq_star,
    size,
    star_chain,
    substitute,
    variables,
    x_power,
)
from aldbraid.braids import eval_star_braid
from aldbraid.diagrams import diagram_eval_term, identity_diagram
from aldbraid.invariants import inv_I
from aldbraid.ldoracle import ld_closure
from aldbraid.pbwords import blocks, pb_eval_term
from oracles import (
    recursive_is_special,
    recursive_uses_only,
    recursive_variables,
    redex_apply_law,
    redex_law_instances,
)

T = parse_term


def star(a, b):
    return Compound("*", a, b)


def circ(a, b):
    return Compound("o", a, b)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_worked_example():
    t = T("x1*((x2*x3)o x4)")
    assert t == star(Variable(1), circ(star(Variable(2), Variable(3)), Variable(4)))


def test_parse_bare_x_is_x1():
    assert T("x") == Variable(1)
    assert T("x") == T("x1")


def test_parse_right_association():
    assert T("x*(x*x)") == T("x*x*x")
    assert T("x o x o x") == T("x o (x o x)")
    assert T("x*x o x") == T("x*(x o x)")


def test_parse_errors_carry_position():
    for text, pos in [("x*", 2), ("(x*x", 4), ("x)", 1), ("y", 0), ("x0", 0), ("x**x", 2)]:
        with pytest.raises(ParseError) as err:
            T(text)
        assert err.value.position == pos


def test_render_round_trip_enumerated():
    for t in enumerate_terms(2, "*o", 4):
        assert parse_term(render_term(t)) == t


def test_render_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(rng, rng.randint(1, 12), n_vars=3)
        assert parse_term(render_term(t)) == t


# ---------------------------------------------------------------------------
# Measurements


def test_size():
    assert size(X) == 1
    assert size(T("x1*((x2*x3)o x4)")) == 4
    assert size(T("x o (x o x)")) == 3


def test_ht_r():
    assert ht_r(X) == 0
    assert ht_r(T("(x*x) o x")) == 1
    assert ht_r(T("x*(x*x)")) == 2
    assert ht_r(T("(x o x)*x")) == 1


def test_right_spine():
    t = T("(x1 o x2)*(x3*(x4 o x5))")
    assert right_spine(t) == ([t, t.right, t.right.right], T("x5"))
    assert right_spine(X) == ([], X)


def test_deep_right_combs_take_no_recursion_per_level():
    # 2,000 leaves, twice the recursion limit: derived terms are deep only
    # along the rightmost branch, and every walk below loops down it
    n = 2_000
    stars, circs = star_chain([X] * (n - 1), X), x_power(n)
    assert render_term(stars) == "*".join(["x1"] * n)
    assert render_term(circs) == " o ".join(["x1"] * n)
    assert eval_star_braid(stars, ()) == tuple(range(n - 1, 0, -1))
    assert pb_eval_term(stars, ()) == tuple(("s", i) for i in range(n - 1, 0, -1))
    assert pb_eval_term(circs, ()) == tuple(("a", i) for i in range(n - 1, 0, -1))
    assert inv_I(stars) == X and inv_I(circs) == circs
    assert ht_r(stars) == ht_r(circs) == n - 1
    assert rightmost_variable(star_chain([X] * (n - 1), Variable(2))) == 2
    assert blocks(circs) == [X] * n
    d = diagram_eval_term(stars, identity_diagram())
    assert (d.dom, d.braid, d.cod) == (x_power(n + 1), tuple(range(n - 1, 0, -1)), x_power(n + 1))
    d = diagram_eval_term(circs, identity_diagram())
    assert (d.dom, d.braid, d.cod) == (x_power(n + 1), (), Compound(CIRC, x_power(n), X))


def test_fold_works_out_each_distinct_node_once():
    # sixty doublings: 2^60 leaves, but 61 distinct nodes
    t = X
    for _ in range(60):
        t = star(t, t)
    done = []
    count = fold(t, lambda v: done.append(v) or 1, lambda n, b, c: done.append(n) or b + c, {})
    assert count == 2**60 and len(done) == len(set(done)) == 61
    # a seeded value is not worked out again, and a shared memo carries over
    memo, done = {X: 0}, []
    assert fold(star(X, X), None, lambda n, b, c: done.append(n) or b + c + 1, memo) == 1
    assert fold(star(star(X, X), X), None, lambda n, b, c: done.append(n) or b + c + 1, memo) == 2
    assert done == [star(X, X), star(star(X, X), X)]


# ---------------------------------------------------------------------------
# Sequences


def test_seq_star_examples():
    s1, s2, t1, t2 = T("x1"), T("x2"), T("x3"), T("x4")
    assert seq_star((s1,), (t1,)) == (star(s1, t1),)
    assert seq_star((s1, s2), (t1,)) == (star(s1, star(s2, t1)),)
    assert seq_star((s1,), (t1, t2)) == (star(s1, t1), star(s1, t2))


# ---------------------------------------------------------------------------
# Substitution


def test_substitute():
    t1, t2 = T("x1*(x2*x3)"), T("x1*x4")
    assert substitute(T("x o x"), (t1, t2)) == circ(t1, t2)
    assert substitute(X, (t1,)) == t1
    assert render_term(substitute(T("x o x"), (t1, t2))) == "(x1*x2*x3) o x1*x4"


def test_substitute_errors():
    with pytest.raises(ValueError):
        substitute(T("x o x"), (X,))
    with pytest.raises(ValueError):
        substitute(T("x*x"), (X, X))


def test_decompose_special():
    v, ts = decompose_special(T("(x1*x2) o x1"))
    assert v == T("x o x") and ts == (T("x1*x2"), T("x1"))
    with pytest.raises(NotSpecial):
        decompose_special(T("x1*(x2 o x3)"))
    assert decompose_special(T("x1*x2")) == (X, (T("x1*x2"),))


def test_substitute_decompose_round_trip():
    for t in enumerate_terms(1, "*o", 5):
        if is_special(t):
            v, ts = decompose_special(t)
            assert substitute(v, ts) == t
        else:
            with pytest.raises(NotSpecial):
                decompose_special(t)


def test_cached_term_facts_match_recursive_oracles():
    rng = random.Random(13)
    randoms = [
        random_term(rng, rng.randint(1, 12), rng.randint(1, 4), rng.choice(("*", "o", "*o")))
        for _ in range(2_000)
    ]
    for t in list(enumerate_terms(3, "*o", 4)) + randoms:
        assert variables(t) == recursive_variables(t), t
        assert is_one_variable(t) == (recursive_variables(t) == {1}), t
        assert is_star_term(t) == recursive_uses_only(t, "*"), t
        assert is_circ_term(t) == recursive_uses_only(t, "o"), t
        assert is_special(t) == recursive_is_special(t), t


# ---------------------------------------------------------------------------
# Orders


def test_circ_less_examples():
    assert circ_less(X, T("x o x"))
    assert circ_less(T("x o (x o x)"), T("(x o x) o x"))
    assert not circ_less(T("x o x"), T("x o x"))


def test_circ_less_is_strict_total_order():
    for cap in (4, 6):
        ts = list(enumerate_terms(1, CIRC, cap))
        ranked = sorted(ts, key=_circ_sort_key)
        for i, a in enumerate(ranked):
            assert circ_cmp(a, a) == 0
            for b in ranked[i + 1 :]:
                assert circ_cmp(a, b) == -1 and circ_cmp(b, a) == 1


def _circ_sort_key(t):
    # Independent encoding of the order: x before compounds, then lexicographic
    # on (left, right) keys.
    if isinstance(t, Variable):
        return (0,)
    return (1, _circ_sort_key(t.left), _circ_sort_key(t.right))


def test_iter_left_subterm():
    s = T("x1*x2")
    assert is_iter_left_subterm(s, T("((x1*x2)*x3)*x4"))
    assert not is_iter_left_subterm(s, s)
    assert not is_iter_left_subterm(s, star(T("x3"), s))
    assert not is_iter_left_subterm(s, circ(s, T("x3")))


def test_seq_sq():
    a, s = T("x1"), T("x2")
    t = star(star(s, T("x3")), T("x4"))
    assert seq_sq((a, s), (a, t))
    assert not seq_sq((a,), (a, s))
    assert not seq_sq((a, s), (a, s))
    assert not seq_sq((s, a), (a, t))


def test_x_power():
    assert x_power(1) == X
    assert x_power(3) == T("x o (x o x)")
    for n in range(1, 9):
        assert size(x_power(n)) == n
    with pytest.raises(ValueError):
        x_power(0)


# ---------------------------------------------------------------------------
# Law application


def test_apply_law_examples():
    root = ()
    assert apply_law(T("x*(x*x)"), LawInstance(LD, root, EXPAND)) == T("(x*x)*(x*x)")
    assert apply_law(T("x*(x*x)"), LawInstance(ALD1, root, CONTRACT)) == T("(x o x)*x")
    assert apply_law(T("x*(x o x)"), LawInstance(ALD2, root, EXPAND)) == T("(x*x) o (x*x)")
    assert apply_law(T("(x o x)*x"), LawInstance(ALD1, root, EXPAND)) == T("x*(x*x)")


def test_apply_law_mismatch():
    with pytest.raises(LawApplicationError):
        apply_law(T("x o x"), LawInstance(LD, (), EXPAND))
    with pytest.raises(LawApplicationError):
        apply_law(T("(x*x)*(x o x)"), LawInstance(LD, (), CONTRACT))


def test_apply_law_involution():
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        t = random_term(rng, rng.randint(2, 9), n_vars=2)
        insts = list(law_instances(t))
        if not insts:
            continue
        inst = rng.choice(insts)
        back = LawInstance(inst.law, inst.pos, CONTRACT if inst.direction == EXPAND else EXPAND)
        assert apply_law(apply_law(t, inst), back) == t
        checked += 1


def test_ld_root_step_preserves_ht_r():
    rng = random.Random(13)
    for _ in range(200):
        t1 = random_term(rng, rng.randint(1, 4))
        t2 = random_term(rng, rng.randint(1, 4))
        t3 = random_term(rng, rng.randint(1, 4))
        t = star(t1, star(t2, t3))
        assert ht_r(apply_law(t, LawInstance(LD, (), EXPAND))) == ht_r(t)


def test_ald1_root_contraction_drops_ht_r_by_one():
    rng = random.Random(17)
    for _ in range(200):
        t = star(random_term(rng, 2), star(random_term(rng, 2), random_term(rng, 3)))
        assert ht_r(apply_law(t, LawInstance(ALD1, (), CONTRACT))) == ht_r(t) - 1


def test_steps_off_rightmost_branch_preserve_ht_r():
    rng = random.Random(19)
    checked = 0
    while checked < 200:
        t = random_term(rng, rng.randint(3, 9))
        insts = [i for i in law_instances(t) if "L" in i.pos]
        if not insts:
            continue
        inst = rng.choice(insts)
        assert ht_r(apply_law(t, inst)) == ht_r(t)
        checked += 1


def test_law_table_matches_hand_written_redex_rewrite():
    # every 2-variable term of size <= 5 and a seeded batch of 3-variable
    # terms: the same instances in the same order, the same rewritten term,
    # and the same error on each root step that does not match
    ts = list(enumerate_terms(2, "*o", 5))
    rng = random.Random(14)
    ts += [random_term(rng, rng.randint(6, 12), n_vars=3) for _ in range(1000)]
    root_steps = [LawInstance(law, (), d) for law in (LD, ALD1, ALD2) for d in (EXPAND, CONTRACT)]
    for laws in ((LD, ALD1, ALD2), (LD,)):
        for t in ts:
            insts = list(law_instances(t, laws))
            assert insts == redex_law_instances(t, laws), render_term(t)
            for inst in insts:
                assert apply_law(t, inst) is redex_apply_law(t, inst)
    for t in ts[::4]:
        for inst in root_steps:
            assert _outcome(apply_law, t, inst) == _outcome(redex_apply_law, t, inst)


def _outcome(apply, t, inst):
    """The rewritten term, or the message of the mismatch error."""
    try:
        return apply(t, inst)
    except LawApplicationError as err:
        return str(err)


def test_unknown_law_name_is_rejected():
    for t in (T("x o x"), T("x*(x o x)")):
        with pytest.raises(ValueError, match="bogus"):
            law_instances(t, laws=("bogus",))
        with pytest.raises(ValueError, match="bogus"):
            ld_closure(t, size(t), laws=(LD, "bogus"))


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_small():
    assert set(enumerate_terms(1, "*o", 2)) == {X, T("x*x"), T("x o x")}
    assert set(enumerate_terms(1, CIRC, 3)) == {
        X,
        T("x o x"),
        T("x o (x o x)"),
        T("(x o x) o x"),
    }


def test_enumerate_counts_match_catalan():
    # Over one variable and both operators there are Catalan(s-1) * 2^(s-1)
    # terms of size s: Catalan(s-1) shapes, one operator choice per node.
    for s in range(1, 7):
        got = sum(1 for t in enumerate_terms(1, "*o", s) if size(t) == s)
        expected = math.comb(2 * (s - 1), s - 1) // s * 2 ** (s - 1)
        assert got == expected


def test_enumerate_no_duplicates_and_deterministic():
    ts = list(enumerate_terms(2, "*o", 4))
    assert len(ts) == len(set(ts))
    assert ts == list(enumerate_terms(2, "*o", 4))
    assert [size(t) for t in ts] == sorted(size(t) for t in ts)
