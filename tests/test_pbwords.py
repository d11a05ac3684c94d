import random

import pytest

from aldbraid.cli import DEFAULT_GAMMAS
from aldbraid.diagrams import word_eq_oracle
from aldbraid.pbwords import (
    audit_derived_identities,
    blocks,
    check_shift_intertwine,
    default_action_size,
    fold_blocks,
    not_in_image_shift,
    parse_pb,
    pb_act_term,
    pb_circ,
    pb_eval_closed,
    pb_eval_term,
    pb_free_reduce,
    pb_inverse,
    pb_shift,
    pb_star,
    pb_term_length,
    relation_instances,
    render_pb,
    v_of_1,
)
from aldbraid.invariants import inv_I, inv_J, specialize
from aldbraid.terms import (
    X,
    Compound,
    decompose_special,
    enumerate_terms,
    ht_r,
    parse_term,
    size,
    star_chain,
    x_power,
)
from oracles import closed_form_length, recursive_pb_eval_term, recursive_v_of_1, value_or_error

W = parse_pb
T = parse_term


def test_parse_render():
    assert W("s1 S1 a2 A2") == (("s", 1), ("s", -1), ("a", 2), ("a", -2))
    assert render_pb(W("s1 S1 a2 A2")) == "s1 S1 a2 A2"
    assert W("") == ()
    with pytest.raises(ValueError):
        W("b1")


def test_pb_shift():
    assert pb_shift(W("s1")) == W("s2")
    assert pb_shift(W("a1 a2")) == W("a2 a3")
    assert pb_shift(()) == ()
    assert pb_shift(W("S1 A3"), 2) == W("S3 A5")


def test_pb_star_circ():
    assert pb_star((), ()) == W("s1")
    assert pb_circ((), ()) == W("a1")
    assert pb_circ(W("a1"), W("s1")) == W("a1 s2 a1")
    assert pb_star(W("s1"), ()) == W("s1 s1 S2")


def test_pb_eval_term():
    assert pb_eval_term(T("x o x"), ()) == W("a1")
    assert pb_eval_term(T("x o (x o x)"), ()) == W("a2 a1")
    assert pb_eval_term(T("x*x"), W("s1")) == W("s1 s2 s1 S2")
    with pytest.raises(ValueError):
        pb_eval_term(T("x1*x2"), ())


@pytest.mark.parametrize("n_vars", [1, 2])
def test_pb_eval_term_matches_recursive_oracle(n_vars):
    # every term of size <= 6: the same word letter for letter at each
    # default word, and a ValueError exactly where the recursion raises one
    gammas = [W(g) for g in DEFAULT_GAMMAS]
    for t in enumerate_terms(n_vars, "*o", 6):
        for g in gammas:
            assert value_or_error(pb_eval_term, t, g) == value_or_error(
                recursive_pb_eval_term, t, g
            )


def test_v_of_1():
    assert v_of_1(T("x")) == ()
    assert v_of_1(T("x o x")) == W("a1")
    assert v_of_1(T("(x o x) o x")) == W("a1 a1")
    with pytest.raises(ValueError):
        v_of_1(T("x*x"))
    # a ∘-term over two variables is refused, as pb_eval_term refuses it
    with pytest.raises(ValueError, match="one-variable"):
        v_of_1(T("x1 o x2"))


def test_v_of_1_matches_the_recursive_oracle():
    for v in enumerate_terms(1, "o", 9):
        assert v_of_1(v) == recursive_v_of_1(v)
    for t in enumerate_terms(1, "*o", 6):
        assert value_or_error(v_of_1, t) == value_or_error(recursive_v_of_1, t)


def test_pb_eval_closed():
    x = T("x")
    assert pb_eval_closed(x, (x,), W("s2")) == W("s2")
    assert pb_eval_closed(T("x o x"), (x, x), W("s1")) == W("s1 s2 a1")
    assert pb_eval_closed(T("x o (x o x)"), (x, x, x), W("s1")) == W("s1 s2 s3 a2 a1")
    with pytest.raises(ValueError):
        pb_eval_closed(T("x o x"), (x,), ())


def test_pb_eval_closed_matches_recursive_letterwise_when_skeletal():
    # v(1)-only case: the closed form at the identity is exactly v_of_1
    for v in enumerate_terms(1, "o", 4):
        ts = (T("x"),) * size(v)
        assert pb_eval_closed(v, ts, ()) == v_of_1(v)


def test_word_lengths_from_the_term():
    # the closed form of t is as long as the recursive word of its special form
    for t in enumerate_terms(1, "*o", 5):
        v, ts = decompose_special(specialize(t))
        for g in ((), W("s1"), W("s1 a2 A1")):
            assert pb_term_length(t, len(g)) == len(pb_eval_term(t, g))
            assert pb_term_length(specialize(t), len(g)) == len(pb_eval_closed(v, ts, g))


def test_special_form_length_matches_the_closed_form_oracle():
    for t in enumerate_terms(2, "*o", 5):
        for n in (0, 1, 3):
            assert pb_term_length(specialize(t), n) == closed_form_length(inv_I(t), inv_J(t), n)


def test_word_length_of_shared_and_deep_terms():
    # t_k = t_{k-1}*t_{k-1} has 2^k leaves but k + 1 distinct nodes, and its
    # length at the empty word obeys l_k = 3·l_{k-1} + 1
    t = T("x")
    for _ in range(60):
        t = Compound("*", t, t)
    assert pb_term_length(t, 0) == (3**60 - 1) // 2
    # a right comb of n leaves, far deeper than the recursion limit:
    # n - 1 carets, each adding 2m + 1 letters to the m of the last leaf
    n, m = 5_000, 3
    assert pb_term_length(star_chain([X] * (n - 1), X), m) == (n - 1) * (2 * m + 1) + m


def test_blocks_fold():
    v = T("(x o x) o (x o (x o x))")
    assert blocks(v) == [T("x o x"), T("x"), T("x"), T("x")]
    assert fold_blocks(blocks(v)) == v


def test_pb_act_term_examples():
    assert pb_act_term(T("x o (x o x)"), W("a1")) == T("(x o x) o x")
    got = pb_act_term(T("(x o x) o (x o (x o x))"), W("s1"))
    assert got == T("x o ((x o x) o (x o x))")
    assert pb_act_term(T("x o x"), W("a2")) is None


def test_pb_act_term_rejects_unknown_letter_family():
    with pytest.raises(ValueError, match="unknown letter family"):
        pb_act_term(x_power(4), (("q", 1),))


def test_pb_act_term_inverse_split():
    v = T("(x o x) o x")
    assert pb_act_term(v, W("A1")) == T("x o (x o x)")
    assert pb_act_term(T("x o (x o x)"), W("A1")) is None  # block 1 is a leaf
    w = T("(x o x) o (x o x)")
    assert pb_act_term(w, W("a1 A1")) == w


def test_action_replays_v_of_1():
    # v(1) maps a large right comb to v ∘ x^[N-p]
    for v in enumerate_terms(1, "o", 4):
        n = 10
        got = pb_act_term(x_power(n), v_of_1(v))
        expected = fold_blocks([v] + [T("x")] * (n - size(v)))
        assert got == expected


def test_shifted_words_fix_first_block():
    rng = random.Random(97)
    letters = list(W("s1 S1 s2 S2 a1 A1 a2 A2"))
    for _ in range(100):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        shifted = pb_shift(w)
        for n in (6, 9):
            got = pb_act_term(x_power(n), shifted)
            if got is not None:
                assert blocks(got)[0] == T("x")


def test_not_in_image_shift_examples():
    cert = not_in_image_shift(W("a1"), 8)
    assert cert is not None and blocks(cert.result)[0] == T("x o x")
    assert not_in_image_shift(W("s2"), 8) is None
    u, v = T("x o x"), T("(x o x) o x")
    w = pb_inverse(v_of_1(u)) + v_of_1(v)
    assert not_in_image_shift(w, 8) is not None


def test_not_in_image_shift_needs_split_lift():
    # u(1)⁻¹ v(1) for u = x∘(x∘x), v = (x∘x)∘x starts with splits either way
    # round; the certificate only appears after lifting through u(1).
    u, v = T("x o (x o x)"), T("(x o x) o x")
    w = pb_inverse(v_of_1(u)) + v_of_1(v)
    cert = not_in_image_shift(w)
    assert cert is not None
    assert blocks(cert.start)[0] == u and blocks(cert.result)[0] == v


def test_not_in_image_certificates_all_small_pairs():
    terms = list(enumerate_terms(1, "o", 4))
    for u in terms:
        for v in terms:
            if u == v:
                continue
            w = pb_inverse(v_of_1(u)) + v_of_1(v)
            assert not_in_image_shift(w) is not None, (u, v)


def test_default_action_size():
    w = W("A1 A2 a1 a1")
    assert default_action_size(w) == 4 + 2 + 3


def test_pb_free_reduce():
    assert pb_free_reduce(W("a1 A1 s2")) == W("s2")
    assert pb_free_reduce(W("A1 a1 a1")) == W("a1")
    assert pb_free_reduce(()) == ()


def test_relation_instances_families():
    rels = relation_instances(4)
    families = {r.family for r in rels}
    assert families == {
        "sigma-far-comm",
        "a-sigma-far-comm",
        "a-sigma-shift",
        "a-a-shift",
        "braid",
        "caret-slide-up",
        "caret-slide-down",
    }
    # spot-check the shape of each family at small indices
    by_family = {(r.family, r.i, r.j): r for r in rels}
    assert by_family[("sigma-far-comm", 1, 3)].lhs == W("s3 s1")
    assert by_family[("a-sigma-shift", 2, 1)].lhs == W("a1 s2")
    assert by_family[("a-sigma-shift", 2, 1)].rhs == W("s3 a1")
    assert by_family[("a-a-shift", 2, 1)].rhs == W("a3 a1")
    assert by_family[("caret-slide-up", 1, 2)].lhs == W("s1 s2 a1")
    assert by_family[("caret-slide-up", 1, 2)].rhs == W("a2 s1")
    assert by_family[("caret-slide-down", 1, 2)].lhs == W("s2 s1 a2")
    assert by_family[("caret-slide-down", 1, 2)].rhs == W("a1 s1")


def pb_relation_neighbors(w, max_index=None):
    """Words one sound move away: a relation applied to a subword, a free
    cancellation, or a free insertion (bounded by max_index)."""
    w = tuple(w)
    if max_index is None:
        max_index = max((abs(i) for _, i in w), default=1) + 1
    rules = []
    for rel in relation_instances(max_index):
        rules.append((rel.lhs, rel.rhs))
        rules.append((rel.rhs, rel.lhs))
        rules.append((pb_inverse(rel.lhs), pb_inverse(rel.rhs)))
        rules.append((pb_inverse(rel.rhs), pb_inverse(rel.lhs)))
    for pos in range(len(w) + 1):
        for lhs, rhs in rules:
            if w[pos : pos + len(lhs)] == lhs:
                yield w[:pos] + rhs + w[pos + len(lhs) :]
        if pos < len(w) - 1 and w[pos + 1] == (w[pos][0], -w[pos][1]):
            yield w[:pos] + w[pos + 2 :]
        for fam in ("s", "a"):
            for i in range(1, max_index + 1):
                for sign in (1, -1):
                    yield w[:pos] + ((fam, sign * i), (fam, -sign * i)) + w[pos:]


def test_pb_relation_neighbors():
    neighbors = set(pb_relation_neighbors(W("s1 s3")))
    assert W("s3 s1") in neighbors
    neighbors = set(pb_relation_neighbors(W("a1 s2")))
    assert W("s3 a1") in neighbors
    neighbors = set(pb_relation_neighbors(W("s1 S1")))
    assert () in neighbors


def test_action_respects_relations():
    # acting by the two sides of every relation agrees, including definedness;
    # the deep terms (rightmost branch >= 7) keep every letter's action defined
    terms = [x_power(n) for n in range(1, 10)]
    terms += [t for t in enumerate_terms(1, "o", 5) if ht_r(t) >= 2]
    terms += [t for t in enumerate_terms(1, "o", 9) if ht_r(t) >= 7]
    for rel in relation_instances(4):
        for v in terms:
            left = pb_act_term(v, rel.lhs)
            right = pb_act_term(v, rel.rhs)
            assert left == right, (rel, v)


def test_check_shift_intertwine_letter_instance():
    # v = x∘x, b = σ1 gives the word pair (a1 σ2, σ3 a1)
    assert check_shift_intertwine(T("x o x"), W("s1"), word_eq_oracle)
    assert check_shift_intertwine(T("x"), W("s1 a2"), word_eq_oracle)


def test_audit_derived_identities_small():
    rng = random.Random(101)
    letters = list(W("s1 S1 a1 A1"))
    zs = [(), W("s1")] + [
        tuple(rng.choice(letters) for _ in range(rng.randint(1, 2))) for _ in range(2)
    ]
    report = audit_derived_identities(word_eq_oracle, zs)
    assert all(row["holds"] for row in report)
    names = {row["identity"] for row in report}
    assert "braid-relation" in names and "a1-slides-shift2" in names
