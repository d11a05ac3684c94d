import random

import pytest

from aldbraid import diagrams
from aldbraid.diagrams import (
    PBDiagram,
    diagram_equal,
    diagram_eval_term,
    diagram_inverse,
    diagram_multiply,
    diagram_reduce,
    diagram_shift,
    gen_a,
    gen_sigma,
    identity_diagram,
    parse_tree_pattern,
    split_strand,
    tree_pattern,
    word_eq_oracle,
    word_to_diagram,
)
from aldbraid.pbwords import parse_pb, pb_eval_term, pb_inverse, relation_instances
from aldbraid.terms import MAX_DEPTH, enumerate_terms, parse_term, size, x_power
from oracles import multiply_by_splitting, word_eq_by_diagrams, word_to_diagram_by_letters

W = parse_pb


def random_diagram(rng, max_leaves=4, max_len=3):
    n = rng.randint(1, max_leaves)
    trees = [t for t in _trees_with_leaves(n)]
    dom = rng.choice(trees)
    cod = rng.choice(trees)
    braid = tuple(
        rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, max_len))
    ) if n > 1 else ()
    return PBDiagram(dom, braid, cod)


def _trees_with_leaves(n):
    from aldbraid.terms import CIRC, enumerate_terms, size

    return [t for t in enumerate_terms(1, CIRC, n) if size(t) == n]


def test_tree_pattern_round_trip():
    assert tree_pattern(parse_term("x o (x o x)")) == "(x(xx))"
    assert parse_tree_pattern("(x(xx))") == parse_term("x o (x o x)")
    assert parse_tree_pattern("x") == parse_term("x")
    with pytest.raises(ValueError):
        parse_tree_pattern("(x")


def test_parse_tree_pattern_refuses_deep_nesting():
    # a ValueError like parse_term's, not a RecursionError, under -O too
    def left(depth):
        return "(" * depth + "x" + "x)" * depth

    def right(depth):
        return "(x" * depth + "x" + ")" * depth

    for nested in (left, right):
        assert size(parse_tree_pattern(nested(MAX_DEPTH))) == MAX_DEPTH + 1
        for depth in (MAX_DEPTH + 1, 3_000):
            with pytest.raises(ValueError, match="nested deeper"):
                parse_tree_pattern(nested(depth))
            with pytest.raises(ValueError, match="nested deeper"):
                PBDiagram.from_json({"dom": nested(depth), "braid": "", "cod": nested(depth)})


def test_generators():
    s1 = gen_sigma(1)
    assert s1.dom == s1.cod == x_power(3) and s1.braid == (1,)
    a1 = gen_a(1)
    assert a1.dom == x_power(3)
    assert a1.cod == parse_term("(x o x) o x")
    assert a1.braid == ()
    assert gen_sigma(2).dom == x_power(4) and gen_sigma(2).braid == (2,)
    with pytest.raises(ValueError):
        gen_a(0)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PBDiagram(x_power(2), (), x_power(3))
    with pytest.raises(ValueError):
        PBDiagram(x_power(2), (2,), x_power(2))


def test_split_strand_identity():
    d = split_strand(identity_diagram(), 1)
    assert d.dom == d.cod == x_power(2) and d.braid == ()
    assert diagram_equal(d, identity_diagram())


def test_split_strand_cables_crossings():
    d = split_strand(gen_sigma(1), 1)
    assert d.braid == (2, 1)
    assert d.dom == parse_tree_pattern("((xx)(xx))")
    d2 = split_strand(gen_sigma(1), 2)
    assert d2.braid == (1, 2)


def test_split_then_reduce_round_trip():
    rng = random.Random(61)
    for _ in range(60):
        d = diagram_reduce(random_diagram(rng))
        k = rng.randint(1, d.strands)
        assert diagram_reduce(split_strand(d, k)) == d
        assert diagram_equal(split_strand(d, k), d)


def test_multiply_identity_and_inverse():
    rng = random.Random(67)
    for _ in range(30):
        d = random_diagram(rng)
        assert diagram_equal(diagram_multiply(d, identity_diagram()), d)
        assert diagram_equal(diagram_multiply(d, diagram_inverse(d)), identity_diagram())
    assert diagram_equal(
        diagram_multiply(gen_a(1), diagram_inverse(gen_a(1))), identity_diagram()
    )


def test_multiply_matches_caret_by_caret_refinement():
    letters = [gen(i) for gen in (gen_sigma, gen_a) for i in (1, 2, 3)]
    letters += [diagram_inverse(d) for d in letters]
    for d1 in letters:
        for d2 in letters:
            assert diagram_multiply(d1, d2) == multiply_by_splitting(d1, d2)
    rng = random.Random(97)
    pool = list(W("s1 S1 s2 S2 s3 S3 a1 A1 a2 A2 a3 A3"))
    for _ in range(300):
        u, v = (tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))) for _ in "uv")
        d1, d2 = word_to_diagram(u), word_to_diagram(v)
        assert diagram_multiply(d1, d2) == multiply_by_splitting(d1, d2)


def _default_word_diagrams():
    return [word_to_diagram(W(g)) for g in ("", "s1", "a1", "s1 a2")]


def _evaluate_all(g, max_size):
    cache = {}
    return [diagram_eval_term(t, g, cache) for t in enumerate_terms(1, "*o", max_size)]


def test_multiply_matches_caret_by_caret_refinement_in_term_evaluation(monkeypatch):
    # the operands of every product in the evaluation of the terms of size
    # <= 5 at the four default words, and of size 6 at s1 a2
    multiply, operands = diagrams.diagram_multiply, []
    gammas = _default_word_diagrams()
    monkeypatch.setattr(
        diagrams, "diagram_multiply", lambda d1, d2: operands.append((d1, d2)) or multiply(d1, d2)
    )
    for g in gammas:
        _evaluate_all(g, 5)
    _evaluate_all(gammas[-1], 6)
    monkeypatch.undo()
    assert len(operands) > 2_000
    for d1, d2 in operands:
        assert multiply(d1, d2) == multiply_by_splitting(d1, d2)
    # among them the right factors σ1 · sh(b)⁻¹ of b * c, and the products
    # (b · sh(c)) · (σ1 · sh(b)⁻¹) that finish it
    sigma1 = diagrams._letter_diagram("s", 1)
    factors = {multiply(d1, d2) for d1, d2 in operands if d1 == sigma1}
    assert factors
    assert any(d2 in factors for _, d2 in operands)


def test_private_constructor_matches_public_one(monkeypatch):
    # every diagram the products, shifts and inverses build in the
    # evaluation of the terms of size <= 6 at the four default words
    build, built = diagrams._diagram, []
    gammas = _default_word_diagrams()
    monkeypatch.setattr(
        diagrams, "_diagram", lambda *parts: built.append(build(*parts)) or built[-1]
    )
    for g in gammas:
        _evaluate_all(g, 6)
    monkeypatch.undo()
    assert len(built) > 10_000
    for d in built:
        ref = PBDiagram(d.dom, d.braid, d.cod)
        assert (d.dom, d.braid, d.cod, d.strands, d.permutation) == (
            ref.dom,
            ref.braid,
            ref.cod,
            ref.strands,
            ref.permutation,
        )


def test_private_constructor_checks_leaf_counts():
    with pytest.raises(ValueError):
        diagrams._diagram(x_power(2), (), x_power(3), (1, 2))
    with pytest.raises(ValueError):
        diagrams._diagram(x_power(3), (), x_power(3), (1, 2))


def test_evaluations_are_reduced():
    # the freeness scan and eval --diagram label and print them unreduced
    for g in _default_word_diagrams():
        for d in _evaluate_all(g, 6):
            assert diagram_reduce(d) == d


def test_multiply_associative_braid_relation():
    s1, s2 = gen_sigma(1), gen_sigma(2)
    lhs = diagram_multiply(diagram_multiply(s1, s2), s1)
    rhs = diagram_multiply(s2, diagram_multiply(s1, s2))
    assert diagram_equal(lhs, rhs)


def test_word_to_diagram():
    assert word_to_diagram(()) == identity_diagram()
    assert word_to_diagram(W("s1")) == gen_sigma(1)
    assert diagram_equal(word_to_diagram(W("s1 S1")), identity_diagram())


def test_word_to_diagram_homomorphic():
    rng = random.Random(71)
    letters = list(W("s1 S1 s2 S2 a1 A1 a2 A2"))
    for _ in range(20):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        assert diagram_equal(
            word_to_diagram(u + v),
            diagram_multiply(word_to_diagram(u), word_to_diagram(v)),
        )


def test_word_to_diagram_returns_reduced_diagrams():
    # word_eq_oracle compares these outputs without reducing them again
    rng = random.Random(73)
    letters = list(W("s1 S1 s2 S2 s3 S3 a1 A1 a2 A2 a3 A3"))
    words = [()] + [tuple(rng.choice(letters) for _ in range(rng.randint(1, 8))) for _ in range(200)]
    for w in words:
        d = word_to_diagram(w)
        assert diagram_reduce(d) == d, w
    for u, v in zip(words, words[1:] + words[:1]):
        assert word_eq_oracle(u, v) == diagram_equal(word_to_diagram(u), word_to_diagram(v))
        assert word_eq_oracle(u, u + v + pb_inverse(v)), (u, v)
        # word_eq_oracle decides the line above by free cancellation alone
        assert diagram_equal(word_to_diagram(u + v + pb_inverse(v)), word_to_diagram(u)), (u, v)


def test_word_to_diagram_matches_letter_by_letter_oracle():
    # words from 50 shared stems with random tails: they share prefixes, as
    # the words of one formula check do, and make more distinct steps than
    # the step cache holds, so it evicts as it goes
    diagrams._times_letter.cache_clear()
    rng = random.Random(101)
    letters = [(fam, sign * i) for fam in "sa" for i in range(1, 5) for sign in (1, -1)]
    stems = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))) for _ in range(50)]
    for _ in range(2_000):
        w = rng.choice(stems) + tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        d, ref = word_to_diagram(w), word_to_diagram_by_letters(w)
        assert (d.dom, d.braid, d.cod, d.permutation) == (
            ref.dom,
            ref.braid,
            ref.cod,
            ref.permutation,
        ), w
    info = diagrams._times_letter.cache_info()
    assert info.currsize == info.maxsize < info.misses


def test_word_to_diagram_computes_each_step_once(monkeypatch):
    multiply, calls = diagrams.diagram_multiply, []
    monkeypatch.setattr(
        diagrams, "diagram_multiply", lambda d1, d2: calls.append(1) or multiply(d1, d2)
    )
    diagrams._times_letter.cache_clear()
    w = W("s1 a2 A1 s3 S2 a1")
    first = word_to_diagram(w)
    assert len(calls) == len(w)
    calls.clear()
    assert word_to_diagram(w) == first and not calls
    word_to_diagram(w + W("s2"))
    assert len(calls) == 1


def test_word_eq_oracle_matches_the_uncancelled_oracle():
    rng = random.Random(131)
    letters = [(fam, sign * i) for fam in "sa" for i in range(1, 4) for sign in (1, -1)]
    relators = [rel.lhs + pb_inverse(rel.rhs) for rel in relation_instances(3)]

    def word(lo, hi):
        return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    pairs = []
    for _ in range(150):
        pairs.append((word(0, 6), word(0, 6), None))  # mostly unequal
        p, r1, s = word(0, 5), word(0, 3), word(0, 5)
        k = rng.randint(0, len(r1))
        r2 = r1[:k] + rng.choice(relators) + r1[k:]
        pairs.append((p + r1 + s, p + r2 + s, True))
        u, v = word(0, 6), word(1, 4)
        pairs.append((u, u + v + pb_inverse(v), True))
        w = word(0, 8)
        pairs.append((w, w + W("a1"), False))
    for w1, w2, expected in pairs:
        got = word_eq_oracle(w1, w2)
        assert got == word_eq_by_diagrams(w1, w2) == word_eq_oracle(w2, w1), (w1, w2)
        assert expected is None or got == expected, (w1, w2)
    assert 0 < sum(word_eq_oracle(w1, w2) for w1, w2, e in pairs if e is None) < 50


def test_word_eq_oracle_cancels_before_any_product(monkeypatch):
    multiply, calls = diagrams.diagram_multiply, []
    monkeypatch.setattr(
        diagrams, "diagram_multiply", lambda d1, d2: calls.append(1) or multiply(d1, d2)
    )
    diagrams._times_letter.cache_clear()
    # equal up to free cancellation: no product at all
    assert word_eq_oracle(W("s1 a2 S3 s3 A1"), W("a1 A1 s1 a2 A1 s2 S2"))
    assert word_eq_oracle(W("s2 A1 a1 S2"), ())
    assert not calls
    # only the remainders s1 and a1 between the common prefix and suffix
    p, s = W("a2 s1 A3 s2"), W("S1 a1 s3")
    assert not word_eq_oracle(p + W("s1") + s, p + W("a1") + s)
    assert len(calls) == 2


def test_refused_letters_raise_even_where_they_cancel():
    with pytest.raises(ValueError, match="unknown letter family"):
        word_to_diagram((("q", 1),))
    for w in [W("s300 S300"), (("s", 0), ("s", 0)), (("q", 1), ("q", -1))]:
        with pytest.raises(ValueError):
            word_eq_oracle(w, ())
        with pytest.raises(ValueError):
            word_eq_oracle(W("s1"), W("s1") + w)


def test_word_to_diagram_long_word():
    # the steps run in a loop, and the cache stays bounded
    assert word_to_diagram(W("s1 a1 A1 S1") * 5_000) == identity_diagram()
    info = diagrams._times_letter.cache_info()
    assert info.currsize <= info.maxsize


def test_diagram_shift():
    assert diagram_equal(diagram_shift(identity_diagram()), identity_diagram())
    assert diagram_equal(diagram_shift(gen_sigma(1)), gen_sigma(2))
    assert diagram_equal(diagram_shift(gen_a(1)), gen_a(2))
    assert diagram_equal(diagram_shift(word_to_diagram(W("s1 a1"))), word_to_diagram(W("s2 a2")))


def test_reduce_examples():
    # a relator reduces to the identity
    relator = W("s1 s2 s1") + tuple((f, -i) for f, i in reversed(W("s2 s1 s2")))
    assert diagram_equal(word_to_diagram(relator), identity_diagram())
    # a full comb pair with no crossings collapses entirely
    d = PBDiagram(x_power(5), (), x_power(5))
    assert diagram_reduce(d) == identity_diagram()


def test_reduce_keeps_genuine_crossing():
    # crossing block 1 with "the rest of the world" is not σ1 and not reducible
    d = PBDiagram(x_power(2), (1,), x_power(2))
    assert diagram_reduce(d) == d
    assert not diagram_equal(d, gen_sigma(1))


def test_diagram_equal_relations_small():
    for rel in relation_instances(3):
        assert word_eq_oracle(rel.lhs, rel.rhs), rel.family


def test_sigma_vs_a_distinct():
    assert not diagram_equal(word_to_diagram(W("s1")), word_to_diagram(W("a1")))


def test_relator_invariance_random():
    rng = random.Random(73)
    rels = relation_instances(3)
    letters = list(W("s1 S1 s2 S2 a1 A1 a2 A2"))
    for _ in range(15):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        rel = rng.choice(rels)
        relator = rel.lhs + tuple((f, -i) for f, i in reversed(rel.rhs))
        assert word_eq_oracle(w, w + relator)


def test_reduction_sites_shape():
    from aldbraid.diagrams import reduction_sites

    d = PBDiagram(x_power(5), (), x_power(5))
    sites = reduction_sites(d)
    assert sites and all(s.dom_pair == s.cod_pair for s in sites)
    assert not reduction_sites(gen_sigma(1))


def test_reduction_confluent_on_random_diagrams():
    rng = random.Random(79)
    for _ in range(1000):
        d = random_diagram(rng, max_leaves=5, max_len=4)
        base = diagram_reduce(d)
        shuffled = diagram_reduce(d, rng=random.Random(rng.randint(0, 10**9)))
        assert base == shuffled


def test_shift_injective_on_unequal_pairs():
    rng = random.Random(83)
    letters = list(W("s1 S1 s2 S2 a1 A1"))
    checked = 0
    while checked < 200:
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        du, dv = word_to_diagram(u), word_to_diagram(v)
        if diagram_equal(du, dv):
            continue
        assert not diagram_equal(diagram_shift(du), diagram_shift(dv))
        checked += 1


def test_structural_eval_matches_word_eval():
    rng = random.Random(89)
    from aldbraid.terms import enumerate_terms

    for t in enumerate_terms(1, "*o", 3):
        for gamma in ((), W("s1"), W("a1")):
            via_words = word_to_diagram(pb_eval_term(t, gamma))
            structural = diagram_eval_term(t, word_to_diagram(gamma))
            assert diagram_equal(via_words, structural)


def test_json_round_trip():
    d = diagram_reduce(word_to_diagram(W("s1 a2 S1")))
    assert PBDiagram.from_json(d.to_json()) == d
