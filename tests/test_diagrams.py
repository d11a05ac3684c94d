import os
import random
import subprocess
import sys

import pytest

from aldbraid import diagrams
from aldbraid.braids import free_reduce
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
    split_strand,
    tree_pattern,
    word_eq_oracle,
    word_to_diagram,
)
from aldbraid.pbwords import parse_pb, pb_eval_term, pb_inverse, relation_instances
from aldbraid.terms import STAR, Compound, enumerate_terms, parse_term, x_power
from oracles import (
    _split_one_strand,
    multiply_by_splitting,
    recursive_collapse_caret,
    recursive_diagram_eval_term,
    recursive_leaf_subtrees,
    recursive_sibling_leaf_pairs,
    recursive_substitute,
    recursive_tree_join,
    recursive_tree_pattern,
    value_or_error,
    word_eq_by_diagrams,
    word_to_diagram_by_letters,
)

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
    assert tree_pattern(parse_term("(x o x) o (x o x)")) == "((xx)(xx))"
    assert tree_pattern(parse_term("x")) == "x"


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
    # the braid is validated before it is freely reduced, and stored reduced
    with pytest.raises(ValueError):
        PBDiagram(x_power(2), (2, -2), x_power(2))
    d = PBDiagram(x_power(3), (1, -1, 2), x_power(3))
    assert d.braid == (2,) and d.permutation == (1, 3, 2)


def test_split_strand_identity():
    d = split_strand(identity_diagram(), 1)
    assert d.dom == d.cod == x_power(2) and d.braid == ()
    assert diagram_equal(d, identity_diagram())


def test_split_strand_cables_crossings():
    d = split_strand(gen_sigma(1), 1)
    assert d.braid == (2, 1)
    assert d.dom == parse_term("(x o x) o (x o x)")
    d2 = split_strand(gen_sigma(1), 2)
    assert d2.braid == (1, 2)


def test_split_strand_matches_the_letter_by_letter_oracle():
    # every strand of every evaluation of size <= 5 at the four default words
    ds = {d for g in _default_word_diagrams() for d in _evaluate_all(g, 5)}
    pairs = [(d, k) for d in ds for k in range(1, d.dom.size + 1)]
    assert len(ds) > 800 and len(pairs) > 6_000
    for d, k in pairs:
        assert split_strand(d, k) == _split_one_strand(d, k), (d, k)


def test_split_then_reduce_round_trip():
    rng = random.Random(61)
    for _ in range(60):
        d = diagram_reduce(random_diagram(rng))
        k = rng.randint(1, d.dom.size)
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
    # among them the right factors G(b) = (a1⁻¹ · σ1) · sh(b)⁻¹ of b * c, and
    # the products (b ∘ c) · G(b) that finish it
    lead = multiply(diagram_inverse(gen_a(1)), gen_sigma(1))
    factors = {multiply(d1, d2) for d1, d2 in operands if d1 == lead}
    assert factors
    assert any(d2 in factors for _, d2 in operands)


def test_term_evaluation_makes_two_products_per_term_pair(monkeypatch):
    # b ∘ c = b · H(c) and b * c = (b ∘ c) · G(b), with H(c) = sh(c) · a1 made
    # once per right operand and G(b) = (a1⁻¹ · σ1) · sh(b)⁻¹ once per left
    # operand of a `*`
    ts = list(enumerate_terms(1, "*o", 6))
    compounds = [t for t in ts if isinstance(t, Compound)]
    pairs = {(t.left, t.right) for t in compounds}
    rights = {t.right for t in compounds}
    star_lefts = {t.left for t in compounds if t.op == STAR}
    g = word_to_diagram(W("s1 a2"))
    multiply, calls = diagrams.diagram_multiply, []
    monkeypatch.setattr(
        diagrams, "diagram_multiply", lambda d1, d2: calls.append(d1) or multiply(d1, d2)
    )
    _evaluate_all(g, 6)
    monkeypatch.undo()
    assert len(pairs) > 800
    assert len(calls) == 2 * len(pairs) + len(rights) + len(star_lefts)


#: The tree walks and the recursive oracles that each must reproduce.
TREE_WALKS = {
    "sibling_leaf_pairs": recursive_sibling_leaf_pairs,
    "collapse_caret": recursive_collapse_caret,
    "tree_join": recursive_tree_join,
    "_leaf_subtrees": recursive_leaf_subtrees,
    "substitute": recursive_substitute,
}


def test_tree_walks_match_the_recursive_oracles(monkeypatch):
    # the arguments of every tree walk in the evaluation of the terms of size
    # <= 7 at the four default words, from empty caches so that each walk
    # meets them whatever ran before
    for name in ("_graft", "_refine_dom_side", "_refine_cod_side", "_times_letter", *TREE_WALKS):
        if name != "substitute":
            getattr(diagrams, name).cache_clear()
    met = {name: set() for name in TREE_WALKS}
    for name, args in met.items():
        walk = getattr(diagrams, name)
        monkeypatch.setattr(diagrams, name, lambda *a, w=walk, s=args: s.add(a) or w(*a))
    for g in _default_word_diagrams():
        _evaluate_all(g, 7)
    monkeypatch.undo()
    trees = set()
    for name, oracle in TREE_WALKS.items():
        walk = getattr(diagrams, name)
        assert len(met[name]) > 100, name
        for args in met[name]:
            assert walk(*args) == oracle(*args), (name, args)
            trees.update(a for a in args if isinstance(a, Compound))
    assert len(trees) > 1_000
    for t in trees:
        assert tree_pattern(t) == recursive_tree_pattern(t)


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
        assert (d.dom, d.braid, d.cod, d.permutation) == (
            ref.dom,
            ref.braid,
            ref.cod,
            ref.permutation,
        )


def test_private_constructor_checks_leaf_counts():
    with pytest.raises(ValueError):
        diagrams._diagram(x_power(2), (), x_power(3), (1, 2))
    with pytest.raises(ValueError):
        diagrams._diagram(x_power(3), (), x_power(3), (1, 2))


def test_diagram_eval_term_matches_the_recursive_oracle():
    # the fold makes the recursion's products on the same operands, so the
    # words agree letter for letter and the caches hold the same keys
    for g in _default_word_diagrams():
        cache, oracle_cache = {}, {}
        for t in enumerate_terms(1, "*o", 7):
            d, ref = diagram_eval_term(t, g, cache), recursive_diagram_eval_term(t, g, oracle_cache)
            assert (d.dom, d.braid, d.cod) == (ref.dom, ref.braid, ref.cod), t
        assert cache.keys() == oracle_cache.keys()
        for t in enumerate_terms(2, "*o", 3):
            assert value_or_error(diagram_eval_term, t, g) == value_or_error(
                recursive_diagram_eval_term, t, g
            )


def test_evaluations_are_reduced():
    # the freeness scan and eval --diagram label and print them unreduced;
    # at size 7, caret cancellation leaves letters next to their inverses
    # unless the constructor reduces them
    for g in _default_word_diagrams():
        for d in _evaluate_all(g, 7):
            assert diagram_reduce(d) == d
            assert d.braid == free_reduce(d.braid)


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


def test_the_first_refused_letter_is_reported_whatever_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from aldbraid.diagrams import word_eq_oracle\n"
        "try:\n"
        "    word_eq_oracle((('a', 199), ('s', 250)), (('s', 300),))\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env, check=True)
        assert result.stdout == "letter index 199 needs a comb of 201 leaves, more than 200\n"


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
    assert sites == [(4, 4)]
    assert not reduction_sites(gen_sigma(1))


def test_reduction_confluent_on_random_diagrams(monkeypatch):
    # diagram_reduce tries the sites leftmost first; offered them in a seeded
    # random order instead, it must reach the same reduced diagram
    sites = diagrams.reduction_sites

    def shuffled_sites(d):
        out = sites(d)
        order.shuffle(out)
        return out

    rng = random.Random(79)
    for _ in range(1000):
        d = random_diagram(rng, max_leaves=5, max_len=4)
        base = diagram_reduce(d)
        order = random.Random(rng.randint(0, 10**9))
        with monkeypatch.context() as m:
            m.setattr(diagrams, "reduction_sites", shuffled_sites)
            shuffled = diagram_reduce(d)
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
    assert d.to_json() == {"dom": "(x(x(xx)))", "braid": "S2", "cod": "((xx)(xx))"}
