import functools
import importlib.util
import os
import random
import subprocess
import sys

import pytest

from aldbraid import ldoracle
from aldbraid.braids import (
    EQUAL,
    GREATER,
    LESS,
    HandleReductionDefect,
    braid_compare,
    braid_equal,
    braid_key,
    braid_ld,
    braid_shift,
    cancel_common_ends,
    cancel_far_commuting,
    eval_star_braid,
    exponent_sum,
    free_reduce,
    handle_reduce,
    inverse,
    parse_braid,
    permutation,
    render_braid,
)
from aldbraid.invariants import decide_ald
from aldbraid.terms import STAR, Compound, X, enumerate_terms, parse_term
from oracles import (
    quotient_braid_equal,
    recursive_eval_star_braid,
    scan_handle_reduce,
    splice_braid_compare,
    splice_handle_reduce,
    two_formula_braid_key,
    value_or_error,
)

B = parse_braid


def random_word(rng, length, max_index=4):
    return tuple(rng.choice([1, -1]) * rng.randint(1, max_index) for _ in range(length))


def test_parse_render():
    assert B("s1 s2 S1") == (1, 2, -1)
    assert B("") == ()
    assert render_braid((1, 2, -1)) == "s1 s2 S1"
    assert parse_braid(render_braid((3, -2, 1))) == (3, -2, 1)
    with pytest.raises(ValueError):
        B("t1")
    with pytest.raises(ValueError):
        B("s0")


def test_free_reduce():
    assert free_reduce(B("s1 S1")) == ()
    assert free_reduce(B("s1 s2 S2 s1")) == (1, 1)
    assert free_reduce(()) == ()


def test_handle_reduce_examples():
    # braid relation relator σ1σ2σ1 (σ2σ1σ2)⁻¹ reduces to the empty word
    assert handle_reduce(B("s1 s2 s1 S2 S1 S2")) == ()
    # already handle-free, σ-positive
    assert handle_reduce(B("s1 S2")) == (1, -2)
    # handle-free σ1-negative word: σ2 σ1⁻¹ σ2⁻¹ has no handle (the interior
    # of the σ2-pair contains the lower index 1)
    r = handle_reduce(B("s2 S1 S2"))
    assert r == (2, -1, -2)
    assert permutation(r) != permutation(())  # nontrivial by the symmetric-group image


def test_handle_reduce_step_cap_skips_free_cancellations():
    # each σ1 σ1⁻¹ is a handle with an empty interior, which removes two
    # letters and pushes none: the defect-detector cap does not count it,
    # so a long raw word is not refused for its length
    assert handle_reduce((1, -1) * 1000, step_cap=0) == ()
    assert handle_reduce((1, -1) * 1_200_000) == ()
    with pytest.raises(HandleReductionDefect):
        handle_reduce((1, 2, -1), step_cap=0)


def test_handle_reduce_sound_on_random_words():
    rng = random.Random(23)
    for _ in range(300):
        w = random_word(rng, rng.randint(0, 40))
        r = handle_reduce(w)
        # cheap independent invariants of the braid class
        assert permutation(r, 6) == permutation(w, 6)
        assert exponent_sum(r) == exponent_sum(w)
        assert braid_equal(w, r)


def test_handle_reduce_matches_the_splice_oracle_on_random_words():
    # raw words, where a letter next to its inverse is an empty handle that
    # the step cap does not count, and their free reductions: all three reduce
    # the same handles in the same order and hit the step cap at the same count
    rng = random.Random(1997)
    reductions = 0
    for _ in range(3_000):
        w = random_word(rng, rng.randint(0, 40), rng.randint(1, 6))
        for u in (free_reduce(w), w):
            expected, k = splice_handle_reduce(u)
            assert scan_handle_reduce(u) == (expected, k), u
            assert handle_reduce(u) == expected, u
            _assert_cap_boundary(u, k, expected)
        reductions += k  # of the raw word, the last one reduced
        v = random_word(rng, rng.randint(0, 20), 6)
        assert braid_compare(w, v) == splice_braid_compare(w, v), (w, v)
    assert reductions > 10_000
    # p·r1·s against p·r2·s with p of hundreds of letters, which braid_compare
    # leaves to cancel_far_commuting, in both argument orders
    verdicts = []
    for _ in range(40):
        p = random_word(rng, rng.randint(200, 400))
        s = random_word(rng, rng.randint(0, 12))
        r = random_word(rng, rng.randint(0, 12))
        pairs = [
            (p + r + s, p + _equal_variant(rng, r) + s),
            (p + r + s, p + random_word(rng, rng.randint(0, 12)) + s),
            (p + r + inverse(r), p),
            (p, p + r),
            (p + r, p + r + random_word(rng, rng.randint(0, 12))),
        ]
        for a, b in pairs:
            for w, v in ((a, b), (b, a)):
                verdict = braid_compare(w, v)
                assert verdict == splice_braid_compare(w, v), (w, v)
                verdicts.append(verdict)
    assert min(verdicts.count(c) for c in (LESS, EQUAL, GREATER)) > 80


def test_handle_reduce_matches_the_splice_oracle_on_left_comb_cores():
    # the quotients of L * (a * b) against (L * a) * (L * b), L a left comb of
    # 9-12 leaves, with their outer conjugating pairs stripped, and the whole
    # quotients braid_compare reduces for the smaller combs
    for n in range(9, 13):
        for lhs, rhs, _ in _left_comb_pairs(n, ("x", "x*x")):
            q = free_reduce(inverse(lhs) + rhs)
            core = _strip_outer_pairs(q)
            expected, k = splice_handle_reduce(core)
            assert scan_handle_reduce(core) == (expected, k)
            assert handle_reduce(core) == expected
            _assert_cap_boundary(core, k, expected)
            if n <= 10:
                assert braid_compare(lhs, rhs) == splice_braid_compare(lhs, rhs)
                assert braid_compare(rhs, lhs) == splice_braid_compare(rhs, lhs)


def _deep_quotient_shape(n):
    """The shape of the quotient braid_equal reduces for the deep pair of
    test_cli.py at n = 1,050: a descending run, σ1⁻¹, an ascending negative
    run, a descending run down to σ1, σ1, an ascending negative run."""
    return (
        tuple(range(n + 1, 1, -1))
        + (-1,)
        + tuple(range(-1, -n - 1, -1))
        + tuple(range(n + 1, 0, -1))
        + (1,)
        + tuple(range(-2, -n - 3, -1))
    )


def _wide_word(rng, max_index, max_run=400):
    """Two to four runs of consecutive indices in [1, max_index], each of
    one sign, ascending or descending, of at most max_run letters."""
    w = []
    for _ in range(rng.randint(2, 4)):
        a = rng.randint(1, max_index)
        b = min(max(a + rng.randint(-max_run + 1, max_run - 1), 1), max_index)
        step = 1 if a <= b else -1
        e = rng.choice((1, -1))
        w += [e * k for k in range(a, b + step, step)]
    return tuple(w)


def test_handle_reduce_matches_the_scan_oracle_on_wide_words():
    # runs over hundreds of indices, where the scan oracle's letter-by-letter
    # look-back walks back over a whole run for each letter; handle_reduce
    # must reduce the same handles in the same order
    for n in (1, 2, 5, 40, 300):
        w = _deep_quotient_shape(n)
        expected, k = scan_handle_reduce(w)
        assert k == n + 1 and len(expected) == len(w)
        assert handle_reduce(w) == expected
        _assert_cap_boundary(w, k, expected)
    rng = random.Random(1052)
    reductions = 0
    for _ in range(10):
        u = _wide_word(rng, 1_000)
        # u against a conjugate of its own inverse, so that handles close
        w = u + _wide_word(rng, 30) + inverse(u[: rng.randint(0, len(u))])
        expected, k = scan_handle_reduce(w)
        assert handle_reduce(w) == expected
        _assert_cap_boundary(w, k, expected)
        reductions += k
    assert reductions > 100


def test_handle_reduce_matches_the_scan_oracle_on_words_over_many_indices():
    rng = random.Random(60)
    reductions = 0
    for _ in range(1_500):
        w = random_word(rng, rng.randint(0, 80), rng.randint(1, 60))
        expected, k = scan_handle_reduce(w)
        assert handle_reduce(w) == expected, w
        _assert_cap_boundary(w, k, expected)
        reductions += k
    assert reductions > 1_000


def _assert_cap_boundary(w, k, expected):
    if k:
        with pytest.raises(HandleReductionDefect):
            handle_reduce(w, step_cap=k - 1)
    assert handle_reduce(w, step_cap=k) == expected


def _strip_outer_pairs(q):
    i, j = 0, len(q)
    while i < j and q[i] == -q[j - 1]:
        i += 1
        j -= 1
    return q[i:j]


def _left_comb_pairs(n, bs=("x",)):
    """(L * (a * b), (L * a) * (L * b) or (L * a) * (L * (b * x)), equal)
    braid words for L the left comb of n leaves and a of size <= 3."""
    comb = X
    for _ in range(n - 1):
        comb = Compound(STAR, comb, X)
    for a in map(parse_term, ("x", "x*x", "(x*x)*x", "x*(x*x)")):
        for b in map(parse_term, bs):
            lhs = eval_star_braid(Compound(STAR, comb, Compound(STAR, a, b)), ())
            left = Compound(STAR, comb, a)
            for right, equal in ((Compound(STAR, comb, b), True),
                                 (Compound(STAR, comb, Compound(STAR, b, X)), False)):
                yield lhs, eval_star_braid(Compound(STAR, left, right), ()), equal


def test_cancel_far_commuting_on_random_words():
    # the result is a subsequence of the word, the same braid, freely
    # reduced, and has no pair x ... x⁻¹ whose interior commutes with x
    rng = random.Random(2)
    cancelled = 0
    for _ in range(2_000):
        w = random_word(rng, rng.randint(0, 40), rng.randint(1, 8))
        c = cancel_far_commuting(w)
        rest = iter(w)
        assert all(x in rest for x in c)
        assert braid_key(c) == braid_key(w)
        assert c == free_reduce(c)
        for p, x in enumerate(c):
            for r in range(p + 1, len(c)):
                if abs(abs(c[r]) - abs(x)) < 2:
                    assert c[r] != -x, (w, c, p, r)
                    break
        cancelled += len(free_reduce(w)) - len(c)
    assert cancelled > 3_000
    assert cancel_far_commuting(()) == ()
    assert cancel_far_commuting(B("s1 s3 S1 S3")) == ()
    assert cancel_far_commuting(B("s1 s2 S1 S2")) == B("s1 s2 S1 S2")
    assert cancel_far_commuting(B("s3 s1 s5 S3")) == B("s1 s5")


def _load_decide_workload():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.Decide


@functools.lru_cache(maxsize=None)
def _decide_corpus_braid_pairs(seed):
    """(kind, w1, w2) for every braid_equal call decide_ald makes on the
    benchmark's `decide` corpus at this seed."""
    calls = []
    original = ldoracle.braid_equal
    kind = None

    def record(w1, w2):
        calls.append((kind, w1, w2))
        return original(w1, w2)

    ldoracle.braid_equal = record
    try:
        for kind, s, t in _load_decide_workload()(seed).pairs:
            decide_ald(s, t)
    finally:
        ldoracle.braid_equal = original
    return tuple(calls)


def test_braid_equal_and_compare_match_the_oracles_on_the_decide_corpus():
    kinds = set()
    for seed in (1, 2, 3):
        for kind, a, b in _decide_corpus_braid_pairs(seed):
            kinds.add(kind)
            for w, v in ((a, b), (b, a)):
                assert braid_equal(w, v) == quotient_braid_equal(w, v), (w, v)
                assert braid_compare(w, v) == splice_braid_compare(w, v), (w, v)
    assert {"big", "sq", "walk", "perturb"} <= kinds


def test_big_decide_quotients_cancel_to_a_few_letters():
    # L * (a * b) against (L * a) * (L * b), L a left comb of 9-12 leaves:
    # the quotient left after the common ends has 1,026-8,202 letters, and
    # its far-commuting letters cancel all but a few
    big = [(a, b) for kind, a, b in _decide_corpus_braid_pairs(1) if kind == "big"]
    assert len(big) == 16
    for a, b in big:
        r1, r2 = cancel_common_ends(a, b)
        q = inverse(r1) + r2
        assert len(q) > 1_000
        assert len(cancel_far_commuting(q)) <= 12


def test_braid_equal_examples():
    assert braid_equal(B("s1 s2 s1"), B("s2 s1 s2"))
    assert braid_equal(B("s1 s3"), B("s3 s1"))
    # distinct permutations, hence distinct braids
    assert permutation(B("s1"), 3) != permutation(B("s2"), 3)
    assert not braid_equal(B("s1"), B("s2"))


def test_braid_equal_matches_the_whole_quotient_oracle():
    rng = random.Random(97)
    verdicts = []
    for _ in range(400):
        w = random_word(rng, rng.randint(0, 40))
        u = random_word(rng, rng.randint(0, 40))
        v = random_word(rng, rng.randint(0, 40))
        conj = u + w + inverse(u)
        pairs = [
            (w, v),
            (w, conj),
            (conj, v),
            (conj, u + _equal_variant(rng, w) + inverse(u)),
            (w + inverse(w), ()),
            (u, w + inverse(w) + u),
        ]
        for a, b in pairs:
            same = braid_equal(a, b)
            assert same == quotient_braid_equal(a, b), (a, b)
            verdicts.append(same)
    assert 400 < sum(verdicts) < len(verdicts) - 400


def test_braid_equal_on_left_comb_expansions():
    # L * (a * b) against its root LD-expansion (L * a) * (L * b), which is
    # LD-equal, and against (L * a) * (L * (b * x)), which is not: both
    # quotients start and end in a conjugating pair, which braid_equal
    # reduces with the rest
    for n in range(2, 14):
        for lhs, rhs, equal in _left_comb_pairs(n):
            q = free_reduce(inverse(lhs) + rhs)
            assert q[0] == -q[-1]
            assert braid_equal(lhs, rhs) == quotient_braid_equal(lhs, rhs) == equal


def test_braid_equal_cancels_a_common_prefix_and_suffix():
    # p·r1·s against p·r2·s with p and s of hundreds of letters, including
    # one word a prefix of the other, empty words, words that are not freely
    # reduced, and prefixes and suffixes that overlap in the shorter word
    rng = random.Random(61)
    verdicts = []
    for _ in range(40):
        p = random_word(rng, rng.randint(200, 400))
        s = random_word(rng, rng.randint(200, 400))
        r = random_word(rng, rng.randint(0, 12))
        x = random_word(rng, rng.randint(100, 300))
        pairs = [
            (p + r + s, p + _equal_variant(rng, r) + s),
            (p + r + s, p + random_word(rng, rng.randint(0, 12)) + s),
            (p + r + inverse(r) + s, p + s),
            (p, p + r),
            (p, p + r + inverse(r)),
            ((), p + inverse(p)),
            ((), ()),
            ((), r),
            (x, x + r + x),
            (x, x + inverse(x) + x),
            (x + x, x + x + x),
            (x + r + x, x + x),
            (x + r + x, x + _equal_variant(rng, r) + x),
        ]
        for a, b in pairs:
            same = braid_equal(a, b)
            assert same == braid_equal(b, a) == quotient_braid_equal(a, b), (a, b)
            verdicts.append(same)
    assert 120 < sum(verdicts) < len(verdicts) - 120


def test_order_reads_the_whole_quotient():
    # σ1σ2⁻¹ is σ-positive and its conjugate σ1·σ1σ2⁻¹·σ1⁻¹ is σ-negative:
    # the order cannot reduce a conjugate of the quotient, equality can
    w = B("s1 S2")
    conj = B("s1") + w + B("S1")
    assert braid_compare((), w) == LESS
    assert braid_compare((), conj) == GREATER
    assert braid_compare(w, ()) == GREATER
    assert braid_compare(conj, ()) == LESS
    assert not braid_equal((), w)
    assert not braid_equal((), conj)
    assert not braid_equal(w, conj)


def test_braid_compare_examples():
    assert braid_compare((), B("s1")) == LESS
    assert braid_compare(B("s1"), B("s1")) == EQUAL
    assert braid_compare(B("s1"), B("s1 s1 S2")) == LESS
    assert braid_compare(B("s1"), ()) == GREATER


def test_braid_compare_total_order_spot_checks():
    rng = random.Random(29)
    words = [random_word(rng, rng.randint(0, 8), 3) for _ in range(40)]
    ranked = sorted(words, key=_cmp_key(words))
    for i in range(len(ranked) - 1):
        assert braid_compare(ranked[i], ranked[i + 1]) in (LESS, EQUAL)
    # antisymmetry
    for _ in range(60):
        u, v = rng.choice(words), rng.choice(words)
        assert braid_compare(u, v) == -braid_compare(v, u)


def _cmp_key(words):
    import functools

    return functools.cmp_to_key(braid_compare)


def test_braid_compare_left_invariance():
    rng = random.Random(31)
    for _ in range(50):
        w = random_word(rng, rng.randint(0, 10))
        u = random_word(rng, rng.randint(0, 10))
        v = random_word(rng, rng.randint(0, 10))
        assert braid_compare(w + u, w + v) == braid_compare(u, v)


def test_braid_shift():
    assert braid_shift(B("s1 s2")) == B("s2 s3")
    assert braid_shift(B("s1 S3"), 0) == B("s1 S3")
    w = B("s1 S2 s3")
    assert braid_shift(braid_shift(w, 1), 1) == braid_shift(w, 2)


def test_braid_ld_examples():
    assert braid_ld((), ()) == (1,)
    g = B("s2 S1")
    assert braid_ld((), g) == braid_shift(g) + (1,)
    assert braid_ld(B("s1"), ()) == B("s1 s1 S2")


def test_braid_ld_matches_the_shift_inverse_composition():
    # sh(b)⁻¹ is built in one pass; on the left combs of 9-12 leaves and the
    # operands of their LD-expansions it is letter for letter inverse(sh(b))
    for n in range(9, 13):
        for lhs, rhs, _ in _left_comb_pairs(n):
            for b, c in ((lhs, rhs), (rhs, lhs), (lhs, ()), ((), rhs), (B("S3 s1 S2"), lhs)):
                assert braid_ld(b, c) == b + braid_shift(c) + (1,) + inverse(braid_shift(b))


def test_braid_ld_satisfies_ld_up_to_equality():
    rng = random.Random(37)
    for _ in range(25):
        a = random_word(rng, rng.randint(0, 4), 2)
        b = random_word(rng, rng.randint(0, 4), 2)
        c = random_word(rng, rng.randint(0, 4), 2)
        lhs = braid_ld(a, braid_ld(b, c))
        rhs = braid_ld(braid_ld(a, b), braid_ld(a, c))
        assert braid_equal(lhs, rhs)


def test_eval_star_braid():
    g = B("s2")
    assert eval_star_braid(parse_term("x"), g) == g
    assert eval_star_braid(parse_term("x*x"), ()) == (1,)
    w = eval_star_braid(parse_term("(x*x)*x"), ())
    assert w == B("s1 s1 S2")
    assert braid_equal(w, handle_reduce(w))


@pytest.mark.parametrize("n_vars", [1, 2])
def test_eval_star_braid_matches_recursive_oracle(n_vars):
    # every term of size <= 6 over * and ∘: the loop up the rightmost branch
    # gives the recursion's word letter for letter, and raises where it raises
    for t in enumerate_terms(n_vars, "*o", 6):
        for g in ((), B("s1"), B("s2 S1")):
            assert value_or_error(eval_star_braid, t, g) == value_or_error(
                recursive_eval_star_braid, t, g
            )


def test_eval_star_braid_cache_is_bounded():
    # every one-variable *-term of size <= 9: more distinct keys than the cache holds
    for t in enumerate_terms(1, "*", 9):
        eval_star_braid(t, ())
    info = eval_star_braid.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 2_056


def test_eval_star_braid_rejects_bad_terms():
    with pytest.raises(ValueError):
        eval_star_braid(parse_term("x o x"), ())
    # every variable goes to g: the x_i ↦ x projection's braid
    assert eval_star_braid(parse_term("x1*x2"), ()) == eval_star_braid(parse_term("x*x"), ())


def test_inverse():
    w = B("s1 S2 s3")
    assert inverse(w) == B("S3 s2 S1")
    assert handle_reduce(w + inverse(w)) == ()


def test_handle_reduce_defects_survive_optimize_mode():
    # -O strips assert statements; the defect detectors must not be asserts
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from aldbraid.braids import HandleReductionDefect, handle_reduce\n"
        "print(handle_reduce((1, -1) * 1000, step_cap=0))\n"
        "try:\n"
        "    print(handle_reduce((1, 2, -1), step_cap=0))\n"
        "except HandleReductionDefect as err:\n"
        "    print(type(err).__name__, isinstance(err, RuntimeError),\n"
        "          isinstance(err, AssertionError))\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["()", "HandleReductionDefect", "True", "False"]


def test_braid_key_relations():
    assert braid_key(()) == ()
    for i in range(1, 5):
        assert braid_key((i, -i)) == braid_key((-i, i)) == ()
        assert braid_key((i, i + 1, i)) == braid_key((i + 1, i, i + 1))
        assert braid_key((i, i + 2)) == braid_key((i + 2, i))
        assert braid_key((-i, -(i + 1), i)) == braid_key((i + 1, -i, -(i + 1)))
        assert len({braid_key(w) for w in [(), (i,), (-i,), (i, i), (i, i + 1), (i + 1, i)]}) == 6
        for k in (i + 2, i + 5):  # padding above the largest index
            assert braid_key((i, -(i + 1), k, -k)) == braid_key((i, -(i + 1)))


def _equal_variant(rng, w):
    """w with relators inserted and relations applied at random spots."""
    v = list(w)
    for _ in range(rng.randint(1, 3)):
        p = rng.randint(0, len(v))
        i, e = rng.randint(1, 3), rng.choice([1, -1])
        relator = rng.choice(
            [
                [e * i, -e * i],
                [i, i + 1, i, -(i + 1), -i, -(i + 1)],
                [e * i, i + 2, -e * i, -(i + 2)],
            ]
        )
        v[p:p] = relator
    return tuple(v)


def test_braid_key_agrees_with_braid_equal():
    rng = random.Random(2008)
    equal = 0
    for _ in range(20_000):
        u = random_word(rng, rng.randint(0, 10))
        r = rng.random()
        if r < 0.35:
            v = _equal_variant(rng, u)
        elif len(u) > 1 and r < 0.7:
            p = rng.randrange(len(u) - 1)  # two letters swapped: equal iff they commute
            v = u[:p] + (u[p + 1], u[p]) + u[p + 2 :]
        else:
            v = random_word(rng, rng.randint(0, 10))
        same = braid_equal(u, v)
        equal += same
        assert (braid_key(u) == braid_key(v)) == same, (u, v)
        assert braid_key(u) == two_formula_braid_key(u), u
        assert braid_key(v) == two_formula_braid_key(v), v
    assert 9_000 < equal < 11_000


def test_braid_key_of_a_long_left_comb_word():
    t = X
    for _ in range(14):
        t = Compound(STAR, t, X)
    w = eval_star_braid(t, ())
    assert len(w) == 16_383
    assert braid_key(w) == two_formula_braid_key(w)
    assert braid_key(w) == braid_key(handle_reduce(w))
    assert braid_key(w) != braid_key(w + (1,))
