"""Independent brute-force oracles used by the test suite.

Nothing here may call the algorithms under test: the braid-word oracle is a
union-find closure under elementary relation moves, the class index used
for cross-checks keys classes only through functions being validated against
it elsewhere, `multiply_by_splitting` refines a diagram product one caret
at a time, which the one-pass `diagram_multiply` must reproduce letter for
letter, and the structural terms below are plain frozen dataclasses that
compare and hash by walking the whole term, where the package's terms are
interned; `struct_eval_diagram` memoizes on them, and the differential test
runs it without the node-keyed tree caches of `diagrams`, through
`diagram_star` and `diagram_circ`, which compute b · sh(c) once per
operation and b * c as ((b · sh(c)) · σ1) · sh(b)⁻¹, four products in all,
where `diagram_eval_term` computes b ∘ c as b · (sh(c) · a1) and b * c as
(b ∘ c) · ((a1⁻¹ · σ1) · sh(b)⁻¹), with one right factor per right operand
and one per left operand of a `*`, two products per term pair; the two
must agree letter for letter up to size 6, and at size 7 in trees and in
the Dynnikov key of the braid, since there the regrouped products print a
different braid word for some terms.  `struct_inv_I` and `struct_inv_J`
recompute the invariants that `inv_I` and `inv_J` cache on each node.
`word_to_diagram_by_letters` multiplies by one generator diagram per letter
with no step cache, which `word_to_diagram` must reproduce exactly.
`recursive_tree_pattern`, `recursive_sibling_leaf_pairs`,
`recursive_collapse_caret`, `recursive_tree_join`, `recursive_leaf_subtrees`
and `recursive_substitute` recurse into both children of every tree node,
uncached, where the tree walks of `diagrams` and `terms.substitute` loop down
the right spine and recurse only into left children.
`word_eq_by_diagrams` compares the diagrams of the two whole words, where
`word_eq_oracle` first cancels in the free group: it reduces each word
freely and drops the common prefix and suffix of the two.
`pairwise_freeness_scan` is the freeness scan with equality by pairwise
`diagram_equal` inside buckets of a cheap diagram invariant, double loops
over all class and special-form pairs, and the class partition keyed by
`BraidClassIndex`.  `quadratic_critical_pairs` counts the critical pairs
by `seq_sq` on every pair of a rank group, where `cli._critical_pairs`
counts prefixes once and walks the left spines; `per_term_equality_labels`
computes `braid_key` for every term, where `cli._equality_labels` keys each
distinct braid word once.  `closure_only_decide_ld` is the bounded LD decision
without the projection test or the one-variable decision: NOT_EQUAL only
from the variable-set and rightmost-variable filters, EQUAL only from
`ld_closure`, which it shares with the decision under test.
`projection_decide_ld` is the bounded LD decision with the projection test
as it was before that test evaluated the terms themselves:
`projections_differ` rebuilds each term as its x_i ↦ x projection, evaluates
it by a plain recursion through `braid_ld`, and compares the two braids by
`quotient_braid_equal`.
`recursive_variables`, `recursive_uses_only` and `recursive_is_special` walk
the whole term, where the package reads facts cached on each node.
`recursive_eval_star_braid` and `recursive_pb_eval_term` recurse into both
operands of every node, uncached, where `eval_star_braid` and `pb_eval_term`
loop up the rightmost branch and recurse only into left operands.
`recursive_diagram_eval_term` is the diagram evaluation by recursion into
both operands, with the same products and cache entries as
`diagram_eval_term`, which folds the term on an explicit stack; the two must
agree letter for letter.
`recursive_v_of_1` builds v(1) = v1(1) · ∂v2(1) · a1 for v = v1 ∘ v2,
where `v_of_1` is `pb_eval_term` at the empty word.  `closed_form_length`
adds the lengths of the closed form's factors, each *-term's by a plain
recursion, where the `eval` command takes `pb_term_length` of the special
form.
`splice_handle_reduce` rescans for the leftmost-closing handle after each
reduction and splices the rewritten interior into the list, where
`handle_reduce` reads the word once onto a stack; the two must agree
letter for letter and in the number of reductions, where a free
cancellation is not counted.  `scan_handle_reduce`
is that stack pass with a plain look-back, which walks the stack down letter
by letter, where `handle_reduce` jumps along skip pointers; the two must
agree in the same way.  `splice_braid_compare`
reads the order off its reduction of the whole quotient w1⁻¹w2, which
`braid_compare` first shortens by `cancel_far_commuting` and then reduces by
the stack pass, and `quotient_braid_equal` reads equality off that order,
where `braid_equal` cancels the common prefix and suffix and then reduces
what is left of the quotient in the same two steps.
`two_formula_braid_key` applies σ_i⁻¹ by its own formula, where `braid_key`
conjugates the σ_i update by a ↦ -a.
`rewrite_redex` writes each law and direction out as its own `isinstance`
branch, and `redex_law_instances` finds an instance by building the
rewritten redex, where `apply_law` and `law_instances` match one table of
patterns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key

from aldbraid.braids import (
    EQUAL,
    GREATER,
    LESS,
    HandleReductionDefect,
    braid_compare,
    braid_equal,
    braid_key,
    braid_ld,
    eval_star_braid,
    free_reduce,
    handle_reduce,
)
from aldbraid.diagrams import (
    PBDiagram,
    add_caret,
    diagram_equal,
    diagram_inverse,
    diagram_multiply,
    diagram_reduce,
    diagram_shift,
    gen_a,
    gen_sigma,
    identity_diagram,
    tree_join,
    word_to_diagram,
)
from aldbraid.invariants import inv_I, inv_J
from aldbraid.ldoracle import DEFAULT_STEP_CAP, Verdict, default_size_cap, ld_closure
from aldbraid.pbwords import A1, MAX_WORD_LETTERS, pb_circ, pb_shift, pb_star, render_pb
from aldbraid.terms import (
    ALD1,
    ALD2,
    CIRC,
    CONTRACT,
    EXPAND,
    LD,
    STAR,
    Compound,
    LawApplicationError,
    LawInstance,
    Variable,
    X,
    circ_cmp,
    decompose_special,
    enumerate_terms,
    render_term,
    replace_at,
    rightmost_variable,
    seq_sq,
    size,
    subterm_at,
)


def braid_letters(max_index: int) -> list[int]:
    out = []
    for i in range(1, max_index + 1):
        out.append(i)
        out.append(-i)
    return out


def relation_closure(max_index: int = 3, cap: int = 8):
    """Union-find over all braid words of length <= cap under sound moves:
    far commutation, the braid relation in its four sign shapes, and free
    cancellation (insertion is cancellation seen from the longer word).

    Returns a function mapping a word (length <= cap) to its class root.
    Words are encoded as integers: length offset plus base-B digits.
    """
    letters = braid_letters(max_index)
    B = len(letters)
    enc = {letter: v for v, letter in enumerate(letters)}

    pow_b = [B**k for k in range(cap + 2)]
    offset = [0]
    for length in range(cap + 1):
        offset.append(offset[-1] + pow_b[length])

    parent = list(range(offset[cap + 1]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for length in range(2, cap + 1):
        off, off_del = offset[length], offset[length - 2]
        for w in itertools.product(letters, repeat=length):
            plain = 0
            for d in w:
                plain = plain * B + enc[d]
            code = off + plain
            for p in range(length - 1):
                a, b = w[p], w[p + 1]
                if abs(a) - abs(b) >= 2:  # canonical side of the commutation
                    wa, wb = pow_b[length - 1 - p], pow_b[length - 2 - p]
                    union(code, code + (enc[b] - enc[a]) * wa + (enc[a] - enc[b]) * wb)
                if b == -a:
                    high = plain // pow_b[length - p]
                    low = plain % pow_b[length - p - 2]
                    union(code, off_del + high * pow_b[length - p - 2] + low)
            for p in range(length - 2):
                a, b, c = w[p], w[p + 1], w[p + 2]
                if abs(abs(a) - abs(b)) != 1 or abs(c) != abs(a):
                    continue
                if c == a and (a > 0) == (b > 0):
                    if abs(a) > abs(b):
                        continue  # mirror instance covers it
                    na, nb, nc = b, a, b
                elif a < 0 and b > 0 and c == -a:
                    na, nb, nc = b, -a, -b  # x⁻¹yx = yxy⁻¹
                elif a < 0 and b < 0 and c == -a:
                    na, nb, nc = -b, a, b  # x⁻¹y⁻¹x = yx⁻¹y⁻¹
                else:
                    continue
                delta = (
                    (enc[na] - enc[a]) * pow_b[length - 1 - p]
                    + (enc[nb] - enc[b]) * pow_b[length - 2 - p]
                    + (enc[nc] - enc[c]) * pow_b[length - 3 - p]
                )
                union(code, code + delta)

    def root_of(w) -> int:
        plain = 0
        for d in w:
            plain = plain * B + enc[d]
        return find(offset[len(w)] + plain)

    return root_of


def _find_handle(w: list, start: int):
    """Leftmost-closing handle (j, k): w[j..k] = σ_i^e ... σ_i^{-e} with the
    interior free of indices <= i.  No handle closes before `start`."""
    for k in range(max(start, 1), len(w)):
        i = abs(w[k])
        for j in range(k - 1, -1, -1):
            ij = abs(w[j])
            if ij > i:
                continue
            if ij == i and w[j] == -w[k]:
                return j, k
            break  # same sign at index i, or a lower index: no handle closes at k
    return None


def splice_handle_reduce(w, step_cap: int = 1_000_000) -> tuple:
    """(handle-free word, number of reductions), by rescanning the word as
    given for the leftmost-closing handle and splicing each reduction into
    the list, which moves the whole tail.  A letter next to its inverse is
    reduced as a handle with an empty interior, and not counted.  More than
    step_cap reductions of handles with a nonempty interior raise
    HandleReductionDefect."""
    word = list(w)
    start = 0
    steps = 0
    while True:
        found = _find_handle(word, start)
        if found is None:
            break
        j, k = found
        if k > j + 1:
            steps += 1
            if steps > step_cap:
                raise HandleReductionDefect("handle reduction exceeded its defect-detector cap")
        e = 1 if word[j] > 0 else -1
        i = abs(word[j])
        replacement: list = []
        for x in word[j + 1 : k]:
            if abs(x) == i + 1:
                d = 1 if x > 0 else -1
                replacement += [-e * (i + 1), d * i, e * (i + 1)]
            else:
                replacement.append(x)
        word[j : k + 1] = replacement
        # The prefix before j is unchanged and contained no closing letter.
        start = j
    return tuple(word), steps


def scan_handle_reduce(w, step_cap: int = 1_000_000) -> tuple:
    """(handle-free word, number of reductions), by `handle_reduce`'s stack
    pass with a plain look-back: each letter scans the stack down, letter by
    letter, to the nearest letter of index <= its own.  A letter next to its
    inverse is reduced as a handle with an empty interior, and not counted.
    More than step_cap reductions of handles with a nonempty interior raise
    HandleReductionDefect."""
    done: list = []
    todo = list(w)[::-1]
    steps = 0
    while todo:
        x = todo.pop()
        i = abs(x)
        j = len(done) - 1
        while j >= 0 and abs(done[j]) > i:
            j -= 1
        if j < 0 or done[j] != -x:
            done.append(x)
            continue
        if j + 1 < len(done):
            steps += 1
            if steps > step_cap:
                raise HandleReductionDefect("handle reduction exceeded its defect-detector cap")
        h = i + 1
        up = -h if x > 0 else h
        for z in reversed(done[j + 1 :]):
            if z == h:
                todo += (up, i, -up)
            elif z == -h:
                todo += (up, -i, -up)
            else:
                todo.append(z)
        del done[j:]
    return tuple(done), steps


def splice_braid_compare(w1, w2) -> int:
    """The order's LESS/EQUAL/GREATER read off the splice reduction of the
    whole quotient w1⁻¹w2."""
    r, _ = splice_handle_reduce(tuple(-x for x in reversed(w1)) + tuple(w2))
    if not r:
        return EQUAL
    m = min(abs(x) for x in r)
    return LESS if next(x > 0 for x in r if abs(x) == m) else GREATER


def quotient_braid_equal(w1, w2) -> bool:
    """Braid equality as the order's EQUAL: the whole quotient w1⁻¹w2
    splice-reduces to the empty word."""
    return splice_braid_compare(w1, w2) == EQUAL


def two_formula_braid_key(w) -> tuple:
    """`braid_key` with σ_i and σ_i⁻¹ each applied by its own formula
    (Dehornoy, Discrete Appl. Math. 156, 2008), split on the sign of z:
    with t⁺ = max(t, 0), t⁻ = min(t, 0), σ_i sends
        z = a_i - b_i⁻ - a_{i+1} + b_{i+1}⁺,
        (a_i + b_i⁺ + (b_{i+1}⁺ - z)⁺,  b_{i+1} - z⁺,
         a_{i+1} + b_{i+1}⁻ + (b_i⁻ + z)⁻,  b_i + z⁺)
    and σ_i⁻¹ sends
        z = a_i + b_i⁻ - a_{i+1} - b_{i+1}⁺,
        (a_i - b_i⁺ - (b_{i+1}⁺ + z)⁺,  b_{i+1} + z⁻,
         a_{i+1} - b_{i+1}⁻ - (b_i⁻ - z)⁻,  b_i - z⁻)."""
    c = [0, 1] * (max(map(abs, w), default=0) + 1)
    for x in w:
        if x > 0:
            j = 2 * x - 2
            a1, b1, a2, b2 = c[j], c[j + 1], c[j + 2], c[j + 3]
            m1 = b1 if b1 < 0 else 0
            p2 = b2 if b2 > 0 else 0
            z = a1 - m1 - a2 + p2
            if z > 0:
                c[j] = a1 + b1 - m1 + (p2 - z if p2 > z else 0)
                c[j + 1] = b2 - z
                c[j + 2] = a2 + b2 - p2 + (m1 + z if m1 + z < 0 else 0)
                c[j + 3] = b1 + z
            else:
                c[j] = a1 + b1 - m1 + p2 - z
                c[j + 1] = b2
                c[j + 2] = a2 + b2 - p2 + m1 + z
                c[j + 3] = b1
        else:
            j = -2 * x - 2
            a1, b1, a2, b2 = c[j], c[j + 1], c[j + 2], c[j + 3]
            m1 = b1 if b1 < 0 else 0
            p2 = b2 if b2 > 0 else 0
            z = a1 + m1 - a2 - p2
            if z < 0:
                c[j] = a1 - b1 + m1 - (p2 + z if p2 + z > 0 else 0)
                c[j + 1] = b2 + z
                c[j + 2] = a2 - b2 + p2 - (m1 - z if m1 - z < 0 else 0)
                c[j + 3] = b1 - z
            else:
                c[j] = a1 - b1 + m1 - p2 - z
                c[j + 1] = b2
                c[j + 2] = a2 - b2 + p2 - m1 + z
                c[j + 3] = b1
    k = len(c)
    while k and c[k - 2] == 0 and c[k - 1] == 1:
        k -= 2
    return tuple(c[:k])


class BraidClassIndex:
    """Intern braid words by class, via handle reduction plus binary search
    in the braid order."""

    def __init__(self):
        self.reps: list = []

    def class_id(self, w) -> int:
        word = handle_reduce(tuple(w))
        lo, hi = 0, len(self.reps)
        while lo < hi:
            mid = (lo + hi) // 2
            c = braid_compare(self.reps[mid][0], word)
            if c == 0:
                return self.reps[mid][1]
            if c < 0:
                lo = mid + 1
            else:
                hi = mid
        new_id = len(self.reps)
        self.reps.insert(lo, (word, new_id))
        return new_id


def _first_missing_leaf(t, target):
    """Leftmost leaf of t sitting where target has an internal node."""

    def go(node, goal, k):
        if isinstance(node, Variable):
            if isinstance(goal, Variable):
                return None, k + 1
            return k, k + 1
        found, k = go(node.left, goal.left, k)
        if found is not None:
            return found, k
        return go(node.right, goal.right, k)

    return go(t, target, 1)[0]


def _split_one_strand(d, k):
    """Split strand k in two, cabling the braid one letter at a time."""
    cabled = []
    c = k  # current position of the first cable strand
    for x in d.braid:
        i = abs(x)
        e = 1 if x > 0 else -1
        if i == c:
            cabled += [e * (i + 1), e * i]
            c = i + 1
        elif i + 1 == c:
            cabled += [e * i, e * (i + 1)]
            c = i
        elif i > c:
            cabled.append(e * (i + 1))
        else:
            cabled.append(x)
    end = d.permutation[k - 1]
    return PBDiagram(add_caret(d.dom, k), tuple(cabled), add_caret(d.cod, end))


def multiply_by_splitting(d1, d2):
    """Diagram product that refines each side one caret at a time, leftmost
    missing caret first, until both meet the middle tree."""
    middle = tree_join(d1.cod, d2.dom)
    while d1.cod != middle:
        q = _first_missing_leaf(d1.cod, middle)
        d1 = _split_one_strand(d1, d1.permutation.index(q) + 1)
    while d2.dom != middle:
        d2 = _split_one_strand(d2, _first_missing_leaf(d2.dom, middle))
    return diagram_reduce(PBDiagram(d1.dom, free_reduce(d1.braid + d2.braid), d2.cod))


def word_to_diagram_by_letters(w):
    """The diagram of a word, one uncached multiplication per letter."""
    d = identity_diagram()
    for fam, signed in w:
        gen = gen_sigma(abs(signed)) if fam == "s" else gen_a(abs(signed))
        d = diagram_multiply(d, gen if signed > 0 else diagram_inverse(gen))
    return d


def word_eq_by_diagrams(w1, w2) -> bool:
    """Word equality with no cancellation: the diagrams of the whole words,
    which `word_to_diagram` returns reduced, compared as reduced diagrams."""
    d1, d2 = word_to_diagram(w1), word_to_diagram(w2)
    return d1.dom == d2.dom and d1.cod == d2.cod and braid_equal(d1.braid, d2.braid)


def recursive_tree_pattern(t) -> str:
    if isinstance(t, Variable):
        return "x"
    return f"({recursive_tree_pattern(t.left)}{recursive_tree_pattern(t.right)})"


def recursive_sibling_leaf_pairs(t) -> tuple:
    def go(node, k, out):
        if isinstance(node, Variable):
            return k + 1
        if isinstance(node.left, Variable) and isinstance(node.right, Variable):
            out.append(k)
            return k + 2
        return go(node.right, go(node.left, k, out), out)

    out = []
    go(t, 1, out)
    return tuple(out)


def recursive_collapse_caret(t, leaf):
    def go(node, k):
        if isinstance(node, Variable):
            return node, k + 1
        if isinstance(node.left, Variable) and isinstance(node.right, Variable) and k == leaf:
            return X, k + 2
        left, k = go(node.left, k)
        right, k = go(node.right, k)
        return Compound(CIRC, left, right), k

    out = go(t, 1)[0]
    if out.size != t.size - 1:
        raise ValueError(f"no caret over leaves ({leaf}, {leaf + 1})")
    return out


def recursive_tree_join(t1, t2):
    if isinstance(t1, Variable):
        return t2
    if isinstance(t2, Variable):
        return t1
    return Compound(
        CIRC, recursive_tree_join(t1.left, t2.left), recursive_tree_join(t1.right, t2.right)
    )


def recursive_leaf_subtrees(t, refined) -> tuple:
    if isinstance(t, Variable):
        return (refined,)
    return recursive_leaf_subtrees(t.left, refined.left) + recursive_leaf_subtrees(
        t.right, refined.right
    )


def recursive_substitute(v, ts):
    def go(node, k):
        if isinstance(node, Variable):
            return ts[k], k + 1
        left, k = go(node.left, k)
        right, k = go(node.right, k)
        return Compound(CIRC, left, right), k

    return go(v, 0)[0]


@dataclass(frozen=True)
class StructVariable:
    index: int


@dataclass(frozen=True)
class StructCompound:
    op: str
    left: StructVariable | StructCompound
    right: StructVariable | StructCompound


def to_struct(t):
    """The structural copy of an interned term."""
    if isinstance(t, Variable):
        return StructVariable(t.index)
    return StructCompound(t.op, to_struct(t.left), to_struct(t.right))


def recursive_variables(t) -> set:
    if isinstance(t, Variable):
        return {t.index}
    return recursive_variables(t.left) | recursive_variables(t.right)


def recursive_uses_only(t, ops) -> bool:
    if isinstance(t, Variable):
        return True
    return t.op in ops and recursive_uses_only(t.left, ops) and recursive_uses_only(t.right, ops)


def recursive_is_special(t) -> bool:
    """No ∘ below a *: a * node heads a pure *-term."""
    if isinstance(t, Variable):
        return True
    if t.op == "*":
        return recursive_uses_only(t, "*")
    return recursive_is_special(t.left) and recursive_is_special(t.right)


def from_struct(s):
    """The interned term of a structural one."""
    if isinstance(s, StructVariable):
        return Variable(s.index)
    return Compound(s.op, from_struct(s.left), from_struct(s.right))


def struct_render(s) -> str:
    if isinstance(s, StructVariable):
        return f"x{s.index}"
    left = struct_render(s.left)
    if isinstance(s.left, StructCompound):
        left = f"({left})"
    sep = s.op if s.op == "*" else " o "
    return f"{left}{sep}{struct_render(s.right)}"


def struct_inv_I(s):
    if isinstance(s, StructVariable):
        return StructVariable(1)
    if s.op == "*":
        return struct_inv_I(s.right)
    return StructCompound("o", struct_inv_I(s.left), struct_inv_I(s.right))


def struct_inv_J(s) -> tuple:
    if isinstance(s, StructVariable):
        return (s,)
    if s.op == "*":
        out = []
        for entry in struct_inv_J(s.right):
            for factor in reversed(struct_inv_J(s.left)):
                entry = StructCompound("*", factor, entry)
            out.append(entry)
        return tuple(out)
    return struct_inv_J(s.left) + struct_inv_J(s.right)


def diagram_star(b, c):
    """b * c = ((b · sh(c)) · σ1) · sh(b)⁻¹, each product computed afresh."""
    return diagram_multiply(
        diagram_multiply(diagram_multiply(b, diagram_shift(c)), gen_sigma(1)),
        diagram_inverse(diagram_shift(b)),
    )


def diagram_circ(b, c):
    """b ∘ c = (b · sh(c)) · a1, each product computed afresh."""
    return diagram_multiply(diagram_multiply(b, diagram_shift(c)), gen_a(1))


def struct_eval_diagram(s, g, memo: dict):
    """Evaluate a one-variable structural term at the diagram g, memoized
    on structural equality."""
    if s not in memo:
        if isinstance(s, StructVariable):
            memo[s] = g
        else:
            left = struct_eval_diagram(s.left, g, memo)
            right = struct_eval_diagram(s.right, g, memo)
            memo[s] = (diagram_star if s.op == "*" else diagram_circ)(left, right)
    return memo[s]


def recursive_diagram_eval_term(t, g, cache=None):
    """Evaluate a one-variable term at the diagram g by recursion into both
    operands, with the H(c)/G(b) factorization and the cache entries of
    `diagram_eval_term`: b ∘ c = b · H(c) with H(c) = sh(c) · a1 under
    (CIRC, c), b * c = (b ∘ c) · G(b) with G(b) = (a1⁻¹ · σ1) · sh(b)⁻¹
    under (STAR, b)."""
    if cache is None:
        cache = {}
    if t in cache:
        return cache[t]
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        result = g
    else:
        left = recursive_diagram_eval_term(t.left, g, cache)
        right = recursive_diagram_eval_term(t.right, g, cache)
        circ = t if t.op == CIRC else Compound(CIRC, t.left, t.right)
        result = cache.get(circ)
        if result is None:
            h = cache.get((CIRC, t.right))
            if h is None:
                h = cache[CIRC, t.right] = diagram_multiply(diagram_shift(right), gen_a(1))
            result = cache[circ] = diagram_multiply(left, h)
        if t.op == STAR:
            gb = cache.get((STAR, t.left))
            if gb is None:
                a1_inv_sigma1 = diagram_multiply(diagram_inverse(gen_a(1)), gen_sigma(1))
                gb = cache[STAR, t.left] = diagram_multiply(
                    a1_inv_sigma1, diagram_inverse(diagram_shift(left))
                )
            result = diagram_multiply(result, gb)
    cache[t] = result
    return result


def _diagram_key(d):
    """A cheap invariant of reduced diagrams: trees, permutation, exponent sum."""
    return (d.dom, d.cod, d.permutation, sum(1 if x > 0 else -1 for x in d.braid))


def bucket_equality_labels(diagrams) -> list[int]:
    """Label each diagram by the position of the first one `diagram_equal`
    to it, comparing only within buckets of `_diagram_key`."""
    reduced = [diagram_reduce(d) for d in diagrams]
    firsts: dict = {}
    labels: list[int] = []
    for idx, d in enumerate(reduced):
        bucket = firsts.setdefault(_diagram_key(d), [])
        label = next((f for f in bucket if diagram_equal(reduced[f], d)), idx)
        if label == idx:
            bucket.append(idx)
        labels.append(label)
    return labels


def ranked_specials(terms) -> list:
    """(position, skeleton rank, J-sequence) of each special form in terms,
    the skeletons ranked in the ∘-order."""
    specials = [(i, *decompose_special(t)) for i, t in enumerate(terms) if recursive_is_special(t)]
    skeletons = sorted({u for _, u, _ in specials}, key=cmp_to_key(circ_cmp))
    rank = {u: r for r, u in enumerate(skeletons)}
    return [(i, rank[u], seq) for i, u, seq in specials]


def pairwise_freeness_scan(config, evaluate) -> dict:
    """The report of `cli.freeness_scan(config)` with `evaluate` in place of
    `diagram_eval_term`, every check a loop over all pairs."""
    terms = list(enumerate_terms(1, "*o", config.max_term_size))
    position = {t: i for i, t in enumerate(terms)}
    index, partition = BraidClassIndex(), {}
    for t in terms:
        key = (inv_I(t), tuple(index.class_id(eval_star_braid(e, ())) for e in inv_J(t)))
        partition.setdefault(key, []).append(position[t])
    classes = list(partition.values())
    report = {
        "max_term_size": config.max_term_size,
        "gammas": [render_pb(g) for g in config.gamma_samples],
        "term_count": len(terms),
        "class_count": len(classes),
        "constant_failures": [],
        "separation_collisions": [],
        "critical_pairs_checked": 0,
        "critical_failures": [],
    }

    def failure(word, **at):
        return {"gamma": word, **{key: render_term(terms[i]) for key, i in at.items()}}

    specials = ranked_specials(terms)
    for gamma in config.gamma_samples:
        word = render_pb(gamma)
        gamma_d, cache = word_to_diagram(gamma), {}
        label = bucket_equality_labels([evaluate(t, gamma_d, cache) for t in terms])
        for rep, *rest in classes:
            for other in rest:
                if label[other] != label[rep]:
                    report["constant_failures"].append(failure(word, term=other, representative=rep))
        for left, right in itertools.combinations([members[0] for members in classes], 2):
            if label[left] == label[right]:
                report["separation_collisions"].append(failure(word, left=left, right=right))
        for s, ru, sv in specials:
            for t, rv, tv in specials:
                if ru < rv or (ru == rv and seq_sq(sv, tv)):
                    report["critical_pairs_checked"] += 1
                    if label[s] == label[t]:
                        report["critical_failures"].append(failure(word, left=s, right=t))
    report["ok"] = not (
        report["constant_failures"]
        or report["separation_collisions"]
        or report["critical_failures"]
    )
    return report


def quadratic_critical_pairs(specials) -> int:
    """The count of `cli._critical_pairs`, with `seq_sq` tried on every
    ordered pair of one rank group."""
    by_rank: dict = {}
    for _, r, seq in specials:
        by_rank.setdefault(r, []).append(seq)
    same_rank = sum(len(group) ** 2 for group in by_rank.values())
    ordered = sum(seq_sq(s, t) for group in by_rank.values() for s in group for t in group)
    return (len(specials) ** 2 - same_rank) // 2 + ordered


def per_term_equality_labels(terms, diagrams) -> dict:
    """The labels of `cli._equality_labels`, with `braid_key` computed once
    per term."""
    first: dict = {}
    return {t: first.setdefault((d.dom, d.cod, braid_key(d.braid)), t)
            for t, d in zip(terms, diagrams)}


def closure_only_decide_ld(s, t, size_cap=None, step_cap=DEFAULT_STEP_CAP) -> Verdict:
    """`decide_ld_bounded` as it was before the projection test and the
    one-variable decision."""
    if s == t:
        return Verdict.EQUAL
    if recursive_variables(s) != recursive_variables(t) or rightmost_variable(s) != rightmost_variable(t):
        return Verdict.NOT_EQUAL
    if size_cap is None:
        size_cap = default_size_cap(s, t)
    if t in ld_closure(s, size_cap, step_cap, target=t):
        return Verdict.EQUAL
    return Verdict.UNKNOWN


def value_or_error(f, *args):
    """f(*args), or the class ValueError when the call raises one."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def recursive_eval_star_braid(t, g):
    """The braid of a *-term with every variable sent to g, by b * c =
    braid_ld(b, c) on the braids of the two operands."""
    if isinstance(t, Variable):
        return tuple(g)
    if t.op != STAR:
        raise ValueError("term must use only *")
    return braid_ld(recursive_eval_star_braid(t.left, g), recursive_eval_star_braid(t.right, g))


def recursive_pb_eval_term(t, g):
    """The word of a one-variable term at g, by pb_star or pb_circ on the
    words of the two operands."""
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        return tuple(g)
    left, right = recursive_pb_eval_term(t.left, g), recursive_pb_eval_term(t.right, g)
    return pb_star(left, right) if t.op == STAR else pb_circ(left, right)


def recursive_v_of_1(v):
    """v(1) of a ∘-term by v(1) = v1(1) · ∂v2(1) · a1 for v = v1 ∘ v2,
    every leaf evaluating to the empty word."""
    if isinstance(v, Variable):
        return ()
    if v.op != CIRC:
        raise ValueError("expected a ∘-term")
    return recursive_v_of_1(v.left) + pb_shift(recursive_v_of_1(v.right)) + A1


def star_word_length(t, gamma_len: int = 0) -> int:
    """The length of the word of a *-term with every variable sent to a word
    of gamma_len letters, by len(b * c) = 2·len(b) + len(c) + 1."""
    if isinstance(t, Variable):
        return gamma_len
    return 2 * star_word_length(t.left, gamma_len) + star_word_length(t.right, gamma_len) + 1


def closed_form_length(v, ts, gamma_len: int) -> int:
    """The length of the closed form t1(g) · ∂t2(g) ⋯ ∂^(p-1)tp(g) · v(1) for
    *-terms ts and a word g of gamma_len letters: shifting keeps lengths,
    and v(1) has one letter a caret."""
    return sum(star_word_length(tk, gamma_len) for tk in ts) + size(v) - 1


def x_projection(t):
    """The image of t under the assignment x_i ↦ x for every i."""
    if isinstance(t, Variable):
        return Variable(1)
    return Compound(t.op, x_projection(t.left), x_projection(t.right))


def one_variable_braid(t):
    """The braid of a one-variable *-term at the trivial braid, by b * c =
    braid_ld(b, c) on the braids of the two operands."""
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        return ()
    if t.op != STAR:
        raise ValueError("term must use only *")
    return braid_ld(one_variable_braid(t.left), one_variable_braid(t.right))


def projections_differ(s, t) -> bool:
    """Whether the x_i ↦ x projections of s and t have different braids;
    False when the projections are equal or a braid would exceed the cap."""
    ps, pt = x_projection(s), x_projection(t)
    if ps == pt or max(map(star_word_length, (ps, pt))) > MAX_WORD_LETTERS:
        return False
    return not quotient_braid_equal(one_variable_braid(ps), one_variable_braid(pt))


def projection_decide_ld(s, t, size_cap=None, step_cap=DEFAULT_STEP_CAP) -> Verdict:
    """`decide_ld_bounded` with its tests in the same order: the filters, the
    one-variable decision, the size-cap check, `projections_differ`, and
    the closure."""
    if s == t:
        return Verdict.EQUAL
    if recursive_variables(s) != recursive_variables(t) or rightmost_variable(s) != rightmost_variable(t):
        return Verdict.NOT_EQUAL
    if recursive_variables(s) == {1}:
        equal = quotient_braid_equal(one_variable_braid(s), one_variable_braid(t))
        return Verdict.EQUAL if equal else Verdict.NOT_EQUAL
    if size_cap is None:
        size_cap = default_size_cap(s, t)
    elif size_cap < max(s.size, t.size):
        raise ValueError("size_cap must be at least the size of both terms")
    if projections_differ(s, t):
        return Verdict.NOT_EQUAL
    if t in ld_closure(s, size_cap, step_cap, target=t):
        return Verdict.EQUAL
    return Verdict.UNKNOWN


def rewrite_redex(t, law, direction):
    """The rewritten redex, or None when the law's source pattern does not match."""
    if direction == EXPAND:
        if law == LD:
            # t1*(t2*t3) -> (t1*t2)*(t1*t3)
            if (
                isinstance(t, Compound)
                and t.op == STAR
                and isinstance(t.right, Compound)
                and t.right.op == STAR
            ):
                t1, t2, t3 = t.left, t.right.left, t.right.right
                return Compound(STAR, Compound(STAR, t1, t2), Compound(STAR, t1, t3))
        elif law == ALD1:
            # (t1∘t2)*t3 -> t1*(t2*t3)
            if (
                isinstance(t, Compound)
                and t.op == STAR
                and isinstance(t.left, Compound)
                and t.left.op == CIRC
            ):
                t1, t2, t3 = t.left.left, t.left.right, t.right
                return Compound(STAR, t1, Compound(STAR, t2, t3))
        else:
            # t1*(t2∘t3) -> (t1*t2)∘(t1*t3)
            if (
                isinstance(t, Compound)
                and t.op == STAR
                and isinstance(t.right, Compound)
                and t.right.op == CIRC
            ):
                t1, t2, t3 = t.left, t.right.left, t.right.right
                return Compound(CIRC, Compound(STAR, t1, t2), Compound(STAR, t1, t3))
    else:
        if law == LD:
            # (t1*t2)*(t1*t3) -> t1*(t2*t3), requiring the two t1 copies equal
            if (
                isinstance(t, Compound)
                and t.op == STAR
                and isinstance(t.left, Compound)
                and t.left.op == STAR
                and isinstance(t.right, Compound)
                and t.right.op == STAR
                and t.left.left == t.right.left
            ):
                t1, t2, t3 = t.left.left, t.left.right, t.right.right
                return Compound(STAR, t1, Compound(STAR, t2, t3))
        elif law == ALD1:
            # t1*(t2*t3) -> (t1∘t2)*t3
            if (
                isinstance(t, Compound)
                and t.op == STAR
                and isinstance(t.right, Compound)
                and t.right.op == STAR
            ):
                t1, t2, t3 = t.left, t.right.left, t.right.right
                return Compound(STAR, Compound(CIRC, t1, t2), t3)
        else:
            # (t1*t2)∘(t1*t3) -> t1*(t2∘t3)
            if (
                isinstance(t, Compound)
                and t.op == CIRC
                and isinstance(t.left, Compound)
                and t.left.op == STAR
                and isinstance(t.right, Compound)
                and t.right.op == STAR
                and t.left.left == t.right.left
            ):
                t1, t2, t3 = t.left.left, t.left.right, t.right.right
                return Compound(STAR, t1, Compound(CIRC, t2, t3))
    return None


def redex_apply_law(t, inst):
    """`apply_law` through `rewrite_redex`."""
    redex = subterm_at(t, inst.pos)
    new = rewrite_redex(redex, inst.law, inst.direction)
    if new is None:
        law = f"{inst.law}/{inst.direction}"
        raise LawApplicationError(f"{law} does not match {render_term(redex)}")
    return replace_at(t, inst.pos, new)


def redex_law_instances(t, laws=(LD, ALD1, ALD2)) -> list:
    """`law_instances` through `rewrite_redex`, root first, left before right."""
    found = []
    _collect_instances(t, (), tuple(laws), found)
    return found


def _collect_instances(node, pos, laws, found) -> None:
    if not isinstance(node, Compound):
        return
    for law in laws:
        for direction in (EXPAND, CONTRACT):
            if rewrite_redex(node, law, direction) is not None:
                found.append(LawInstance(law, pos, direction))
    _collect_instances(node.left, pos + ("L",), laws, found)
    _collect_instances(node.right, pos + ("R",), laws, found)
