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
where `diagram_eval_term` shares b · sh(c) between b * c and b ∘ c and
computes b * c as (b · sh(c)) · (σ1 · sh(b)⁻¹) with one right factor per
left operand, three products per term pair; the two must agree letter for
letter.  `struct_inv_I` and `struct_inv_J` recompute the invariants that
`inv_I` and `inv_J` cache on each node.
`word_to_diagram_by_letters` multiplies by one generator diagram per letter
with no step cache, which `word_to_diagram` must reproduce exactly.
`word_eq_by_diagrams` compares the diagrams of the two whole words, where
`word_eq_oracle` first cancels in the free group: it reduces each word
freely and drops the common prefix and suffix of the two.
`pairwise_freeness_scan` is the freeness scan with equality by pairwise
`diagram_equal` inside buckets of a cheap diagram invariant, double loops
over all class and special-form pairs, and the class partition keyed by
`BraidClassIndex`.  `closure_only_decide_ld` is the bounded LD decision
without the projection test or the one-variable decision: NOT_EQUAL only
from the variable-set and rightmost-variable filters, EQUAL only from
`ld_closure`, which it shares with the decision under test.
`recursive_variables`, `recursive_uses_only` and `recursive_is_special` walk
the whole term, where the package reads facts cached on each node.
`splice_handle_reduce` rescans for the leftmost-closing handle after each
reduction and splices the rewritten interior into the list, where
`handle_reduce` reads the word once onto a stack; the two must agree
letter for letter and in the number of reductions.  `splice_braid_compare`
reads the order off its reduction of the whole quotient w1⁻¹w2, where
`braid_compare` cancels the common prefix first, and
`quotient_braid_equal` reads equality off that order, where `braid_equal`
cancels the common prefix and suffix and reduces only the core left after
stripping the outer conjugating pairs.
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
from aldbraid.pbwords import render_pb
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
    circ_cmp,
    decompose_special,
    enumerate_terms,
    render_term,
    replace_at,
    rightmost_variable,
    seq_sq,
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
    """(handle-free word, number of reductions), by rescanning for the
    leftmost-closing handle and splicing each reduction into the list, which
    moves the whole tail.  More than step_cap reductions raise
    HandleReductionDefect."""
    word = list(free_reduce(w))
    start = 0
    steps = 0
    while True:
        found = _find_handle(word, start)
        if found is None:
            break
        steps += 1
        if steps > step_cap:
            raise HandleReductionDefect("handle reduction exceeded its defect-detector cap")
        j, k = found
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

    specials = [(i, *decompose_special(t)) for i, t in enumerate(terms) if recursive_is_special(t)]
    skeletons = sorted({u for _, u, _ in specials}, key=cmp_to_key(circ_cmp))
    rank = {u: r for r, u in enumerate(skeletons)}
    specials = [(i, rank[u], seq) for i, u, seq in specials]
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
