"""
Tree-braid-tree diagrams: a concrete model of the parenthesized braid group.

A diagram is a triple (dom, braid, cod): two finite binary trees with the
same number n of leaves and a braid word on n strands, read top to bottom
with dom on top.  Strand k starts at the k-th leaf of dom and ends at the
leaf of cod given by the braid's permutation.

The group structure comes from strand splitting: replacing strand k by two
parallel strands adds a caret to the matching leaf on both trees and cables
the braid (each crossing of the tracked strand becomes two).  Splitting does
not change the element represented, so two diagrams multiply by refining
each side to the join of the middle trees, cabling its braid in one pass,
and a diagram is compared by first reducing it (undoing every splitting it
contains) and then comparing trees structurally and braids by handle
reduction.  Whether a caret pair may be cancelled is
decided semantically: merge, re-split, and accept only if the braid comes
back unchanged up to braid equality.

The generators: σ_i crosses leaves i and i+1 of a right comb with i+2
leaves; a_i regroups a right comb with i+2 leaves into the comb with i+1
leaves whose i-th leaf carries one extra caret, with no crossings at all.
Trees are represented as one-variable ∘-terms; a tree serializes as a
parenthesized leaf pattern like `(x(xx))`, a diagram as
{"dom": ..., "braid": ..., "cod": ...} with the braid in `s<i>`/`S<i>` text.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .braids import (
    BraidWord,
    braid_equal,
    cancel_common_ends,
    free_reduce,
    inverse,
    parse_braid,
    permutation,
    render_braid,
)
from .pbwords import PBWord, pb_free_reduce
from .terms import CIRC, MAX_DEPTH, Compound, Term, Variable, X, size, x_power


# ---------------------------------------------------------------------------
# Tree helpers (trees are one-variable ∘-terms)


def tree_pattern(t: Term) -> str:
    if isinstance(t, Variable):
        return "x"
    return f"({tree_pattern(t.left)}{tree_pattern(t.right)})"


def parse_tree_pattern(text: str) -> Term:
    """The tree written as in `tree_pattern`; like `parse_term`, it refuses
    nesting deeper than MAX_DEPTH with a ValueError."""
    t, pos = _tree_node(text, 0, 0)
    if pos != len(text):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return t


def _tree_node(text: str, pos: int, depth: int) -> tuple[Term, int]:
    """The tree starting at pos, and the position after it; a module-level
    function, as are the tree walks below."""
    if pos < len(text) and text[pos] == "x":
        return X, pos + 1
    if pos < len(text) and text[pos] == "(":
        if depth >= MAX_DEPTH:
            raise ValueError(f"tree nested deeper than {MAX_DEPTH} at {pos}")
        left, pos = _tree_node(text, pos + 1, depth + 1)
        right, pos = _tree_node(text, pos, depth + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at {pos} in {text!r}")
        return Compound(CIRC, left, right), pos + 1
    raise ValueError(f"bad tree pattern at {pos} in {text!r}")


#: Entries each node-keyed tree cache keeps.  Trees are interned terms, so a
#: lookup hashes and compares its arguments in O(1).  A one-word size-6
#: freeness scan makes at most 402 distinct keys per cache; a one-word size-7
#: evaluation makes up to 2,790 and evicts, but still hits over 90%.
TREE_CACHE_SIZE = 1024


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _graft(t: Term, subtrees: tuple[Term, ...]) -> Term:
    """Replace the k-th leaf of t by subtrees[k-1]."""
    return _graft_leaves(t, iter(subtrees))


# The recursive walks below are module-level functions, not nested closures:
# a closure that calls itself is a reference cycle, made on every cache miss.
def _graft_leaves(node: Term, it) -> Term:
    if isinstance(node, Variable):
        return next(it)
    return Compound(CIRC, _graft_leaves(node.left, it), _graft_leaves(node.right, it))


def add_caret(t: Term, leaf: int) -> Term:
    """Replace the leaf-th leaf (1-based, left to right) by a caret."""
    n = size(t)
    if not 1 <= leaf <= n:
        raise ValueError(f"leaf {leaf} out of range")
    return _graft(t, tuple([Compound(CIRC, X, X) if k == leaf else X for k in range(1, n + 1)]))


@lru_cache(maxsize=TREE_CACHE_SIZE)
def sibling_leaf_pairs(t: Term) -> tuple[int, ...]:
    """Positions p such that leaves p and p+1 are the two children of a caret."""
    out: list[int] = []
    _sibling_pairs(t, 1, out)
    return tuple(out)


def _sibling_pairs(node: Term, k: int, out: list[int]) -> int:
    """Append the sibling pairs under node, whose first leaf is k; return
    the position after its last leaf."""
    if isinstance(node, Variable):
        return k + 1
    if isinstance(node.left, Variable) and isinstance(node.right, Variable):
        out.append(k)
        return k + 2
    k = _sibling_pairs(node.left, k, out)
    return _sibling_pairs(node.right, k, out)


@lru_cache(maxsize=TREE_CACHE_SIZE)
def collapse_caret(t: Term, leaf: int) -> Term:
    """Merge the caret over leaves (leaf, leaf+1) back into a single leaf."""
    out, _ = _collapse(t, 1, leaf)
    if size(out) != size(t) - 1:
        raise ValueError(f"no caret over leaves ({leaf}, {leaf + 1})")
    return out


def _collapse(node: Term, k: int, leaf: int) -> tuple[Term, int]:
    """node, whose first leaf is k, with the caret over (leaf, leaf+1)
    merged; and the position after its last leaf."""
    if isinstance(node, Variable):
        return node, k + 1
    if isinstance(node.left, Variable) and isinstance(node.right, Variable) and k == leaf:
        return X, k + 2
    left, k = _collapse(node.left, k, leaf)
    right, k = _collapse(node.right, k, leaf)
    return Compound(CIRC, left, right), k


@lru_cache(maxsize=TREE_CACHE_SIZE)
def tree_join(t1: Term, t2: Term) -> Term:
    """Smallest common refinement in the caret order."""
    if isinstance(t1, Variable):
        return t2
    if isinstance(t2, Variable):
        return t1
    return Compound(CIRC, tree_join(t1.left, t2.left), tree_join(t1.right, t2.right))


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _leaf_subtrees(t: Term, refined: Term) -> tuple[Term, ...]:
    """The subtree of `refined` under each leaf of t, left to right; t must be
    refined by `refined` in the caret order."""
    out: list[Term] = []
    _subtrees_below(t, refined, out)
    return tuple(out)


def _subtrees_below(node: Term, goal: Term, out: list[Term]) -> None:
    if isinstance(node, Variable):
        out.append(goal)
    else:
        _subtrees_below(node.left, goal.left, out)
        _subtrees_below(node.right, goal.right, out)


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True, slots=True)
class PBDiagram:
    dom: Term
    braid: BraidWord
    cod: Term
    strands: int = field(init=False, compare=False, repr=False)
    #: strand k (1-based dom leaf) ends on cod leaf permutation[k-1]
    permutation: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = size(self.dom)
        if size(self.cod) != n:
            raise ValueError("dom and cod must have the same number of leaves")
        if 0 in self.braid or max(map(abs, self.braid), default=0) >= n:
            raise ValueError("braid indices must lie in [1, n-1]")
        object.__setattr__(self, "strands", n)
        object.__setattr__(self, "permutation", permutation(self.braid, n))

    def to_json(self) -> dict:
        return {
            "dom": tree_pattern(self.dom),
            "braid": render_braid(self.braid),
            "cod": tree_pattern(self.cod),
        }

    @classmethod
    def from_json(cls, data: dict) -> PBDiagram:
        return cls(
            parse_tree_pattern(data["dom"]),
            parse_braid(data["braid"]),
            parse_tree_pattern(data["cod"]),
        )


_set = object.__setattr__


def _diagram(dom: Term, braid: BraidWord, cod: Term, perm: tuple[int, ...]) -> PBDiagram:
    """A PBDiagram from parts its caller has already checked, with the
    permutation its caller already knows: products, shifts and inverses
    build their results here, without the public `__post_init__`.  Only the
    leaf counts are compared again, which is O(1) on interned trees."""
    n = len(perm)
    if dom.size != n or cod.size != n:
        raise ValueError("dom, cod and permutation must have the same number of leaves")
    d = object.__new__(PBDiagram)
    _set(d, "dom", dom)
    _set(d, "braid", braid)
    _set(d, "cod", cod)
    _set(d, "strands", n)
    _set(d, "permutation", perm)
    return d


_IDENTITY = PBDiagram(X, (), X)


def identity_diagram() -> PBDiagram:
    return _IDENTITY


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError("index must be >= 1")
    # the generator's comb has i+2 leaves, and the tree helpers that walk a
    # tree (tree_pattern, _graft, tree_join, ...) recurse on its depth
    if i + 2 > MAX_DEPTH:
        raise ValueError(f"letter index {i} needs a comb of {i + 2} leaves, more than {MAX_DEPTH}")


def gen_sigma(i: int) -> PBDiagram:
    _check_index(i)
    comb = x_power(i + 2)
    return PBDiagram(comb, (i,), comb)


def gen_a(i: int) -> PBDiagram:
    _check_index(i)
    return PBDiagram(x_power(i + 2), (), add_caret(x_power(i + 1), i))


def _cable(braid: BraidWord, widths: list[int], rank: Sequence[int]) -> BraidWord:
    """Replace the strand starting at position n by widths[n-1] parallel
    strands.  A crossing of a width-a block over a width-b block starting at
    position p becomes the a*b crossings e*(p+j+k), j over the left block
    from a-1 down to 0 and k over the right block from 0 to b-1.  The block
    with the lower rank (refined first caret by caret) is the outer loop;
    either order gives the same braid."""
    if max(widths) == 1:
        return tuple(braid)
    strand = list(range(len(widths)))  # by current position
    start = [1]  # first cabled position of each current position
    for w in widths:
        start.append(start[-1] + w)
    out: list[int] = []
    for x in braid:
        i = abs(x)
        s, t = strand[i - 1], strand[i]
        a, b, p = widths[s], widths[t], start[i - 1]
        e = 1 if x > 0 else -1
        if a == b == 1:
            out.append(e * p)
        elif rank[s] < rank[t]:
            out += [e * (p + j + k) for j in range(a - 1, -1, -1) for k in range(b)]
        else:
            out += [e * (p + j + k) for k in range(b) for j in range(a - 1, -1, -1)]
        strand[i - 1], strand[i] = t, s
        start[i] = p + b
    return tuple(out)


def split_strand(d: PBDiagram, k: int) -> PBDiagram:
    """Replace strand k (1-based dom leaf) by two parallel strands."""
    if not 1 <= k <= d.strands:
        raise ValueError(f"strand {k} out of range")
    widths = [1] * d.strands
    widths[k - 1] = 2
    perm = d.permutation
    cabled = _cable(d.braid, widths, perm)
    return PBDiagram(add_caret(d.dom, k), cabled, add_caret(d.cod, perm[k - 1]))


def _remove_strand(braid: BraidWord, k: int) -> BraidWord:
    """Delete the strand starting at position k, dropping its crossings."""
    out: list[int] = []
    c = k
    for x in braid:
        i = abs(x)
        if i == c:
            c = i + 1
        elif i + 1 == c:
            c = i
        elif i > c:
            out.append(x - 1 if x > 0 else x + 1)
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class ReductionSite:
    """Candidate caret cancellation: dom leaves (dom_pair, dom_pair+1) whose
    strands end on the cod leaves (cod_pair, cod_pair+1)."""

    dom_pair: int
    cod_pair: int


def reduction_sites(d: PBDiagram) -> list[ReductionSite]:
    """Sites whose leaf pairs are siblings on both sides and matched by the
    braid's permutation; whether a site actually cancels is decided
    semantically by merge-and-resplit."""
    perm = d.permutation
    cod_pairs = set(sibling_leaf_pairs(d.cod))
    out = []
    for p in sibling_leaf_pairs(d.dom):
        q = min(perm[p - 1], perm[p])
        if abs(perm[p - 1] - perm[p]) == 1 and q in cod_pairs:
            out.append(ReductionSite(p, q))
    return out


def diagram_reduce(d: PBDiagram, rng: random.Random | None = None) -> PBDiagram:
    """Cancel caret pairs until none remains.

    A site cancels iff merging it and re-splitting reproduces the braid up
    to braid equality; that test makes reduction sound and complete relative
    to the braid engine.  An rng shuffles the candidate order (used by the
    confluence tests); the default is the deterministic leftmost order.
    """
    while True:
        candidates = reduction_sites(d)
        if rng is not None:
            rng.shuffle(candidates)
        for site in candidates:
            p, q = site.dom_pair, site.cod_pair
            merged = PBDiagram(
                collapse_caret(d.dom, p),
                _remove_strand(d.braid, p),
                collapse_caret(d.cod, q),
            )
            if braid_equal(split_strand(merged, p).braid, d.braid):
                d = merged
                break
        else:
            return d


def diagram_multiply(d1: PBDiagram, d2: PBDiagram) -> PBDiagram:
    """Stack d2 below d1, refining each side to the middle tree in one pass.
    d1's strands rank by their cod leaf and d2's by their dom leaf, as in a
    leftmost-first refinement one caret at a time.  A side whose tree already
    is the middle tree keeps its tree and braid as they are."""
    middle = tree_join(d1.cod, d2.dom)
    if middle is d1.cod:
        dom, braid1 = d1.dom, d1.braid
    else:
        perm1 = d1.permutation
        below = _leaf_subtrees(d1.cod, middle)
        # the graft keys are tuples built from lists, not from generators:
        # CPython grows a tuple built from a generator from 10 slots, and such
        # tuples, once freed, pile up in its per-length free lists (1 MiB more
        # peak memory in the word-model checks)
        top = tuple([below[q - 1] for q in perm1])
        dom, braid1 = _graft(d1.dom, top), _cable(d1.braid, [t.size for t in top], perm1)
    if middle is d2.dom:
        cod, braid2 = d2.cod, d2.braid
    else:
        perm2 = d2.permutation
        above = _leaf_subtrees(d2.dom, middle)
        bottom = tuple([above[k] for k in sorted(range(d2.strands), key=perm2.__getitem__)])
        cod = _graft(d2.cod, bottom)
        braid2 = _cable(d2.braid, [t.size for t in above], range(d2.strands))
    braid = free_reduce(braid1 + braid2)
    return diagram_reduce(_diagram(dom, braid, cod, permutation(braid, middle.size)))


def diagram_inverse(d: PBDiagram) -> PBDiagram:
    inv = [0] * d.strands
    for k, q in enumerate(d.permutation, start=1):
        inv[q - 1] = k
    return _diagram(d.cod, inverse(d.braid), d.dom, tuple(inv))


def diagram_shift(d: PBDiagram) -> PBDiagram:
    """The shift endomorphism: a fresh first strand in front of everything."""
    return _diagram(
        Compound(CIRC, X, d.dom),
        tuple([x + 1 if x > 0 else x - 1 for x in d.braid]),
        Compound(CIRC, X, d.cod),
        (1, *[q + 1 for q in d.permutation]),
    )


@lru_cache(maxsize=None)
def _letter_diagram(fam: str, signed: int) -> PBDiagram:
    if fam not in ("s", "a"):
        raise ValueError(f"unknown letter family {fam!r}")
    i = abs(signed)
    gen = gen_sigma(i) if fam == "s" else gen_a(i)
    return gen if signed > 0 else diagram_inverse(gen)


#: Entries the step cache of `word_to_diagram` keeps.  A `words` benchmark
#: round takes 35,116 steps but only 7,412 distinct ones, because the words
#: of one check share their prefixes; with this size it computes 9,060.
STEP_CACHE_SIZE = 1024


@lru_cache(maxsize=STEP_CACHE_SIZE)
def _times_letter(d: PBDiagram, fam: str, signed: int) -> PBDiagram:
    return diagram_multiply(d, _letter_diagram(fam, signed))


def word_to_diagram(w: PBWord) -> PBDiagram:
    """The homomorphism from words: letters map to generator diagrams.

    Each step d · letter goes through a bounded cache keyed on the diagram.
    That is sound because `diagram_multiply` depends on nothing but the
    (dom, braid, cod) of its arguments, which is exactly what a frozen
    PBDiagram hashes and compares on (its trees are interned terms), so a
    hit returns the diagram the product would compute, letter for letter.
    Words that share a prefix, such as b*c and b∘c, which both begin with b,
    compute its steps once.
    """
    d = identity_diagram()
    for fam, signed in w:
        d = _times_letter(d, fam, signed)
    return d


def diagram_equal(d1: PBDiagram, d2: PBDiagram) -> bool:
    """Reduce both; compare trees structurally and braids by handle reduction."""
    return _reduced_equal(diagram_reduce(d1), diagram_reduce(d2))


def _reduced_equal(r1: PBDiagram, r2: PBDiagram) -> bool:
    return r1.dom == r2.dom and r1.cod == r2.cod and braid_equal(r1.braid, r2.braid)


def word_eq_oracle(w1: PBWord, w2: PBWord) -> bool:
    """Equality of parenthesized-braid words through the diagram model,
    after group cancellation only: each word is freely reduced, then the
    common prefix and suffix of the two drop (p·r1·s = p·r2·s iff r1 = r2).
    Every letter is validated first, so one the model refuses raises even
    where it cancels.  `word_to_diagram` returns reduced diagrams (the
    identity, or the output of `diagram_multiply`, which ends in
    `diagram_reduce`), so the remainders compare without reducing again."""
    for fam, signed in set(w1).union(w2):
        _letter_diagram(fam, signed)
    r1, r2 = cancel_common_ends(pb_free_reduce(w1), pb_free_reduce(w2))
    return _reduced_equal(word_to_diagram(r1), word_to_diagram(r2))


# ---------------------------------------------------------------------------
# Structural evaluation of terms in the model


def diagram_eval_term(t: Term, g: PBDiagram, _cache: dict | None = None) -> PBDiagram:
    """Evaluate a one-variable term at the diagram g; memoizes subterms.

    b ∘ c = (b · sh(c)) · a1 and b * c = (b · sh(c)) · (σ1 · sh(b)⁻¹) both
    begin with the product b · sh(c), so the first of the two to be
    evaluated leaves it in the cache under (b's term, c's term) and the
    second pops it.  The right factor σ1 · sh(b)⁻¹ of b * c depends on b
    alone and stays in the cache under (b's term,), so each term pair costs
    three products, not four.  Every product ends in `diagram_reduce`, so
    the evaluations of a reduced g, such as those of `word_to_diagram`, are
    reduced too."""
    if _cache is None:
        _cache = {}
    if t in _cache:
        return _cache[t]
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        result = g
    else:
        left = diagram_eval_term(t.left, g, _cache)
        right = diagram_eval_term(t.right, g, _cache)
        pair = (t.left, t.right)
        product = _cache.pop(pair, None)
        if product is None:
            product = _cache[pair] = diagram_multiply(left, diagram_shift(right))
        if t.op == "*":
            key = (t.left,)
            factor = _cache.get(key)
            if factor is None:
                factor = _cache[key] = diagram_multiply(
                    _letter_diagram("s", 1), diagram_inverse(diagram_shift(left))
                )
            result = diagram_multiply(product, factor)
        else:
            result = diagram_multiply(product, _letter_diagram("a", 1))
    _cache[t] = result
    return result
