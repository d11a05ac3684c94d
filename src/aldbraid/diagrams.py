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
each side to the join of the middle trees, cabling its braid in one pass;
splitting one strand is the one-caret case of that refinement.  A diagram
is compared by first reducing it (undoing every splitting it contains) and
then comparing trees structurally and braids by handle reduction.  Whether a
caret pair may be cancelled is decided semantically: merge, re-split, and
accept only if the braid comes back unchanged up to braid equality.

The generators: σ_i crosses leaves i and i+1 of a right comb with i+2
leaves; a_i regroups a right comb with i+2 leaves into the comb with i+1
leaves whose i-th leaf carries one extra caret, with no crossings at all.
Trees are represented as one-variable ∘-terms; a tree prints as a
parenthesized leaf pattern like `(x(xx))`, a diagram as
{"dom": ..., "braid": ..., "cod": ...} with the braid in `s<i>`/`S<i>` text.

Every diagram holds a freely reduced braid word: the constructor validates
the braid it is given, then stores its free reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .braids import (
    BraidWord,
    braid_equal,
    braid_shift,
    cancel_common_ends,
    free_reduce,
    inverse,
    permutation,
    render_braid,
)
from .pbwords import PBWord, check_word_length, pb_free_reduce
from .terms import CIRC, MAX_DEPTH, STAR, Compound, Term, Variable, X
from .terms import fold, is_one_variable, right_spine, size, substitute, x_power


# ---------------------------------------------------------------------------
# Tree helpers (trees are one-variable ∘-terms).  Each walk loops down the
# right spine and recurses only into left children: the trees of evaluations
# are deep only along their right spines.


def tree_pattern(t: Term) -> str:
    spine, _ = right_spine(t)
    return "".join([f"({tree_pattern(node.left)}" for node in spine]) + "x" + ")" * len(spine)


#: Entries each node-keyed tree cache keeps, and each of the two refinement
#: caches of `diagram_multiply`, keyed on a diagram and a tree.  Trees are
#: interned terms, so a tree lookup hashes and compares its arguments in
#: O(1).  A one-word size-6 freeness scan makes at most 926 distinct keys per
#: cache (450 per tree cache); a one-word size-7 scan evicts, with up to 5,396
#: misses in one cache (1,305 in a tree cache), but each cache still hits at
#: least 56% of its lookups (each tree cache at least 76%).
TREE_CACHE_SIZE = 1024


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _graft(t: Term, subtrees: tuple[Term, ...]) -> Term:
    """Replace the k-th leaf of t by subtrees[k-1]."""
    return substitute(t, subtrees)


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
    k = 0  # leaves left of the current spine node
    for node in right_spine(t)[0]:
        if node.size == 2:
            out.append(k + 1)
        elif isinstance(node.left, Compound):
            out += [k + p for p in sibling_leaf_pairs(node.left)]
        k += node.left.size
    return tuple(out)


@lru_cache(maxsize=TREE_CACHE_SIZE)
def collapse_caret(t: Term, leaf: int) -> Term:
    """Merge the caret over leaves (leaf, leaf+1) back into a single leaf.
    Descends to the caret by the leaf counts and rebuilds only that path."""
    path: list[tuple[Compound, bool]] = []  # each node above the caret, and whether it went left
    node, k = t, leaf  # the caret is over leaves (k, k+1) of node
    while node.size != 2 or k != 1:
        if isinstance(node, Variable):
            raise ValueError(f"no caret over leaves ({leaf}, {leaf + 1})")
        left = k <= node.left.size
        path.append((node, left))
        node, k = (node.left, k) if left else (node.right, k - node.left.size)
    out: Term = X
    for node, left in reversed(path):
        out = Compound(CIRC, out, node.right) if left else Compound(CIRC, node.left, out)
    return out


@lru_cache(maxsize=TREE_CACHE_SIZE)
def tree_join(t1: Term, t2: Term) -> Term:
    """Smallest common refinement in the caret order.  A node of t1 that the
    join leaves as it is is kept, without looking it up again."""
    spine: list[tuple[Compound, Term]] = []  # t1's spine nodes, each with its left join
    while isinstance(t1, Compound) and isinstance(t2, Compound) and t1 is not t2:
        spine.append((t1, tree_join(t1.left, t2.left)))
        t1, t2 = t1.right, t2.right
    out = t2 if isinstance(t1, Variable) else t1
    for node, left in reversed(spine):
        out = node if left is node.left and out is node.right else Compound(CIRC, left, out)
    return out


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _leaf_subtrees(t: Term, refined: Term) -> tuple[Term, ...]:
    """The subtree of `refined` under each leaf of t, left to right; t must be
    refined by `refined` in the caret order."""
    out: list[Term] = []
    while isinstance(t, Compound):
        out += (refined.left,) if t.left.size == 1 else _leaf_subtrees(t.left, refined.left)
        t, refined = t.right, refined.right
    out.append(refined)
    return tuple(out)


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True, slots=True)
class PBDiagram:
    dom: Term
    braid: BraidWord
    cod: Term
    #: strand k (1-based dom leaf) ends on cod leaf permutation[k-1]
    permutation: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = size(self.dom)
        if size(self.cod) != n:
            raise ValueError("dom and cod must have the same number of leaves")
        if 0 in self.braid or max(map(abs, self.braid), default=0) >= n:
            raise ValueError("braid indices must lie in [1, n-1]")
        object.__setattr__(self, "braid", free_reduce(self.braid))
        object.__setattr__(self, "permutation", permutation(self.braid, n))

    def to_json(self) -> dict:
        return {
            "dom": tree_pattern(self.dom),
            "braid": render_braid(self.braid),
            "cod": tree_pattern(self.cod),
        }


_set = object.__setattr__


def _diagram(dom: Term, braid: BraidWord, cod: Term, perm: tuple[int, ...]) -> PBDiagram:
    """A PBDiagram from parts its caller has already checked, with the
    permutation its caller already knows: products, shifts and inverses
    build their results here, without the public `__post_init__`.  Only the
    leaf counts are compared again, which is O(1) on interned trees.  The
    braid must be freely reduced, as products, inverses and shifts make it."""
    n = len(perm)
    if dom.size != n or cod.size != n:
        raise ValueError("dom, cod and permutation must have the same number of leaves")
    d = object.__new__(PBDiagram)
    _set(d, "dom", dom)
    _set(d, "braid", braid)
    _set(d, "cod", cod)
    _set(d, "permutation", perm)
    return d


_IDENTITY = PBDiagram(X, (), X)


def identity_diagram() -> PBDiagram:
    return _IDENTITY


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError("index must be >= 1")
    # the generator's comb is a right comb of i+2 leaves, which the tree walks
    # loop down, so the bound only limits the size of its diagrams
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
    either order gives the same braid.  A braid past the word cap is refused."""
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
        else:
            check_word_length(len(out) + a * b)
            if rank[s] < rank[t]:
                out += [e * (p + j + k) for j in range(a - 1, -1, -1) for k in range(b)]
            else:
                out += [e * (p + j + k) for k in range(b) for j in range(a - 1, -1, -1)]
        strand[i - 1], strand[i] = t, s
        start[i] = p + b
    return tuple(out)


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


def reduction_sites(d: PBDiagram) -> list[tuple[int, int]]:
    """Candidate caret cancellations (p, q): dom leaves (p, p+1) that are
    siblings, whose strands end on the sibling cod leaves (q, q+1); whether
    a site actually cancels is decided semantically by merge-and-resplit."""
    perm = d.permutation
    cod_pairs = set(sibling_leaf_pairs(d.cod))
    out = []
    for p in sibling_leaf_pairs(d.dom):
        q = min(perm[p - 1], perm[p])
        if abs(perm[p - 1] - perm[p]) == 1 and q in cod_pairs:
            out.append((p, q))
    return out


def diagram_reduce(d: PBDiagram) -> PBDiagram:
    """Cancel caret pairs until none remains, trying the sites leftmost first.

    A site cancels iff merging it and re-splitting reproduces the braid up
    to braid equality; that test makes reduction sound and complete relative
    to the braid engine.
    """
    while True:
        for p, q in reduction_sites(d):
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


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _refine_dom_side(d: PBDiagram, middle: Term) -> tuple[Term, BraidWord]:
    """The dom and braid of d refined until its cod is `middle`; d's strands
    rank by their cod leaf, as in a leftmost-first refinement one caret at a
    time.  Cached on the diagram, as `_times_letter` is: a frozen PBDiagram
    hashes and compares on exactly (dom, braid, cod)."""
    perm = d.permutation
    below = _leaf_subtrees(d.cod, middle)
    # the graft keys are tuples built from lists, not from generators:
    # CPython grows a tuple built from a generator from 10 slots, and such
    # tuples, once freed, pile up in its per-length free lists (1 MiB more
    # peak memory in the word-model checks)
    top = tuple([below[q - 1] for q in perm])
    return _graft(d.dom, top), _cable(d.braid, [t.size for t in top], perm)


@lru_cache(maxsize=TREE_CACHE_SIZE)
def _refine_cod_side(d: PBDiagram, middle: Term) -> tuple[Term, BraidWord]:
    """The cod and braid of d refined until its dom is `middle`; d's strands
    rank by their dom leaf.  Cached as `_refine_dom_side` is."""
    above = _leaf_subtrees(d.dom, middle)
    bottom = tuple([above[k] for k in sorted(range(d.dom.size), key=d.permutation.__getitem__)])
    return _graft(d.cod, bottom), _cable(d.braid, [t.size for t in above], range(d.dom.size))


def split_strand(d: PBDiagram, k: int) -> PBDiagram:
    """Replace strand k (1-based dom leaf) by two parallel strands, as a
    product refines its right side to a dom with one more caret, at leaf k."""
    if not 1 <= k <= d.dom.size:
        raise ValueError(f"strand {k} out of range")
    dom = add_caret(d.dom, k)
    cod, braid = _refine_cod_side(d, dom)
    return PBDiagram(dom, braid, cod)


def diagram_multiply(d1: PBDiagram, d2: PBDiagram) -> PBDiagram:
    """Stack d2 below d1, refining each side to the middle tree in one pass.
    A side whose tree already is the middle tree keeps its tree and braid as
    they are; the others come from bounded caches, since term evaluation
    and `word_to_diagram` meet the same operands again and again."""
    middle = tree_join(d1.cod, d2.dom)
    if middle is d1.cod:
        dom, braid1 = d1.dom, d1.braid
    else:
        dom, braid1 = _refine_dom_side(d1, middle)
    if middle is d2.dom:
        cod, braid2 = d2.cod, d2.braid
    else:
        cod, braid2 = _refine_cod_side(d2, middle)
    braid = free_reduce(braid1 + braid2)
    return diagram_reduce(_diagram(dom, braid, cod, permutation(braid, middle.size)))


def diagram_inverse(d: PBDiagram) -> PBDiagram:
    inv = [0] * d.dom.size
    for k, q in enumerate(d.permutation, start=1):
        inv[q - 1] = k
    return _diagram(d.cod, inverse(d.braid), d.dom, tuple(inv))


def diagram_shift(d: PBDiagram) -> PBDiagram:
    """The shift endomorphism: a fresh first strand in front of everything."""
    return _diagram(
        Compound(CIRC, X, d.dom),
        braid_shift(d.braid),
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
#: round at seed 1 takes 15,908 steps but only 5,329 distinct ones, because
#: the words of one check share their prefixes; with this size it computes
#: 6,127.
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
    Every letter is validated first, in reading order, so the first one the
    model refuses raises, even where it cancels.  `word_to_diagram` returns
    reduced diagrams (the identity, or the output of `diagram_multiply`,
    which ends in `diagram_reduce`), so the remainders compare as they are."""
    for fam, signed in dict.fromkeys((*w1, *w2)):
        _letter_diagram(fam, signed)
    r1, r2 = cancel_common_ends(pb_free_reduce(w1), pb_free_reduce(w2))
    return _reduced_equal(word_to_diagram(r1), word_to_diagram(r2))


# ---------------------------------------------------------------------------
# Structural evaluation of terms in the model


#: a1⁻¹ · σ1, the left part of the right factor G(b) of b * c
_A1_INV_SIGMA1 = diagram_multiply(_letter_diagram("a", -1), _letter_diagram("s", 1))


def diagram_eval_term(t: Term, g: PBDiagram, _cache: dict | None = None) -> PBDiagram:
    """Evaluate a one-variable term at the diagram g; _cache is the fold's memo.

    b ∘ c = b · H(c) with H(c) = sh(c) · a1, and b * c = (b ∘ c) · G(b) with
    G(b) = (a1⁻¹ · σ1) · sh(b)⁻¹, since b * c = b · sh(c) · σ1 · sh(b)⁻¹ and
    products are associative.  H(c) stays in the cache under (CIRC, c) and
    G(b) under (STAR, b), and b * c takes b ∘ c from the cache under its
    term, so each term pair costs two products, plus one per distinct right
    operand and one per distinct left operand of a `*`.  Every product ends
    in `diagram_reduce`, so the evaluations of a reduced g, such as those of
    `word_to_diagram`, are reduced too."""
    if not is_one_variable(t):
        raise ValueError("term must be one-variable")
    if _cache is None:
        _cache = {}

    def combine(node: Compound, b: PBDiagram, c: PBDiagram) -> PBDiagram:
        circ = node if node.op == CIRC else Compound(CIRC, node.left, node.right)
        h_key = (CIRC, node.right)
        g_key = (STAR, node.left)
        if circ not in _cache:
            if h_key not in _cache:
                _cache[h_key] = diagram_multiply(diagram_shift(c), _letter_diagram("a", 1))
            _cache[circ] = diagram_multiply(b, _cache[h_key])
        if node.op == CIRC:
            return _cache[circ]
        if g_key not in _cache:
            _cache[g_key] = diagram_multiply(_A1_INV_SIGMA1, diagram_inverse(diagram_shift(b)))
        return diagram_multiply(_cache[circ], _cache[g_key])

    return fold(t, lambda x: g, combine, _cache)
