"""
Words in the Artin braid group B_∞, with equality and order decided by handle
reduction.

A braid word is a tuple of nonzero integers: +i stands for σ_i, -i for
σ_i⁻¹, indices starting at 1.  Text format: whitespace-separated letters
`s<i>` and `S<i>` for σ_i and σ_i⁻¹ (the empty string is the identity).

A σ_i-handle is a subword σ_i^e v σ_i^{-e} (e = ±1) whose interior v contains
no letter of index <= i.  Reducing it conjugates the interior through σ_i^e:
each σ_{i+1}^d becomes σ_{i+1}^{-e} σ_i^d σ_{i+1}^e, letters of index >= i+2
pass through unchanged, and the two σ_i letters vanish.  Every reduction
sequence terminates, and a handle-free word is empty or has its lowest-index
generator occurring with a single sign (σ-positive or σ-negative).
`handle_reduce` reads the word as given (free cancellation is a handle with
an empty interior, which its defect-detector cap does not count) and always
reduces the leftmost-closing handle, in one stack pass that puts each
rewritten interior back onto the letters still to read, so no reduction
moves the rest of the word; its look-back for the nearest letter of index
<= i follows skip pointers over runs of higher indices, so a word over many
indices costs no quadratic scan.
The sign of a handle-free word decides the order: w1 < w2 iff w1⁻¹ w2
reduces to a σ-positive word, which makes the order total, left-invariant,
and compatible with equality.  Equality cuts one thing more: p·r1·s =
p·r2·s iff r1 = r2, so `braid_equal` cancels the common prefix and suffix
and reduces the quotient r1⁻¹r2 that is left (w1 = w2 iff it reduces to the
empty word).  Cutting the suffix conjugates the quotient, which keeps its
triviality but can change its σ-sign (σ1σ2⁻¹ is σ-positive, its conjugate
σ1·σ1σ2⁻¹·σ1⁻¹ σ-negative), so the order reduces the whole quotient w1⁻¹w2.
Both first shorten their quotient by `cancel_far_commuting`, one O(1) step
a letter: it cancels x against an earlier x⁻¹ when every letter between has
an index at least 2 away from x's, which is sound by the relation σ_iσ_j =
σ_jσ_i for |i - j| >= 2, and it subsumes free reduction, so a common prefix
of w1 and w2 cancels there.  The sign the order reads survives it: every
nontrivial braid is exactly one of σ-positive and σ-negative, so all its
handle-free words have the same sign.  On a conjugate u⁻¹·v·u whose
conjugator's indices stay 2 away from v's it cancels u at once.  Where a
hashable key is wanted, `braid_key` gives one: the braid's Dynnikov
coordinates.

The left self-distributive operation on braids is
b * c = b · sh(c) · σ_1 · sh(b)⁻¹, where sh shifts every index up by one.
`braid_ld` cancels that word at its two seams: the end of b freely against
the start of sh(c), then, across σ_1, the longest tail Y of what is left
that sh(b)⁻¹ begins by undoing, as long as Y's letters have index >= 3;
such a Y commutes with σ_1, so Y · σ_1 · Y⁻¹ = σ_1.  Neither step changes
the braid, and they halve the words of L * (a * b) and (L * a) * (L * b)
for a left comb L and cut their quotient to a few letters.  Evaluating a
*-term via this operation, every variable sent to one braid, is an LD-class
invariant, complete on one-variable terms; the LD oracle runs on it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from operator import add

from .terms import Term, is_star_term, right_spine

BraidWord = tuple  # tuple[int, ...]

LESS = -1
EQUAL = 0
GREATER = 1


def parse_braid(text: str) -> BraidWord:
    letters = []
    for tok in text.split():
        if len(tok) < 2 or tok[0] not in "sS" or not tok[1:].isdigit() or int(tok[1:]) < 1:
            raise ValueError(f"bad braid letter {tok!r}")
        i = int(tok[1:])
        letters.append(i if tok[0] == "s" else -i)
    return tuple(letters)


def render_braid(w: BraidWord) -> str:
    return " ".join(f"s{x}" if x > 0 else f"S{-x}" for x in w)


def inverse(w: BraidWord) -> BraidWord:
    return tuple([-x for x in reversed(w)])


def braid_shift(w: BraidWord, k: int = 1) -> BraidWord:
    """Map σ_i to σ_{i+k}, preserving signs."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    return tuple([x + k if x > 0 else x - k for x in w])


def free_reduce(w: BraidWord) -> BraidWord:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def permutation(w: BraidWord, n: int | None = None) -> tuple[int, ...]:
    """End position of each strand: strand p (1-based) ends at result[p-1]."""
    if n is None:
        n = max((abs(x) for x in w), default=0) + 1
    occupant = list(range(1, n + 1))
    for x in w:
        i = abs(x)
        occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
    perm = [0] * n
    for pos, strand in enumerate(occupant, start=1):
        perm[strand - 1] = pos
    return tuple(perm)


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in w)


class HandleReductionDefect(RuntimeError):
    """Handle reduction broke one of its guarantees: a defect in this module."""


def handle_reduce(w: BraidWord, step_cap: int = 1_000_000) -> BraidWord:
    """Equivalent handle-free word; empty, σ-positive, or σ-negative.

    One left-to-right stack pass over the word as given: `done` is a prefix
    in which no handle closes, and `todo` holds the letters still to read,
    the next one last.  A letter x of index i looks back in `done` for the
    nearest letter of index <= i; if that is x⁻¹, the two close a handle,
    whose interior leaves `done` and goes back onto `todo` rewritten.  Every
    reduction is thus the leftmost-closing one, as in a rescan from the
    handle's start.  A letter next to its inverse closes a handle with an
    empty interior.

    The look-back follows skip pointers: `below[p]` is the nearest position
    under p whose letter has a smaller index than done[p], so every letter
    strictly between the two has index >= that of done[p], and a look-back
    for index i that meets done[p] above i jumps straight to below[p].  A
    pushed letter takes its pointer from the position its own look-back
    found: that position, or its pointer when it holds x itself.  Pointers
    only point down, so cutting `done` at a handle keeps every remaining
    pointer valid.  Without them, each look-back walks letter by letter, and
    a word over many indices costs time quadratic in its length.

    The step cap is a defect detector only: handle reduction terminates, so
    hitting the cap raises HandleReductionDefect, never a weaker answer.  It
    counts the reductions of handles with a nonempty interior: a free
    cancellation removes two letters and pushes none, so it cannot keep the
    pass from ending, and a long word is not refused for its length.
    """
    done: list[int] = []
    below: list[int] = []
    todo = list(w[::-1])
    steps = 0
    while todo:
        x = todo.pop()
        i = x if x > 0 else -x
        j = len(done) - 1
        while j >= 0 and (done[j] > i or done[j] < -i):
            j = below[j]
        if j < 0 or done[j] != -x:  # no handle closes at x
            below.append(below[j] if j >= 0 and done[j] == x else j)
            done.append(x)
            continue
        if j + 1 < len(done):  # a free cancellation is not counted
            steps += 1
            if steps > step_cap:
                raise HandleReductionDefect("handle reduction exceeded its defect-detector cap")
        # done[j] = σ_i^e: each σ_{i+1}^d of the interior becomes
        # σ_{i+1}^{-e} σ_i^d σ_{i+1}^e, pushed onto todo last letter first
        h = i + 1
        up = -h if x > 0 else h
        for z in reversed(done[j + 1 :]):
            if z == h:
                todo += (up, i, -up)
            elif z == -h:
                todo += (up, -i, -up)
            else:
                todo.append(z)
        del done[j:], below[j:]
    if done:
        m = min(map(abs, done))
        if m in done and -m in done:
            raise HandleReductionDefect("handle-free word with mixed signs at its lowest index")
    return tuple(done)


def cancel_far_commuting(w: BraidWord) -> BraidWord:
    """w with each letter x cancelled against the last live x⁻¹ before it
    whenever no live letter between the two has an index within 1 of x's.

    The letters between commute with x (σ_iσ_j = σ_jσ_i for |i - j| >= 2),
    so the result is the same braid; it is a subsequence of w, freely
    reduced, with no such pair left.  `last[i]` is the position in `out` of
    the last live letter of index i and `prev[p]` that of the live letter of
    index |out[p]| before p, so each letter costs O(1); a cancelled letter
    stays in `out` as a tombstone 0.
    """
    out: list[int] = []
    prev: list[int] = []
    last = [-1] * (max(max(w, default=0), -min(w, default=0)) + 2)
    for x in w:
        i = x if x > 0 else -x
        p = last[i]
        if p < 0 or out[p] != -x or p < last[i - 1] or p < last[i + 1]:
            last[i] = len(out)
            out.append(x)
            prev.append(p)
        else:
            last[i] = prev[p]
            out[p] = 0
    return tuple(filter(None, out))


def braid_compare(w1: BraidWord, w2: BraidWord) -> int:
    """LESS/EQUAL/GREATER in the total order: w1 < w2 iff w1⁻¹w2 is σ-positive.

    The quotient goes through `cancel_far_commuting` first, then
    `handle_reduce`.  Every nontrivial braid is exactly one of σ-positive
    and σ-negative, so any equivalent word that is handle-free has the same
    sign.  A common suffix stays, since cutting it conjugates the quotient,
    which can change its σ-sign.
    """
    r = handle_reduce(cancel_far_commuting(inverse(w1) + tuple(w2)))
    if not r:
        return EQUAL
    m = min(abs(x) for x in r)
    positive = next(x > 0 for x in r if abs(x) == m)
    return LESS if positive else GREATER


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether w1 and w2 are the same braid.

    Cancels the longest common prefix p and suffix s first, since p·r1·s =
    p·r2·s iff r1 = r2, for any words, then handle-reduces the quotient
    r1⁻¹r2 after `cancel_far_commuting`.  `braid_compare` keeps the suffix:
    conjugation changes σ-signs.
    """
    r1, r2 = cancel_common_ends(tuple(w1), tuple(w2))
    return not handle_reduce(cancel_far_commuting(inverse(r1) + r2))


def cancel_common_ends(u: tuple, v: tuple) -> tuple[tuple, tuple]:
    """u and v without their longest common prefix, then without the
    longest common suffix of what is left; tuples of any letters."""
    p = _common_prefix(u, v)
    s = _common_prefix(u[p:][::-1], v[p:][::-1])
    return u[p : len(u) - s], v[p : len(v) - s]


def _common_prefix(u: tuple, v: tuple) -> int:
    """Length of the longest common prefix, by binary search on slice
    comparisons, which run in C."""
    lo, hi = 0, min(len(u), len(v))
    if u[:hi] == v[:hi]:
        return hi
    while hi - lo > 1:  # u[:lo] == v[:lo] and u[:hi] != v[:hi]
        mid = (lo + hi) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def braid_key(w: BraidWord) -> tuple[int, ...]:
    """Dynnikov coordinates: a canonical key with braid_key(u) == braid_key(v)
    iff braid_equal(u, v).

    B_n acts faithfully on Z^(2n) by piecewise-linear maps, σ_i touching the
    pairs (a_i, b_i), (a_{i+1}, b_{i+1}) only; the key is the image of
    (0,1, ..., 0,1) for n = largest index plus one, with trailing (0,1)
    pairs dropped, so a braid has the same key in every B_n it lies in.  With
    t⁺ = max(t, 0), t⁻ = min(t, 0), σ_i sends
        z = a_i - b_i⁻ - a_{i+1} + b_{i+1}⁺,
        (a_i + b_i⁺ + (b_{i+1}⁺ - z)⁺,  b_{i+1} - z⁺,
         a_{i+1} + b_{i+1}⁻ + (b_i⁻ + z)⁻,  b_i + z⁺)
    (Dehornoy, "Efficient solutions to the braid isotopy problem", Discrete
    Appl. Math. 156, 2008).  σ_i⁻¹ is σ_i conjugated by a ↦ -a: reflecting
    the punctured disc in the line through the punctures maps σ_i to σ_i⁻¹
    and negates every a-coordinate, so a letter -i negates a_i and a_{i+1},
    applies σ_i and negates them again.  The loop splits on the sign of z
    instead of calling max/min, which makes it several times faster.
    Coordinates grow with the word, so the key costs time quadratic in its
    length: order, and `braid_equal` on a single pair, stay with handle
    reduction.
    """
    c = [0, 1] * (max(map(abs, w), default=0) + 1)
    for x in w:
        if x > 0:
            j = 2 * x - 2
            a1, b1, a2, b2 = c[j], c[j + 1], c[j + 2], c[j + 3]
        else:
            j = -2 * x - 2
            a1, b1, a2, b2 = -c[j], c[j + 1], -c[j + 2], c[j + 3]
        m1 = b1 if b1 < 0 else 0
        p2 = b2 if b2 > 0 else 0
        z = a1 - m1 - a2 + p2
        if z > 0:
            a1 += b1 - m1 + (p2 - z if p2 > z else 0)
            a2 += b2 - p2 + (m1 + z if m1 + z < 0 else 0)
            c[j + 1] = b2 - z
            c[j + 3] = b1 + z
        else:
            a1 += b1 - m1 + p2 - z
            a2 += b2 - p2 + m1 + z
            c[j + 1] = b2
            c[j + 3] = b1
        if x > 0:
            c[j], c[j + 2] = a1, a2
        else:
            c[j], c[j + 2] = -a1, -a2
    k = len(c)
    while k and c[k - 2] == 0 and c[k - 1] == 1:
        k -= 2
    return tuple(c[:k])


def braid_ld(b: BraidWord, c: BraidWord) -> BraidWord:
    """b * c = b · sh(c) · σ_1 · sh(b)⁻¹, cancelled at its two seams.

    Seam 1: the end of b and the start of sh(c) cancel freely.  Seam 2: with
    head = b · sh(c) after seam 1, the longest tail Y of head that sh(b)⁻¹
    begins by undoing goes, as long as every letter of Y has index >= 3:
    such a Y commutes with σ_1, so Y · σ_1 · Y⁻¹ = σ_1.  Each seam costs
    O(1) when its two letters do not cancel (`seam_length`).  sh(b)⁻¹ is
    built once for each of the last 16 left operands, since terms share
    them (L in L * a and L * b): a seed-1 `decide` round builds 34,523 of its
    letters, 76,135 without.
    """
    b = tuple(b)
    sh_c = braid_shift(c)
    sh_b_inverse = _shifted_inverse(b)
    k = seam_length(b, sh_c)
    head = b[: len(b) - k] + sh_c[k:]
    k = seam_length(head, sh_b_inverse)
    if k:  # Y⁻¹ = sh_b_inverse[:k] stops before its first letter ±2
        y = sh_b_inverse[:k]
        k = min([y.index(x) for x in (2, -2) if x in y], default=k)
    return head[: len(head) - k] + (1,) + sh_b_inverse[k:]


@lru_cache(maxsize=16)
def _shifted_inverse(b: BraidWord) -> BraidWord:
    return tuple([-x - 1 if x > 0 else 1 - x for x in reversed(b)])


def seam_length(u: BraidWord, v: BraidWord) -> int:
    """The number of letters that cancel freely where u meets v: the largest
    k with v[:k] = inverse(u[-k:]).  O(1) when the two letters at the seam
    do not cancel; otherwise one lazy pass in C over the sums u[-1-j] + v[j]
    stops at the first that is not 0, and no letter is inverted or copied."""
    if not u or not v or u[-1] != -v[0]:
        return 0
    return next(compress(count(), map(add, reversed(u), v)), min(len(u), len(v)))


@lru_cache(maxsize=1024)  # a decide or freeness round holds under 600 entries
def eval_star_braid(t: Term, g: BraidWord) -> BraidWord:
    """Evaluate a *-term under the LD operation, every variable sent to the
    braid g: an invariant of LD-classes, complete on one-variable terms."""
    if not is_star_term(t):
        raise ValueError("term must use only *")
    word = tuple(g)
    for node in reversed(right_spine(t)[0]):
        word = braid_ld(eval_star_braid(node.left, g), word)
    return word
