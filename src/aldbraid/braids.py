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
`handle_reduce` always reduces the leftmost-closing handle, in one
left-to-right stack pass that puts each rewritten interior back onto the
letters still to read, so no reduction moves the rest of the word.
The sign of a handle-free word decides the order: w1 < w2 iff w1⁻¹ w2
reduces to a σ-positive word, which makes the order total, left-invariant,
and compatible with equality.  A common prefix p of w1 = p·r1 and w2 = p·r2
cancels from the quotient.  Equality alone needs less: p·r1·s = p·r2·s iff
r1 = r2, so `braid_equal` cancels the common suffix too, and the quotient
is trivial iff any conjugate of it is, so it strips the outer pairs
x … x⁻¹ off the freely reduced r1⁻¹r2 and reduces only that core (w1 = w2
iff the core reduces to the empty word).  Conjugation changes σ-signs
(σ1σ2⁻¹ is σ-positive, its conjugate σ1·σ1σ2⁻¹·σ1⁻¹ σ-negative), so the
order keeps the suffix and reduces the whole quotient.  Where a hashable
key is wanted, `braid_key` gives one: the braid's Dynnikov coordinates.

The left self-distributive operation on braids is
b * c = b · sh(c) · σ_1 · sh(b)⁻¹, where sh shifts every index up by one.
Evaluating a one-variable *-term at a braid via this operation is a complete
invariant of the term's LD-class, which is what the LD oracle runs on.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import STAR, Term, Variable

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

    One left-to-right stack pass over the freely reduced word: `done` is a
    prefix in which no handle closes, and `todo` holds the letters still to
    read, the next one last.  A letter x of index i looks back in `done`
    for the nearest letter of index <= i; if that is x⁻¹, the two close a
    handle, whose interior leaves `done` and goes back onto `todo`
    rewritten.  Every reduction is thus the leftmost-closing one, as in a
    rescan from the handle's start.

    The step cap is a defect detector only: handle reduction terminates, so
    hitting the cap raises HandleReductionDefect, never a weaker answer.
    """
    done: list[int] = []
    todo = list(free_reduce(w)[::-1])
    push = done.append
    steps = 0
    while todo:
        x = todo.pop()
        i = x if x > 0 else -x
        j = len(done) - 1
        while j >= 0 and (done[j] > i or done[j] < -i):
            j -= 1
        if j < 0 or done[j] != -x:  # no handle closes at x
            push(x)
            continue
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
        del done[j:]
    if done:
        m = min(map(abs, done))
        if m in done and -m in done:
            raise HandleReductionDefect("handle-free word with mixed signs at its lowest index")
    return tuple(done)


def braid_compare(w1: BraidWord, w2: BraidWord) -> int:
    """LESS/EQUAL/GREATER in the total order: w1 < w2 iff w1⁻¹w2 is σ-positive.

    A common prefix p cancels first (w1 = p·r1, w2 = p·r2 give the same
    quotient r1⁻¹r2); a common suffix does not, since cancelling it
    conjugates the quotient, which can change its σ-sign.
    """
    w1, w2 = tuple(w1), tuple(w2)
    p = _common_prefix(w1, w2)
    r = handle_reduce(inverse(w1[p:]) + w2[p:])
    if not r:
        return EQUAL
    m = min(abs(x) for x in r)
    positive = next(x > 0 for x in r if abs(x) == m)
    return LESS if positive else GREATER


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether w1 and w2 are the same braid.

    Cancels the longest common prefix p and suffix s first, since p·r1·s =
    p·r2·s iff r1 = r2, for any words.  Then it strips every outer pair
    q[i] = q[j]⁻¹ off the free reduction q of r1⁻¹r2, so q = u·c·u⁻¹, and
    handle-reduces only the core c, which is trivial iff q is.
    `braid_compare` keeps the suffix and the outer pairs: conjugation
    changes σ-signs.
    """
    r1, r2 = cancel_common_ends(tuple(w1), tuple(w2))
    q = free_reduce(inverse(r1) + r2)
    i, j = 0, len(q)
    while i < j and q[i] == -q[j - 1]:
        i += 1
        j -= 1
    return not handle_reduce(q[i:j])


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
    and σ_i⁻¹ sends
        z = a_i + b_i⁻ - a_{i+1} - b_{i+1}⁺,
        (a_i - b_i⁺ - (b_{i+1}⁺ + z)⁺,  b_{i+1} + z⁻,
         a_{i+1} - b_{i+1}⁻ - (b_i⁻ - z)⁻,  b_i - z⁻)
    (Dehornoy, "Efficient solutions to the braid isotopy problem", Discrete
    Appl. Math. 156, 2008).  The loop splits on
    the sign of z instead of calling max/min, which makes it several times
    faster.  Coordinates grow with the word, so the key costs time
    quadratic in its length: order, and `braid_equal` on a single pair,
    stay with handle reduction.
    """
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


def braid_ld(b: BraidWord, c: BraidWord) -> BraidWord:
    """b * c = b · sh(c) · σ_1 · sh(b)⁻¹ (no simplification performed)."""
    sh_b_inverse = tuple([-x - 1 if x > 0 else 1 - x for x in reversed(b)])
    return tuple(b) + braid_shift(c) + (1,) + sh_b_inverse


@lru_cache(maxsize=1024)  # a decide or freeness round holds under 400 entries
def eval_star_braid(t: Term, g: BraidWord) -> BraidWord:
    """Evaluate a one-variable *-term at the braid g under the LD operation."""
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        return tuple(g)
    if t.op != STAR:
        raise ValueError("term must use only *")
    return braid_ld(eval_star_braid(t.left, g), eval_star_braid(t.right, g))
