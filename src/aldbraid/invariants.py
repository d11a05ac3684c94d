"""
The two ALD-invariants of a term and the decision procedure built on them.

Every term t over * and ∘ determines a pair (I(t), J(t)):

    I(x)       = x          J(x)       = (x)
    I(t1*t2)   = I(t2)      J(t1*t2)   = J(t1) ⃗* J(t2)
    I(t1∘t2)   = I(t1)∘I(t2)  J(t1∘t2) = J(t1) ⌢ J(t2)

where ⃗* chains every entry of the left sequence onto each entry of the right
(right-parenthesized) and ⌢ concatenates.  I(t) is a one-variable ∘-term,
J(t) a sequence of *-terms with ℓ(J(t)) = size(I(t)).  Single rewriting steps
by LD, ALD1, or ALD2 leave I(t) unchanged and change J(t) only up to
entrywise LD-equivalence, and substituting J(t) back into I(t) gives a
special form ALD-equivalent to t.  Together: two terms are ALD-equivalent iff
their I-parts are equal and their J-sequences are entrywise LD-equivalent,
which reduces the ALD word problem to the LD one.
"""

from __future__ import annotations

from .ldoracle import DEFAULT_STEP_CAP, Verdict, decide_ld_1var, ld_class_key, seq_ld_equal
from .terms import (
    ALD1,
    ALD2,
    CIRC,
    EXPAND,
    STAR,
    Compound,
    LawInstance,
    Position,
    Term,
    TermSeq,
    Variable,
    X,
    apply_law,
    circ_cmp,
    is_circ_term,
    is_one_variable,
    is_star_term,
    seq_star,
    size,
    substitute,
)

_set = object.__setattr__


# Both invariants are cached on the node the first time they are asked for
# (the `inv_i`/`inv_j` slots of `Compound`), so each node of a term is worked
# out once.  A *-term t has I(t) = x and J(t) = (t,), and a one-variable
# ∘-term is its own I-part: returned uncached, so no node holds itself.
def inv_I(t: Term) -> Term:
    """The ∘-skeleton invariant: a one-variable ∘-term."""
    if is_star_term(t):
        return X
    found = t.inv_i
    if found is None:
        if is_circ_term(t) and is_one_variable(t):
            return t
        if t.op == STAR:
            found = inv_I(t.right)
        else:
            found = Compound(CIRC, inv_I(t.left), inv_I(t.right))
        _set(t, "inv_i", found)
    return found


def inv_J(t: Term) -> TermSeq:
    """The sequence invariant: *-terms, one per leaf of inv_I(t)."""
    if is_star_term(t):
        return (t,)
    found = t.inv_j
    if found is None:
        if t.op == STAR:
            found = seq_star(inv_J(t.left), inv_J(t.right))
        else:
            found = inv_J(t.left) + inv_J(t.right)
        _set(t, "inv_j", found)
    return found


def specialize(t: Term) -> Term:
    """The special form of t: substitute inv_J(t) into inv_I(t)."""
    return substitute(inv_I(t), inv_J(t))


def derive_special(t: Term) -> list[LawInstance]:
    """A rewriting trace from t to specialize(t), replayable via apply_law.

    Special subterms contribute no steps; a * over two special forms u[s] and
    v[w] is pushed into v[s ⃗* w] by an ALD2 expansion when v splits, an ALD1
    expansion when u splits, and nothing at all when both are leaves.
    """
    steps: list[LawInstance] = []
    _special_steps(t, (), steps)
    return steps


# The two recursive walks of derive_special are module-level functions, not
# nested closures: a closure that calls itself is a reference cycle on every
# call.
def _special_steps(node: Term, pos: Position, steps: list) -> None:
    if isinstance(node, Variable):
        return
    _special_steps(node.left, pos + ("L",), steps)
    _special_steps(node.right, pos + ("R",), steps)
    if node.op == STAR:
        _star_steps(
            inv_I(node.left), inv_J(node.left),
            inv_I(node.right), inv_J(node.right),
            pos, steps,
        )
    # a ∘ over special forms is already special


def _star_steps(u: Term, s: TermSeq, v: Term, w: TermSeq, pos: Position, steps: list) -> None:
    # current subterm at pos: u[s] * v[w]; rewrite it to v[s ⃗* w]
    if isinstance(v, Compound):
        r = size(v.left)
        steps.append(LawInstance(ALD2, pos, EXPAND))
        _star_steps(u, s, v.left, w[:r], pos + ("L",), steps)
        _star_steps(u, s, v.right, w[r:], pos + ("R",), steps)
    elif isinstance(u, Compound):
        r = size(u.left)
        steps.append(LawInstance(ALD1, pos, EXPAND))
        _star_steps(u.right, s[r:], v, w, pos + ("R",), steps)
        _star_steps(u.left, s[:r], v, seq_star(s[r:], w), pos, steps)
    # both skeletons are leaves: s1 * w1 is already v[s ⃗* w]


def replay(t: Term, steps: list[LawInstance]) -> Term:
    for inst in steps:
        t = apply_law(t, inst)
    return t


def decide_ald(t: Term, t2: Term, size_cap: int | None = None,
               step_cap: int = DEFAULT_STEP_CAP) -> Verdict:
    """Decide t =_ALD t2: equal skeletons plus entrywise LD-equal sequences,
    the LD caps applying to each multi-variable entry pair."""
    if inv_I(t) != inv_I(t2):
        return Verdict.NOT_EQUAL
    return seq_ld_equal(inv_J(t), inv_J(t2), size_cap, step_cap)


def order_ald(s: Term, t: Term) -> int:
    """Three-way order on one-variable terms whose kernel is ALD-equality.

    J-sequences compare first, entrywise in the LD order with a shorter
    strict prefix counting as smaller; equal sequences fall back to the
    ∘-term order on the I-parts.
    """
    if not (is_one_variable(s) and is_one_variable(t)):
        raise ValueError("order_ald needs one-variable terms")
    js, jt = inv_J(s), inv_J(t)
    for a, b in zip(js, jt):
        c = decide_ld_1var(a, b)
        if c != 0:
            return c
    if len(js) != len(jt):
        return -1 if len(js) < len(jt) else 1
    return circ_cmp(inv_I(s), inv_I(t))


def ald_class_key(t: Term, keys: dict) -> tuple:
    """Hashable key identifying the ALD-class of a one-variable term: its
    I-part and each J entry's `ld_class_key`, memoized per entry in `keys`;
    a value, whatever that dict held before."""
    for e in inv_J(t):
        if e not in keys:
            keys[e] = ld_class_key(e)
    return (inv_I(t), tuple(keys[e] for e in inv_J(t)))
