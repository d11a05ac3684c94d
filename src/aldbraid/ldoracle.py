"""
Deciding and comparing LD-equivalence of *-terms.

For one-variable *-terms the decision is total: evaluating at the trivial
braid under the LD operation on braid words is a complete invariant (the
closure of any braid under * is a free LD-system of rank one), and the
σ-positivity order on the evaluations linearly orders the LD-classes, with
s ⊏ t forcing s < t.

`decide_ld_bounded` is the one entry point for LD-equality: it answers a
one-variable pair by equality of the two evaluations (`braid_equal`, which
reduces their quotient after the common ends), EQUAL or NOT_EQUAL whatever
the caps, and `ld_class_key` is the matching class key.  The three-way
comparison `decide_ld_1var` reduces the whole quotient: cutting the common
suffix conjugates it, which keeps triviality but not the σ-sign the order
is read from.

For terms with several variables only a bounded semi-decision is available
here.  NOT_EQUAL comes from three sound tests: LD steps preserve the set of
variables occurring and the rightmost variable (though not variable
multiplicities), and any assignment of braids to the variables extends to
an LD-homomorphism, so terms whose braids at x_i ↦ 1 differ are
LD-inequivalent (Dehornoy, *Braids and Self-Distributivity*, 2000).  EQUAL
comes only from a breadth-first closure under single LD steps, capped in
term size and in expansion count; a pair that passes the three tests and
whose closure misses the other term within the caps is UNKNOWN.

No braid word longer than `pbwords.MAX_WORD_LETTERS` is built (a left comb
of n leaves evaluates to 2^(n-1) - 1 letters): every evaluation goes
through `_star_braid`, which refuses such a term with a ValueError; the
one-variable decision passes it on, and the evaluation test of other pairs
is skipped.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import KeysView

from .braids import LESS, BraidWord, braid_compare, braid_equal, braid_key, eval_star_braid
from .pbwords import MAX_WORD_LETTERS, check_word_length, pb_term_length
from .terms import (
    LD,
    Term,
    TermSeq,
    apply_law,
    is_one_variable,
    is_star_term,
    iter_left_subterms,
    law_instances,
    rightmost_variable,
    size,
    variables,
)

DEFAULT_STEP_CAP = 100_000


class Verdict(enum.Enum):
    """Three-state answer of the LD and ALD decisions; truthy only when EQUAL."""

    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"

    @property
    def kind(self) -> str:
        return self.value

    def __bool__(self) -> bool:
        return self is Verdict.EQUAL


def _require_star(t: Term) -> None:
    if not is_star_term(t):
        raise ValueError("expected a *-term")


def decide_ld_1var(s: Term, t: Term) -> int:
    """Three-way LD comparison of one-variable *-terms (LESS/EQUAL/GREATER)."""
    for arg in (s, t):
        _require_star(arg)
        if not is_one_variable(arg):
            raise ValueError("expected a one-variable term")
    if s == t:
        return 0
    return braid_compare(_star_braid(s), _star_braid(t))


def _star_braid(t: Term) -> BraidWord:
    """eval_star_braid(t, ()), or ValueError when its word would exceed the cap.

    n leaves evaluate to at most 2^(n-1) - 1 letters (the left comb), so only
    larger terms need their length, len(b * c) = 2·len(b) + len(c) + 1, which
    counts the letters `braid_ld` cancels at its seams too: the refusal goes
    by the unreduced word.
    """
    if size(t) > MAX_WORD_LETTERS.bit_length():
        check_word_length(pb_term_length(t, 0))
    return eval_star_braid(t, ())


def ld_class_key(t: Term) -> tuple[int, ...]:
    """Key of the LD-class of a one-variable *-term: the Dynnikov coordinates
    (`braid_key`) of eval_star_braid(t, ()), a complete invariant; ValueError
    on several variables or when the braid word would exceed the cap."""
    if not is_one_variable(t):
        raise ValueError("expected a one-variable term")
    return braid_key(_star_braid(t))


def default_size_cap(s: Term, t: Term) -> int:
    return 2 * max(size(s), size(t)) + 3


def ld_closure(t: Term, size_cap: int, step_cap: int = DEFAULT_STEP_CAP,
               target: Term | None = None, laws=(LD,)) -> KeysView[Term]:
    """Breadth-first closure of t under single steps of `laws` within the caps.

    Stops early when `target` is reached.  Returns the visited terms as a
    dict keys view, in the order the search reached them, in every process.
    """
    if size_cap < size(t):
        raise ValueError("size_cap must be at least size(t)")
    if step_cap < 1:
        raise ValueError("step_cap must be at least 1")
    seen = {t: None}
    queue = deque([t])
    steps = 0
    while queue and steps < step_cap:
        current = queue.popleft()
        steps += 1
        for inst in law_instances(current, laws):
            nxt = apply_law(current, inst)
            if nxt in seen or size(nxt) > size_cap:
                continue
            seen[nxt] = None
            if nxt == target:
                return seen.keys()
            queue.append(nxt)
    return seen.keys()


def decide_ld_bounded(s: Term, t: Term, size_cap: int | None = None,
                      step_cap: int = DEFAULT_STEP_CAP) -> Verdict:
    """Decision of s =_LD t for *-terms, total on one variable, bounded otherwise.

    A one-variable pair is EQUAL or NOT_EQUAL by `braid_equal` on the two
    evaluations, whatever the caps.  Any other pair first has its caps
    checked: a size cap below either term's size, or a step cap below 1, is
    a ValueError.  It is then NOT_EQUAL when the variable sets or the
    rightmost variables differ, or when the braids of the terms at x_i ↦ 1
    differ (skipped when a word would exceed the cap), EQUAL when a
    rewriting path within the caps connects the terms, and UNKNOWN when
    none does.
    """
    _require_star(s)
    _require_star(t)
    if is_one_variable(s) and is_one_variable(t):
        equal = s == t or braid_equal(_star_braid(s), _star_braid(t))
        return Verdict.EQUAL if equal else Verdict.NOT_EQUAL
    if size_cap is None:
        size_cap = default_size_cap(s, t)
    elif size_cap < max(size(s), size(t)):
        raise ValueError("size_cap must be at least the size of both terms")
    if step_cap < 1:
        raise ValueError("step_cap must be at least 1")
    if s == t:
        return Verdict.EQUAL
    if variables(s) != variables(t) or rightmost_variable(s) != rightmost_variable(t):
        return Verdict.NOT_EQUAL
    try:
        if not braid_equal(_star_braid(s), _star_braid(t)):
            return Verdict.NOT_EQUAL
    except ValueError:
        pass  # a word would exceed the cap: the test is skipped
    if t in ld_closure(s, size_cap, step_cap, target=t):
        return Verdict.EQUAL
    return Verdict.UNKNOWN


def seq_ld_equal(s: TermSeq, t: TermSeq, size_cap: int | None = None,
                 step_cap: int = DEFAULT_STEP_CAP) -> Verdict:
    """Entrywise LD-equality by `decide_ld_bounded` with the given caps;
    UNKNOWN when some pair exhausts the caps and none differs."""
    if len(s) != len(t):
        return Verdict.NOT_EQUAL
    result = Verdict.EQUAL
    for a, b in zip(s, t):
        verdict = decide_ld_bounded(a, b, size_cap, step_cap)
        if verdict is Verdict.NOT_EQUAL:
            return verdict
        if verdict is Verdict.UNKNOWN:
            result = verdict
    return result


def find_sq_witness(s: Term, t: Term, size_cap: int | None = None,
                    step_cap: int = DEFAULT_STEP_CAP):
    """Rewrite LD-inequivalent one-variable terms into an iterated-left-subterm pair.

    Returns (s', t') with s' =_LD s, t' =_LD t, and s' ⊏ t' when s < t
    (t' ⊏ s' when t < s); None when the capped closures contain no such pair.
    The witness is the first such pair in breadth-first order of the closure
    of the larger of s and t, so it is the same in every process.
    """
    sign = decide_ld_1var(s, t)
    if sign == 0:
        raise ValueError("find_sq_witness needs LD-inequivalent terms")
    if size_cap is None:
        size_cap = default_size_cap(s, t) + 3
    lo, hi = (s, t) if sign == LESS else (t, s)
    lo_closure = ld_closure(lo, size_cap, step_cap)
    hi_closure = ld_closure(hi, size_cap, step_cap)
    for big in hi_closure:
        for node in iter_left_subterms(big):
            if node in lo_closure:
                return (node, big) if sign == LESS else (big, node)
    return None
