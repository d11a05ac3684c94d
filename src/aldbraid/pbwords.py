"""
Words over the parenthesized-braid generators σ_i and a_i.

The group is generated by two infinite families subject to

    σ_j σ_i = σ_i σ_j           a_j σ_i = σ_i a_j          for j >= i+2
    a_j σ_i = σ_{i+1} a_j       a_j a_i = a_{i+1} a_j      for j <= i-1
    σ_j σ_i σ_j = σ_i σ_j σ_i   σ_i σ_j a_i = a_j σ_i
    σ_j σ_i a_j = a_i σ_i                                  for j = i+1

and carries the shift endomorphism ∂: σ_i -> σ_{i+1}, a_i -> a_{i+1}, plus
the two operations

    b * c = b · ∂c · σ_1 · ∂b⁻¹        b ∘ c = b · ∂c · a_1

which satisfy LD, ALD1, ALD2.  This module is purely word-level: nothing
here normalizes, and every equality question takes an explicit oracle (in
practice the diagram model's equality).

A letter is a pair (family, signed index) with family "s" or "a"; the text
format is whitespace-separated `s<i>`, `S<i>`, `a<i>`, `A<i>`.

The a-generators alone form a copy of Thompson's group F and act partially
on one-variable ∘-terms seen as block sequences along the rightmost branch:
a_i merges blocks i and i+1 (its inverse splits block i), and σ_i swaps
blocks i and i+1, each needing at least i+2 blocks.  Words in the image of
∂ never touch block 1 wherever their action is defined, which turns a moved
first block into a certificate of non-membership in Im ∂.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .terms import CIRC, Compound, Term, Variable, size, x_power

PBLetter = tuple  # (family: "s" | "a", signed index)
PBWord = tuple  # tuple[PBLetter, ...]

SIGMA1: PBWord = (("s", 1),)
A1: PBWord = (("a", 1),)

#: Longest word the word model takes in or evaluates to: `parse_pb` rejects a
#: longer word, and the `eval` command a term whose word would be longer.  A
#: left comb of n leaves evaluates at a one-letter word to 3·2^(n-1) - 2
#: letters, so 20 leaves exceed it (1,572,862 letters, about 270 MiB).
MAX_WORD_LETTERS = 1_000_000


def check_word_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"a word of {letters} letters exceeds the cap of {MAX_WORD_LETTERS}")


def parse_pb(text: str) -> PBWord:
    tokens = text.split()
    check_word_length(len(tokens))
    letters = []
    for tok in tokens:
        if len(tok) < 2 or tok[0] not in "sSaA" or not tok[1:].isdigit() or int(tok[1:]) < 1:
            raise ValueError(f"bad letter {tok!r}")
        i = int(tok[1:])
        fam = tok[0].lower()
        letters.append((fam, i if tok[0].islower() else -i))
    return tuple(letters)


def render_pb(w: PBWord) -> str:
    return " ".join(
        (fam if i > 0 else fam.upper()) + str(abs(i)) for fam, i in w
    )


def pb_inverse(w: PBWord) -> PBWord:
    return tuple([(fam, -i) for fam, i in reversed(w)])


def pb_shift(w: PBWord, k: int = 1) -> PBWord:
    """∂^k on words: every index up by k, signs preserved."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    return tuple([(fam, i + k if i > 0 else i - k) for fam, i in w])


def pb_free_reduce(w: PBWord) -> PBWord:
    out: list[PBLetter] = []
    for letter in w:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def pb_star(b: PBWord, c: PBWord) -> PBWord:
    return tuple(b) + pb_shift(c) + SIGMA1 + pb_inverse(pb_shift(b))


def pb_circ(b: PBWord, c: PBWord) -> PBWord:
    return tuple(b) + pb_shift(c) + A1


def pb_eval_term(t: Term, g: PBWord) -> PBWord:
    """Evaluate a one-variable term at the word g through * and ∘."""
    if isinstance(t, Variable):
        if t.index != 1:
            raise ValueError("term must be one-variable")
        return tuple(g)
    left = pb_eval_term(t.left, g)
    right = pb_eval_term(t.right, g)
    return pb_star(left, right) if t.op == "*" else pb_circ(left, right)


def pb_term_length(t: Term, gamma_len: int) -> int:
    """The length of pb_eval_term(t, g) for a word g of gamma_len letters,
    computed from the term without building the word."""
    if isinstance(t, Variable):
        return gamma_len
    b = pb_term_length(t.left, gamma_len)
    c = pb_term_length(t.right, gamma_len)
    return 2 * b + c + 1 if t.op == "*" else b + c + 1


def v_of_1(v: Term) -> PBWord:
    """Evaluation of a one-variable ∘-term at the identity: a pure a-word."""
    if isinstance(v, Variable):
        return ()
    if v.op != CIRC:
        raise ValueError("expected a ∘-term")
    return v_of_1(v.left) + pb_shift(v_of_1(v.right)) + A1


def pb_eval_closed(v: Term, ts: Sequence[Term], g: PBWord) -> PBWord:
    """Closed form of the evaluation of v[t1..tp]:
    t1(g) · ∂t2(g) · ... · ∂^{p-1}tp(g) · v(1)."""
    if size(v) != len(ts):
        raise ValueError(f"need {size(v)} terms, got {len(ts)}")
    word: PBWord = ()
    for k, tk in enumerate(ts):
        word += pb_shift(pb_eval_term(tk, g), k)
    return word + v_of_1(v)


def pb_closed_length(v: Term, ts: Sequence[Term], gamma_len: int) -> int:
    """The length of pb_eval_closed(v, ts, g) for a word g of gamma_len
    letters: shifting keeps lengths, and v(1) has one letter per caret."""
    return sum(pb_term_length(tk, gamma_len) for tk in ts) + size(v) - 1


# ---------------------------------------------------------------------------
# The partial action on one-variable ∘-terms


def blocks(v: Term) -> list[Term]:
    """Blocks along the rightmost branch: v = b1 ∘ (b2 ∘ (... ∘ bm)), bm = x."""
    out = []
    while isinstance(v, Compound):
        out.append(v.left)
        v = v.right
    out.append(v)
    return out


def fold_blocks(bs: Sequence[Term]) -> Term:
    v = bs[-1]
    for b in reversed(bs[:-1]):
        v = Compound(CIRC, b, v)
    return v


def act_letter(v: Term, letter: PBLetter) -> Term | None:
    """Right action of one letter; None when undefined."""
    fam, signed = letter
    if fam not in ("s", "a"):
        raise ValueError(f"unknown letter family {fam!r}")
    i = abs(signed)
    bs = blocks(v)
    m = len(bs)
    if fam == "s":
        # swap blocks i and i+1; needs a block after the swapped pair
        if m < i + 2:
            return None
        bs[i - 1], bs[i] = bs[i], bs[i - 1]
        return fold_blocks(bs)
    if signed > 0:
        # a_i merges blocks i and i+1
        if m < i + 2:
            return None
        merged = Compound(CIRC, bs[i - 1], bs[i])
        return fold_blocks(bs[: i - 1] + [merged] + bs[i + 1 :])
    # a_i^{-1} splits block i, which must be a compound
    if m < i + 1 or not isinstance(bs[i - 1], Compound):
        return None
    b = bs[i - 1]
    return fold_blocks(bs[: i - 1] + [b.left, b.right] + bs[i:])


def pb_act_term(v: Term, w: PBWord) -> Term | None:
    """Act by the letters of w left to right; None propagates."""
    for letter in w:
        v = act_letter(v, letter)
        if v is None:
            return None
    return v


@dataclass(frozen=True)
class ShiftCertificate:
    """Witness that a word is not in Im ∂: acting on `start` moved block 1."""

    start: Term
    result: Term
    word: PBWord


def default_action_size(w: PBWord) -> int:
    a_count = sum(1 for fam, _ in w if fam == "a")
    max_index = max((abs(i) for _, i in w), default=0)
    return a_count + max_index + 3


def not_in_image_shift(w: PBWord, n: int | None = None) -> ShiftCertificate | None:
    """One-sided test for w ∉ Im ∂ via the partial action on right combs.

    Shifted words never change the first block of a term, so finding a start
    term whose first block moves under w is a certificate.  The start is
    x^[N] pushed forward along the positive a-word undoing w's leading
    splits, without which quotients of two a-words could never act.
    Returns None (inconclusive) when no certificate is found.
    """
    w = pb_free_reduce(w)
    prep: PBWord = ()
    for fam, i in w:
        if fam == "a" and i < 0:
            prep = (("a", -i),) + prep
        else:
            break
    if n is None:
        n = default_action_size(prep + w)
    start = pb_act_term(x_power(n), prep)
    if start is None:
        return None
    result = pb_act_term(start, w)
    if result is None:
        return None
    if blocks(start)[0] != blocks(result)[0]:
        return ShiftCertificate(start, result, w)
    return None


# ---------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class RelationInstance:
    family: str
    i: int
    j: int
    lhs: PBWord
    rhs: PBWord


def _s(i: int) -> PBLetter:
    return ("s", i)


def _a(i: int) -> PBLetter:
    return ("a", i)


def relation_instances(max_index: int) -> list[RelationInstance]:
    """All defining relations with indices <= max_index."""
    out = []
    for i in range(1, max_index + 1):
        for j in range(i + 2, max_index + 1):
            out.append(RelationInstance("sigma-far-comm", i, j, (_s(j), _s(i)), (_s(i), _s(j))))
            out.append(RelationInstance("a-sigma-far-comm", i, j, (_a(j), _s(i)), (_s(i), _a(j))))
        for j in range(1, i):
            out.append(
                RelationInstance("a-sigma-shift", i, j, (_a(j), _s(i)), (_s(i + 1), _a(j)))
            )
            out.append(RelationInstance("a-a-shift", i, j, (_a(j), _a(i)), (_a(i + 1), _a(j))))
        j = i + 1
        if j <= max_index:
            out.append(
                RelationInstance(
                    "braid", i, j, (_s(j), _s(i), _s(j)), (_s(i), _s(j), _s(i))
                )
            )
            out.append(
                RelationInstance(
                    "caret-slide-up", i, j, (_s(i), _s(j), _a(i)), (_a(j), _s(i))
                )
            )
            out.append(
                RelationInstance(
                    "caret-slide-down", i, j, (_s(j), _s(i), _a(j)), (_a(i), _s(i))
                )
            )
    return out


# ---------------------------------------------------------------------------
# Word-level checks, against an injected equality oracle


EqOracle = Callable[[PBWord, PBWord], bool]


def check_shift_intertwine(v: Term, b: PBWord, eq: EqOracle) -> bool:
    """v(1) · ∂b = ∂^p b · v(1) for p = size(v), under the given oracle."""
    lhs = v_of_1(v) + pb_shift(b)
    rhs = pb_shift(b, size(v)) + v_of_1(v)
    return eq(lhs, rhs)


def derived_identity_instances(z_samples: Sequence[PBWord]) -> list[tuple[str, PBWord | None, PBWord, PBWord]]:
    """The word identities forced on any group carrying the two operations:
    instances of the three laws at identity elements, expanded by (2-letter)
    definitions.  Entries are (name, z-or-None, lhs, rhs)."""
    s1, s2 = _s(1), _s(2)
    a1, a2 = _a(1), _a(2)
    out: list[tuple[str, PBWord | None, PBWord, PBWord]] = [
        ("braid-relation", None, (s1, s2, s1), (s2, s1, s2)),
        ("a1-sigma1-slide", None, (a1, s1), (s2, s1, a2)),
        ("a2-sigma1-slide", None, (a2, s1), (s1, s2, a1)),
    ]
    for z in z_samples:
        d2z = pb_shift(z, 2)
        dz = pb_shift(z, 1)
        out.append(("ld-at-units", z, d2z + (s2, s1), (s1,) + d2z + (s2, s1, ("s", -2))))
        out.append(("sigma1-commutes-shift2", z, d2z + (s1,), (s1,) + d2z))
        out.append(
            ("ald1-at-units", z, d2z + (s2, s1), (a1,) + dz + (s1, ("a", -2)))
        )
        out.append(("a1-slides-shift2", z, d2z + (a1,), (a1,) + dz))
    return out


def audit_derived_identities(eq: EqOracle, z_samples: Sequence[PBWord]) -> list[dict]:
    """Check every derived identity under the oracle; one report row each."""
    report = []
    for name, z, lhs, rhs in derived_identity_instances(z_samples):
        report.append(
            {
                "identity": name,
                "z": None if z is None else render_pb(z),
                "holds": eq(lhs, rhs),
            }
        )
    return report
