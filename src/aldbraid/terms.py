"""
Binary terms over the operators * and ∘ (ASCII: `o`), and the raw structural
operations every other module builds on.

A term is a binary tree whose leaves are variables x1, x2, ... (bare `x` is an
alias for x1).  T^* denotes the pure *-terms, T^o the pure ∘-terms, and T_1
the one-variable terms.  The three rewriting laws of interest are

    (LD)    t1 * (t2 * t3)  =  (t1 * t2) * (t1 * t3)
    (ALD1)  t1 * (t2 * t3)  =  (t1 ∘ t2) * t3
    (ALD2)  t1 * (t2 ∘ t3)  =  (t1 * t2) ∘ (t1 * t3)

Grammar (whitespace insignificant):

    term := atom | term op term | "(" term ")"
    op   := "*" | "o"
    atom := "x" digits?

Both operators have equal precedence and associate to the right, so
`x*y*z` parses as `x*(y*z)`.  Canonical rendering emits minimal parentheses
under that convention: a compound left operand is parenthesized, a right
operand never is.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Union

STAR = "*"
CIRC = "o"

EXPAND = "expand"
CONTRACT = "contract"

LD = "ld"
ALD1 = "ald1"
ALD2 = "ald2"


# Terms are hash-consed (Filliâtre–Conchon, "Type-safe modular hash-consing",
# ML Workshop 2006): the constructors return the existing node for a variable
# index or an (op, left, right) triple, so structurally equal terms are one
# object and `==` is identity.  So a node hashes by identity too (object's own
# hash, with no cached field), and no result may depend on the order of a set
# of terms, which changes from one process to the next.  Each node caches its
# size, its variable set, a frozenset shared with a child whenever one child's
# set covers the other's, and the operators occurring in it as a bitmask.  A
# Compound has two more slots, `inv_i` and `inv_j`, which start as None and
# which `invariants.inv_I`/`inv_J` fill on first use.  The table holds its
# nodes weakly, so a term lives as long as something else holds it; a
# Compound's key names its children by id, which is safe because a live node
# holds its children.
_interned: dict = {}
_set = object.__setattr__
_STAR_BIT, _CIRC_BIT = 1, 2
_OP_BIT = {STAR: _STAR_BIT, CIRC: _CIRC_BIT}


def _forget(ref: weakref.KeyedRef, table: dict = _interned) -> None:
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Node:
    __slots__ = ("size", "var_set", "op_bits", "__weakref__")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Variable(_Node):
    __slots__ = ("index",)

    def __new__(cls, index: int) -> Variable:
        ref = _interned.get(index)
        node = ref() if ref is not None else None
        if node is None:
            if index < 1:
                raise ValueError(f"variable index must be >= 1, got {index}")
            node = object.__new__(cls)
            _set(node, "index", index)
            _set(node, "size", 1)
            _set(node, "var_set", frozenset((index,)))
            _set(node, "op_bits", 0)
            _interned[index] = weakref.KeyedRef(node, _forget, index)
        return node

    def __reduce__(self):
        return Variable, (self.index,)

    def __repr__(self) -> str:
        return f"Variable(index={self.index!r})"


class Compound(_Node):
    __slots__ = ("op", "left", "right", "inv_i", "inv_j")

    def __new__(cls, op: str, left: Term, right: Term) -> Compound:
        key = (op, id(left), id(right))
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            bit = _OP_BIT.get(op)
            if bit is None:
                raise ValueError(f"unknown operator {op!r}")
            lv, rv = left.var_set, right.var_set
            node = object.__new__(cls)
            _set(node, "op", op)
            _set(node, "left", left)
            _set(node, "right", right)
            _set(node, "size", left.size + right.size)
            _set(node, "var_set", lv if lv is rv or rv <= lv else rv if lv <= rv else lv | rv)
            _set(node, "op_bits", left.op_bits | right.op_bits | bit)
            _set(node, "inv_i", None)
            _set(node, "inv_j", None)
            _interned[key] = weakref.KeyedRef(node, _forget, key)
        return node

    def __reduce__(self):
        return Compound, (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"Compound(op={self.op!r}, left={self.left!r}, right={self.right!r})"


Term = Union[Variable, Compound]

#: The unique one-variable leaf; most of the theory lives over it.
X = Variable(1)

#: A term sequence is a plain nonempty tuple of terms.
TermSeq = tuple  # tuple[Term, ...]

#: Path from the root: "L"/"R" steps.
Position = tuple  # tuple[str, ...]


@dataclass(frozen=True)
class LawInstance:
    """One rewriting step: a law applied at a position, in a direction.

    `expand` is the direction that grows the term (LD, ALD2) or grows the
    rightmost branch (ALD1: (a∘b)*c -> a*(b*c)); `contract` is the inverse.
    """

    law: str
    pos: Position
    direction: str

    def __post_init__(self):
        if self.law not in _LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if self.direction not in (EXPAND, CONTRACT):
            raise ValueError(f"unknown direction {self.direction!r}")


#: Deepest nesting of operators and parentheses that parse_term accepts: the
#: walks of parsed input and of its I-parts (inv_J, circ_cmp, ...) recurse
#: once per level, and deeper terms overflow the stack.  Derived terms and
#: trees are deep only along a right spine, which their walks loop down;
#: `fold`, hashing, equality and size take any depth.  replace_at still
#: recurses to the LD closure's rewriting positions, and the tree walks into
#: the left nesting that a long run of regrouping letters builds.
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Parsing and rendering


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Return (kind, value, position) triples; kind is one of x ( ) * o, and
    a last token of kind "" marks the end of the text."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*":
            tokens.append((c, 0, i))
            i += 1
        elif c == "o":
            tokens.append(("o", 0, i))
            i += 1
        elif c == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                index = 1
            else:
                index = int(text[i + 1 : j])
                if index < 1:
                    raise ParseError("variable index must be >= 1", i)
            tokens.append(("x", index, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("", 0, len(text)))
    return tokens


def parse_term(text: str) -> Term:
    """Parse a term; raises ParseError with a position on malformed input."""
    tokens = _tokenize(text)
    result, pos = _parse_expr(tokens, 0, 0)
    if tokens[pos][0]:
        raise ParseError("trailing input", tokens[pos][2])
    return result


# The parser's helpers are module-level functions that pass the token index
# along, as are the other recursive helpers: a nested closure that calls
# itself is a reference cycle on every call.
def _parse_expr(tokens: list, pos: int, depth: int) -> tuple[Term, int]:
    """The term starting at token pos, and the index of the token after it."""
    if depth > MAX_DEPTH:
        raise ParseError(f"term nested deeper than {MAX_DEPTH}", tokens[pos][2])
    left, pos = _parse_primary(tokens, pos, depth)
    op = tokens[pos][0]
    if op in (STAR, CIRC):
        right, pos = _parse_expr(tokens, pos + 1, depth + 1)  # right-associative, equal precedence
        return Compound(op, left, right), pos
    return left, pos


def _parse_primary(tokens: list, pos: int, depth: int) -> tuple[Term, int]:
    kind, index, where = tokens[pos]
    if kind == "x":
        return Variable(index), pos + 1
    if kind == "(":
        t, pos = _parse_expr(tokens, pos + 1, depth + 1)
        if tokens[pos][0] != ")":
            raise ParseError("expected ')'", tokens[pos][2])
        return t, pos + 1
    raise ParseError("expected a term", where)


def render_term(t: Term) -> str:
    """Canonical rendering; round-trips through parse_term."""
    spine, leaf = right_spine(t)
    parts = []
    for node in spine:
        left = node.left
        sep = node.op if node.op == STAR else f" {CIRC} "
        parts += (f"x{left.index}" if isinstance(left, Variable) else f"({render_term(left)})", sep)
    parts.append(f"x{leaf.index}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Basic measurements and predicates


def size(t: Term) -> int:
    """Number of variable occurrences (leaf count), cached on the node."""
    return t.size


def right_spine(t: Term) -> tuple[list[Compound], Variable]:
    """The compounds down t's rightmost branch, root first, and its leaf.  J
    entries s1*(s2*(...*tk)) are deep only here, so their walks loop over it."""
    spine = []
    while isinstance(t, Compound):
        spine.append(t)
        t = t.right
    return spine, t


def fold(t: Term, leaf: Callable[[Variable], object], combine: Callable, memo: dict):
    """t folded bottom-up: leaf(v) at each variable v, combine(node, left
    value, right value) at each compound, on an explicit stack that works out
    each distinct node once, the left operand first.  memo maps the nodes done
    to their values; a caller may seed it, or share it across calls."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node in memo:
            continue
        if isinstance(node, Variable):
            memo[node] = leaf(node)
        elif node.left in memo and node.right in memo:
            memo[node] = combine(node, memo[node.left], memo[node.right])
        else:
            stack += (node, node.right, node.left)
    return memo[t]


def ht_r(t: Term) -> int:
    """Length of the rightmost branch: ht_r(x) = 0, ht_r(a □ b) = ht_r(b) + 1."""
    return len(right_spine(t)[0])


def variables(t: Term) -> frozenset[int]:
    """The indices of the variables occurring in t, cached on the node."""
    return t.var_set


def rightmost_variable(t: Term) -> int:
    return right_spine(t)[1].index


def is_one_variable(t: Term) -> bool:
    return t.var_set == X.var_set


def is_star_term(t: Term) -> bool:
    return not t.op_bits & _CIRC_BIT


def is_circ_term(t: Term) -> bool:
    return not t.op_bits & _STAR_BIT


def is_special(t: Term) -> bool:
    """No ∘ symbol below a * symbol (root on top)."""
    if isinstance(t, Variable):
        return True
    if t.op == STAR:
        return is_star_term(t)
    return is_special(t.left) and is_special(t.right)


# ---------------------------------------------------------------------------
# Sequences


def star_chain(factors: Iterable[Term], last: Term) -> Term:
    """factors f1..fp and last e give f1*(f2*(...*(fp*e)...))."""
    result = last
    for f in reversed(list(factors)):
        result = Compound(STAR, f, result)
    return result


def seq_star(s: TermSeq, t: TermSeq) -> TermSeq:
    """Entrywise s1*...*sp*t_k with missing parentheses added on the right."""
    return tuple(star_chain(s, tk) for tk in t)


# ---------------------------------------------------------------------------
# Substitution into ∘-skeletons


def substitute(v: Term, ts: TermSeq) -> Term:
    """Replace the leaves of the one-variable ∘-term v, left to right, by ts."""
    if not is_circ_term(v) or not is_one_variable(v):
        raise ValueError("skeleton must be a one-variable ∘-term")
    if size(v) != len(ts):
        raise ValueError(f"need {size(v)} terms, got {len(ts)}")
    return _substitute(v, ts, 0)


def _substitute(node: Term, ts: TermSeq, k: int) -> Term:
    """node with its leaves replaced by ts[k], ts[k+1], ...: a loop up its
    right spine, from the last leaf, that recurses only into left children."""
    spine, _ = right_spine(node)
    end = k + node.size  # every spine node ends at the same leaf
    out = ts[end - 1]
    for n in reversed(spine):
        first = end - n.size
        out = Compound(CIRC, ts[first] if n.left.size == 1 else _substitute(n.left, ts, first), out)
    return out


class NotSpecial(Exception):
    """Raised by decompose_special when some ∘ occurs below a *."""


def decompose_special(t: Term) -> tuple[Term, TermSeq]:
    """Inverse of substitute: split a special term into (∘-skeleton, *-components).

    Raises NotSpecial if t has a ∘ below a *.
    """
    skeleton_parts: list[Term] = []
    skeleton = _split_special(t, skeleton_parts)
    return skeleton, tuple(skeleton_parts)


def _split_special(node: Term, parts: list[Term]) -> Term:
    """The ∘-skeleton of node; appends its *-components to parts."""
    if isinstance(node, Compound) and node.op == CIRC:
        return Compound(CIRC, _split_special(node.left, parts), _split_special(node.right, parts))
    if not is_star_term(node):
        raise NotSpecial(render_term(node))
    parts.append(node)
    return X


# ---------------------------------------------------------------------------
# Orders and subterm relations


def circ_cmp(u: Term, v: Term) -> int:
    """Three-way comparison in the linear order on one-variable ∘-terms.

    x is smallest; compounds compare by left subterm, then right.
    """
    for t in (u, v):
        if not (is_circ_term(t) and is_one_variable(t)):
            raise ValueError("arguments must be one-variable ∘-terms")
    return _circ_cmp(u, v)


def _circ_cmp(u: Term, v: Term) -> int:
    if u == v:
        return 0
    if isinstance(u, Variable):
        return -1
    if isinstance(v, Variable):
        return 1
    c = _circ_cmp(u.left, v.left)
    if c != 0:
        return c
    return _circ_cmp(u.right, v.right)


def circ_less(u: Term, v: Term) -> bool:
    return circ_cmp(u, v) < 0


def iter_left_subterms(t: Term) -> Iterator[Term]:
    """Every s with s ⊏ t, from the largest: the left operands down the chain
    of *-nodes at the top of t."""
    while isinstance(t, Compound) and t.op == STAR:
        t = t.left
        yield t


def is_iter_left_subterm(s: Term, t: Term) -> bool:
    """s ⊏ t: t = (...((s*t1)*t2)...)*tp for some p >= 1."""
    return s in iter_left_subterms(t)


def seq_sq(s: TermSeq, t: TermSeq) -> bool:
    """s ⃗⊏ t: equal lengths, syntactically equal up to some k, and s_k ⊏ t_k."""
    if len(s) != len(t):
        return False
    for sk, tk in zip(s, t):
        if sk == tk:
            continue
        return is_iter_left_subterm(sk, tk)
    return False


def x_power(n: int) -> Term:
    """Right ∘-comb with n leaves: x, x∘x, x∘(x∘x), ..."""
    if n < 1:
        raise ValueError("need n >= 1")
    t: Term = X
    for _ in range(n - 1):
        t = Compound(CIRC, X, t)
    return t


# ---------------------------------------------------------------------------
# Law application


def subterm_at(t: Term, pos: Position) -> Term:
    for step in pos:
        if not isinstance(t, Compound):
            raise ValueError("position runs past a leaf")
        t = t.left if step == "L" else t.right
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    if not isinstance(t, Compound):
        raise ValueError("position runs past a leaf")
    if pos[0] == "L":
        return Compound(t.op, replace_at(t.left, pos[1:], new), t.right)
    return Compound(t.op, t.left, replace_at(t.right, pos[1:], new))


class LawApplicationError(ValueError):
    """The law's source pattern does not match at the given position."""


#: Each law once, as a pair of patterns: the contracted side and the expanded
#: side.  A pattern is an (op, left, right) triple or an int, the pattern
#: variable t1, t2 or t3.  EXPAND rewrites the contracted side into the
#: expanded one, and CONTRACT the expanded side into the contracted one.
_LAWS = {
    LD: ((STAR, 1, (STAR, 2, 3)), (STAR, (STAR, 1, 2), (STAR, 1, 3))),
    ALD1: ((STAR, (CIRC, 1, 2), 3), (STAR, 1, (STAR, 2, 3))),
    ALD2: ((STAR, 1, (CIRC, 2, 3)), (CIRC, (STAR, 1, 2), (STAR, 1, 3))),
}


def _match(pattern, node: Term, binding: dict) -> bool:
    """Whether node matches pattern, binding its variables in binding.  A
    repeated variable must bind the same node: terms are interned, so equal
    subterms are one object."""
    if isinstance(pattern, int):
        return binding.setdefault(pattern, node) is node
    return (
        isinstance(node, Compound)
        and node.op == pattern[0]
        and _match(pattern[1], node.left, binding)
        and _match(pattern[2], node.right, binding)
    )


def _build(pattern, binding: dict) -> Term:
    if isinstance(pattern, int):
        return binding[pattern]
    return Compound(pattern[0], _build(pattern[1], binding), _build(pattern[2], binding))


def apply_law(t: Term, inst: LawInstance) -> Term:
    """One rewriting step at inst.pos; raises LawApplicationError on mismatch."""
    redex = subterm_at(t, inst.pos)
    source, target = _LAWS[inst.law]
    if inst.direction == CONTRACT:
        source, target = target, source
    binding: dict = {}
    if not _match(source, redex, binding):
        law = f"{inst.law}/{inst.direction}"
        raise LawApplicationError(f"{law} does not match {render_term(redex)}")
    return replace_at(t, inst.pos, _build(target, binding))


def law_instances(t: Term, laws: Iterable[str] = (LD, ALD1, ALD2)) -> Iterator[LawInstance]:
    """All law instances applicable somewhere in t: root first, the left
    subtree before the right, and at each node the laws in the order given,
    EXPAND before CONTRACT.  Raises ValueError on an unknown law name."""
    sources = []
    for law in laws:
        if law not in _LAWS:
            raise ValueError(f"unknown law {law!r}")
        contracted, expanded = _LAWS[law]
        sources += ((law, EXPAND, contracted), (law, CONTRACT, expanded))
    return _instances(t, sources)


def _instances(t: Term, sources: list) -> Iterator[LawInstance]:
    stack = [(t, ())] if isinstance(t, Compound) else []
    while stack:
        node, pos = stack.pop()
        for law, direction, source in sources:
            if _match(source, node, {}):
                yield LawInstance(law, pos, direction)
        # right first, so that the whole left subtree comes off the stack before it
        if isinstance(node.right, Compound):
            stack.append((node.right, pos + ("R",)))
        if isinstance(node.left, Compound):
            stack.append((node.left, pos + ("L",)))


# ---------------------------------------------------------------------------
# Enumeration and random generation


@lru_cache(maxsize=None)
def _terms_of_size(n_vars: int, ops: tuple[str, ...], s: int) -> tuple[Term, ...]:
    if s == 1:
        return tuple(Variable(i) for i in range(1, n_vars + 1))
    out: list[Term] = []
    for op in ops:
        for left_size in range(1, s):
            for left in _terms_of_size(n_vars, ops, left_size):
                for right in _terms_of_size(n_vars, ops, s - left_size):
                    out.append(Compound(op, left, right))
    return tuple(out)


def enumerate_terms(n_vars: int, ops: Iterable[str], max_size: int) -> Iterator[Term]:
    """Every term over the given variables/operators with size <= max_size,
    exactly once, ordered by size then by a fixed structural order."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    ops_key = tuple(sorted(set(ops)))
    for s in range(1, max_size + 1):
        yield from _terms_of_size(n_vars, ops_key, s)


def random_term(rng, target_size: int, n_vars: int = 1, ops: Iterable[str] = (STAR, CIRC)) -> Term:
    """Uniformly shaped random term of the given size (splits chosen uniformly)."""
    ops = tuple(ops)
    if target_size == 1:
        return Variable(rng.randint(1, n_vars))
    left_size = rng.randint(1, target_size - 1)
    return Compound(
        rng.choice(ops),
        random_term(rng, left_size, n_vars, ops),
        random_term(rng, target_size - left_size, n_vars, ops),
    )
