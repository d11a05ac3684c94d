"""Hash-consed terms: interning against the structural oracle terms, bounded
memory, and terms deeper than the recursion limit."""

import ast
import gc
import pathlib
import random
import types

from aldbraid import diagrams, terms
from aldbraid.braids import braid_key
from aldbraid.diagrams import diagram_eval_term, word_to_diagram
from aldbraid.invariants import derive_special, inv_I, inv_J
from aldbraid.pbwords import parse_pb
from aldbraid.terms import (
    STAR,
    Compound,
    X,
    decompose_special,
    enumerate_terms,
    law_instances,
    parse_term,
    random_term,
    render_term,
    size,
    substitute,
    x_power,
)
from oracles import (
    from_struct,
    struct_eval_diagram,
    struct_inv_I,
    struct_inv_J,
    struct_render,
    to_struct,
)

GAMMAS = ("", "s1", "a1", "s1 a2")
TREE_CACHES = (
    "_graft",
    "sibling_leaf_pairs",
    "tree_join",
    "_leaf_subtrees",
    "collapse_caret",
    "_refine_dom_side",
    "_refine_cod_side",
)


def test_interned_terms_agree_with_structural_terms(monkeypatch):
    ts = list(enumerate_terms(1, "*o", 6))
    structs = [to_struct(t) for t in ts]
    for t, s in zip(ts, structs):
        text = render_term(t)
        assert struct_render(s) == text
        assert from_struct(s) is t
        assert parse_term(text) is t
        assert to_struct(parse_term(text)) == s
        assert to_struct(inv_I(t)) == struct_inv_I(s)
        assert tuple(to_struct(e) for e in inv_J(t)) == struct_inv_J(s)
    gammas = [word_to_diagram(parse_pb(g)) for g in GAMMAS]
    interned = []
    for g in gammas:
        cache = {}
        interned.append([diagram_eval_term(t, g, cache) for t in ts])
    # the old path: structural memo keys and no node-keyed tree caches
    for name in TREE_CACHES:
        monkeypatch.setattr(diagrams, name, getattr(diagrams, name).__wrapped__)
    for g, evaluations in zip(gammas, interned):
        memo = {}
        assert [struct_eval_diagram(s, g, memo) for s in structs] == evaluations


def test_size_7_evaluations_match_structural_ones_up_to_braid_equality():
    # at size 7 the regrouped products of `diagram_eval_term` may print a
    # different braid word than the oracle's for an equal diagram
    ts = list(enumerate_terms(1, "*o", 7))
    g, cache, memo = word_to_diagram(parse_pb("s1 a2")), {}, {}
    for t in ts:
        d, ref = diagram_eval_term(t, g, cache), struct_eval_diagram(to_struct(t), g, memo)
        assert (d.dom, d.cod) == (ref.dom, ref.cod)
        assert braid_key(d.braid) == braid_key(ref.braid)


def test_intern_table_drops_unreferenced_terms():
    gc.collect()
    before = len(terms._interned)
    rng = random.Random(5)
    batch = [random_term(rng, 12, n_vars=40) for _ in range(200)]
    assert len(terms._interned) > before
    del batch
    gc.collect()
    assert len(terms._interned) == before


def test_cached_invariants_agree_with_structural_ones_on_several_variables():
    rng = random.Random(7)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 9), n_vars=3)
        s = to_struct(t)
        for _ in range(2):  # the second call reads the values cached on the nodes
            assert to_struct(inv_I(t)) == struct_inv_I(s)
            assert tuple(to_struct(e) for e in inv_J(t)) == struct_inv_J(s)


def test_cached_invariants_make_no_reference_cycles():
    # a one-variable ∘-term is its own I-part and a *-term its own only J
    # entry; caching either on the node would make a cycle that only the
    # cyclic collector frees
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rng = random.Random(11)
        batch = [random_term(rng, 10, n_vars=30) for _ in range(100)]
        batch += [random_term(rng, 10, ops=ops) for ops in ("*", "o", "*o") for _ in range(100)]
        for t in batch:
            inv_I(t), inv_J(t)
        del batch, t
        gc.collect()
        leaked = [obj for obj in gc.garbage[before:] if isinstance(obj, Compound)]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        gc.enable()
    assert leaked == []


def test_tree_caches_are_bounded():
    # a size-6 evaluation makes more distinct keys than tree_join and the two
    # refinement caches hold; the refinement caches in front of _graft leave
    # it fewer misses than entries
    for name in TREE_CACHES:
        getattr(diagrams, name).cache_clear()
    for g in GAMMAS:
        g, cache = word_to_diagram(parse_pb(g)), {}
        for t in enumerate_terms(1, "*o", 6):
            diagram_eval_term(t, g, cache)
    for name in TREE_CACHES:
        info = getattr(diagrams, name).cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
    for name in ("tree_join", "_refine_dom_side", "_refine_cod_side"):
        info = getattr(diagrams, name).cache_info()
        assert info.misses > info.maxsize


def test_deep_terms_hash_compare_and_size():
    def comb():
        t = X
        for _ in range(10_000):
            t = Compound(STAR, X, t)
        return t

    a, b = comb(), comb()
    assert type(a).__hash__ is type(X).__hash__ is object.__hash__  # by identity, in C
    assert hash(a) == hash(b)
    assert a == b
    assert a in {b}
    assert size(a) == 10_001


def test_recursive_helpers_leave_no_reference_cycles():
    # a nested closure that calls itself is a cycle that only the cyclic
    # collector frees; with it off, such closures pile up in gc.garbage
    skeleton = x_power(4)
    special = substitute(skeleton, (X, Compound(STAR, X, X), X, X))
    for name in TREE_CACHES:
        getattr(diagrams, name).cache_clear()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        substitute(skeleton, (X,) * 4)
        decompose_special(special)
        diagrams._graft(skeleton, (X, skeleton, X, X))
        diagrams._leaf_subtrees(skeleton, special)
        diagrams.sibling_leaf_pairs(special)
        diagrams.collapse_caret(skeleton, 3)
        parse_term("x1*((x2*x3) o x4)")
        derive_special(Compound(STAR, special, special))
        list(law_instances(Compound(STAR, X, special)))
        gc.collect()
        leaked = [
            obj.__qualname__
            for obj in gc.garbage[before:]
            if isinstance(obj, types.FunctionType) and "<locals>" in obj.__qualname__
        ]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        gc.enable()
    assert leaked == []


_PARSED = "MAX_DEPTH: the nesting of parsed input, and so of its I-parts"
_PATTERN = "the depth of a law pattern"
_SIZE = "the size its caller asks for"
_LEFT = "the left nesting: it loops down the right spine"

#: Every function of the package that calls itself by name, and what bounds
#: the depth of that recursion.  Derived terms and trees are deep only along
#: their right spines, so a walk over them must loop there.
SELF_RECURSIVE = {
    "braids.eval_star_braid": _LEFT,
    "diagrams.tree_pattern": _LEFT,
    "diagrams.sibling_leaf_pairs": _LEFT,
    "diagrams.tree_join": _LEFT,
    "diagrams._leaf_subtrees": _LEFT,
    "invariants.inv_I": _PARSED,
    "invariants.inv_J": _PARSED,
    "invariants._special_steps": _PARSED,
    "invariants._star_steps": _PARSED,
    "pbwords.pb_eval_term": _LEFT,
    "terms._parse_expr": _PARSED,
    "terms.render_term": _LEFT,
    "terms.is_special": _PARSED,
    "terms._substitute": _LEFT,
    "terms._split_special": _PARSED,
    "terms._circ_cmp": _PARSED,
    # unbounded: the LD closure rewrites at positions as deep as its terms,
    # and a RecursionError there exits 64
    "terms.replace_at": "none",
    "terms._match": _PATTERN,
    "terms._build": _PATTERN,
    "terms._terms_of_size": _SIZE,
    "terms.random_term": _SIZE,
}


def test_every_self_recursive_function_has_a_stated_bound():
    found = set()
    for path in pathlib.Path(terms.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
                for call in ast.walk(node)
            ):
                found.add(f"{path.stem}.{node.name}")
    assert found == set(SELF_RECURSIVE)
