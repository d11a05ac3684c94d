"""Regenerate the reference figures that the `freeness` workload checks.

    python3 perfbench/reference.py           # print the figures
    python3 perfbench/reference.py --write   # rewrite perfbench/reference.json
    python3 perfbench/reference.py --check   # exit 1 unless the file matches

Neither figure goes through `freeness_scan` or `ald_partition`:

- `class_count` sorts the terms with `order_ald`, whose kernel is
  ALD-equality, and counts the adjacent pairs that are not tied;
- `critical_pairs_per_gamma` counts the ordered pairs of special forms
  u[s], v[t] with u < v in the ∘-order, or u = v and s below t by
  iterated left subterms at the first entry where they differ.  Special
  forms, the ∘-order and the subterm relation are implemented here.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def _star_only(t) -> bool:
    from aldbraid.terms import Variable

    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            continue
        if node.op != "*":
            return False
        stack += [node.left, node.right]
    return True


def split_special(t):
    """(skeleton, entries) when no ∘ lies below a *, else None."""
    from aldbraid.terms import Variable

    entries = []

    def go(node):
        if not isinstance(node, Variable) and node.op == "o":
            left = go(node.left)
            right = go(node.right)
            return None if left is None or right is None else ("o", left, right)
        if not _star_only(node):
            return None
        entries.append(node)
        return "x"

    skeleton = go(t)
    return None if skeleton is None else (skeleton, tuple(entries))


def skeleton_cmp(u, v) -> int:
    """The ∘-order on skeletons: the leaf is smallest, then left, then right."""
    if u == v:
        return 0
    if u == "x":
        return -1
    if v == "x":
        return 1
    return skeleton_cmp(u[1], v[1]) or skeleton_cmp(u[2], v[2])


def left_subterm_below(s, t) -> bool:
    """s is t's left factor, or its left factor's, and so on (t = (s*t1)*...)."""
    from aldbraid.terms import Variable

    while not isinstance(t, Variable) and t.op == "*":
        t = t.left
        if t == s:
            return True
    return False


def entries_below(s, t) -> bool:
    if len(s) != len(t):
        return False
    for a, b in zip(s, t):
        if a != b:
            return left_subterm_below(a, b)
    return False


def critical_pairs_per_gamma(terms) -> int:
    specials = [p for p in map(split_special, terms) if p is not None]
    count = 0
    for u, s in specials:
        for v, t in specials:
            if skeleton_cmp(u, v) < 0 or (u == v and entries_below(s, t)):
                count += 1
    return count


def class_count(terms) -> int:
    from aldbraid.invariants import order_ald

    ranked = sorted(terms, key=functools.cmp_to_key(order_ald))
    return 1 + sum(1 for a, b in zip(ranked, ranked[1:]) if order_ald(a, b) != 0)


def compute(max_size: int) -> dict:
    from aldbraid.terms import enumerate_terms

    terms = list(enumerate_terms(1, "*o", max_size))
    return {
        "max_term_size": max_size,
        "class_count": class_count(terms),
        "critical_pairs_per_gamma": critical_pairs_per_gamma(terms),
    }


def load() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true")
    group.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    from worker import import_package

    import_package()
    from workloads import FREENESS_MAX_SIZE

    figures = compute(FREENESS_MAX_SIZE)
    print(json.dumps(figures))
    if args.write:
        with open(REFERENCE_FILE, "w") as fh:
            json.dump(figures, fh, indent=2)
            fh.write("\n")
    if args.check and load() != figures:
        print(f"{REFERENCE_FILE} is stale", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
