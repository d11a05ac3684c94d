"""Print the ⊏-witness of every ordered LD-inequivalent pair of one-variable
*-terms of size at most 4 (70 pairs), one line per pair.

The output must not depend on the interpreter's hash seed; the test suite
and CI compare it across processes:

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/witness_probe.py
"""

from aldbraid.ldoracle import decide_ld_1var, find_sq_witness
from aldbraid.terms import enumerate_terms, render_term


def witness_lines() -> list[str]:
    terms = list(enumerate_terms(1, "*", 4))
    lines = []
    for s in terms:
        for t in terms:
            if decide_ld_1var(s, t) != 0:
                got = find_sq_witness(s, t, step_cap=300)
                shown = "none" if got is None else " | ".join(map(render_term, got))
                lines.append(f"{render_term(s)} vs {render_term(t)}: {shown}")
    return lines


if __name__ == "__main__":
    print("\n".join(witness_lines()))
