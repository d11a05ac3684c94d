import json
import random
import time

import pytest

from aldbraid.cli import (
    DEFAULT_GAMMAS,
    MAX_SCAN_SIZE,
    MAX_Z_SAMPLES,
    ExperimentConfig,
    _critical_pairs,
    _equality_labels,
    freeness_scan,
    main,
)
from aldbraid.diagrams import diagram_eval_term, gen_a, gen_sigma, identity_diagram, word_to_diagram
from aldbraid.pbwords import MAX_WORD_LETTERS, parse_pb, pb_eval_term, relation_instances
from aldbraid.terms import MAX_DEPTH, enumerate_terms, parse_term
from oracles import (
    pairwise_freeness_scan,
    per_term_equality_labels,
    quadratic_critical_pairs,
    ranked_specials,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_ald_not_equal(capsys):
    code, out, _ = run(capsys, "decide-ald", "x1 o x2", "(x1*x2) o x1")
    assert code == 1
    assert out.splitlines()[0] == "not-equal"


def test_decide_ald_equal(capsys):
    code, out, _ = run(capsys, "decide-ald", "x*(x*x)", "(x o x)*x")
    assert code == 0
    assert out.splitlines()[0] == "equal"


def test_decide_ald_specialize_round(capsys):
    code, _, _ = run(capsys, "decide-ald", "x*(x o x)", "(x*x) o (x*x)")
    assert code == 0


def test_decide_ald_json(capsys):
    code, out, _ = run(capsys, "decide-ald", "--json", "x1 o x2", "(x1*x2) o x1")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not-equal"
    assert set(payload) >= {"verdict", "i_left", "i_right", "j_left", "j_right"}
    assert payload["j_left"] == ["x1", "x2"]


def test_decide_ald_unknown_exit(capsys):
    # the projections x*x and x separate this pair at any budget
    code, out, _ = run(
        capsys, "decide-ald", "--budget", "4,10", "(x1*x2)*(x1*x2)", "x1*x2"
    )
    assert code == 1
    assert out.splitlines()[0] == "not-equal"
    # LD-equal two steps apart: the projections agree, one closure step falls short
    pair = ("x1*x2*x1*x2", "(x1*x2*x1)*x1*x2*x2")
    for command in ("decide-ald", "decide-ld"):
        code, out, _ = run(capsys, command, "--budget", "6,1", *pair)
        assert code == 2 and out.splitlines()[0] == "unknown", command
        code, out, _ = run(capsys, command, *pair)
        assert code == 0 and out.splitlines()[0] == "equal", command


def test_multi_variable_right_combs_not_equal(capsys):
    # the closure spent its whole budget on this pair before the projection test
    start = time.perf_counter()
    code, out, _ = run(capsys, "decide-ld", "x1*" * 20 + "x2", "x1*" * 19 + "x2")
    assert code == 1 and out.strip() == "not-equal"
    assert time.perf_counter() - start < 1


def test_long_left_comb_decisions_exit_64(capsys):
    # the 30-leaf left comb evaluates to 2^29 - 1 letters: refused before evaluating
    combs = []
    for n in (30, 29):
        comb = "x"
        for _ in range(n - 1):
            comb = f"({comb}*x)"
        combs.append(comb)
    for command in ("decide-ld", "decide-ald", "order-ald"):
        start = time.perf_counter()
        code, _, err = run(capsys, command, *combs)
        assert code == 64 and err.startswith("error:") and "exceeds the cap" in err, command
        assert time.perf_counter() - start < 1, command


def _deep_derived_term(leaf="x", combs=7):
    # seven (or `combs`) 150-leaf ∘-combs chained by *, ending in leaf: the
    # text nests 8 deep, but the one J entry is a right *-comb of 1,050 x's
    # onto leaf
    comb = "(" + " o ".join(["x"] * 150) + ")"
    return "*(".join([comb] * combs) + f"*{leaf}" + ")" * (combs - 1)


def test_deeply_nested_derived_terms_get_verdicts(capsys):
    # the J entries are deep only along their right spines, which the walks loop down
    t, t2 = _deep_derived_term(), _deep_derived_term("(x*x)")
    descending = [f"s{i}" for i in range(1050, 0, -1)]
    comb = "*".join(["x1"] * 1051)
    for argv, code, first in (
        (["normalize", t], 0, f"special: {comb}"),
        (["decide-ald", t, t2], 1, "not-equal"),
        (["eval", t, "", "--closed-form"], 0, " ".join(descending)),
        # the deep comb as a left operand: e*x evaluates to e · σ1 · sh(e)⁻¹
        (["normalize", f"({t})*x"], 0, f"special: ({comb})*x1"),
        (["decide-ald", f"({t})*x", f"({t})*(x*x)"], 1, "not-equal"),
        (
            ["eval", f"({t})*x", "", "--closed-form"],
            0,
            " ".join(descending + ["s1"] + [f"S{i}" for i in range(2, 1052)]),
        ),
        # one LD step at the root: C*(x1*x2) = (C*x1)*(C*x2)
        (["decide-ald", f"({t})*(x1*x2)", f"(({t})*x1)*(({t})*x2)"], 0, "equal"),
        # quotients of about 4,200 letters over about 1,050 generator indices
        (["decide-ald", f"({t})*x", f"({t2})*x"], 1, "not-equal"),
        (["order-ald", t, t2], 0, "less"),
    ):
        start = time.perf_counter()
        got, out, err = run(capsys, *argv)
        assert (got, err) == (code, ""), argv[0]
        assert out.splitlines()[0] == first, argv[0]
        assert time.perf_counter() - start < 1, argv[0]
    assert out == "less\n"  # order-ald, the last command, prints one line


def test_deep_multi_variable_closure_exits_64(capsys):
    # the J entries are LD-equal one step apart, at the bottom of a 1,050-deep
    # right spine: x1*(x2*x2) = (x1*x2)*(x1*x2).  Their braids agree, and the
    # closure's replace_at recurses once per level of a rewriting position.
    # It stays recursive: looping it would let the closure search terms of
    # thousands of leaves, where a pair more than a step apart meets the step
    # cap only slowly (over a 20-leaf ∘-comb C, (C)*(x1*x2) against
    # ((C)*x1)*((C)*x2) already takes about 40 s to answer "unknown").
    a, b = _deep_derived_term("(x1*(x2*x2))"), _deep_derived_term("((x1*x2)*(x1*x2))")
    start = time.perf_counter()
    code, out, err = run(capsys, "decide-ald", a, b)
    assert code == 64 and out == ""
    assert err == "error: a term derived from the input is nested too deeply\n"
    assert time.perf_counter() - start < 10


def test_deep_derived_term_diagram_evaluation_answers(capsys):
    # the evaluation's trees are right combs of 1,052 leaves with left nesting
    # 1, and the tree walks loop down their right spines
    t = _deep_derived_term()
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", t, "", "--diagram", "--json")
    assert (code, err) == (0, "")
    assert time.perf_counter() - start < 1
    # the recursive word has 2,093 letters of index at most 156
    assert json.loads(out) == word_to_diagram(pb_eval_term(parse_term(t), ())).to_json()
    for mode in ("--recursive", "--closed-form"):
        assert run(capsys, "eval", t, "", mode)[0] == 0, mode


def test_diagram_braid_past_the_word_cap_exits_64(capsys):
    # strand splitting cables a crossing of blocks of widths a and b into a·b
    # crossings: at s1 a2 the braid passes the cap at the seventh comb from
    # the leaf (six make 813,601 letters), while the recursive word of all
    # sixteen has 14,386 letters
    t = _deep_derived_term(combs=16)
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", t, "s1 a2", "--diagram")
    assert (code, out) == (64, "")
    assert err.startswith("error: a word of ") and err.count("\n") == 1
    assert err.endswith(f" letters exceeds the cap of {MAX_WORD_LETTERS}\n")
    assert time.perf_counter() - start < 5


def test_word_driven_left_nesting_exits_64(capsys):
    # the diagram of n letters a1⁻¹ has the left comb of n + 2 leaves as its
    # dom, and the tree walks recurse into left children, once a letter here
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "x o x", " ".join(["A1"] * 1500), "--diagram")
    assert code == 64 and out == ""
    assert err == "error: a term derived from the input is nested too deeply\n"
    assert time.perf_counter() - start < 20


def _doubling_term():
    # 26 times t -> (t)*(x o x): 267 characters, but the J entries have
    # 2^27 - 1 leaves, and 2^28 - 1 in (E)*x
    t = "(x o x)"
    for _ in range(26):
        t = f"({t})*(x o x)"
    return t


def test_terms_too_large_to_print_exit_64(capsys):
    e = _doubling_term()
    for argv in (["decide-ald", e, f"({e})*x"], ["normalize", e], ["normalize", f"({e})*x"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "", argv[0]
        assert err.startswith("error: a term of") and "too large to print" in err, argv[0]
        assert time.perf_counter() - start < 1, argv[0]


def test_huge_shared_entries_exit_64_before_evaluating(capsys):
    e = _doubling_term()
    for argv in (["order-ald", e, f"({e})*x"], ["eval", e, "s1", "--closed-form"]):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 64 and "exceeds the cap" in err, argv[0]
        assert time.perf_counter() - start < 1, argv[0]


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "decide-ald", "x*", "x")
    assert code == 64
    assert "error" in err


def test_usage_errors_exit_64(capsys):
    # argparse's own exit status 2 would read as an "unknown" verdict
    for argv in (
        ["decide-ald", "x"],
        ["freeness-scan", "--bogus"],
        ["freeness-scan", "--seed", "1"],
        ["freeness-scan", "--budget", "4,10"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert "error" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "decide-ald" in out


def test_budget_below_input_size_exit(capsys):
    # a closure capped below either term's size, or at no step, could only
    # answer "unknown"; a pair that is not one-variable has its caps checked
    # before any verdict, also where the variable filters would answer
    ld_pair = ("x1*(x2*x3)", "(x1*x2)*(x1*x3)")
    for command, budget, message, pair in (
        ("decide-ld", "1,10", "size_cap", ld_pair),
        ("decide-ld", "3,10", "size_cap", ld_pair),
        ("decide-ld", "5,0", "STEPS", ld_pair),
        ("decide-ald", "9,-3", "STEPS", ld_pair),
        ("decide-ld", "1,10", "size_cap", ("x1*x2", "x2*x1")),
        ("decide-ld", "1,10", "size_cap", ("x1*x2", "x1*x2")),
        ("decide-ald", "1,10", "size_cap", ("x1*x2", "x2*x1")),
    ):
        argv = (command, "--budget", budget, *pair)
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert message in err, argv


def test_budget_is_not_checked_when_the_i_parts_differ(capsys):
    # the caps bound the closure on the J-entry pairs compared; a pair whose
    # I-parts differ compares none, so it is answered whatever the caps
    code, out, _ = run(capsys, "decide-ald", "x1*x2", "x2 o x1", "--budget", "1,10")
    assert code == 1 and out.splitlines()[0] == "not-equal"


def test_budget_size_below_one_exit(capsys):
    # refused with the flag, also on pairs that never reach the closure
    for pair in (("x", "x"), ("x1*x2", "x1*x2"), ("x1*x2", "(x1*x1)*x2")):
        for command in ("decide-ld", "decide-ald"):
            for budget in ("0,10", "-1,10"):
                argv = (command, pair[0], pair[1], f"--budget={budget}")
                code, _, err = run(capsys, *argv)
                assert code == 64, argv
                assert "budget SIZE must be >= 1" in err, argv
    code, out, _ = run(capsys, "decide-ld", "x", "x", "--budget=1,10")
    assert code == 0 and out.strip() == "equal"


def test_size_cap_below_either_term_one_message(capsys):
    # the projections agree, so only the size cap stops the closure, in either order
    pair = ("(x1*x2)*(x1*x1)", "x1*(x2*x1)")
    errors = []
    for left, right in (pair, pair[::-1]):
        code, _, err = run(capsys, "decide-ld", "--budget", "3,10", left, right)
        assert code == 64
        errors.append(err)
    assert errors[0] == errors[1] == "error: size_cap must be at least the size of both terms\n"


def test_depth_limit(capsys):
    # the deepest accepted term still gets a verdict; deeper ones are usage errors
    code, out, _ = run(capsys, "decide-ald", "x*" * MAX_DEPTH + "x", "x*" * (MAX_DEPTH - 1) + "x")
    assert code == 1 and out.splitlines()[0] == "not-equal"
    for depth in (3_000, 10**4):
        code, _, err = run(capsys, "decide-ald", "x*" * depth + "x", "x")
        assert code == 64
        assert "nested deeper" in err


def test_large_letter_index_exit_64(capsys):
    # a generator's comb has index + 2 leaves, at most MAX_DEPTH
    code, out, _ = run(capsys, "eval", "--diagram", "x", "s198")
    assert code == 0 and json.loads(out)["braid"] == "s198"
    for argv in (
        ["eval", "--diagram", "x", "s1000"],
        ["eval", "--diagram", "x", "a1000"],
        ["freeness-scan", "--max-size", "2", "--gamma", "s1000"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert err.startswith("error:") and "1002 leaves" in err


def test_word_length_cap_exit_64(capsys):
    # a 60-leaf left comb evaluates at s1 to 3·2^59 - 2 letters: every mode
    # refuses it before building anything
    comb = "x"
    for _ in range(59):
        comb = f"({comb}*x)"
    for mode in ([], ["--closed-form"], ["--diagram"]):
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", *mode, comb, "s1")
        assert code == 64 and "exceeds the cap" in err, mode
        assert time.perf_counter() - start < 1, mode
    code, _, err = run(capsys, "eval", "x", " ".join(["s1"] * (MAX_WORD_LETTERS + 1)))
    assert code == 64 and f"{MAX_WORD_LETTERS + 1} letters exceeds the cap" in err


def test_decide_ld(capsys):
    code, out, _ = run(capsys, "decide-ld", "x*x", "(x*x)*x")
    assert code == 1 and out.strip() == "less"
    code, out, _ = run(capsys, "decide-ld", "x1*(x2*x3)", "(x1*x2)*(x1*x3)")
    assert code == 0 and out.strip() == "equal"


def test_order_ald(capsys):
    code, out, _ = run(capsys, "order-ald", "x", "x o x")
    assert code == 0 and out.strip() == "less"
    code, out, _ = run(capsys, "order-ald", "x*x", "x o x")
    assert code == 0 and out.strip() == "greater"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--json", "x*(x o x)")
    assert code == 0
    payload = json.loads(out)
    assert payload["special"] == "(x1*x1) o x1*x1"
    assert payload["trace"] == [{"law": "ald2", "pos": "", "direction": "expand"}]


def test_eval_modes(capsys):
    code, out, _ = run(capsys, "eval", "x o x", "")
    assert code == 0 and out.strip() == "a1"
    code, out, _ = run(capsys, "eval", "x*x", "s1")
    assert code == 0 and out.strip() == "s1 s2 s1 S2"
    code, out, _ = run(capsys, "eval", "--closed-form", "x o (x o x)", "s1")
    assert code == 0 and out.strip() == "s1 s2 s3 a2 a1"
    code, out, _ = run(capsys, "eval", "--diagram", "--json", "x o x", "")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"dom", "braid", "cod"}
    # caret cancellation in its products brings s3 S2 next to s2 S3; the
    # printed braid is freely reduced
    code, out, _ = run(capsys, "eval", "--diagram", "((x1*x1*x1)*x1) o (x1 o x1)*x1", "s1")
    assert code == 0
    assert json.loads(out) == {
        "dom": "(x(x(x(xx))))",
        "braid": "s1 s2 s3 s2 S3 s1 s1",
        "cod": "((xx)(x(xx)))",
    }


def test_eval_closed_form_agrees_with_recursive(capsys):
    for term in ("x o (x o x)", "x*(x o x)", "(x o x)*x"):
        _, rec, _ = run(capsys, "eval", term, "s1")
        _, closed, _ = run(capsys, "eval", "--closed-form", term, "s1")
        from aldbraid.diagrams import word_eq_oracle
        from aldbraid.pbwords import parse_pb

        assert word_eq_oracle(parse_pb(rec.strip()), parse_pb(closed.strip()))


def test_verify_relations(capsys):
    code, out, _ = run(
        capsys, "verify-relations", "--max-index", "3", "--samples", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(row["holds"] for row in payload["defining"])
    assert all(row["holds"] for row in payload["derived"])


def test_verify_relations_rejects_vacuous_configs(capsys):
    # fewer than two indices checks no defining relation; fewer than two
    # samples would be silently raised to the two fixed ones; an index whose
    # shift relation needs a letter the diagram model refuses, or a scan
    # size past MAX_SCAN_SIZE, would first build a runaway number of
    # relations or terms; a scan with no sample word checks no pair
    too_deep = str(MAX_DEPTH - 2)
    for command, *argv in (
        ["verify-relations", "--max-index", "0"],
        ["verify-relations", "--max-index", "1"],
        ["verify-relations", "--samples", "1"],
        ["verify-relations", "--max-index", too_deep],
        ["verify-relations", "--max-index", "1000000"],
        ["freeness-scan", "--max-size", str(MAX_SCAN_SIZE + 1)],
        ["freeness-scan", "--max-size", "0"],
    ):
        code, out, err = run(capsys, command, *argv)
        assert code == 64, argv
        assert out == "" and "error" in err
    for bad in (
        dict(relation_index_cap=1),
        dict(relation_index_cap=MAX_DEPTH - 2),
        dict(z_sample_count=1),
        dict(z_sample_count=MAX_Z_SAMPLES + 1),
        dict(max_term_size=MAX_SCAN_SIZE + 1),
        dict(max_term_size=4, gamma_samples=()),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    ExperimentConfig(
        relation_index_cap=MAX_DEPTH - 3, max_term_size=MAX_SCAN_SIZE, z_sample_count=MAX_Z_SAMPLES
    )
    # the largest cap's shift relations use the largest letter the model takes
    rels = relation_instances(MAX_DEPTH - 3)
    top = max(index for rel in rels for _, index in rel.lhs + rel.rhs)
    assert top == MAX_DEPTH - 2
    gen_sigma(top), gen_a(top)
    with pytest.raises(ValueError):
        gen_sigma(top + 1)


def test_verify_relations_refuses_a_huge_sample_count(capsys, monkeypatch):
    # refused before any sample is drawn: 10^8 samples would need about
    # 250 GiB, so the audit must not even start
    def audit(config):
        raise AssertionError("the audit ran")

    monkeypatch.setattr("aldbraid.cli.relation_audit", audit)
    code, out, err = run(capsys, "verify-relations", "--samples", str(10**8))
    assert code == 64
    assert out == "" and str(MAX_Z_SAMPLES) in err


def test_freeness_scan_small(capsys):
    code, out, _ = run(capsys, "freeness-scan", "--max-size", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["term_count"] == 11
    assert payload["class_count"] == 10
    assert payload["constant_failures"] == []
    assert payload["separation_collisions"] == []
    assert payload["critical_pairs_checked"] == 136


def test_freeness_scan_reports_a_constant_evaluation(capsys, monkeypatch):
    # one value for every term: each check but constancy must fire
    monkeypatch.setattr("aldbraid.cli.diagram_eval_term", lambda t, g, cache=None: identity_diagram())
    report = freeness_scan(ExperimentConfig(max_term_size=3))
    assert report["constant_failures"] == []
    assert len(report["separation_collisions"]) == 45 * 4
    assert len(report["critical_failures"]) == 136
    assert report["ok"] is False
    code, out, _ = run(capsys, "freeness-scan", "--max-size", "3")
    assert code == 1 and out.splitlines()[-1] == "FAILED"


def test_freeness_scan_reports_an_injective_evaluation(monkeypatch):
    # a different value for every term: only the one class of two terms fails
    position = {t: i for i, t in enumerate(enumerate_terms(1, "*o", 3))}
    monkeypatch.setattr(
        "aldbraid.cli.diagram_eval_term", lambda t, g, cache=None: gen_sigma(position[t] + 1)
    )
    report = freeness_scan(ExperimentConfig(max_term_size=3))
    assert len(report["constant_failures"]) == 4
    assert report["separation_collisions"] == []
    assert report["critical_failures"] == []
    assert report["ok"] is False


@pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
def test_freeness_scan_matches_pairwise_oracle(max_size):
    config = ExperimentConfig(max_term_size=max_size)
    assert freeness_scan(config) == pairwise_freeness_scan(config, diagram_eval_term)


def test_failing_freeness_scans_match_pairwise_oracle(monkeypatch):
    # the constant evaluation, and coarse ones that send each (term, word)
    # to one of a few generators at random: failures of every kind
    def constant(t, g, cache=None):
        return identity_diagram()

    def coarse(seed, values):
        rng, memo = random.Random(seed), {}
        return lambda t, g, cache=None: gen_sigma(memo.setdefault((t, g), rng.randrange(values)) + 1)

    config = ExperimentConfig(max_term_size=5)
    for evaluate in (constant, coarse(1, 2), coarse(2, 3), coarse(3, 5)):
        monkeypatch.setattr("aldbraid.cli.diagram_eval_term", evaluate)
        report = freeness_scan(config)
        assert report == pairwise_freeness_scan(config, evaluate)
        assert len(report["separation_collisions"]) > 1000
        assert len(report["critical_failures"]) > 1000
        assert evaluate is constant or report["constant_failures"]


@pytest.mark.parametrize(
    "max_size, pairs",
    [(1, 0), (2, 3), (3, 34), (4, 407), (5, 5_690), (6, 89_888), (7, 1_548_773)],
)
def test_critical_pair_count_matches_quadratic_oracle(max_size, pairs):
    specials = ranked_specials(list(enumerate_terms(1, "*o", max_size)))
    assert _critical_pairs(specials) == quadratic_critical_pairs(specials) == pairs


def test_equality_labels_match_per_term_oracle():
    terms = list(enumerate_terms(1, "*o", 6))
    for word in DEFAULT_GAMMAS:
        gamma_d, cache = word_to_diagram(parse_pb(word)), {}
        diagrams = [diagram_eval_term(t, gamma_d, cache) for t in terms]
        labels = _equality_labels(terms, diagrams)
        assert labels == per_term_equality_labels(terms, diagrams)
        assert len(set(labels.values())) < len(terms)


@pytest.mark.parametrize("seed, values", [(1, 2), (2, 3), (3, 5)])
def test_equality_labels_match_per_term_oracle_on_coarse_evaluations(seed, values):
    # the coarse evaluations of the failing-scan test: few braid words, each
    # shared by many terms
    rng = random.Random(seed)
    terms = list(enumerate_terms(1, "*o", 5))
    for _ in DEFAULT_GAMMAS:
        diagrams = [gen_sigma(rng.randrange(values) + 1) for _ in terms]
        labels = _equality_labels(terms, diagrams)
        assert labels == per_term_equality_labels(terms, diagrams)
        assert len(set(labels.values())) == values


def test_freeness_scan_custom_gamma(capsys):
    code, out, _ = run(
        capsys, "freeness-scan", "--max-size", "2", "--gamma", "s1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gammas"] == ["s1"]
