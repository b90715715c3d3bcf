"""Front end: polynomial grammar, model validation, dispatch, determinism,
exit codes."""

import json
import os
import re
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck import DEFAULT_BUDGET, ModelError, Polynomial, RingModel
from frobcheck.cli import (_ENV_FIELDS, _rendered_rows, budget_from_env,
                           parse_model, parse_polynomial, run)
from conftest import model_path, packed

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def P(ring, s):
    return parse_polynomial(ring, s)


# ---------------------------------------------------------------------------
# polynomial grammar

def test_grammar_basic():
    R = RingModel(3, ["x", "y", "z"])
    assert str(P(R, "x^2+y*z")) == "x^2+y*z"
    assert str(P(R, " x ^ 2 + y * z ")) == "x^2+y*z"
    assert str(P(R, "-x")) == "2*x"
    assert str(P(R, "x-x")) == "0"
    assert str(P(R, "2*x*y")) == "2*x*y"
    assert str(P(R, "5")) == "2"


def test_grammar_parentheses():
    R = RingModel(3, ["x", "y", "z"])
    assert P(R, "x*(y+z)") == P(R, "x*y+x*z")
    assert P(R, "(x+y)*(x+y)") == P(R, "x^2+2*x*y+y^2")


def test_grammar_errors_have_positions():
    R = RingModel(3, ["x", "y"])
    with pytest.raises(ModelError, match="column 3"):
        P(R, "x+&y")
    with pytest.raises(ModelError, match="column 3"):
        P(R, "x^y")
    with pytest.raises(ModelError, match="unknown variable"):
        P(R, "x+w")
    with pytest.raises(ModelError, match="trailing"):
        P(R, "x y")


# ---------------------------------------------------------------------------
# model validation

def _base_model():
    return {
        "p": 3,
        "variables": ["x", "y", "z"],
        "ideal": ["x^2+y*z"],
    }


def test_model_rejects_non_prime():
    m = _base_model()
    m["p"] = 6
    with pytest.raises(ModelError, match="not prime"):
        parse_model(json.dumps(m))


def test_model_rejects_inhomogeneous_named():
    m = _base_model()
    m["ideal"] = ["x^2+y"]
    with pytest.raises(ModelError, match=r"ideal\[0\].*quasi-homogeneous"):
        parse_model(json.dumps(m))


def test_model_rejects_json_syntax_with_position():
    with pytest.raises(ModelError, match="line"):
        parse_model(b'{"p": 3,')


def test_model_rejects_unknown_key():
    m = _base_model()
    m["extra"] = 1
    with pytest.raises(ModelError, match="unknown model key"):
        parse_model(json.dumps(m))


def test_model_rejects_ragged_matrix():
    m = _base_model()
    m["modules"] = {"M": {"ambient_rank": 2,
                          "relations": [["x", "y"], ["z"]]}}
    with pytest.raises(ModelError, match="ragged"):
        parse_model(json.dumps(m))


def test_model_rejects_untwistable_matrix():
    m = _base_model()
    # entries are individually homogeneous but no degree shifts fit
    m["modules"] = {"M": {"ambient_rank": 2,
                          "relations": [["x", "y^2"], ["y", "x"]]}}
    with pytest.raises(ModelError, match="graded structure"):
        parse_model(json.dumps(m))


def test_model_rejects_entry_outside_m():
    m = _base_model()
    m["modules"] = {"M": {"ambient_rank": 1, "relations": [["1+x^2"]]}}
    with pytest.raises(ModelError):
        parse_model(json.dumps(m))


def test_round_trip_all_corpus_models(corpus):
    for key, mf in sorted(corpus.items()):
        again = parse_model(mf.canonical)
        assert again.digest == mf.digest, key
        assert again.ring.same_quotient(mf.ring, DEFAULT_BUDGET), key
        assert sorted(again.modules) == sorted(mf.modules)
        for name in mf.modules:
            a, b = mf.modules[name], again.modules[name]
            assert a.ambient_rank == b.ambient_rank
            assert a.columns == b.columns
        assert again.sops == mf.sops


def _ref_render(ring, terms):
    """A polynomial's text from its {exponents: coeff} terms, written out
    here: terms by descending weighted grevlex, (wdeg, -e_v, ..., -e_1)."""
    def key(m):
        return sum(map(mul, ring.weights, m)), [-e for e in reversed(m)]
    chunks = []
    for m, c in sorted(terms.items(), key=lambda t: key(t[0]), reverse=True):
        mono = "*".join(x if e == 1 else f"{x}^{e}"
                        for x, e in zip(ring.variables, m) if e)
        chunks.append(str(c) if not mono else mono if c == 1
                      else f"{c}*{mono}")
    return "+".join(chunks) or "0"


def _ref_rendered_rows(ring, cols, nrows):
    """The renderer on decoded terms: each cell's terms collected, then
    rendered on their own."""
    grid = [[{} for _ in cols] for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, m, c in ring.ctx.unpack(col):
            grid[i][j][m] = c
    return [[_ref_render(ring, cell) for cell in row] for row in grid]


@pytest.mark.parametrize("p, weights", [(7, (1, 1, 1)), (2, (2, 3)),
                                        (5, (3, 1, 2))])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_rendered_rows_match_polynomial_rendering(p, weights, data):
    # constants, coefficients 1 and p - 1, empty columns and empty rows
    R = RingModel(p, ["x", "y", "z"][:len(weights)], weights)
    nrows = data.draw(st.integers(0, 4))
    mono = st.one_of(st.just((0,) * len(weights)),
                     st.tuples(*[st.integers(0, 3)] * len(weights)))
    coeff = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    entry = st.dictionaries(st.tuples(st.integers(0, nrows - 1), mono), coeff,
                            max_size=6) if nrows else st.just({})
    entries = data.draw(st.lists(entry, max_size=4))
    cols = [packed(R.ctx, e) for e in entries]
    assert _rendered_rows(R, cols, nrows) == _ref_rendered_rows(R, cols, nrows)
    # render_poly shares the term rendering
    for e in entries:
        f = Polynomial(R, {m: c for (_, m), c in e.items()})
        assert R.render_poly(f) == _ref_render(R, f.terms)


# ---------------------------------------------------------------------------
# dispatch and exit codes

def test_run_check_free_exit_zero(capsys):
    code = run(["check", "free", model_path("b.json"), "-m", "MF",
                "-s", "yz", "-n", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: CONSISTENT" in out
    assert "c1_free: false" in out


def test_run_missing_file(capsys):
    assert run(["tor", "missing.json", "-m", "k", "-n", "1", "-i", "1"]) == 2


def test_run_builds_its_parser_once(capsys):
    # one parser serves every call: help still exits 0, bad arguments 2
    from frobcheck import cli
    assert run(["--help"]) == 0
    parser = cli._parser
    assert run(["tor", "--bogus"]) == 2
    assert run(["info", model_path("e.json")]) == 0
    assert cli._parser is parser
    assert "usage: frobcheck" in capsys.readouterr().out


def test_run_unknown_module(capsys):
    code = run(["resolve", model_path("a.json"), "-m", "nope", "-L", "2"])
    assert code == 2
    assert "unknown module" in capsys.readouterr().err


def test_run_skipped_maps_to_exit_two(capsys):
    # k over B is not MCM: cor_free skips
    code = run(["check", "free", model_path("b.json"), "-m", "k",
                "-s", "yz", "-n", "1"])
    assert code == 2
    assert "verdict: SKIPPED" in capsys.readouterr().out


@pytest.mark.parametrize("criterion", [["main1", "-m", "Ex"],
                                       ["codim1", "-m", "Ex", "-s", "s"]])
def test_run_negative_rank_exit_two(criterion, capsys):
    code = run(["check", criterion[0], model_path("e.json"), *criterion[1:],
                "--rank", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "rank_M" not in captured.out
    assert "--rank -3 is negative" in captured.err


def test_negative_rank_override_rejected(model_e):
    from frobcheck import ArgumentError, check_thm_main1
    with pytest.raises(ArgumentError, match="negative"):
        check_thm_main1(model_e.module("Ex"), 1, 1, rank_override=-1)


def test_run_budget_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("FROBCHECK_MAX_SPAIRS", "1")
    code = run(["tor", model_path("b.json"), "-m", "k", "-n", "1", "-i", "1",
                "--method", "pushforward"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("entry, argv", [
    # past the ceiling in the model itself: rejected while parsing
    ("x^40000", ["info"]),
    # y^20000 packs, its Frobenius power y^40000 does not
    ("y^20000", ["tor", "-m", "M", "-n", "1", "-i", "1", "--method",
                 "functor"]),
    # the same power of an entry, before any term is reduced
    ("x^20000", ["frobenius", "-m", "M", "-n", "1"]),
])
def test_run_past_packed_degree_ceiling_exit_three(entry, argv, tmp_path,
                                                   capsys):
    # the packed term encoding holds weighted degrees up to 32767, and no
    # setting lifts that
    model = tmp_path / "high.json"
    model.write_text(json.dumps({
        "p": 2, "variables": ["x", "y"],
        "modules": {"M": {"ambient_rank": 1, "relations": [[entry]]}},
    }))
    code = run(argv[:1] + [str(model)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 3
    assert "packed_degree (limit 32767)" in captured.err
    assert "weighted degree 40000" in captured.err
    assert captured.out == ""


def test_budget_env_parsing(monkeypatch):
    monkeypatch.setenv("FROBCHECK_MAX_SPAIRS", "12345")
    b = budget_from_env()
    assert b.max_spairs == 12345
    monkeypatch.setenv("FROBCHECK_MAX_SPAIRS", "junk")
    with pytest.raises(ModelError):
        budget_from_env()


def test_budget_env_ignores_removed_variables():
    # older scripts still set these; the limits they named are gone
    assert budget_from_env({"FROBCHECK_MAX_DEGREE": "5",
                            "FROBCHECK_MAX_KAPPA_STEPS": "0",
                            "FROBCHECK_MAX_PUSHFORWARD_GENS": "2",
                            "FROBCHECK_MAX_MINORS": "0"}) \
        == DEFAULT_BUDGET


def test_readme_budget_variables_match_cli():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Budgets\n", 1)[1]
    block = section.split("```", 2)[1]
    assert set(re.findall(r"FROBCHECK_\w+", block)) == set(_ENV_FIELDS)


def test_run_info_high_degree_sop(tmp_path, capsys):
    # x^(5^6) is tested against x^20000; x^(5^7) is past the degree where
    # F_5[x]/(x^20000) vanishes, so it is never packed
    model = tmp_path / "high.json"
    model.write_text(json.dumps({"p": 5, "variables": ["x"],
                                 "sops": {"high": ["x^20000"]}}))
    code = run(["info", str(model)])
    out = capsys.readouterr().out
    assert code == 0
    assert "    high: 7\n" in out
    assert "kappa_upper_bound_overall: 0" in out
    assert "sops: high" in out


def test_run_info_monomial_sop_past_packed_ceiling(tmp_path, capsys):
    # x^(2^15) and y^(2^15) pass the packed ceiling; each is a multiple of a
    # one-term basis element of (x^20000, y^20000), so neither is packed
    model = tmp_path / "high.json"
    model.write_text(json.dumps({"p": 2, "variables": ["x", "y"],
                                 "sops": {"high": ["x^20000", "y^20000"]}}))
    code = run(["info", str(model)])
    out = capsys.readouterr().out
    assert code == 0
    assert "    high: 15\n" in out
    assert "sops: high" in out


def test_run_deterministic_bytes(capsys):
    args = ["check", "gorenstein", model_path("d.json"),
            "--method", "tor-omega", "-s", "x", "-n", "1"]
    code1 = run(args)
    first = capsys.readouterr().out
    code2 = run(args)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert "wall_ms" not in first     # timing lives on stderr only


def test_run_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = run(["info", model_path("a.json"), "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert "kappa_upper_bound_overall: 0" in text
    assert capsys.readouterr().out == ""


def test_run_tsv_blocks(capsys):
    code = run(["resolve", model_path("a.json"), "-m", "k", "-L", "2",
                "--tsv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "#tsv betti" in out
    assert "betti: 1 2 1" in out


def test_run_scan(capsys):
    code = run(["scan", "rigidity", model_path("e.json"), "-m", "k",
                "--n-range", "1..2", "--i-range", "1..2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: RIGID_WITNESSED" in out


def test_run_info_reports_type(capsys):
    code = run(["info", model_path("c.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "type: 2" in out and "gorenstein: false" in out


def test_run_info_flags_cm_assertion_mismatch(tmp_path, capsys):
    bad = tmp_path / "noncm.json"
    bad.write_text(json.dumps({
        "p": 2, "variables": ["x", "y"],
        "ideal": ["x^2", "x*y"], "flags": {"cm": True},
    }))
    code = run(["info", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "cm_assertion_consistent: false" in out
    # no s.o.p. candidate exists for this ring; info degrades gracefully
    assert "kappa_upper_bound_overall: unavailable" in out


def test_verdict_exit_mapping():
    from frobcheck.cli import _verdict_exit
    assert _verdict_exit("CONSISTENT") == 0
    assert _verdict_exit("PAPER_VIOLATION") == 1
    assert _verdict_exit("SKIPPED") == 2


@pytest.mark.parametrize("argv,window", [
    (["check", "free", "b.json", "-m", "MF", "-s", "yz", "-n", "1",
      "--n-max", "0"], "n in [1..0]"),
    (["check", "free", "b.json", "-m", "MF", "-s", "yz", "-n", "1",
      "--i-max", "0"], "i in [1..0]"),
    (["check", "codim1", "b.json", "-m", "Ry", "-s", "z", "-n", "1",
      "--i-max", "0"], "i in [1..0]"),
])
def test_run_empty_tor_grid_is_an_input_error(argv, window, capsys):
    # an empty window makes "all vanish" vacuous and "one vanishes" false;
    # that must not read as a computed contradiction
    argv = [model_path(a) if a == "b.json" else a for a in argv]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "PAPER_VIOLATION" not in captured.out
    assert "empty Tor grid" in captured.err and window in captured.err


def test_run_unwritable_out_exit_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.txt"
    code = run(["info", model_path("a.json"), "--out", str(target)])
    assert code == 2
    assert "error: cannot write report" in capsys.readouterr().err


def test_run_crash_exit_four(monkeypatch, capsys):
    import frobcheck.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "_payload_info", boom)
    code = run(["info", model_path("a.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("internal error:")
    assert "Traceback" in err and "simulated crash" in err
