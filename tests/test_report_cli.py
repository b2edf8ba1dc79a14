"""Report pipeline, cache behavior, and exit codes through the CLI."""
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polytoep
from polytoep.certify import (essential_spectrum_cloud, essential_spectrum_membership,
                              shifted_tuple)
from polytoep.cli import _parse_lambda, main
from polytoep.exact import ExactComplex
from polytoep.koszul import build_koszul, default_levels, dump_matrices
from polytoep.poly import exact_poly, symbols, tuple_to_json
from polytoep.report import (JobConfig, _config_json, cache_key, load_tuple, run_index,
                             run_spectrum)
from polytoep.tensor import TrigPoly, trig_from_json

from conftest import p2
from test_acceptance import fixture_reports
from test_poly import bool_tuple_jsons


def body_bytes(report):
    return json.dumps(report["body"], sort_keys=True).encode()


def test_agree_report_shape(shift_pair):
    rep = run_index(JobConfig(input=shift_pair))
    body = rep["body"]
    assert body["schema_version"] == "1"
    v = body["verdict"]
    assert v["kind"] == "agree" and v["index"] == -1
    assert set(v["routes"]) == {"koszul", "algebraic", "oracle", "tensor"}
    assert body["certificate"]["verdict"] == "certified"
    assert all(body["routes"][r]["index"] == -1 for r in v["routes"])
    assert rep["cache"]["hit"] is False
    assert rep["timings"]["total"] > 0


def test_chosen_certificate_is_the_last_attempt(quarter_pair):
    # (z1² − ¼, z2) fails at r = 0.5 and certifies at 0.75
    body = run_index(JobConfig(input=quarter_pair))["body"]
    assert len(body["certificates"]) == 2
    assert body["certificate"] is body["certificates"][-1]
    assert body["certificate"] == body["certificates"][-1]


def test_three_shifts_certify_on_few_cells():
    # no route reads c of a triple, so it is refined to bare positivity:
    # 576 cells, against 38,720 at the default target
    p3 = lambda t: exact_poly(3, t)
    st = symbols(3, p3({(1, 0, 0): 1}), p3({(0, 1, 0): 1}), p3({(0, 0, 1): 1}))
    body = run_index(JobConfig(input=st))["body"]
    assert body["verdict"]["kind"] == "agree" and body["verdict"]["index"] == -1
    assert sum(c["cells_evaluated"] for c in body["certificates"]) <= 1_000


def test_not_fredholm_report(repeated_pair):
    rep = run_index(JobConfig(input=repeated_pair))
    v = rep["body"]["verdict"]
    assert v["kind"] == "not_fredholm"
    assert float(v["witness_value"]) < 1e-3
    assert rep["body"]["routes"] == {}


def test_ill_conditioned_algebraic_route_abstains(ill_conditioned_pair):
    # koszul and the oracle count both interior zeros; the algebraic route's
    # misplaced eigenvalues are an error of that route, never an index 0
    body = run_index(JobConfig(input=ill_conditioned_pair))["body"]
    assert body["verdict"]["kind"] == "not_certifiable"
    assert "integer: algebraic: located zero" in body["verdict"]["details"]
    assert "relative residual" in body["routes"]["algebraic"]["error"]
    assert body["routes"]["koszul"]["index"] == body["routes"]["oracle"]["index"] == -2


def test_not_certifiable_names_each_silent_route_and_why():
    # (z1 - 1001/1000, z2) certifies at r = 0.9; algebraic, oracle and
    # tensor give 0 (z1 - 1001/1000 is invertible), koszul abstains
    st = symbols(2, p2({(1, 0): 1, (0, 0): "-1001/1000"}), p2({(0, 1): 1}))
    body = run_index(JobConfig(input=st))["body"]
    assert body["verdict"] == {
        "kind": "not_certifiable",
        "details": "certificate holds but routes did not all emit an integer: "
                   "koszul: unstable"}
    assert body["routes"]["tensor"]["per_factor"] == [
        {"fredholm": True, "index": 0, "invertible_flag": True},
        {"fredholm": True, "index": -1, "invertible_flag": False}]
    assert body["routes"]["tensor"]["index"] == 0


def test_float_json_pair_gets_every_pair_route(tmp_path):
    # (z1 - 0.3 + 0.1i, z2 + 0.2 z1 z2 + 0.25) in JSON numbers: read as
    # dyadic rationals, it reaches the algebraic route and the oracle
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"nvars": 2, "symbols": [
        {"nvars": 2, "terms": [{"exp": [1, 0], "re": 1.0, "im": 0.0},
                               {"exp": [0, 0], "re": -0.3, "im": 0.1}]},
        {"nvars": 2, "terms": [{"exp": [0, 1], "re": 1.0, "im": 0.0},
                               {"exp": [1, 1], "re": 0.2, "im": 0.0},
                               {"exp": [0, 0], "re": 0.25, "im": 0.0}]}]}))
    code, out, _ = cli("index", "--input", str(path))
    body = json.loads(out)["body"]
    assert code == 0
    assert body["verdict"] == {"kind": "agree", "index": -1,
                               "routes": ["algebraic", "koszul", "oracle"]}
    assert body["input"]["symbols"][0]["terms"][0] == {
        "exp": [0, 0], "re": str(Fraction(-0.3)), "im": str(Fraction(0.1))}


def test_gcd_reduction_is_reported():
    g = p2({(1, 0): 1, (0, 0): -2})
    st = symbols(2, g * p2({(1, 0): 1}), g * p2({(0, 1): 1, (0, 0): "-1/2"}))
    rep = run_index(JobConfig(input=st))
    red = rep["body"]["reduction"]
    assert red["common_factor"] is not None and red["factor_zero_free"]
    assert rep["body"]["verdict"]["index"] == -1


def test_routes_that_disagree_are_reported(inputs, monkeypatch, capsys):
    # no tuple of the suite makes two routes disagree: the oracle is made to
    # count one zero too many on (z1, z2)
    counted = polytoep.report.perturbed_count_details

    def one_more(*args, **kwargs):
        detail = counted(*args, **kwargs)
        return {**detail, "count": detail["count"] + 1}

    monkeypatch.setattr("polytoep.report.perturbed_count_details", one_more)
    verdict = run_index(JobConfig(input=inputs["shifts"]))["body"]["verdict"]
    assert verdict == {"kind": "disagree", "details": {"algebraic": -1, "koszul": -1,
                                                       "oracle": -2, "tensor": -1}}
    assert main(["index", "--input", inputs["shifts"]]) == 4
    assert json.loads(capsys.readouterr().out)["body"]["verdict"] == verdict


def test_unwitnessed_failures_are_not_certifiable(inputs, monkeypatch, capsys):
    # every scheduled radius ends inconclusive (as when the cell budget is
    # spent), so no witness says the tuple is not Fredholm
    attempt = polytoep.report.boundary_lower_bound

    def inconclusive(st, r, **kwargs):
        return dataclasses.replace(attempt(st, r, **kwargs), verdict="inconclusive",
                                   c=0.0, budget_hit=True)

    monkeypatch.setattr("polytoep.report.boundary_lower_bound", inconclusive)
    body = run_index(JobConfig(input=inputs["shifts"]))["body"]
    assert [c["verdict"] for c in body["certificates"]] == ["inconclusive"] * 3
    assert body["certificate"] is None and body["routes"] == {}
    assert body["verdict"] == {
        "kind": "not_certifiable",
        "details": "no scheduled radius certified and the failures are not "
                   "witnessed everywhere"}
    assert main(["index", "--input", inputs["shifts"]]) == 3
    assert json.loads(capsys.readouterr().out)["body"]["verdict"] == body["verdict"]

ONE_VARIABLE_PAIRS = [
    ("(z1, z1 - 1/2)", symbols(2, p2({(1, 0): 1}), p2({(1, 0): 1, (0, 0): "-1/2"}))),
    ("(z1^2 - 1/2, z1)", symbols(2, p2({(2, 0): 1, (0, 0): "-1/2"}), p2({(1, 0): 1}))),
]


@pytest.mark.parametrize("st", [st for _, st in ONE_VARIABLE_PAIRS],
                         ids=[name for name, _ in ONE_VARIABLE_PAIRS])
def test_pairs_in_z1_alone_agree_on_zero(st):
    verdict = run_index(JobConfig(input=st))["body"]["verdict"]
    assert verdict == {"kind": "agree", "index": 0,
                       "routes": ["algebraic", "koszul", "oracle"]}


def swapped(st):
    """The pair with z1 and z2 exchanged."""
    return symbols(2, *(exact_poly(2, {e[::-1]: c for e, c in s.terms.items()})
                        for s in st.symbols))


def test_swapping_the_variables_keeps_the_verdict():
    reports, _ = fixture_reports()
    cases = [(name, st, run_index(JobConfig(input=st, seed=0)))
             for name, st in ONE_VARIABLE_PAIRS]
    cases += [(name, st, rep) for name, st, _, rep in reports]
    for name, st, rep in cases:
        v = rep["body"]["verdict"]
        w = run_index(JobConfig(input=swapped(st), seed=0))["body"]["verdict"]
        assert (w["kind"], w.get("index")) == (v["kind"], v.get("index")), name


# rational points of the unit circle: a root m·u has the exact modulus m
UNITS = [ExactComplex(Fraction(a, c), Fraction(b, c))
         for a, b, c in [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
                         (3, 4, 5), (-4, 3, 5), (-3, -4, 5), (4, -3, 5)]]


def root_product(var, roots):
    """∏(z_var − a) over ``roots``, as an exact bivariate polynomial."""
    one = exact_poly(2, {(0, 0): 1})
    out = one
    for a in roots:
        out = out * (exact_poly(2, {(1 - var, var): 1}) - one.scale(a))
    return out


def seeded_root_pairs(count=12, seed=2024):
    """(∏(z1 − aᵢ), ∏(z2 − bⱼ)) with one or two rational roots per symbol of
    modulus 0.2–0.6; every draw is kept."""
    rng = np.random.default_rng(seed)

    def roots():
        return [ExactComplex(Fraction(int(rng.integers(1, 4)), 5))
                * UNITS[int(rng.integers(len(UNITS)))]
                for _ in range(int(rng.integers(1, 3)))]

    return [symbols(2, root_product(0, roots()), root_product(1, roots()))
            for _ in range(count)]


METAMORPHIC = {
    "swap the symbols": lambda p, q: (q, p),
    "conjugate": lambda p, q: tuple(
        exact_poly(2, {e: ExactComplex(c.re, -c.im) for e, c in s.terms.items()})
        for s in (p, q)),
    "q - 2/3 p": lambda p, q: (p, q - p.scale(ExactComplex(Fraction(2, 3)))),
    "rotate p": lambda p, q: (p.scale(ExactComplex(Fraction(3, 5), Fraction(4, 5))), q),
}


def test_metamorphic_transforms_keep_the_verdict():
    # each transform keeps the ideal (or conjugates it with its zeros), so the
    # verdict kind and the index must not move
    reports, _ = fixture_reports()
    cases = [(str(k), st, run_index(JobConfig(input=st, seed=0)))
             for k, st in enumerate(seeded_root_pairs())]
    cases += [(name, st, rep) for name, st, _, rep in reports]
    for name, st, rep in cases:
        v = rep["body"]["verdict"]
        for what, transform in METAMORPHIC.items():
            moved = symbols(2, *transform(*st.symbols))
            w = run_index(JobConfig(input=moved, seed=0))["body"]["verdict"]
            assert (w["kind"], w.get("index")) == (v["kind"], v.get("index")), (name, what)


@pytest.mark.parametrize("terms, index", [
    ({(1,): 1}, -1),                                  # z
    ({(2,): 1}, -2),                                  # z²
    ({(0,): 2, (1,): 1}, 0),                          # 2 + z
    ({(3,): 1, (2,): "-1/2", (1,): "1/9", (0,): "-1/18"}, -3),   # (z − ½)(z² + 1/9)
])
def test_single_symbol_agrees_with_its_winding(terms, index):
    # one symbol in one variable is the product formula at n = 1
    body = run_index(JobConfig(input=symbols(1, exact_poly(1, terms))))["body"]
    assert body["verdict"] == {"kind": "agree", "index": index,
                               "routes": ["koszul", "tensor"]}


def test_public_names_resolve():
    # every exported name is defined, so a deleted one cannot stay listed
    missing = [name for name in polytoep.__all__ if not hasattr(polytoep, name)]
    assert missing == []


def test_three_squares_agree():
    # (z1², z2², z3²): index −8; its codim solve needs the windows K = 3, 4, 5
    # at M = 7, 8, 9, which the three-variable membership budget must admit
    sq = [exact_poly(3, {e: 1}) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    body = run_index(JobConfig(input=symbols(3, *sq)))["body"]
    assert body["verdict"] == {"kind": "agree", "index": -8, "routes": ["koszul", "tensor"]}
    koszul = body["routes"]["koszul"]
    assert koszul["codim"] == 8 and koszul["dims"] == [0, 0, 0, 8]


def test_input_forms_agree(shift_pair, tmp_path):
    as_dict = tuple_to_json(shift_pair)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(as_dict))
    reps = [run_index(JobConfig(input=src)) for src in (shift_pair, as_dict, str(path))]
    assert len({body_bytes(r) for r in reps}) == 1


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nvars": 2,,}')
    with pytest.raises(ValueError, match="line 1"):
        load_tuple(str(bad))


def test_repeat_runs_byte_identical(quarter_pair):
    a = run_index(JobConfig(input=quarter_pair, seed=5))
    b = run_index(JobConfig(input=quarter_pair, seed=5))
    assert body_bytes(a) == body_bytes(b)


def test_cache_roundtrip_and_corruption(shift_pair, tmp_path, caplog):
    cfg = JobConfig(input=shift_pair, cache_dir=str(tmp_path))
    first = run_index(cfg)
    assert not first["cache"]["hit"]
    second = run_index(cfg)
    assert second["cache"]["hit"]
    assert body_bytes(first) == body_bytes(second)
    # corrupt entry: log a warning, recompute, rewrite
    entry = tmp_path / f"{first['cache']['key']}.json"
    entry.write_text("{oops")
    with caplog.at_level(logging.WARNING, logger="polytoep.report"):
        third = run_index(cfg)
    assert "corrupt cache entry" in caplog.text
    assert not third["cache"]["hit"]
    assert body_bytes(third) == body_bytes(first)
    assert run_index(cfg)["cache"]["hit"]
    # valid JSON that is not a report object: the same treatment
    for content in ("null", "42", '"somebody"', '{"body": 1}', '{"body": {}, "cache": 1}'):
        entry.write_text(content)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="polytoep.report"):
            again = run_index(cfg)
        assert "corrupt cache entry" in caplog.text, content
        assert not again["cache"]["hit"], content
        assert body_bytes(again) == body_bytes(first)
        assert json.loads(entry.read_text())["body"] == first["body"]


def test_cache_key_canonicalization(shift_pair, z1, z2, monkeypatch):
    reordered = symbols(2, p2({(0, 0): 0}) + z1, z2)
    assert cache_key(JobConfig(input=shift_pair), shift_pair) == \
        cache_key(JobConfig(input=reordered), reordered)
    assert cache_key(JobConfig(input=shift_pair), shift_pair) != \
        cache_key(JobConfig(input=shift_pair, seed=1), shift_pair)
    assert cache_key(JobConfig(input=shift_pair), shift_pair) != \
        cache_key(JobConfig(input=shift_pair, r_schedule=(0.6,)), shift_pair)
    # every field but the input (hashed on its own) and the cache directory
    # is in the key
    assert set(_config_json(JobConfig(input=shift_pair))) == \
        {f.name for f in dataclasses.fields(JobConfig)} - {"input", "cache_dir"}
    # reports from older code are never served: the key carries the version
    key = cache_key(JobConfig(input=shift_pair), shift_pair)
    monkeypatch.setattr("polytoep.report.__version__", "0.0.0")
    assert cache_key(JobConfig(input=shift_pair), shift_pair) != key


def test_version_matches_pyproject():
    # cache keys carry __version__, so it must move with the package version
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == polytoep.__version__


def test_spectrum_membership_and_cloud(shift_pair):
    rep = run_spectrum(JobConfig(input=shift_pair), (0, 0))
    assert rep["body"]["verdict"] == "outside"
    assert float(rep["body"]["distance_estimate"]) > 0.1
    assert set(rep) == {"body", "timings"}
    assert rep["body"]["config"] == {"r_schedule": [0.5, 0.75, 0.9]}
    csv1 = run_spectrum(JobConfig(input=shift_pair), resolution=6)
    csv2 = run_spectrum(JobConfig(input=shift_pair), resolution=6)
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "re1,im1,re2,im2"


def test_spectrum_cloud_default_resolution_follows_n(monkeypatch, shift_pair):
    seen = []

    def cloud(st, r, resolution):
        seen.append(resolution)
        return np.zeros((1, len(st)), dtype=complex)

    monkeypatch.setattr("polytoep.report.essential_spectrum_cloud", cloud)
    p3 = lambda t: exact_poly(3, t)
    triple = symbols(3, p3({(1, 0, 0): 1}), p3({(0, 1, 0): 1}), p3({(0, 0, 1): 1}))
    run_spectrum(JobConfig(input=shift_pair))
    run_spectrum(JobConfig(input=triple))
    assert seen == [24, 11]           # 553³ points would pass the grid budget


def test_spectrum_rejects_the_keys_it_ignores(shift_pair, inputs, tmp_path, capsys):
    # r and resolution set the cloud, r_schedule the radii of a query
    with pytest.raises(ValueError, match="reads no r, resolution"):
        run_spectrum(JobConfig(input=shift_pair), (0, 0), r=0.3, resolution=6)
    spectrum = ["spectrum", "--input", inputs["shifts"]]
    lam = ["--lambda", "0,0", "0,0"]
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"lambda": [[0, 0], [0, 0]], "r": 0.3}))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"r_schedule": [0.6]}))
    for args, key in [(lam + ["--r", "0.3"], "no r "),
                      (lam + ["--resolution", "6"], "no resolution"),
                      (["--config", str(query)], "no r "),
                      (["--config", str(schedule)], "no r_schedule")]:
        assert main(spectrum + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
    # with a λ the schedule is read
    assert main(spectrum + lam + ["--config", str(schedule)]) == 0
    assert json.loads(capsys.readouterr().out)["body"]["config"] == {"r_schedule": [0.6]}


def test_job_config_validation(shift_pair):
    for seed in ("abc", 2.5, -1, True):
        with pytest.raises(ValueError, match="seed"):
            JobConfig(input=shift_pair, seed=seed)
    with pytest.raises(ValueError):
        JobConfig(input=shift_pair, r_schedule=(0.5, 1.5))


# -- CLI ------------------------------------------------------------------------


def cli(*args, cwd=None):
    # the child does not inherit pytest's pythonpath, so it gets src itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "polytoep.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def inputs(tmp_path):
    z1 = p2({(1, 0): 1})
    z2 = p2({(0, 1): 1})
    files = {}
    for name, st in [
        ("shifts", symbols(2, z1, z2)),
        ("repeated", symbols(2, z1, z1)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tuple_to_json(st)))
        files[name] = str(path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"nvars":')
    files["broken"] = str(broken)
    files["dir"] = tmp_path
    return files


def test_cli_index_exit_codes(inputs):
    code, out, _ = cli("index", "--input", inputs["shifts"])
    assert code == 0
    assert json.loads(out)["body"]["verdict"]["index"] == -1
    code, out, _ = cli("index", "--input", inputs["repeated"])
    assert code == 2
    code, _, err = cli("index", "--input", inputs["broken"])
    assert code == 1 and "line" in err
    code, _, err = cli("index", "--input", str(inputs["dir"] / "missing.json"))
    assert code == 1


def test_cli_usage_errors(inputs):
    assert cli()[0] == 1                       # missing subcommand
    assert cli("index")[0] == 1                # missing --input


def test_cli_certify_and_spectrum(inputs):
    code, out, _ = cli("certify", "--input", inputs["shifts"], "--r", "0.5")
    assert code == 0 and json.loads(out)["certificate"]["verdict"] == "certified"
    code, out, _ = cli("certify", "--input", inputs["repeated"], "--r", "0.5")
    assert code == 2
    code, out, _ = cli("spectrum", "--input", inputs["shifts"], "--lambda", "0,0", "0,0")
    body = json.loads(out)["body"]
    assert code == 0 and body["verdict"] == "outside"
    code, out, _ = cli("spectrum", "--input", inputs["shifts"], "--lambda", "0,0", "0,0",
                       "--emit", "csv")
    assert code == 0 and out.splitlines() == [
        "lambda,verdict,distance_estimate",
        f'"0,0 0,0",outside,{body["distance_estimate"]}']
    code, out, _ = cli("spectrum", "--input", inputs["shifts"], "--resolution", "6")
    assert code == 0 and out.startswith("re1,im1")
    # the JSON cloud is the CSV read back: every point exactly as computed
    code, out, _ = cli("spectrum", "--input", inputs["shifts"], "--resolution", "6",
                       "--emit", "json")
    cloud = essential_spectrum_cloud(load_tuple(inputs["shifts"]), 0.9, 6)
    assert code == 0 and json.loads(out) == {
        "points": [[x for v in row for x in (v.real, v.imag)] for row in cloud]}


def test_lambda_shifts_by_exactly_what_was_written(shift_pair):
    # 1/3 is no float: the parsed λ, the query and the shift keep it exact
    lam = _parse_lambda(["1/3,0", "0,-1/3"])
    assert lam == (ExactComplex(Fraction(1, 3)), ExactComplex(0, Fraction(-1, 3)))
    q = essential_spectrum_membership(shift_pair, lam)
    assert q.lam == lam and q.verdict == "outside"
    shifted = shifted_tuple(shift_pair, q.lam)
    assert shifted.symbols[0].terms[(0, 0)] == ExactComplex(Fraction(-1, 3))


def test_cli_spectrum_negative_lambda(inputs):
    # --lambda repeats, and its = form takes a component whose real part is
    # negative: (z1, z2) − (0, −1) vanishes at (0, −1) on the bidisc's boundary;
    # a part may be a "p/q" string, as a coefficient may
    for words in (["--lambda", "0,0", "--lambda=-1,0"], ["--lambda=0,0", "--lambda=-1,0"],
                  ["--lambda", "0/5,0", "--lambda=-2/2,0"]):
        code, out, _ = cli("spectrum", "--input", inputs["shifts"], *words)
        body = json.loads(out)["body"]
        assert code == 0 and body["verdict"] == "inside"
        assert body["lambda"] == [{"re": "0", "im": "0"}, {"re": "-1", "im": "0"}]
    # without the = form argparse reads -1,0 as an option
    assert cli("spectrum", "--input", inputs["shifts"], "--lambda", "0,0", "-1,0")[0] == 1


def test_cli_certify_whole_polydisc(inputs, tmp_path):
    # --r 0 is the closed polydisc: (z1, z2) vanishes at the origin
    code, out, _ = cli("certify", "--input", inputs["shifts"], "--r", "0")
    cert = json.loads(out)["certificate"]
    assert code == 2 and cert["verdict"] == "failed" and cert["r"] == 0.0
    assert "region" not in cert
    # one variable, the same entry point: z − 2 has no zero in the closed disc
    path = tmp_path / "far.json"
    path.write_text(json.dumps(tuple_to_json(symbols(1, exact_poly(1, {(1,): 1, (0,): -2})))))
    code, out, _ = cli("certify", "--input", str(path), "--r", "0")
    assert code == 0 and json.loads(out)["certificate"]["verdict"] == "certified"


def test_cli_koszul_dims_and_dump(inputs):
    code, out, _ = cli("koszul-dims", "--input", inputs["shifts"], "--dump-matrices")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == -1 and payload["stabilized"]
    assert payload["sigma_min_first"] > 0
    # certified at r = 0.5, so the route ran at ρ = 0.75, as in the report
    report = run_index(JobConfig(input=inputs["shifts"]))
    assert payload == report["body"]["routes"]["koszul"] and payload["rho"] == 0.75
    # the last level of the default sweep, 8 for a pair
    dumped = (inputs["dir"] / "shifts.matrices.txt").read_text()
    assert dumped == dump_matrices(build_koszul(load_tuple(inputs["shifts"]), 8))


def test_cli_dump_writes_a_level_the_route_sweeps(tmp_path):
    # in three variables the route sweeps levels 1..3, so the dump is level
    # 3: the level on which (z1, z2, z3) stabilizes
    p3 = lambda t: exact_poly(3, t)
    st = symbols(3, p3({(1, 0, 0): 1}), p3({(0, 1, 0): 1}), p3({(0, 0, 1): 1}))
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(tuple_to_json(st)))
    code, out, _ = cli("koszul-dims", "--input", str(path), "--dump-matrices")
    assert code == 0
    swept = [row["N"] for row in json.loads(out)["per_n"]]
    assert swept == list(default_levels(3)) == [1, 2, 3]
    dumped = (tmp_path / "triple.matrices.txt").read_text()
    assert dumped == dump_matrices(build_koszul(st, 3))
    assert [line for line in dumped.splitlines() if line.startswith("#")] == [
        "# d1 shape 375 64", "# d2 shape 648 375", "# d3 shape 343 648"]


def test_cli_dump_over_the_matrix_budget_is_an_error(tmp_path):
    # level 3 of (z1⁸, z2⁸, z3⁸) needs 24,000 columns, over MATRIX_BUDGET
    p3 = lambda t: exact_poly(3, t)
    path = tmp_path / "eighth.json"
    path.write_text(json.dumps(tuple_to_json(symbols(
        3, p3({(8, 0, 0): 1}), p3({(0, 8, 0): 1}), p3({(0, 0, 8): 1})))))
    code, _, err = cli("koszul-dims", "--input", str(path), "--dump-matrices")
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: --dump-matrices: window overflow: stage would "
                          "need 24000 columns (budget 20000)")
    assert not (tmp_path / "eighth.matrices.txt").exists()


def test_cli_koszul_dims_needs_a_certificate(tmp_path):
    # (z1 - 1, z2 - 1) vanishes on the torus: no scheduled radius certifies,
    # so no route runs and the certificates are the output
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(tuple_to_json(symbols(
        2, p2({(1, 0): 1, (0, 0): -1}), p2({(0, 1): 1, (0, 0): -1})))))
    code, out, _ = cli("koszul-dims", "--input", str(path))
    assert code == 3
    certs = json.loads(out)["certificates"]
    assert [c["r"] for c in certs] == [0.5, 0.75, 0.9]
    assert all(c["verdict"] == "failed" for c in certs)


def assert_clean_error(code, err):
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err


def test_cli_rejects_json_booleans_as_numbers(tmp_path):
    path = tmp_path / "bool.json"
    for obj in bool_tuple_jsons():
        path.write_text(json.dumps(obj))
        code, _, err = cli("index", "--input", str(path))
        assert_clean_error(code, err)


def test_cli_malformed_tensor_input(tmp_path):
    path = tmp_path / "tensor.json"
    z = {"fourier": [{"k": 1, "re": 1.0}]}
    for obj in ({"variables": [0, 1]},
                {"factors": [{"fourier": [{"re": 1.0}]}]},
                {"factors": [{"fourier": [{"k": 1}]}]},
                {"factors": [{"fourier": [{"k": 1, "re": math.nan}]}]},
                {"factors": [z, z], "variables": 3},
                {"factors": [z], "variables": ["a"]},
                {"factors": [z], "variables": [-1]}):
        path.write_text(json.dumps(obj))
        code, _, err = cli("tensor", "--input", str(path))
        assert_clean_error(code, err)


@pytest.mark.parametrize("c", [math.nan, math.inf, "1/0"])
def test_cli_rejects_bad_tuple_coefficients(c, tmp_path):
    # (z1 + c, z2): a NaN term would be pruned unseen, an infinite one would
    # prune its whole symbol, and "1/0" has no value
    one, zero = ("1", "0") if isinstance(c, str) else (1.0, 0.0)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"nvars": 2, "symbols": [
        {"nvars": 2, "terms": [{"exp": [1, 0], "re": one, "im": zero},
                               {"exp": [0, 0], "re": c, "im": zero}]},
        {"nvars": 2, "terms": [{"exp": [0, 1], "re": one, "im": zero}]}]}))
    code, _, err = cli("index", "--input", str(path))
    assert_clean_error(code, err)


def test_cli_config_top_level_must_be_an_object(inputs, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0.5, 0.75]")
    code, _, err = cli("index", "--input", inputs["shifts"], "--config", str(cfg))
    assert_clean_error(code, err)


def test_cli_config_values_of_the_wrong_type(inputs, tmp_path):
    cfg = tmp_path / "cfg.json"
    for command, content in (("index", {"r_schedule": 0.5}),
                             ("index", {"seed": "abc"}),
                             ("spectrum", {"lambda": [0, 0]})):
        cfg.write_text(json.dumps(content))
        code, _, err = cli(command, "--input", inputs["shifts"], "--config", str(cfg))
        assert_clean_error(code, err)


def test_cli_tensor(inputs, tmp_path):
    factors_file = tmp_path / "tensor.json"
    factors_file.write_text(json.dumps({
        "factors": [{"fourier": [{"k": 2, "re": 1.0, "im": 0.0}]},
                    {"fourier": [{"k": 3, "re": 1.0, "im": 0.0}]}],
        "variables": [0, 1]}))
    code, out, _ = cli("tensor", "--input", str(factors_file))
    assert code == 0 and json.loads(out)["tuple_index"] == -6


def test_cli_tensor_invertible_factor_before_a_circle_zero(tmp_path):
    # z − 1 vanishes on the circle, z − 2 is invertible: the tuple is exact
    factors_file = tmp_path / "tensor.json"
    factors_file.write_text(json.dumps({
        "factors": [{"fourier": [{"k": 1, "re": 1.0}, {"k": 0, "re": -1.0}]},
                    {"fourier": [{"k": 1, "re": 1.0}, {"k": 0, "re": -2.0}]}]}))
    code, out, _ = cli("tensor", "--input", str(factors_file))
    rep = json.loads(out)
    assert code == 0 and rep["tuple_fredholm"] is True and rep["tuple_index"] == 0


def test_cli_tensor_root_just_outside_the_circle(tmp_path):
    # z1 − 1001/1000 has its root at 1.001: an invertible factor, index 0
    factors_file = tmp_path / "tensor.json"
    factors_file.write_text(json.dumps({
        "factors": [{"fourier": [{"k": 1, "re": 1}, {"k": 0, "re": "-1001/1000"}]},
                    {"fourier": [{"k": 1, "re": 1}]}]}))
    code, out, _ = cli("tensor", "--input", str(factors_file))
    rep = json.loads(out)
    assert code == 0 and rep["tuple_fredholm"] is True and rep["tuple_index"] == 0
    assert rep["per_factor"] == [
        {"fredholm": True, "index": 0, "invertible_flag": True},
        {"fredholm": True, "index": -1, "invertible_flag": False}]


NON_INTEGRAL = [
    ("exp", {"nvars": 2, "symbols": [
        {"nvars": 2, "terms": [{"exp": [1.9, 0], "re": "1", "im": "0"}]},
        {"nvars": 2, "terms": [{"exp": [0, 1], "re": "1", "im": "0"}]}]}),
    ("nvars", {"nvars": 2.5, "symbols": [
        {"nvars": 2, "terms": [{"exp": [1, 0], "re": "1", "im": "0"}]},
        {"nvars": 2, "terms": [{"exp": [0, 1], "re": "1", "im": "0"}]}]}),
    ("symbol nvars", {"nvars": 2, "symbols": [
        {"nvars": 2.5, "terms": [{"exp": [1, 0], "re": "1", "im": "0"}]},
        {"nvars": 2, "terms": [{"exp": [0, 1], "re": "1", "im": "0"}]}]}),
]


@pytest.mark.parametrize("field, obj", NON_INTEGRAL, ids=[f for f, _ in NON_INTEGRAL])
def test_non_integral_fields_are_rejected(field, obj, tmp_path):
    # int() would truncate: "exp": [1.9, 0] would read as z1
    with pytest.raises(ValueError, match="must be an integer"):
        load_tuple(obj)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(obj))
    code, _, err = cli("index", "--input", str(path))
    assert_clean_error(code, err)
    assert "must be an integer" in err


def test_non_integral_fourier_index_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="must be an integer"):
        trig_from_json({"fourier": [{"k": 0.5, "re": 1.0}]})
    with pytest.raises(ValueError, match="must be an integer"):
        TrigPoly({0.5: 1.0})
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"factors": [{"fourier": [{"k": 0.5, "re": 1.0}]}]}))
    code, _, err = cli("tensor", "--input", str(path))
    assert_clean_error(code, err)
    assert "must be an integer" in err


def test_cli_config_file_merge(inputs, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "r_schedule": [0.5]}))
    code, out, _ = cli("index", "--input", inputs["shifts"], "--config", str(cfg))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["config"]["seed"] == 9
    assert body["config"]["r_schedule"] == [0.5]
    # explicit flag wins over the file
    code, out, _ = cli("index", "--input", inputs["shifts"],
                       "--config", str(cfg), "--seed", "4")
    assert json.loads(out)["body"]["config"]["seed"] == 4


# flags that a subcommand does not read (the parameter table leaves them out)
IGNORED_FLAGS = [
    *[f"index {f}" for f in ("--r 0.7", "--n-range 2..6", "--rank-tol 1e-8", "--mesh 0.05")],
    *[f"spectrum {f}" for f in ("--n-range 2..6", "--rank-tol 1e-8", "--mesh 0.05",
                                "--seed 1", "--cache c", "--dump-matrices")],
    *[f"certify {f}" for f in ("--n-range 2..6", "--rank-tol 1e-8", "--mesh 0.05",
                               "--seed 1", "--cache c", "--dump-matrices")],
    *[f"koszul-dims {f}" for f in ("--n-range 2..6", "--rank-tol 1e-8", "--r 0.7",
                                   "--mesh 0.05", "--seed 1", "--cache c",
                                   "--config c.json")],
    *[f"tensor {f}" for f in ("--config c.json", "--n-range 2..6", "--rank-tol 1e-8",
                              "--r 0.7", "--mesh 0.05", "--seed 1", "--cache c",
                              "--dump-matrices")],
]


@pytest.mark.parametrize("args", IGNORED_FLAGS)
def test_cli_rejects_flags_a_subcommand_does_not_read(args, capsys):
    command, *flag = args.split()
    with pytest.raises(SystemExit) as exit_:
        main([command, "--input", "t.json", *flag])
    assert exit_.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# the keys of 0.5.10 that set the Koszul levels, rank tolerance, mesh and
# oracle, which are constants now, are errors like any unknown key;
# koszul-dims reads no key, so it refuses the --config flag itself
@pytest.mark.parametrize("command, content", [("certify", {"n_range": [2, 3]}),
                                              ("index", {"bogus": 1}),
                                              ("index", {"n_range": [2, 6]}),
                                              ("index", {"rank_tolerance": 1e-8}),
                                              ("index", {"target_mesh": 0.05}),
                                              ("index", {"oracle": {"trials": 5}}),
                                              ("certify", {"target_mesh": 0.05}),
                                              ("koszul-dims", {"n_range": [2, 6]}),
                                              ("koszul-dims", {"rank_tolerance": 1e-8})])
def test_cli_rejects_config_keys_a_subcommand_does_not_read(command, content,
                                                            inputs, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code, _, err = cli(command, "--input", inputs["shifts"], "--config", str(cfg))
    if command == "koszul-dims":                 # a usage error, as argparse words it
        assert code == 1 and "Traceback" not in err, err
        assert f"unrecognized arguments: --config {cfg}" in err
    else:
        assert_clean_error(code, err)
        assert next(iter(content)) in err
