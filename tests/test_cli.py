"""Command-line surface: canonical output, exit codes, determinism."""

import contextlib
import io
import json
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import macdonald.fillings as fillings
import macdonald.ramyip as ramyip
import macdonald.weyl as weyl
from macdonald.chain import InternalInvariantError, Partition
from macdonald.cli import main
from macdonald.qt import ContentAccumulator


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, ["chain", "--lambda", "4,3,1,0"])
    assert code == 0
    assert out == (
        "((1,4),(1,3) | (2,4),(2,3),(1,4),(1,3) | (2,4),(1,4))\nm = 8\n"
    )


def test_compute_text_single_box(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "1,0", "-n", "2", "--formula", "compressed",
         "--out", "text"],
    )
    assert code == 0
    assert out == "x[1,0] + x[0,1]\n"


def test_compute_formulas_agree_bytewise(capsys):
    base = ["compute", "--lambda", "2,1", "-n", "3", "--out", "json"]
    _, ry, _ = run_cli(capsys, base + ["--formula", "ram-yip"])
    _, cp, _ = run_cli(capsys, base + ["--formula", "compressed"])
    assert ry == cp
    obj = json.loads(ry)
    assert obj["lambda"] == [2, 1, 0] and obj["n"] == 3
    exps = [tuple(m["exp"]) for m in obj["monomials"]]
    assert exps == sorted(exps, reverse=True)


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, ["count", "--lambda", "3,2,1,0", "-n", "4"])
    assert code == 0 and out == "288\n"
    code, out, _ = run_cli(
        capsys,
        ["count", "--lambda", "3,2,1,0", "-n", "4", "--convention", "hhl"],
    )
    assert code == 0 and out == "864\n"


def test_nonregular_exits_2(capsys):
    code, out, err = run_cli(capsys, ["verify", "--lambda", "2,2,0", "-n", "3"])
    assert code == 2
    assert "not regular" in err


def test_term_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("MACDONALD_TERM_CAP", "100")
    code, _, err = run_cli(
        capsys,
        ["compute", "--lambda", "3,2,1,0", "-n", "4", "--formula", "ram-yip"],
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--formula", "compressed", "--lambda", "100000,0"],
    ["count", "--lambda", "100000,0"],
    ["count", "--lambda", "100000,0", "--convention", "hhl", "--jobs", "2"],
    ["verify", "--per-class", "--lambda", "100000,0"],
    ["bench", "--lambda", "100000,0"],
    ["verify", "--map-properties", "--lambda", "100000,0"],
])
def test_filling_paths_exit_3_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "term cap" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--formula", "ram-yip", "--lambda", "100000,0"],
    ["compute", "--formula", "ram-yip", "--lambda", "100000,0", "--verbose"],
    ["verify", "--lambda", "100000,0"],
])
def test_walk_paths_exit_3_on_a_wide_shape(capsys, argv):
    # the walk paths build the chain (linear in lambda_1) before the cap check
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "2^99999 * 2! folding pairs" in err


def test_table_respects_term_cap(capsys, monkeypatch):
    monkeypatch.setenv("MACDONALD_TERM_CAP", "100")
    code, _, err = run_cli(capsys, ["table", "--rows", "1"])
    assert code == 3 and "column-injective" in err


def test_verify_default_cross_check(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--lambda", "2,1,0", "-n", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checks"][0]["name"] == "formulas-agree"


def test_verify_per_class(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--lambda", "2,0", "-n", "2", "--per-class"]
    )
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["per-class", "fibers-partition"]
    assert report["ok"] is True
    assert [c["ok"] for c in report["classes"]] == [True] * 4
    assert sum(c["pairs"] for c in report["classes"]) == 4


def test_verify_oracle_pole_point_fails_cleanly(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--lambda", "2,0", "-n", "2", "--oracle",
         "--q", "2/3", "--t", "3/2"],
    )
    assert code == 1
    report = json.loads(out)
    bad = [c for c in report["checks"] if not c["ok"]]
    assert bad and ("vanishes" in bad[0]["detail"] or "singular" in bad[0]["detail"])


def test_verify_oracle_seeded(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--lambda", "2,0", "-n", "2", "--oracle", "--seed", "7"],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_oracle_explicit_point(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--lambda", "2,0", "-n", "2", "--oracle",
         "--q", "2/3", "--t", "5/7"],
    )
    assert code == 0
    report = json.loads(out)
    assert any(c["name"] == "oracle@(2/3,5/7)" for c in report["checks"])


@pytest.mark.parametrize("q, t", [("-2/3", "5/7"), ("2/3", "-5/7")])
def test_verify_oracle_negative_point_with_or_without_equals(capsys, q, t):
    argv = ["verify", "--oracle", "--lambda", "2,1,0"]
    joined = run_cli(capsys, argv + [f"--q={q}", f"--t={t}"])
    spaced = run_cli(capsys, argv + ["--q", q, "--t", t])
    assert spaced == joined
    code, out, _ = spaced
    assert code == 0
    report = json.loads(out)
    assert any(c["name"] == f"oracle@({q},{t})" for c in report["checks"])


def test_verify_from_json_file(capsys, tmp_path):
    _, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "2,1", "-n", "3", "--formula", "compressed",
         "--out", "json"],
    )
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out2, _ = run_cli(
        capsys, ["verify", "--oracle", "--seed", "3", "--in", str(path)]
    )
    assert code == 0
    assert json.loads(out2)["ok"] is True


def test_verify_corrupted_expansion_exits_1(capsys, tmp_path):
    _, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "2,0", "-n", "2", "--formula", "compressed",
         "--out", "json"],
    )
    obj = json.loads(out)
    for mono in obj["monomials"]:
        if mono["exp"] == [1, 1]:
            mono["num"][0][2] += 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out2, _ = run_cli(
        capsys, ["verify", "--oracle", "--seed", "5", "--in", str(path)]
    )
    assert code == 1
    assert json.loads(out2)["ok"] is False


def test_verify_map_properties(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--lambda", "3,2,1,0", "-n", "4", "--map-properties"],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("shape, pairs", [("3,2,1,0", 384), ("16,0", 500)])
@pytest.mark.parametrize("fault", ["content", "parity", "folded-weight"])
def test_map_properties_fails_a_corrupted_walk_term(capsys, monkeypatch, shape,
                                                    pairs, fault):
    # (3,2,1,0) has 384 pairs, all checked; (16,0) has 65,536, so 500 are sampled
    real_term, real_weight = ramyip._walk_term_raw, weyl.permute_weight
    calls = []

    def corrupted_term(w, folds, chain, *args, **kwargs):
        num, den, content = real_term(w, folds, chain, *args, **kwargs)
        calls.append(w)
        if len(calls) == 10:
            if fault == "parity":
                raise InternalInvariantError("odd t-exponent numerator")
            if fault == "content":
                content = content[:-1] + (content[-1] + 1,)
        return num, den, content

    def corrupted_weight(w, mu):
        weight = real_weight(w, mu)
        if len(calls) == 10 and fault == "folded-weight":
            weight = weight[:-1] + (weight[-1] + 1,)
        return weight

    monkeypatch.setattr(ramyip, "_walk_term_raw", corrupted_term)
    monkeypatch.setattr(weyl, "permute_weight", corrupted_weight)
    code, out, _ = run_cli(capsys, ["verify", "--lambda", shape, "--map-properties"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    if fault == "parity":
        # the first odd parity ends the pair checks, in either branch
        assert checks["fold-parity"] == {"name": "fold-parity", "ok": False,
                                         "detail": "9 pairs"}
        assert len(calls) == 10
    else:
        assert checks["fold-parity"]["ok"]
        assert checks["content-identity"] == {
            "name": "content-identity", "ok": False, "detail": f"{pairs} pairs"}


def test_table_row_one(capsys):
    code, out, _ = run_cli(capsys, ["table", "--rows", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["(3,", "2,", "1,", "0)", "4", "288", "1.3", "3.0"]


def test_output_deterministic_across_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        _, out, _ = run_cli(
            capsys,
            ["compute", "--lambda", "3,2,1,0", "-n", "4", "--formula",
             "ram-yip", "--out", "json", "--jobs", jobs],
        )
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for jobs in ("1", "2"):
        _, out, _ = run_cli(capsys, ["count", "--lambda", "5,3,1,0", "-n", "4",
                                     "--jobs", jobs])
        outs.append(out)
    assert outs[0] == outs[1] == "10368\n"


def test_jobs_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MACDONALD_JOBS", "2")
    code, out, _ = run_cli(capsys, ["count", "--lambda", "3,2,1,0", "-n", "4"])
    assert code == 0 and out == "288\n"


def test_bench_runs(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--lambda", "2,1,0", "-n", "3"])
    assert code == 0
    assert "build-chain" in out and "compressed" in out
    assert "  m = 1, folding pairs = 12\n" in out


def test_jobs_env_var_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MACDONALD_JOBS", "abc")
    code, out, err = run_cli(capsys, ["count", "--lambda", "3,2,1,0", "-n", "4"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "MACDONALD_JOBS" in err


def test_jobs_clamped_to_cpu_count_before_any_pool(capsys, monkeypatch):
    import macdonald.parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr(macdonald.parallel, "get_context", no_pool)
    code, out, _ = run_cli(
        capsys, ["count", "--lambda", "3,2,1,0", "-n", "4", "--jobs", "8"]
    )
    assert code == 0 and out == "288\n"
    code, _, err = run_cli(
        capsys,
        ["compute", "--lambda", "2,1,0", "--formula", "compressed",
         "--verbose", "--jobs", "8"],
    )
    assert code == 0 and "with 1 worker(s)" in err


def test_table_with_two_jobs_counts_without_a_pool(capsys, monkeypatch):
    import macdonald.parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr(macdonald.parallel, "get_context", no_pool)
    code, out, _ = run_cli(capsys, ["table", "--jobs", "2"])
    assert code == 0 and "552,960" in out


@pytest.mark.parametrize("formula, worker", [("ram-yip", "_ry_worker"),
                                             ("compressed", "_fill_worker")])
def test_one_job_runs_one_shard_in_process(capsys, monkeypatch, formula, worker):
    import os

    import macdonald.parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    real = getattr(macdonald.parallel, worker)
    calls = []

    def counted(args):
        calls.append(os.getpid())
        return real(args)

    argv = ["compute", "--lambda", "3,2,1,0", "--formula", formula, "--out", "json"]
    _, two_jobs, _ = run_cli(capsys, argv + ["--jobs", "2"])
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr(macdonald.parallel, "get_context", no_pool)
    monkeypatch.setattr(macdonald.parallel, worker, counted)
    code, one_job, _ = run_cli(capsys, argv + ["--jobs", "1"])
    assert code == 0 and calls == [os.getpid()]
    assert one_job == two_jobs


@pytest.mark.parametrize("argv", [
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1/0", "--t", "1/2"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1/2", "--t", "x"],
    ["verify", "--per-class", "--oracle", "--lambda", "3,2,1,0", "--q", "1/2"],
    ["verify", "--per-class", "--oracle", "--lambda", "3,2,1,0", "--t", "1/2"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1e300", "--t", "1/2"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1/2", "--t", "0.5"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "nan", "--t", "1/2"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1/00", "--t", "1/2"],
    ["verify", "--oracle", "--lambda", "2,1,0", "--q", "1/2", "--t", "9" * 41],
    ["verify", "--per-class", "--lambda", "2,1,0", "--q", "1/0"],
    ["verify", "--per-class", "--lambda", "2,1,0", "--t", "1/2"],
    ["verify", "--lambda", "2,1,0", "--q", "1/2", "--t", "1/3"],
    ["verify", "--per-class", "--lambda", "2,1,0", "--seed", "3"],
    ["verify", "--map-properties", "--lambda", "2,1,0", "--seed", "0"],
])
def test_verify_bad_oracle_point_exits_2_before_any_work(capsys, monkeypatch, argv):
    import macdonald.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the point was checked")

    monkeypatch.setattr(cli, "verify_all_classes", no_work)
    monkeypatch.setattr(cli, "_compute", no_work)
    monkeypatch.setattr(cli, "_map_property_checks", no_work)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_exponent_notation_is_refused_before_any_integer_is_built(capsys):
    # Fraction("1e10000000") alone takes seconds; the refusal must not build it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["verify", "--oracle", "--lambda", "2,1,0",
                                      "--q", "1e10000000", "--t", "1/2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: --q")


def test_verify_oracle_seed_defaults_to_zero(capsys):
    argv = ["verify", "--oracle", "--lambda", "3,2,1,0"]
    code, default, _ = run_cli(capsys, argv)
    assert code == 0
    assert run_cli(capsys, argv + ["--seed", "0"])[1] == default
    assert run_cli(capsys, argv + ["--seed", "1"])[1] != default


@pytest.mark.parametrize("formula, parts, module, name", [
    ("compressed", (4, 3, 2, 1, 0), fillings, "_term_raw"),
    ("ram-yip", (5, 3, 1, 0), ramyip, "_walk_term_raw"),
])
def test_every_term_is_built_and_added_once(capsys, monkeypatch, formula, parts,
                                            module, name):
    # the benchmark's traced counts read these entry points
    if formula == "compressed":
        terms = fillings.count_nonattacking(Partition(parts), len(parts))
    else:
        terms = 49_152
    calls = Counter()

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(module, name, counted("term", getattr(module, name)))
    monkeypatch.setattr(ContentAccumulator, "add",
                        counted("add", ContentAccumulator.add))
    code, out, _ = run_cli(capsys, ["compute", "--lambda", ",".join(map(str, parts)),
                                    "--formula", formula, "--jobs", "1", "--out", "json"])
    assert code == 0 and json.loads(out)["lambda"] == list(parts)
    assert calls == {"term": terms, "add": terms}


@pytest.mark.parametrize("rows", ["9", "1,5", "0", "x"])
def test_table_unknown_rows_exit_2(capsys, rows):
    code, out, err = run_cli(capsys, ["table", "--rows", rows])
    assert code == 2 and out == ""
    assert err.startswith("error: --rows") and err.count("\n") == 1


def test_verify_input_without_check_flag_compares_expansion(capsys, tmp_path):
    _, out, _ = run_cli(
        capsys,
        ["compute", "--lambda", "2,1,0", "--formula", "compressed",
         "--out", "json"],
    )
    good = tmp_path / "good.json"
    good.write_text(out)
    code, out2, _ = run_cli(capsys, ["verify", "--in", str(good)])
    assert code == 0
    assert json.loads(out2)["checks"][0]["name"] == "input-matches"
    obj = json.loads(out)
    assert obj["monomials"][0]["exp"] == [2, 1, 0]
    assert obj["monomials"][0]["num"] == [[0, 0, 1]]
    obj["monomials"][0]["num"][0][2] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out3, _ = run_cli(capsys, ["verify", "--in", str(bad)])
    assert code == 1
    report = json.loads(out3)
    assert report["ok"] is False
    assert report["checks"][0]["detail"].startswith("first difference at x[2,1,0]")


def test_bench_reports_skipped_ram_yip(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--lambda", "4,3,2,1,0", "--jobs", "1"])
    assert code == 0
    assert "ram-yip: skipped (122880 pairs > 65536)" in out
    assert "compressed" in out


def _verify_input_text(capsys, tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    return run_cli(capsys, ["verify", "--in", str(path)])


def test_verify_input_that_is_not_an_object_exits_2(capsys, tmp_path):
    code, out, err = _verify_input_text(capsys, tmp_path, "[1,2]")
    assert code == 2 and out == ""
    assert err.startswith("error: --in:") and err.count("\n") == 1


def test_verify_input_with_malformed_monomial_exits_2(capsys, tmp_path):
    good = {"exp": [1, 0], "num": [[0, 0, 1]], "den": []}
    for bad in ({"num": [[0, 0, "x"]]}, {"num": [[0, 0, True]]},
                {"exp": [2, -1]}, {"exp": [1]}, {"den": [[1, 1, 1]]},
                {"den": [[1, 0.5]]}):
        doc = {"lambda": [1, 0], "n": 2, "monomials": [{**good, **bad}]}
        code, out, err = _verify_input_text(capsys, tmp_path, json.dumps(doc))
        assert code == 2 and out == "", bad
        assert err.startswith("error: --in:") and err.count("\n") == 1, bad


def test_verify_input_without_monomials_exits_2(capsys, tmp_path):
    code, out, err = _verify_input_text(
        capsys, tmp_path, json.dumps({"lambda": [1, 0], "n": 2})
    )
    assert code == 2 and out == ""
    assert err == "error: --in: missing key 'monomials'\n"


def test_verify_input_nested_too_deeply_exits_2(capsys, tmp_path):
    code, _, err = _verify_input_text(capsys, tmp_path, "[" * 100000 + "]" * 100000)
    assert code == 2 and err.count("\n") == 1


# Integers stay small: a valid document computes P_lambda for its lambda, and
# exponents feed exact arithmetic, so large values only make examples slow.
_ints = st.integers(-2, 4)
_json = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_monomial = st.fixed_dictionaries({}, optional={
    "exp": st.lists(_ints, max_size=4) | _json,
    "num": st.lists(st.lists(_ints, min_size=3, max_size=3) | _json, max_size=2)
    | _json,
    "den": st.lists(st.lists(_ints, min_size=2, max_size=2) | _json, max_size=2)
    | _json,
})
_document = st.fixed_dictionaries({}, optional={
    "lambda": st.sampled_from([[1, 0], [2, 0], [2, 1, 0], [1, 1, 0], [0], []])
    | _json,
    "n": _ints | _json,
    "monomials": st.lists(_monomial | _json, max_size=3) | _json,
})


def _well_formed(lam):
    n = len(lam)
    monomial = st.fixed_dictionaries({
        "exp": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        "num": st.lists(st.lists(_ints, min_size=3, max_size=3), max_size=2),
        "den": st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                        max_size=2),
    })
    return st.fixed_dictionaries(
        {"lambda": st.just(lam), "n": st.just(n),
         "monomials": st.lists(monomial, max_size=3)}
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_json | _document
       | st.sampled_from([[1, 0], [2, 0], [2, 1, 0]]).flatmap(_well_formed))
def test_verify_input_fuzz_never_escapes_main(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert json.loads(out.getvalue())["ok"] is (code == 0)
