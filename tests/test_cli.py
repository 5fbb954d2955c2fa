import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import royden as R
from royden.cli import build_parser, main, parse_generator_spec, parse_levels, UsageError
from royden.schemas import available, schema_for


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for(payload["command"]))
    return payload


@pytest.fixture
def graph_file(tmp_path):
    s = R.generate_lattice(1, 3)
    path = tmp_path / "z1r3.graph"
    path.write_text(R.serialize_graph_file(s))
    return str(path)


@pytest.fixture
def fn_file(tmp_path, graph_file):
    s = R.parse_graph_file(open(graph_file).read())
    f = R.solve_dirichlet(s, {-3: 0.0, 3: 1.0})
    path = tmp_path / "sol.fn"
    path.write_text(R.serialize_vertex_fn(f))
    return str(path)


def test_spec_parsing_helpers():
    gen, level = parse_generator_spec("lattice:d=2,r=4")
    assert gen.family == "lattice" and level == 4
    gen, level = parse_generator_spec("tree:k=3,depth=5,c=0.5")
    assert gen.family.startswith("tree") and level == 5
    assert parse_levels("8:64") == (8, 16, 32, 64)
    assert parse_levels("4:10:2") == (4, 6, 8, 10)
    assert parse_levels("3,5,9") == (3, 5, 9)
    with pytest.raises(UsageError):
        parse_generator_spec("torus:n=3")
    with pytest.raises(UsageError):
        parse_generator_spec("lattice:d=2,bogus=1")


def test_validate_and_gen_round_trip(capsys, graph_file):
    payload = run_json(capsys, "validate", "--graph", graph_file)
    assert payload["ok"] and payload["n"] == 7
    code, text = run(capsys, "gen", "--generator", "lattice:d=1,r=3")
    assert code == 0
    assert R.sections_equal(
        R.parse_graph_file(text), R.parse_graph_file(open(graph_file).read())
    )


def test_cap_command(capsys):
    payload = run_json(capsys, "cap", "--generator", "lattice:d=1,r=4", "--vertex", "0")
    assert payload["cap"] == pytest.approx(0.5, abs=1e-10)
    assert payload["level"] == 4


def test_cap_profile_json_and_csv(capsys):
    payload = run_json(
        capsys, "cap-profile", "--generator", "lattice:d=1", "--levels", "2:16"
    )
    assert payload["levels"] == [2, 4, 8, 16]
    np.testing.assert_allclose(payload["values"], [1.0, 0.5, 0.25, 0.125], atol=1e-10)
    code, out = run(
        capsys, "cap-profile", "--generator", "lattice:d=1", "--levels", "2:16",
        "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,cap,plateau_residual,decay_residual"
    assert len(lines) == 5


def test_classify_command(capsys):
    payload = run_json(capsys, "classify", "--generator", "lattice:d=2")
    assert payload["verdict"] == "recurrent"
    assert payload["profile"]["model"] == "log-decay"


def test_gamma_commands(capsys, graph_file):
    # wired resistance 0<->1: direct 1 Ohm in parallel with 3+2 through ground
    payload = run_json(capsys, "gamma", "--graph", graph_file, "--x", "0", "--y", "1")
    assert payload["value"] == pytest.approx(np.sqrt(5 / 6), abs=1e-9)
    payload = run_json(
        capsys, "gamma-o", "--graph", graph_file, "--pin", "0", "--x", "-1", "--y", "1"
    )
    assert payload["value"] > 0
    payload = run_json(
        capsys, "resistance", "--graph", graph_file, "--x", "-1", "--y", "1"
    )
    assert payload["value"] == pytest.approx(2.0, abs=1e-10)


def test_ut_report_command(capsys):
    payload = run_json(capsys, "ut-report", "--generator", "tree:k=3")
    assert payload["verdict"] == "certified-UT"
    assert payload["evidence"] == "spectral-gap"


@pytest.mark.parametrize("k, gap_levels", [(3, [10, 12, 14]), (4, [8, 10, 12])])
def test_ut_report_tree_gap_levels_fit_the_vertex_cap(capsys, k, gap_levels):
    # depth 14 of the 4-regular tree has about 9.6 million vertices, over the cap
    payload = run_json(capsys, "ut-report", "--generator", f"tree:k={k}")
    assert payload["details"]["gap_levels"] == gap_levels
    assert (payload["verdict"], payload["evidence"]) == ("certified-UT", "spectral-gap")


def test_dirichlet_decompose_maxcheck(capsys, graph_file, fn_file, tmp_path):
    bd = tmp_path / "bd.fn"
    bd.write_text("0 0.0\n6 1.0\n")
    payload = run_json(capsys, "dirichlet", "--graph", graph_file, "--boundary", str(bd))
    np.testing.assert_allclose(payload["values"], np.arange(7) / 6, atol=1e-10)
    payload = run_json(capsys, "decompose", "--graph", graph_file, "--fn", fn_file)
    assert payload["energy_f0"] == pytest.approx(0.0, abs=1e-12)
    assert payload["energy_fh"] == pytest.approx(payload["energy"], abs=1e-12)
    payload = run_json(capsys, "maxcheck", "--graph", graph_file, "--fn", fn_file)
    assert payload["passed"]


def test_truncate_and_heat(capsys, graph_file, fn_file):
    payload = run_json(
        capsys, "truncate-harmonic", "--graph", graph_file, "--fn", fn_file,
        "--bound", "0.5",
    )
    assert payload["fh_nonconstant"]
    assert payload["energy_truncated"] <= payload["energy_input"] + 1e-12
    payload = run_json(
        capsys, "heat", "--graph", graph_file, "--t", "0.25", "--fn", fn_file,
        "--check", "--seed", "5",
    )
    assert payload["ultra"]["passed"]
    code, _ = run(
        capsys, "heat", "--graph", graph_file, "--t", "0.25", "--fn", fn_file, "--check"
    )
    assert code == 2  # --check without --seed


def test_spectrum_bounds_trace_gapcheck(capsys, graph_file):
    payload = run_json(capsys, "spectrum", "--graph", graph_file)
    assert len(payload["eigenvalues"]) == 5
    code, out = run(capsys, "bounds", "--graph", graph_file, "--output", "csv")
    assert code == 0 and out.splitlines()[0] == "n,bound,eigenvalue,slack"
    payload = run_json(capsys, "bounds", "--graph", graph_file)
    assert payload["passed"]
    payload = run_json(capsys, "trace", "--graph", graph_file, "--times", "0.5,1")
    assert len(payload["points"]) == 2
    payload = run_json(capsys, "gapcheck", "--graph", graph_file, "--seed", "3")
    assert payload["verified"]


def run_clean(capsys, *argv):
    """main(argv) with every warning raised as an error; stderr must stay empty."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--graph", "{huge}"],
        ["spectrum", "--generator", "lattice:d=2,r=2,c=1e308"],
    ],
    ids=["graph-file", "generator"],
)
def test_spectra_with_entries_near_the_float_range_exit_0(capsys, tmp_path, argv):
    huge = tmp_path / "huge.graph"
    huge.write_text("V 2\nC 1 1e308\n")
    code, out = run_clean(capsys, *(a.format(huge=huge) for a in argv))
    assert code == 0, out
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("spectrum"))
    assert max(payload["eigenvalues"]) == pytest.approx(1e308)


def test_spectrum_whose_scaled_pencil_overflows_exits_1(capsys, tmp_path):
    # a mass of 1e-300 under a weight of 1e300: lambda = 1e600
    path = tmp_path / "tiny-mass.graph"
    path.write_text("V 2\nE 0 1 1e300\nM 0 1e-300\nD 1\n")
    code, out = run_clean(capsys, "spectrum", "--graph", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "InvalidParameter"


def test_spectrum_lanczos_k20_on_a_tree_matches_dense(capsys):
    # ARPACK started from a constant vector missed multiplicities here and
    # failed outright at k = 20
    spec = "tree:k=3,depth=10"
    code, out = run_clean(capsys, "spectrum", "--generator", spec, "--k", "20")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["method"] == "lanczos"
    dense = run_json(capsys, "spectrum", "--generator", spec)["eigenvalues"]
    np.testing.assert_allclose(payload["eigenvalues"], dense[:20], rtol=0, atol=1e-10 * dense[-1])


def test_ut_report_with_underflowing_cg_products_ends_typed(capsys):
    # c = 1e308 makes the preconditioned residual product underflow to 0
    code, out = run(capsys, "ut-report", "--generator", "lattice:d=2,c=1e308")
    payload = json.loads(out)
    if code == 0:
        jsonschema.validate(payload, schema_for("ut-report"))
        assert "NaN" not in out
    else:
        assert code == 1
        jsonschema.validate(payload, schema_for("error"))
        assert issubclass(getattr(R.errors, payload["error"]), R.RoydenError)


def test_classify_with_huge_capacities_keeps_stderr_empty(capsys):
    code, out = run_clean(capsys, "classify", "--generator", "tree:k=3,c0=1e308")
    assert code == 0, out
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("classify"))
    assert payload["verdict"] == "transient"
    assert payload["profile"]["limit"] == pytest.approx(1e308)


@pytest.mark.parametrize("spec", ["lattice:d=2,c=1e308", "tree:k=3,c=1e306"])
def test_orbit_killing_past_the_float_range_keeps_stderr_empty(capsys, spec):
    # c summed over an orbit overflows, so the levels are solved in full
    code, out = run_clean(capsys, "classify", "--generator", spec)
    assert code == 0, out
    assert json.loads(out)["verdict"] == "transient"
    # the shift-invert Lanczos run of the gap levels sees the operator
    # scaled near 1, so its iterate no longer underflows to zero
    code, out = run_clean(capsys, "ut-report", "--generator", spec)
    assert code == 0, out
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("ut-report"))
    assert payload["verdict"] == "certified-UT"
    code, out = run_clean(capsys, "hbempty", "--generator", spec)
    assert code == 0, out
    assert json.loads(out)["c_partial_sums"][-1] is None


def test_hbempty_and_liouville(capsys):
    payload = run_json(capsys, "hbempty", "--generator", "lattice:d=2,c0=1")
    assert payload["status"] == "empty"
    payload = run_json(
        capsys, "liouville", "--generator", "tree:k=3", "--levels", "3,4,5",
        "--seed", "2", "--ut-window", "2",
    )
    assert payload["trend"] == "non-liouville-trend"
    assert "not one-point" in payload["note"]


def test_walk_command(capsys, graph_file):
    payload = run_json(
        capsys, "walk", "--graph", graph_file, "--vertex", "0", "--trials", "20000",
        "--seed", "4",
    )
    assert payload["cap_estimate"] == pytest.approx(2.0 / 3.0, abs=0.02)
    assert payload["pi"] == 2.0


def test_error_record_and_exit_codes(capsys, graph_file):
    code, out = run(capsys, "cap", "--graph", graph_file, "--vertex", "99")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("error"))
    assert payload["error"] == "UnknownVertex"
    code, _ = run(capsys, "cap", "--generator", "lattice:d=0,r=2", "--vertex", "0")
    assert code == 2
    code, _ = run(capsys, "cap", "--vertex", "0")
    assert code == 2
    code, _ = run(capsys, "validate", "--graph", graph_file, "--generator", "lattice:d=1,r=2")
    assert code == 2
    # csv requested for a command without tabular output
    code, _ = run(capsys, "validate", "--graph", graph_file, "--output", "csv")
    assert code == 2


@pytest.mark.parametrize("levels", ["0:8", "-1:8"])
def test_doubling_levels_below_one_are_usage_errors(capsys, levels):
    code, _ = run(capsys, "cap-profile", "--generator", "lattice:d=1", f"--levels={levels}")
    assert code == 2


def test_trace_prints_heat_trace_at_every_time_from_one_spectrum(capsys, monkeypatch, graph_file):
    import royden.cli as cli

    calls = []
    real = cli.spectral.spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.spectral, "spectrum", counted)
    times = [0.0, 0.01, 0.5, 1.0, 10.0, 1e3]
    payload = run_json(capsys, "trace", "--graph", graph_file, "--times", ",".join(map(str, times)))
    assert len(calls) == 1
    s = R.parse_graph_file(open(graph_file).read())
    assert payload["points"] == [{"t": t, "trace": R.heat_trace(s, t)} for t in times]


def test_heat_check_eigendecomposes_once(capsys, monkeypatch, graph_file, fn_file):
    import royden.cli as cli

    calls = []
    real = cli.spectral.spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.spectral, "spectrum", counted)
    code, out = run(
        capsys, "heat", "--graph", graph_file, "--t", "0.25", "--fn", fn_file,
        "--check", "--seed", "5",
    )
    assert code == 0, out
    assert len(calls) == 1
    # the same values, bit for bit, as heating and checking with a spectrum each
    s = R.parse_graph_file(open(graph_file).read())
    f = R.parse_vertex_fn(open(fn_file).read(), s)
    rep = R.ultracontractivity_check(s, 0.25, seed=5)
    want = {
        "command": "heat",
        "t": 0.25,
        "values": list(R.heat_apply(s, 0.25, f).values),
        "ultra": {
            "C": rep.C, "prefactor": rep.prefactor, "max_ratio": rep.max_ratio,
            "passed": rep.passed, "trials": rep.trials, "seed": rep.seed,
        },
    }
    assert json.loads(out) == want


@pytest.mark.parametrize(
    "times", [["--times", "-1,0.5"], ["--times=-1,0.5"], ["--times", "-1"]],
    ids=["separate-grid", "joined-grid", "separate-single"],
)
def test_negative_times_end_as_negative_time_however_spelled(capsys, graph_file, times):
    code, out = run(capsys, "trace", "--graph", graph_file, *times)
    assert code == 1
    assert json.loads(out)["error"] == "NegativeTime"


def test_a_label_with_a_leading_minus_is_a_value(capsys):
    payload = run_json(capsys, "cap", "--generator", "lattice:d=3,r=2", "--vertex", "-1,0,0")
    want = R.equilibrium_potential(R.generate_lattice(3, 2), (-1, 0, 0)).cap
    assert payload["cap"] == want


@pytest.mark.parametrize(
    "option", [["--trials", "7"], ["--seed", "3"], ["--tol-solver", "1e-3"]],
    ids=["trials", "seed", "tol-solver"],
)
def test_heat_check_options_need_check(capsys, graph_file, fn_file, option):
    base = ["heat", "--graph", graph_file, "--t", "0.5", "--fn", fn_file]
    code, out = run(capsys, *base, *option)
    assert code == 2 and out == ""
    seed = [] if option[0] == "--seed" else ["--seed", "3"]
    payload = run_json(capsys, *base, "--check", *seed, *option)
    assert payload["ultra"]["passed"]


@pytest.mark.parametrize(
    "extra", [["--tol", "0.5"], ["--ut-window", "0"], ["--ut-window", "0", "--tol", "0.5"]],
    ids=["tol-without-window", "window-0", "window-0-tol"],
)
def test_liouville_tol_needs_a_ut_window(capsys, extra):
    base = ["liouville", "--generator", "tree:k=3", "--levels", "3,4,5", "--seed", "2"]
    code, out = run(capsys, *base, *extra)
    assert code == 2 and out == ""


def test_liouville_tol_reaches_the_ut_report(capsys, monkeypatch):
    import royden.cli as cli

    seen = []
    real = cli.potential.uniform_transience_report

    def record(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.potential, "uniform_transience_report", record)
    base = ["liouville", "--generator", "lattice:d=1", "--levels", "2,3,4", "--seed", "1",
            "--ut-window", "1"]
    run_json(capsys, *base)
    run_json(capsys, *base, "--tol", "0.5")
    assert seen == [None, 0.5]  # without --tol the report's own default applies


def test_spectrum_lanczos_on_ungrounded_section_exits_1(capsys, tmp_path):
    s = R.build_section(600, [(i, i + 1, 1.0) for i in range(599)])
    path = tmp_path / "path600.graph"
    path.write_text(R.serialize_graph_file(s))
    code, out = run(capsys, "spectrum", "--graph", str(path), "--k", "1")
    assert code == 1
    assert json.loads(out)["error"] == "UngroundedComponent"


def test_vertex_cap_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("ROYDEN_VERTEX_CAP", "10")
    code, out = run(capsys, "cap", "--generator", "lattice:d=2,r=4", "--vertex", "0,0")
    assert code == 1
    assert json.loads(out)["error"] == "SizeOverflow"


def test_schema_inventory_covers_commands():
    names = set(available())
    for cmd in (
        "validate", "cap", "cap-profile", "classify", "gamma", "gamma-o",
        "resistance", "ut-report", "dirichlet", "decompose", "maxcheck",
        "hbempty", "truncate-harmonic", "liouville", "spectrum", "bounds",
        "heat", "trace", "gapcheck", "walk", "error",
    ):
        assert cmd in names
        schema_for(cmd)  # parses


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--graph", "{graph}", "--times", "nan"],
        ["trace", "--graph", "{graph}", "--times", "0.5,inf"],
        ["bounds", "--graph", "{graph}", "--tol-solver", "-1"],
        ["bounds", "--graph", "{graph}", "--tol-solver", "0"],
        ["bounds", "--graph", "{graph}", "--tol-solver", "nan"],
        ["classify", "--generator", "lattice:d=1", "--tol", "nan"],
    ],
    ids=["times-nan", "times-inf", "tol-solver-negative", "tol-solver-zero", "tol-solver-nan", "tol-nan"],
)
def test_non_finite_or_nonpositive_numbers_are_usage_errors(capsys, graph_file, argv):
    argv = [tok.format(graph=graph_file) for tok in argv]
    # the command takes the option: only the bad value (the last token) is refused
    build_parser().parse_args(argv[:-1] + ["1"])
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


def test_non_finite_time_and_bound_are_usage_errors(capsys, graph_file, fn_file):
    for value in ("nan", "inf"):
        code, _ = run(capsys, "heat", "--graph", graph_file, "--t", value, "--fn", fn_file)
        assert code == 2
        code, _ = run(
            capsys, "truncate-harmonic", "--graph", graph_file, "--fn", fn_file, "--bound", value
        )
        assert code == 2


@pytest.mark.parametrize("spec", ["lattice:d=2.5,r=3", "lattice:d=2,r=3.0", "tree:k=3.5,depth=3"])
def test_non_integer_generator_keys_are_usage_errors(capsys, spec):
    code, out = run(capsys, "validate", "--generator", spec)
    assert code == 2 and out == ""


def test_non_finite_graph_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nan.graph"
    path.write_text("V 2\nE 0 1 1.0\nC 0 nan\nD 1\n")
    code, out = run(capsys, "cap", "--graph", str(path), "--vertex", "0")
    assert code == 1
    assert json.loads(out)["error"] == "GraphSyntaxError"


@pytest.mark.parametrize("command", ["bounds", "validate"])
def test_closed_stdout_exits_1_without_traceback(command):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "royden.cli", command, "--generator", "tree:k=3,depth=3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv, entry_points",
    [
        (["cap-profile", "--generator", "lattice:d=1", "--levels", "2,4,8"],
         ["potential.capacity_profile"]),
        (["classify", "--generator", "lattice:d=1", "--levels", "2,4,8"],
         ["potential.classify_transience"]),
        (["ut-report", "--generator", "lattice:d=1", "--levels", "2,4,8", "--gap-levels", "2,3,4"],
         ["potential.uniform_transience_report"]),
        (["hbempty", "--generator", "lattice:d=1", "--levels", "2,4,8"],
         ["harmonic.harmonic_boundary_empty"]),
        (["liouville", "--generator", "lattice:d=1", "--levels", "2,3,4", "--seed", "1",
          "--ut-window", "1"],
         ["harmonic.liouville_probe", "potential.uniform_transience_report"]),
        (["bounds", "--generator", "lattice:d=1,r=3"],
         ["spectral.eigenvalue_bounds_check"]),
        (["heat", "--graph", "{graph}", "--t", "0.5", "--fn", "{fn}", "--check", "--seed", "1"],
         ["spectral.ultracontractivity_check"]),
    ],
    ids=["cap-profile", "classify", "ut-report", "hbempty", "liouville", "bounds", "heat-check"],
)
def test_tol_solver_reaches_every_solver_call(
    capsys, monkeypatch, graph_file, fn_file, argv, entry_points
):
    import royden.cli as cli

    seen = {}
    for name in entry_points:
        module_name, attr = name.split(".")
        module = getattr(cli, module_name)

        def record(*args, _real=getattr(module, attr), _name=name, **kwargs):
            seen[_name] = kwargs.get("rel_tol")
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, record)
    argv = [tok.format(graph=graph_file, fn=fn_file) for tok in argv]
    code, out = run(capsys, *argv, "--tol-solver", "1e-7")
    assert code == 0, out
    assert seen == {name: 1e-7 for name in entry_points}


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_are_usage_errors(capsys, threads):
    # argparse refuses the value before any command runs, so no thread starts
    code, out = run(
        capsys, "walk", "--generator", "lattice:d=1,r=3", "--vertex", "0",
        "--trials", "10", "--seed", "1", "--threads", threads,
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cap-profile", "--generator", "lattice:d=1", "--levels", "2,4,8"],
        ["classify", "--generator", "lattice:d=1", "--levels", "2,4,8"],
        ["ut-report", "--generator", "lattice:d=1"],
        ["hbempty", "--generator", "lattice:d=1"],
        ["liouville", "--generator", "lattice:d=1", "--levels", "2,3,4", "--seed", "1"],
        ["bounds", "--generator", "lattice:d=1,r=3"],
    ],
    ids=lambda argv: argv[0],
)
def test_threads_is_a_walk_option_only(capsys, argv):
    code, out = run(capsys, *argv, "--threads", "2")
    assert code == 2 and out == ""


def test_walk_threads_leave_stdout_unchanged(capsys):
    # more trials than one walker chunk, so two threads share the work
    argv = ["walk", "--generator", "lattice:d=3,r=3", "--vertex", "0,0,0",
            "--trials", "70000", "--seed", "5"]
    one = run(capsys, *argv, "--threads", "1")
    two = run(capsys, *argv, "--threads", "2")
    assert one[0] == 0 and two == one


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--generator", "tree:k=3,depth=50000"],
        ["validate", "--generator", "tree:k=3,depth=400000"],
        ["validate", "--generator", "lattice:d=10000,r=1"],
        ["validate", "--generator", "lattice:d=100000000,r=1"],
        ["cap-profile", "--generator", "lattice:d=2", "--levels", "1:1000000000000:1"],
        ["cap-profile", "--generator", "lattice:d=2", "--levels", "1:1000000000000"],
        ["classify", "--generator", "lattice:d=2", "--levels", "3,5,1000000000000"],
        ["ut-report", "--generator", "tree:k=3", "--gap-levels", "10:1000000000000:2"],
    ],
    ids=["tree-depth-50000", "tree-depth-400000", "lattice-d-10000", "lattice-d-1e8",
         "levels-arithmetic", "levels-doubling", "levels-list", "gap-levels"],
)
def test_oversized_specs_exit_1_with_size_overflow(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    payload = json.loads(captured.out)
    jsonschema.validate(payload, schema_for("error"))
    assert payload["error"] == "SizeOverflow"


def test_level_lists_above_the_cap_are_refused_before_any_list():
    import tracemalloc

    tracemalloc.start()
    try:
        for spec in ("1:1000000000000:1", "1:1000000000000", "3,5,1000000000000", "1000000000000"):
            with pytest.raises(R.SizeOverflow):
                parse_levels(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # only the largest level counts, not the bound of the range
    cap = R.vertex_cap()
    assert parse_levels(f"1:{cap + 1}:{cap + 1}") == (1,)
    assert parse_levels(f"{cap}:{2 * cap - 1}") == (cap,)


# every subcommand with its required arguments besides the graph source
COMMAND_ARGS = {
    "validate": [],
    "gen": [],
    "cap": ["--vertex", "0"],
    "cap-profile": [],
    "classify": [],
    "gamma": ["--x", "0", "--y", "1"],
    "gamma-o": ["--x", "0", "--y", "1", "--pin", "0"],
    "resistance": ["--x", "0", "--y", "1"],
    "ut-report": [],
    "dirichlet": ["--boundary", "bd.fn"],
    "decompose": ["--fn", "f.fn"],
    "maxcheck": ["--fn", "f.fn"],
    "hbempty": [],
    "truncate-harmonic": ["--fn", "f.fn", "--bound", "0.5"],
    "liouville": ["--levels", "2,3,4", "--seed", "1"],
    "spectrum": [],
    "bounds": [],
    "heat": ["--t", "0.5", "--fn", "f.fn"],
    "trace": ["--times", "0.5"],
    "gapcheck": ["--seed", "1"],
    "walk": ["--vertex", "0", "--trials", "10", "--seed", "1"],
}
EXHAUSTION = ("cap-profile", "classify", "ut-report", "hbempty", "liouville")
TABULAR = ("cap-profile", "spectrum", "bounds", "trace")
SHARED_OPTIONS = {"--graph": "graph", "--generator": "generator", "--tol": "tol",
                  "--tol-solver": "tol_solver", "--output": "output"}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _reads(command: str, option: str) -> bool:
    """Whether the command's handler reads the option, from its source."""
    src = inspect.getsource(_subparsers()[command].get_default("handler"))
    return {
        "--graph": "need_section(" in src,
        "--generator": True,
        "--tol": re.search(r"args\.tol\b", src) is not None,
        "--tol-solver": "args.tol_solver" in src,
        "--output": command in TABULAR,
    }[option]


def test_shared_options_are_counted_per_command():
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(COMMAND_ARGS)
    pairs = [
        (name, opt) for name, p in subparsers.items() for opt in SHARED_OPTIONS
        if opt in p._option_string_actions
    ]
    assert len(pairs) == 59
    assert sorted(pairs) == sorted(
        (name, opt) for name in COMMAND_ARGS for opt in SHARED_OPTIONS if _reads(name, opt)
    )


@pytest.mark.parametrize("option", list(SHARED_OPTIONS))
@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_each_command_takes_only_the_options_it_reads(capsys, graph_file, command, option):
    spec = "lattice:d=1" if command in EXHAUSTION else "lattice:d=1,r=3"
    base = [command, *COMMAND_ARGS[command], "--generator", spec]
    value, parsed = {"--graph": (graph_file, graph_file), "--generator": (spec, spec),
                     "--tol": ("0.01", 0.01), "--tol-solver": ("1e-9", 1e-9),
                     "--output": ("csv", "csv")}[option]
    if option == "--generator":
        argv = base
    elif option == "--graph" and _reads(command, option):
        argv = [*base[:-2], option, value]  # a section command takes one source
    else:
        argv = [*base, option, value]
    if _reads(command, option):
        assert vars(build_parser().parse_args(argv))[SHARED_OPTIONS[option]] == parsed
    else:
        build_parser().parse_args(base)  # only the option makes the argv wrong
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""


@pytest.mark.parametrize("spec", ["lattice:d=2,r=8", "tree:k=3,depth=4"])
@pytest.mark.parametrize("command", EXHAUSTION)
def test_a_level_in_an_exhaustion_spec_is_a_usage_error(capsys, command, spec):
    code = main([command, *COMMAND_ARGS[command], "--generator", spec])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "drop r=/depth=" in captured.err
