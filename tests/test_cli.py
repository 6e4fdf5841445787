"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

from hypolib.cli import (
    _ANGLE_CAP,
    _CIRCLE_GRID_CAP,
    _GRID_CAP,
    _LIST_CAP,
    _SCAN_CAP,
    _build_parser,
    main,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_kernel_command_writes_csv(tmp_path):
    out = tmp_path / "kernel.csv"
    rc = main(
        ["kernel", "--lambda", "2", "0", "--n", "1", "--z-r", "0.4",
         "--xi", "0.0,1.5", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["xi_angle", "value_re", "value_im"]
    assert len(rows) == 3
    float(rows[1][1])  # numeric cells parse back


def test_spherical_closed_form_cells(tmp_path):
    out = tmp_path / "sph.csv"
    assert main(["spherical", "--lambda", "2", "0", "--r-grid", "0.2:0.6:3",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][3] == "closed_form_re"
    assert rows[1][3] != ""
    out2 = tmp_path / "sph2.csv"
    assert main(["spherical", "--lambda", "2", "0", "--n", "1",
                 "--r-grid", "0.2:0.6:3", "--out", str(out2)]) == 0
    rows2 = read_csv(out2)
    # the closed form covers order 1 too, and agrees with the quadrature
    assert all(row[3] != "" and float(row[5]) <= 1e-9 * abs(float(row[1])) for row in rows2[1:])
    assert main(["spherical", "--lambda", "2", "0", "--n", "4",
                 "--r-grid", "0.2:0.6:3", "--out", str(out2)]) == 0
    assert read_csv(out2)[1][3] == ""  # past order 3 the closed form is left out
    out3 = tmp_path / "sph3.csv"
    assert main(["spherical", "--lambda", "2", "0", "--r-grid", "0.9996:0.99999:3",
                 "--out", str(out3)]) == 0
    rows3 = read_csv(out3)
    assert len(rows3) == 4
    assert all(row[3] != "" and float(row[5]) <= 1e-9 * float(row[1]) for row in rows3[1:])


def test_float_cells_use_full_precision(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--lambda", "-1", "0", "--count", "400",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3
    for cell in (rows[1][1], rows[2][1]):
        assert float(cell) == float(format(float(cell), ".17g"))
    assert rows[1][2] == ""  # first zero has no predecessor gap


def test_weak_star_pairings_stay_exact_near_the_circle(tmp_path):
    # the harmonic extension of cos pairs with e^{ik phi} as r/2 at k = +-1
    # and 0 elsewhere, however close to the circle
    out = tmp_path / "weak.csv"
    assert main(["convergence", "--lambda", "0", "0", "--preset", "cos", "--mode", "weak-star",
                 "--radii", "0.99999,0.999999", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["r", "mode", "pairing_re", "pairing_im"]
    assert len(rows) == 1 + 2 * 7
    for r, k, re, im in rows[1:]:
        want = float(r) / 2.0 if abs(int(k)) == 1 else 0.0
        assert abs(complex(float(re), float(im)) - want) <= 1e-12


def test_forbidden_ray_dirichlet_is_a_usage_error(capsys):
    rc = main(["dirichlet", "--lambda", "-1", "0", "--radii", "0.9"])
    assert rc == 2
    assert "forbidden" in capsys.readouterr().err


def test_missing_datum_is_a_usage_error(capsys):
    # no --preset and no --atoms: invalid usage, so exit 2 with one line
    rc = main(["convergence", "--lambda", "0", "0", "--mode", "uniform",
               "--radii", "0.9"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "invalid input: no boundary datum given: pass --preset and/or --atoms\n"
    )


@pytest.mark.parametrize("grid", [["--r-grid", "0.5:0.9:2"], []])
def test_overflowing_circle_mean_is_a_one_line_library_error(grid, capsys):
    # on the default grid a non-finite estimate must fail at once, not after
    # doubling the trapezoid to 2^20 nodes
    rc = main(["spherical", "--lambda", "1e6", "0", "--n", "1", *grid])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ResultOverflow: Phi_1 at lam = (1000000+0j)")
    assert "r = " in err


def test_cancelling_closed_form_is_a_one_line_library_error(capsys):
    # at lam = -1000 the series cancel: the closed-form cell would be off by
    # 5.5e-4 at r = 0.5
    assert main(["spherical", "--lambda", "-1000", "0", "--r-grid", "0.1:0.9:3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("CancellationLoss: Phi_0 at lam = (-1000+0j) lost more than six digits")


def test_unconverged_transform_names_its_inputs(capsys):
    assert main(["riquier", "--lambda", "-1e5", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("NonConvergence: order-0 transform at lam = (-100000+1j), z = ")


def test_the_boundary_law_next_to_the_forbidden_ray_is_tabulated(capsys):
    # Phi_0 at lam = -3000+i on the default R grid, where the row turns
    # ~ 76 radians per dyadic panel
    assert main(["asymptotics", "--lambda", "-3000", "1"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and len(out.splitlines()) > 2


def test_an_unconverged_maximal_probe_names_its_inputs(capsys):
    assert main(["maximal", "--lambda", "-3e4", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "lam = (-30000+1j)" in err and "r = " in err


def test_the_jump_densities_reach_as_far_as_the_row_modes(capsys):
    # their primitive, read off each panel's Legendre interpolant, doubles to
    # twice the cap of Phi_0 and the row's modes, which reaches as far
    assert main(["maximal", "--lambda", "-1e4", "1"]) == 0
    assert "sawtooth," in capsys.readouterr().out


@pytest.mark.parametrize("command", ["maximal", "fatou"])
def test_a_width_past_every_radius_admits_every_angle(command, capsys):
    assert main([command, "--lambda", "0", "0", "--width", "1e300"]) == 0
    assert "nan" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,start",
    [
        (["kernel", "--lambda", "2", "0", "--n", "400"],
         "ResultOverflow: the order-400 kernel coefficient at lam = (2+0j)"),
        (["spherical", "--lambda", "2", "0", "--n", "400"],
         "ResultOverflow: the order-400 kernel coefficient at lam = (2+0j)"),
        (["kernel", "--lambda", "1e300", "0", "--n", "0", "--z-r", "0.5", "--z-angle", "0",
          "--xi", "0"],
         "ResultOverflow: the order-0 kernel at lam = (1e+300+0j) does not fit in a double"
         " at z = (0.5+0j)"),
        (["asymptotics", "--lambda", "2", "0", "--n", "400"],
         "ResultOverflow: the order-400 boundary law prefactor at lam = (2+0j)"),
        (["asymptotics", "--lambda", "-0.25", "0", "--n", "90"],
         "ResultOverflow: the order-90 boundary law prefactor at lam = (-0.25+0j)"),
        (["fatou", "--lambda", "1e4", "0"],
         "ResultOverflow: order-0 transform at lam = (10000+0j), z = "),
        (["lacunary", "--N", "200"],
         "ResultOverflow: the circle exponent N! sqrt(N) at N = 200 does not fit in a double"),
        (["lacunary", "--N", "1-171"],
         "ResultOverflow: the circle exponent N! sqrt(N) at N = 171 does not fit in a double"),
    ],
    ids=["kernel-n400", "spherical-n400", "kernel-lam1e300", "asymptotics-n400",
         "asymptotics-critical-n90", "fatou-lam1e4", "lacunary-N200", "lacunary-N1-171"],
)
def test_kernel_overflow_is_a_one_line_library_error(argv, start, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(start)


def test_riquier_refuses_a_radius_inside_the_zero_free_radius(capsys):
    # like every other normalized value: the order-1 layer divides by Phi_1
    assert main(["riquier", "--lambda", "0", "1", "--r", "0.01"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "NormalizationUnavailable: |z| = 0.010000 below the zero-free radius 0.050000 for order 1\n"
    )


# the subcommands that take --lambda, at their defaults, against spectral
# values from the edges of the double range and of the regimes
_LAMBDA_COMMANDS = [
    ["kernel"], ["spherical"], ["asymptotics"], ["zeros"], ["dirichlet"], ["riquier"],
    ["convergence", "--preset", "cos"], ["maximal"], ["fatou"],
]
_EDGE_LAMBDAS = [
    ("nan", "0"), ("0", "inf"), ("1e308", "1e308"), ("1e6", "0"), ("1e3", "1e3"),
    ("-0.25", "0"), ("0", "0"), ("0", "1"), ("-100", "0"), ("1e-300", "0"),
]


@pytest.mark.parametrize("lam", _EDGE_LAMBDAS, ids=["+".join(lam) for lam in _EDGE_LAMBDAS])
@pytest.mark.parametrize("command", _LAMBDA_COMMANDS, ids=[argv[0] for argv in _LAMBDA_COMMANDS])
def test_every_lambda_gives_rows_or_a_typed_exit(command, lam, capsys):
    try:
        code = main([*command, "--lambda", *lam])
    except SystemExit as exc:  # argparse's usage exit, the one exception allowed out
        code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        cells = [cell.lower() for row in csv.reader(capsys.readouterr().out.splitlines()) for cell in row]
        assert not [cell for cell in cells if "nan" in cell or "inf" in cell]


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["spherical", "--lambda", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert main(["spherical", "--lambda", "nan", "0"]) == 2
    assert main(["lacunary", "--N", "0"]) == 2
    assert main(["lacunary", "--N", "-3"]) == 2
    # a negative radius would put the points on the antipodal circle
    assert main(["convergence", "--lambda", "0", "0", "--preset", "cos", "--radii", "-0.5"]) == 2
    assert main(["convergence", "--lambda", "0", "0", "--preset", "cos", "--mode", "weak-star",
                 "--radii", "-0.5"]) == 2
    assert main(["dirichlet", "--lambda", "0", "0", "--radii", "-0.9"]) == 2
    assert main(["riquier", "--lambda", "0", "0", "--r", "-0.5"]) == 2
    assert main(["examples", "--what", "growth", "--radii", "1.0"]) == 2
    assert main(["examples", "--what", "associate", "--radii", "0"]) == 2
    assert main(["examples", "--what", "growth", "--radii", "0.5,2"]) == 2
    for argv in (
        ["kernel", "--lambda", "2", "0", "--z-angle", "nan"],
        ["kernel", "--lambda", "2", "0", "--xi", "inf"],
        ["kernel", "--lambda", "2", "0", "--xi", "0,-inf"],
        ["spherical", "--lambda", "2", "0", "--r-grid", "0.1:nan:3"],
        ["zeros", "--lambda", "-1", "0", "--r-max", "inf"],
        ["maximal", "--lambda", "0", "0", "--width", "nan"],
        ["spherical", "--lambda", "2", "0", "--r-grid", f"0.1:0.9:{_GRID_CAP + 1}"],
        ["examples", "--r-grid", "0.1:0.9:0"],
        # every count flag refuses a value below its floor and one past its cap
        ["zeros", "--lambda", "-1", "0", "--count", "1"],
        ["zeros", "--lambda", "-1", "0", "--count", "0"],
        ["zeros", "--lambda", "-1", "0", "--count", str(_SCAN_CAP + 1)],
        ["dirichlet", "--lambda", "0", "0", "--angles", "0"],
        ["dirichlet", "--lambda", "0", "0", "--angles", str(_ANGLE_CAP + 1)],
        ["riquier", "--lambda", "0", "0", "--angles", "-3"],
        ["riquier", "--lambda", "0", "0", "--angles", str(_ANGLE_CAP + 1)],
        ["lacunary", "--grid-size", "0"],
        ["lacunary", "--grid-size", "-4"],
        ["lacunary", "--grid-size", str(_CIRCLE_GRID_CAP + 1)],
        ["lacunary", "--grid-size", "1e6"],
        # integer lists: values below 1, ranges checked on their endpoints and
        # length before they are expanded
        ["selftest", "--criteria", "0"],
        ["selftest", "--criteria", "1-1000000000"],
        ["selftest", "--criteria", "5-3"],
        ["selftest", "--criteria", "x"],
        ["lacunary", "--N", "1-1000000000"],
        ["lacunary", "--N", f"1-{_LIST_CAP + 1}"],
        ["lacunary", "--N", f"1-{_LIST_CAP},{_LIST_CAP + 1}-{2 * _LIST_CAP}"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv,bound", [
    (["convergence", "--lambda", "0", "0", "--preset", "cos", "--radii", "-0.5"], "[0, 1), got -0.5"),
    (["dirichlet", "--lambda", "0", "0", "--radii", "-0.9"], "[0, 1), got -0.9"),
    (["riquier", "--lambda", "0", "0", "--r", "1.5"], "[0, 1), got 1.5"),
    (["examples", "--what", "growth", "--radii", "1.0"], "(0, 1), got 1.0"),
    (["examples", "--what", "associate", "--radii", "0"], "(0, 1), got 0.0"),
    (["examples", "--what", "growth", "--radii", "0.5,2"], "(0, 1), got 2.0"),
])
def test_a_radius_out_of_range_is_named_with_its_interval(argv, bound, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: radius must lie in {bound}\n"


def test_negative_numbers_in_exponent_notation_are_values(capsys):
    assert main(["kernel", "--lambda", "-2.5e-1", "0"]) == 0
    exponent = capsys.readouterr().out
    assert main(["kernel", "--lambda", "-0.25", "0"]) == 0
    assert capsys.readouterr().out == exponent
    parser = _build_parser()
    for command in ("kernel", "spherical", "asymptotics", "zeros", "dirichlet", "riquier",
                    "convergence", "maximal", "fatou"):
        assert parser.parse_args([command, "--lambda", "-2.5e-1", "-1E-3"]).lam == [-0.25, -0.001]
    assert parser.parse_args(["kernel", "--lambda", "2", "-1e-3"]).lam == [2.0, -0.001]
    assert parser.parse_args(["fatou", "--lambda", "0", "0", "--zeta", "-1e-1"]).zeta == [-0.1]
    assert parser.parse_args(["kernel", "--lambda", "2", "0", "--xi", "-1e-3,2,-.5E+1"]).xi == [
        -0.001, 2.0, -5.0]
    assert parser.parse_args(["kernel", "--lambda", "2", "0", "--z-angle", "-3.e0"]).z_angle == -3.0
    assert parser.parse_args(["examples", "--radii", "-9e-1"]).radii == [-0.9]
    assert main(["fatou", "--lambda", "0", "0", "--zeta", "-1e-1"]) == 0
    # what is not a number is still an option, and an unknown one exits 2
    for argv in (
        ["kernel", "--lambda", "2", "0", "--bogus", "1"],
        ["kernel", "--lambda", "-e5", "0"],
        ["kernel", "--lambda", "2", "-1e"],
        ["kernel", "--lambda", "2", "0", "-1e-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,dest,low,cap",
    [
        (["zeros", "--lambda", "-1", "0", "--count"], "count", 2, _SCAN_CAP),
        (["dirichlet", "--lambda", "0", "0", "--angles"], "angles", 1, _ANGLE_CAP),
        (["riquier", "--lambda", "0", "0", "--angles"], "angles", 1, _ANGLE_CAP),
        (["lacunary", "--grid-size"], "grid_size", 1, _CIRCLE_GRID_CAP),
    ],
    ids=["zeros-count", "dirichlet-angles", "riquier-angles", "lacunary-grid-size"],
)
def test_count_flags_accept_their_bounds(argv, dest, low, cap):
    # parsed only: a capped value is never run
    parser = _build_parser()
    for value in (low, cap):
        assert getattr(parser.parse_args([*argv, str(value)]), dest) == value


def test_integer_lists_accept_their_bounds():
    # parsed only: nothing is run
    parser = _build_parser()
    assert parser.parse_args(["lacunary", "--N", f"1-{_LIST_CAP}"]).N == list(range(1, _LIST_CAP + 1))


@pytest.mark.parametrize("criteria", ["14", "2,14", "12-20"])
def test_unknown_criteria_are_refused_before_any_runs(criteria, capsys):
    assert main(["selftest", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("invalid input: no criterion 14")
    assert captured.err.endswith("criteria run from 1 to 13\n")


def test_lacunary_refuses_every_N_before_the_first_sup(monkeypatch, capsys):
    from hypolib.polynomials import ComplexPoly

    def no_sup(self, z):
        raise AssertionError("a circle sup ran before every N was checked")

    monkeypatch.setattr(ComplexPoly, "evaluate", no_sup)
    assert main(["lacunary", "--N", "2,171"]) == 1
    assert capsys.readouterr().err.startswith("ResultOverflow: the circle exponent N! sqrt(N) at N = 171 ")


def test_config_supplies_defaults_cli_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "r_grid": "0.2:0.6:3"}))
    out = tmp_path / "a.csv"
    assert main(["spherical", "--lambda", "2", "0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    # config n=1 took effect: Phi_1(0.2 | 2) = 0.0425..., Phi_0 = 1.04/0.96
    assert len(rows) == 4 and float(rows[1][1]) == pytest.approx(0.0425190535767587)
    out2 = tmp_path / "b.csv"
    assert main(["spherical", "--lambda", "2", "0", "--config", str(cfg),
                 "--n", "0", "--out", str(out2)]) == 0
    rows2 = read_csv(out2)
    assert float(rows2[1][1]) == pytest.approx(1.04 / 0.96)  # explicit flag beats the config


def test_lacunary_report_frozen_row(tmp_path):
    out = tmp_path / "lac.csv"
    assert main(["lacunary", "--N", "2", "--grid-size", "65536",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["N", "circle_radius", "sup_value"]
    assert float(rows[1][2]) == pytest.approx(6.8995033096161391, rel=1e-9)


def test_examples_tables(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["examples", "--what", "d", "--n-max", "1",
                 "--r-grid", "0.3:0.7:2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "r", "value"]
    assert len(rows) == 5


def test_selftest_exit_codes_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["selftest", "--seed", "5", "--criteria", "2,6", "--out", str(a)]) == 0
    assert main(["selftest", "--seed", "5", "--criteria", "2,6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert rows[0] == ["criterion", "name", "status", "details"]
    assert [r[0] for r in rows[1:]] == ["2", "6"]
    assert all(r[2] == "pass" for r in rows[1:])


def test_selftest_default_seed(tmp_path):
    # criterion 1 is seeded, so a different default seed would change its row
    plain, seeded = tmp_path / "plain.csv", tmp_path / "seeded.csv"
    assert main(["selftest", "--criteria", "1,2", "--out", str(plain)]) == 0
    assert main(["selftest", "--seed", "1301", "--criteria", "1,2", "--out", str(seeded)]) == 0
    assert plain.read_bytes() == seeded.read_bytes()


def test_selftest_reports_failure_with_exit_one(tmp_path):
    out = tmp_path / "red.csv"
    rc = main(["selftest", "--seed", "5", "--criteria", "4", "--out", str(out)])
    assert rc == 1
    rows = read_csv(out)
    assert rows[1][2] == "fail"


def test_criteria_range_expansion(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["selftest", "--seed", "5", "--criteria", "2-3,6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r[0] for r in rows[1:]] == ["2", "3", "6"]


def _fresh(code: str, **env: str) -> str:
    """Stdout of a fresh interpreter running code, with OPENBLAS_NUM_THREADS
    unset unless env sets it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True, text=True, check=True)
    return out.stdout


def _loaded_after(code: str) -> set[str]:
    """Modules a fresh interpreter holds after running code."""
    return set(_fresh(f"{code}\nimport sys; print(*sys.modules)").split())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_a_cli_process_runs_one_thread():
    # numpy's OpenBLAS would otherwise start a thread per core
    out = _fresh(
        "import contextlib, io, hypolib.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    hypolib.cli.main(['kernel', '--lambda', '2', '0'])\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('Threads:')))"
    )
    assert out.split() == ["Threads:", "1"]


def test_a_users_blas_setting_wins_and_the_library_sets_none():
    show = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh(f"import hypolib.cli; {show}", OPENBLAS_NUM_THREADS="2").split() == ["2"]
    assert _fresh(f"import hypolib, hypolib.kernels; {show}").split() == ["None"]


def test_cli_import_leaves_scipy_out():
    loaded = _loaded_after("import hypolib.cli")
    assert "scipy" not in loaded
    assert "mpmath" not in loaded
    assert {m for m in loaded if m.startswith("hypolib")} == {
        "hypolib", "hypolib.cli", "hypolib.errors"
    }


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["kernel", "--lambda", "2", "0"],
         {"spherical", "transforms", "regions", "classical", "acceptance"}),
        (["examples", "--what", "d"], {"kernels", "spherical"}),
        (["examples", "--what", "growth"], {"kernels", "spherical"}),
        (["lacunary", "--grid-size", "64"], {"kernels", "spherical"}),
    ],
    ids=["kernel", "examples-d", "examples-growth", "lacunary"],
)
def test_subcommand_loads_only_its_modules(argv, absent):
    loaded = _loaded_after(
        "import contextlib, io, hypolib.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert hypolib.cli.main({argv!r}) == 0"
    )
    assert "mpmath" not in loaded
    assert {f"hypolib.{m}" for m in absent}.isdisjoint(loaded)


def test_runtime_never_imports_mpmath():
    # a degenerate-band lambda, whose jets take the Cauchy mean over the
    # connection formula; the boundary constant; and criterion 10, whose
    # order-1 scan reaches the connection logs and their polygamma jets
    loaded = _loaded_after(
        "import contextlib, io, hypolib.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hypolib.cli.main(['spherical', '--lambda', '2', '0', '--n', '1']) == 0\n"
        "    assert hypolib.cli.main(['asymptotics', '--lambda', '2', '0']) == 0\n"
        "    assert hypolib.cli.main(['selftest', '--criteria', '10']) == 0"
    )
    assert "hypolib.spherical" in loaded
    assert "mpmath" not in loaded


def test_the_kernel_row_paths_never_import_numpy_ma():
    # np.unique's first call imports numpy.ma (10-25 ms cold); the row's
    # modes and primitive take their distinct values without it
    loaded = _loaded_after(
        "import contextlib, io, hypolib.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hypolib.cli.main(['maximal', '--lambda', '0', '0']) == 0\n"
        "    assert hypolib.cli.main(['convergence', '--lambda', '0', '0', '--preset', 'sawtooth']) == 0"
    )
    assert "hypolib.transforms" in loaded
    assert "numpy.ma" not in loaded


# Installs the benchmark tracer (perfbench/spans.py) on a fresh interpreter
# that has loaded only what `import hypolib.cli` loads, as a traced CLI run
# does, so the tracer's own imports pull in the other modules while it is
# rebinding; after uninstall no module may still hold one of its wrappers.
_TRACER_ROUND_TRIP = """
import sys
sys.path.insert(0, sys.argv[1])
import hypolib.cli
import spans

tracer = spans.Tracer()
tracer.install()
wrappers = [getattr(owner, key) for owner, key, _ in tracer.rebound]
tracer.uninstall()
left = sorted(
    f"{name}.{key}"
    for name, mod in list(sys.modules.items())
    if name == "hypolib" or name.startswith("hypolib.")
    for key, value in vars(mod).items()
    if any(value is w for w in wrappers)
)
print(*left)
"""


def test_a_traced_cold_start_leaves_nothing_rebound():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _TRACER_ROUND_TRIP, os.path.join(root, "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []
