"""Command-line interface: output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flucdet as fd
from flucdet import cli
from flucdet.green import _det_slope
from flucdet.odesolve import make_basis

MODULATED = '{"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 3.0}'
SEAM = ('{"kind": "modulated", "omega": 1.0, "eps": 0.3, '
        '"nu": 3.141592653589793}')
SINPI = '{"kind": "synthetic", "xi": "sinpi"}'


MOD = "modulated omega=1 eps=0.2 nu=3"
VERIFY_LABELS = {  # suite: (profile, bc, resolution) of each row, as `all` prints them
    "dirichlet": [
        ("constant omega=1 T=1", "dirichlet", "analytic"),
        ("constant omega=2 T=1", "dirichlet", "analytic"),
        ("constant omega=1 T=2.5", "dirichlet", "analytic"),
        ("constant omega=1 T=1", "dirichlet", "lattice-2000"),
        ("constant omega=1 T=1", "dirichlet", "richardson-2000"),
        (MOD, "dirichlet", "lattice-2000"),
        (MOD, "dirichlet", "richardson-2000"),
    ],
    "periodic": [
        ("constant omega=1 T=1", "periodic", "analytic"),
        ("constant omega=1 T=1", "periodic", "ratio-vs-1"),
        ("constant omega=2 T=1", "periodic", "analytic"),
        ("constant omega=2 T=1", "periodic", "ratio-vs-1"),
        (MOD, "periodic", "lattice-2000"),
        (MOD, "periodic", "richardson-2000"),
    ],
    "antiperiodic": [
        ("constant omega=1 T=1", "antiperiodic", "analytic"),
        ("constant omega=1 T=1", "antiperiodic", "ratio-vs-1"),
        ("constant omega=2 T=1", "antiperiodic", "analytic"),
        ("constant omega=2 T=1", "antiperiodic", "ratio-vs-1"),
        (MOD, "antiperiodic", "lattice-2000"),
        (MOD, "antiperiodic", "richardson-2000"),
    ],
    "zeromode": [
        ("sinpi", "dirichlet", "analytic"),
        ("sinpi", "dirichlet", "eps-chain"),
        ("sinpi", "dirichlet", "lattice-2000"),
    ],
    "gflow": [
        ("constant omega=1 T=1", "dirichlet", "gauss-32"),
        (MOD, "dirichlet", "gauss-32"),
        (MOD, "periodic", "gauss-32"),
        (MOD, "antiperiodic", "gauss-32"),
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_default_json_record(self, capsys):
        code, out, _ = run(capsys, "det")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"value", "ratio", "bc", "diagnostics"}
        assert record["bc"] == "dirichlet"
        assert record["value"] == pytest.approx(math.sin(1.0), rel=1e-10)
        assert record["ratio"] == pytest.approx(math.sin(1.0), rel=1e-10)
        diag = record["diagnostics"]
        assert diag["method"] == "endpoint"
        assert diag["w"] == pytest.approx(-1.0)
        # integrator work and invariant residual of the Magnus product
        assert type(diag["steps"]) is int and diag["steps"] >= 1
        assert 0.0 <= diag["error_estimate"] <= 1e-12
        assert 0.0 <= diag["det_m_residual"] <= 1e-13

    def test_full_precision_floats(self, capsys):
        _, out, _ = run(capsys, "det")
        value = json.loads(out)["value"]
        assert repr(value) in out

    def test_wrapped_ratio(self, capsys):
        code, out, _ = run(capsys, "det", "--bc", "antiperiodic")
        record = json.loads(out)
        assert code == 0
        assert record["ratio"] == pytest.approx(1.0, rel=1e-10)
        assert record["diagnostics"]["reference"] == "constant-frequency"

    def test_pq_route_matches_endpoint(self, capsys):
        _, out_e, _ = run(capsys, "det", "--profile", MODULATED,
                          "--t-b", "2.0")
        _, out_pq, _ = run(capsys, "det", "--profile", MODULATED,
                           "--t-b", "2.0", "--method", "pq")
        endpoint = json.loads(out_e)
        pq = json.loads(out_pq)
        assert pq["value"] == pytest.approx(endpoint["value"], rel=1e-6)
        assert pq["diagnostics"]["method"] == "pq"

    def test_pq_route_periodic(self, capsys):
        _, out_e, _ = run(capsys, "det", "--profile", SEAM, "--t-b", "2.0",
                          "--bc", "periodic")
        code, out_pq, _ = run(capsys, "det", "--profile", SEAM,
                              "--t-b", "2.0", "--bc", "periodic",
                              "--method", "pq")
        assert code == 0
        endpoint = json.loads(out_e)
        pq = json.loads(out_pq)
        assert pq["ratio"] == pytest.approx(endpoint["ratio"], rel=1e-6)
        assert pq["diagnostics"]["newton_iterations"] >= 1
        steps = pq["diagnostics"]["steps"]
        assert type(steps) is int and steps >= 1

    def test_pq_periodic_counts_one_solve(self, capsys):
        """The periodic amplitude is superposed from one DOP853 solve, whose
        steps the record counts, with its one correction."""
        _, out, _ = run(capsys, "det", "--profile", SEAM, "--t-b", "2.0",
                        "--bc", "periodic", "--method", "pq")
        diag = json.loads(out)["diagnostics"]
        profile = fd.profile_from_config(SEAM, fd.Interval(0.0, 2.0))
        sol = fd.solve_ermakov(profile, 1.0, bc="periodic")
        assert diag["steps"] == len(sol.knots) - 1
        assert diag["newton_iterations"] == sol.newton_iterations == 1

    def test_zero_mode_guard(self, capsys):
        code, out, _ = run(capsys, "det", "--profile", SINPI)
        assert code == 2
        record = json.loads(out)
        assert record["error"]["type"] == "DegenerateOperatorError"
        assert "zero mode detected" in record["error"]["message"]
        assert "--regularized" in record["error"]["message"]

    @pytest.mark.parametrize("omega0", ["6.283235307179586", "6.2832853071795865"])
    def test_cancelled_determinant_refused(self, capsys, omega0):
        """Periodic omega = 2 pi: 2 - tr M is rounding (-7.1e-15, condition
        1.4e14), while the reference 4 sin^2(omega0 / 2), about 2.5e-9 at
        the first omega0, keeps the ratio (-2.8e-6) far from zero."""
        code, out, _ = run(capsys, "det", "--bc", "periodic", "--profile",
                           '{"kind":"constant","omega":6.283185307179586}',
                           "--omega0", omega0)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert "--regularized" in message
        if omega0 == "6.283235307179586":
            assert "ENDPOINT_DEGENERACY_TOL" in message

    @pytest.mark.parametrize("argv,ratio", [
        (("--t-b", "1e-7"), 1.0),
        (("--t-b", "1e-7", "--method", "pq"), 1.0),
        (("--bc", "periodic", "--t-b", "1e-4",
          "--profile", '{"kind":"constant","omega":2.0}'), 4.0),
    ])
    def test_short_interval_no_false_zero_mode(self, capsys, argv, ratio):
        # every determinant is small on a short interval; the guard reads
        # the ratio against the reference, which is not
        code, out, _ = run(capsys, "det", *argv)
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(ratio, abs=1e-6)

    @pytest.mark.parametrize("argv,expected,rel", [
        (("--t-b", "100000"), math.sin(1e5), 1e-8),
        (("--t-b", "999.0269638415542"), math.sin(999.0269638415542), 1e-8),
        (("--t-b", "999.0269638415542", "--method", "pq"), math.sin(999.0269638415542), 1e-8),
        (("--profile", '{"kind":"constant","omega":3.1415927}'),
         math.sin(3.1415927) / 3.1415927, 1e-6),
        (("--profile", '{"kind":"constant","omega":3.1415927}', "--method", "pq"),
         math.sin(3.1415927) / 3.1415927, 1e-6),
    ], ids=["long-interval", "small-ratio", "small-ratio-pq", "near-focal", "near-focal-pq"])
    def test_small_ratio_is_not_a_zero_mode(self, capsys, argv, expected, rel):
        """Ratios of 3.6e-7, 5e-7 and -1.5e-8 against the free reference whose
        determinants are far from zero to their condition (28, 2000 and 6.8e7)
        or to PQ_DEGENERACY_TOL: each is returned, not refused as a zero mode."""
        code, out, _ = run(capsys, "det", *argv)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=rel)

    def test_regularized_dirichlet(self, capsys):
        code, out, _ = run(capsys, "det", "--profile", SINPI, "--regularized")
        assert code == 0
        record = json.loads(out)
        assert record["ratio"] is None
        # det' K = -dM12/dlambda, the sign of the wrapped conditions and the lattice
        assert record["value"] == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), rel=1e-6)
        assert record["diagnostics"]["check_residual"] <= 1e-3

    @pytest.mark.parametrize("profile,t_b,bc", [
        (SINPI, "1.0", "dirichlet"),
        ('{"kind": "constant", "omega": 0.0}', "2.0", "periodic"),
    ])
    def test_regularized_value_is_minus_the_slope(self, capsys, profile, t_b, bc):
        """det' K = -dF/dlambda, the one slope, bit for bit under every bc."""
        code, out, _ = run(capsys, "det", "--profile", profile, "--t-b", t_b, "--bc", bc,
                           "--regularized")
        assert code == 0
        basis = make_basis(fd.profile_from_config(profile, fd.Interval(0.0, float(t_b))))
        assert json.loads(out)["value"] == -_det_slope(basis, bc)

    def test_regularized_periodic_value(self, capsys):
        code, out, _ = run(capsys, "det", "--profile",
                           '{"kind": "constant", "omega": 0.0}',
                           "--t-b", "2.0", "--bc", "periodic", "--regularized")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(-4.0, rel=1e-12)
        assert record["diagnostics"]["oracle_value"] == pytest.approx(
            -4.0, rel=1e-3)
        assert not {"denominator", "discrepant"} & set(record["diagnostics"])
        assert "-0.0" not in out

    def test_regularized_lattice_refusal_reported(self, capsys):
        """At omega0 T = 2 pi the reference lattice has a zero mode, so the
        lattice diagnostic cannot be built; det' K does not depend on it and
        is printed, with the lattice's refusal next to it."""
        code, out, _ = run(capsys, "det", "--profile", '{"kind": "constant", "omega": 0.0}',
                           "--t-b", "2.0", "--bc", "periodic", "--regularized",
                           "--omega0", repr(math.pi))
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(-4.0, rel=1e-12)
        assert "reference lattice has a zero mode" in record["diagnostics"]["oracle_error"]
        assert "oracle_value" not in record["diagnostics"]

    @pytest.mark.parametrize("profile,t_b,bc", [
        ('{"kind": "constant", "omega": 3.141592653589793}', "2.0", "periodic"),
        (SINPI, "1.0", "antiperiodic"),
    ])
    def test_regularized_two_zero_modes_refused(self, capsys, profile, t_b, bc):
        code, out, _ = run(capsys, "det", "--profile", profile, "--t-b", t_b,
                           "--bc", bc, "--regularized")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "DegenerateOperatorError"
        assert "two" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("--t-b", "999.0269638415542"),
        ("--profile", '{"kind": "constant", "omega": 3.1416926535897933}', "--t-b", "2.0",
         "--bc", "periodic"),
    ], ids=["small-dirichlet", "near-double-periodic"])
    def test_regularized_without_simple_zero_mode_refused(self, capsys, argv):
        """sin T = 5e-4 at T = 999.027 and F = 4e-8 at omega = pi + 1e-4 are
        small, but Newton's step to the nearest eigenvalue is far beyond
        ZERO_MODE_PRESENT_TOL: a configuration error, not a failed check."""
        code, out, err = run(capsys, "det", *argv, "--regularized")
        assert code == 1 and out == ""
        assert "no simple" in err and "ZERO_MODE_PRESENT_TOL" in err

    def test_degenerate_reference(self, capsys):
        code, out, _ = run(capsys, "det", "--bc", "periodic",
                           "--omega0", repr(2.0 * math.pi))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DegenerateOperatorError"

    def test_degenerate_reference_same_refusal_on_both_routes(self, capsys):
        outs = [run(capsys, "det", "--bc", "periodic", "--method", method,
                    "--omega0", repr(2.0 * math.pi))[:2] for method in ("endpoint", "pq")]
        assert outs[0] == outs[1]
        assert "reference operator for periodic is degenerate" in outs[0][1]

    def test_smooth_profile_at_large_times(self, capsys):
        """sin(3 t) near t = 1e7 rounds differently at t and t + 2 pi / 3;
        the profile is smooth and accepted."""
        code, out, _ = run(capsys, "det", "--profile", MODULATED,
                           "--t-a", "1e7", "--t-b", "10000002")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(0.4887522334270983, rel=1e-9)


class TestDetErrors:
    def test_pq_parametric_resonance(self, capsys):
        """|tr M| = 2.505: no periodic amplitude exists, and the pq route
        says so instead of shooting for one."""
        code, out, err = run(capsys, "det", "--method", "pq", "--bc", "periodic",
                             "--profile", '{"kind": "modulated", "omega": 1.0, "eps": 0.9, '
                             '"nu": 2.0}', "--t-b", "3.2")
        assert code == 1 and out == ""
        assert "|tr M| = 2.505" in err and "parametric resonance" in err

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_regularized_pq_refused(self, capsys, bc):
        """--regularized runs the endpoint route, so --method pq with it is a
        configuration error, not a silently ignored flag."""
        code, out, err = run(capsys, "det", "--profile", SINPI, "--bc", bc, "--regularized",
                             "--method", "pq")
        assert code == 1 and out == ""
        assert "--regularized runs the endpoint route" in err

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "det", "--profile", '{"kind": "bogus"}')
        assert code == 1 and "error" in err

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "det", "--profile", '{"kind": ')
        assert code == 1 and "error" in err

    def test_unknown_config_key(self, capsys):
        code, _, err = run(capsys, "det", "--profile",
                           '{"kind": "constant", "omega": 1.0, "extra": 2}')
        assert code == 1 and "extra" in err

    def test_reversed_interval(self, capsys):
        code, _, err = run(capsys, "det", "--t-a", "2.0", "--t-b", "1.0")
        assert code == 1 and "error" in err

    def test_unknown_option(self, capsys):
        code, _, err = run(capsys, "det", "--nope")
        assert code == 1
        assert "nope" in err

    def test_missing_profile_file(self, capsys):
        code, _, err = run(capsys, "det", "--profile", "/nonexistent.json")
        assert code == 1 and "not found" in err

    def test_non_object_profile(self, capsys, tmp_path):
        """A --profile that starts with '[' is inline JSON, as one that starts
        with '{' is; a list, inline or in a file, is refused by name."""
        code, out, err = run(capsys, "det", "--profile", "[1]")
        assert code == 1 and out == ""
        assert "must be a JSON object" in err and "not found" not in err
        path = tmp_path / "list.json"
        path.write_text("[1]", encoding="utf-8")
        code, out, err = run(capsys, "det", "--profile", str(path))
        assert code == 1 and out == ""
        assert "must be a JSON object" in err

    def test_nan_omega0_rejected(self, capsys):
        code, out, err = run(capsys, "det", "--bc", "periodic", "--omega0", "nan")
        assert code == 1 and out == ""
        assert "--omega0" in err and "must be a finite number" in err

    def test_infinite_omega0_rejected(self, capsys):
        code, out, err = run(capsys, "det", "--bc", "periodic", "--omega0", "inf")
        assert code == 1 and out == ""
        assert "--omega0" in err and "must be a finite number" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_span_refused(self, capsys):
        """Finite ends whose span overflows are refused by name, with no
        numpy warning and no bare NaN conversion error."""
        code, out, err = run(capsys, "det", "--t-a", "-1e308", "--t-b", "1e308",
                             "--profile", '{"kind": "constant", "omega": 0}')
        assert code == 1 and out == ""
        assert "span t_b - t_a must be finite" in err

    def test_pq_route_needs_positive_omega0(self, capsys):
        code, out, err = run(capsys, "det", "--method", "pq", "--omega0", "0")
        assert code == 1 and out == ""
        assert "the pq route requires --omega0 > 0" in err

    def test_empty_profile(self, capsys):
        code, out, err = run(capsys, "det", "--profile", "")
        assert code == 1 and out == ""
        assert "empty --profile value" in err


class TestHyperbolic:
    def test_periodic_no_false_zero_mode(self, capsys, monkeypatch):
        """Omega^2 = -4 on [0, 30]: 2 - tr M = 2 - 2 cosh(60), not a zero mode."""
        interval = fd.Interval(0.0, 30.0)
        profile = fd.make_user_profile(lambda t: -4.0, interval)
        monkeypatch.setattr(cli, "_load", lambda spec, t_a, t_b: (interval, profile))
        code, out, _ = run(capsys, "det", "--bc", "periodic")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(2.0 - 2.0 * math.cosh(60.0), rel=1e-10)
        assert math.isfinite(record["diagnostics"]["condition"])

    def test_diagnostics_of_a_huge_transfer_matrix(self, capsys, monkeypatch):
        """Omega^2 = -1 on [0, 400]: M12 = sinh(400) = 2.6e173, and every
        diagnostic stays finite, det M included (its products reach 1e346)."""
        interval = fd.Interval(0.0, 400.0)
        profile = fd.make_user_profile(lambda t: -1.0, interval)
        monkeypatch.setattr(cli, "_load", lambda spec, t_a, t_b: (interval, profile))
        code, out, _ = run(capsys, "det")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(math.sinh(400.0), rel=1e-12)
        assert 0.0 <= record["diagnostics"]["det_m_residual"] <= 1e-15


class TestGreen:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "green", "--grid-size", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("t,")
        cells = [line.split(",") for line in lines[1:]]
        values = [[float(c) for c in row[1:]] for row in cells]
        for i in range(5):
            for j in range(5):
                assert values[i][j] == pytest.approx(
                    values[j][i], rel=1e-9, abs=1e-12)

    def test_diagonal_value(self, capsys):
        _, out, _ = run(capsys, "green", "--grid-size", "3")
        mid = float(out.strip().split("\n")[2].split(",")[2])
        expected = math.sin(0.5) ** 2 / math.sin(1.0)
        assert mid == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("bc,omega", [("periodic", 0.5 * math.pi),
                                          ("antiperiodic", math.pi)])
    def test_wrapped_kernel_with_vanishing_m12(self, capsys, bc, omega):
        """omega T = pi (M = -I) and 2 pi (M = +I) on [0, 2]: M12 = 0, yet the
        wrapped kernels exist; the table matches the closed form in u =
        |t - t'| - T/2 to 1e-12 of max|G|."""
        code, out, _ = run(capsys, "green", "--bc", bc, "--t-b", "2",
                           "--profile", json.dumps({"kind": "constant", "omega": omega}))
        assert code == 0
        header, *lines = out.strip().split("\n")
        grid = [float(c) for c in header.split(",")[1:]]
        worst = scale = 0.0
        for line in lines:
            t, *row = (float(c) for c in line.split(","))
            for tp, value in zip(grid, row):
                u = abs(t - tp) - 1.0
                exact = (-math.cos(omega * u) / (2.0 * omega * math.sin(omega))
                         if bc == "periodic" else
                         -math.sin(omega * u) / (2.0 * omega * math.cos(omega)))
                worst, scale = max(worst, abs(value - exact)), max(scale, abs(exact))
        assert worst <= 1e-12 * scale

    def test_degenerate_interval(self, capsys):
        code, out, _ = run(capsys, "green", "--t-b", repr(math.pi))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DegenerateOperatorError"

    def test_grid_too_small(self, capsys):
        code, _, err = run(capsys, "green", "--grid-size", "1")
        assert code == 1 and "grid-size" in err


class TestSweep:
    def test_omega_sweep_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "omega",
                           "--from", "0.5", "--to", "1.5", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,value,ratio,error"
        assert len(lines) == 4
        for line, omega in zip(lines[1:], (0.5, 1.0, 1.5)):
            cells = line.split(",")
            assert float(cells[0]) == pytest.approx(omega)
            assert float(cells[1]) == pytest.approx(
                math.sin(omega) / omega, rel=1e-10)
            assert cells[3] == ""

    def test_interval_sweep_sign_change(self, capsys):
        _, out, _ = run(capsys, "sweep", "--param", "T",
                        "--from", "3.0", "--to", "3.3", "--steps", "2")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[0][1]) > 0.0
        assert float(rows[1][1]) < 0.0

    def test_failed_row_keeps_place(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "T",
                           "--from", "-0.5", "--to", "1.0", "--steps", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        bad = lines[1]
        assert bad.startswith("-0.5,,,")
        assert "ConfigError" in bad and bad.count('"') >= 2
        good = lines[2].split(",")
        assert float(good[1]) == pytest.approx(math.sin(1.0), rel=1e-10)

    def test_descending_input_sorted(self, capsys):
        _, out, _ = run(capsys, "sweep", "--param", "omega",
                        "--from", "1.5", "--to", "0.5", "--steps", "3")
        params = [float(line.split(",")[0])
                  for line in out.strip().split("\n")[1:]]
        assert params == sorted(params)

    def test_single_step(self, capsys):
        _, out, _ = run(capsys, "sweep", "--param", "omega",
                        "--from", "2.0", "--to", "9.0", "--steps", "1")
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("argv,guard", [
        (("--bc", "periodic", "--profile", '{"kind":"constant","omega":6.283185307179586}',
          "--omega0", "6.283235307179586", "--param", "omega",
          "--from", "6.283185307179586", "--to", "6.283185307179586"),
         "ENDPOINT_DEGENERACY_TOL"),
        (("--t-b", "3.141592653589793", "--param", "omega", "--from", "1", "--to", "1"),
         "ENDPOINT_DEGENERACY_TOL"),
    ], ids=["cancelled", "focal-point"])
    def test_rows_refused_as_det_refuses(self, capsys, argv, guard):
        """A row that `det` refuses with exit code 2 is an error row, whose
        advice names the command that has --regularized."""
        code, out, _ = run(capsys, "sweep", *argv, "--steps", "1")
        assert code == 0
        row = out.strip().split("\n")[1]
        assert ",,," in row and "DegenerateOperatorError" in row and guard in row
        assert "det --regularized" in row

    @pytest.mark.parametrize("start,stop,bad", [
        ("0.5", "inf", "--to"), ("nan", "1.5", "--from"), ("-inf", "1.5", "--from")])
    def test_nonfinite_bounds_refused(self, capsys, start, stop, bad):
        """--from and --to must be finite numbers: an infinite or NaN bound
        printed NaN rows and exited 0."""
        code, out, err = run(capsys, "sweep", "--param", "omega",
                             "--from", start, "--to", stop, "--steps", "3")
        assert code == 1 and out == ""
        assert bad in err and "must be a finite number" in err

    def test_zero_steps(self, capsys):
        code, _, err = run(capsys, "sweep", "--param", "omega",
                           "--from", "0.5", "--to", "1.5", "--steps", "0")
        assert code == 1 and "steps" in err

    def test_parameter_not_in_profile(self, capsys):
        code, _, err = run(capsys, "sweep", "--param", "eps",
                           "--from", "0.1", "--to", "0.2", "--steps", "2")
        assert code == 1 and "eps" in err


class TestVerify:
    def test_zeromode_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "zeromode")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "profile,bc,resolution,closed_form,oracle,rel_err"
        assert len(lines) >= 3
        # the signed closed form against minus the lattice pseudo-determinant
        (lattice,) = [line for line in lines if ",lattice-2000," in line]
        closed, oracle_value = map(float, lattice.split(",")[3:5])
        assert closed < 0.0 and oracle_value < 0.0
        assert "checks within tolerance" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHECKS", (
            ("zeromode", "fake", "dirichlet", 0.0, "analytic", 1e-6, 2.0),))
        monkeypatch.setattr(cli, "_evaluate", lambda *row: (1.0, 2.0))
        code, out, err = run(capsys, "verify", "--suite", "zeromode")
        assert code == 3
        assert "fake,dirichlet,analytic" in out
        assert "verification failure" in err
        assert "0/1" in err

    def test_nan_is_a_failure(self, capsys, monkeypatch):
        """A NaN oracle gives a NaN rel_err, which no tolerance admits."""
        from flucdet import oracle
        monkeypatch.setattr(oracle, "gflow_ratio", lambda *args, **kwargs: math.nan)
        code, out, err = run(capsys, "verify", "--suite", "gflow")
        assert code == 3
        assert all(line.endswith(",nan") for line in out.strip().split("\n")[1:])
        assert "0/4" in err

    def test_lattice_reads_carry_to_richardson(self, capsys, monkeypatch):
        """A run builds one profile object per label, so lattice_ratio's kept
        read carries from each lattice-2000 row to the richardson-2000 row
        after it: 15 pivot loops where a fresh profile per row sweeps 19, and
        the same CSV."""
        from flucdet import oracle
        loops, pivots, evaluate = [], oracle._pivots, cli._evaluate

        def counted(*args, **kwargs):
            loops.append(args[0].mesh_size)
            return pivots(*args, **kwargs)

        monkeypatch.setattr(oracle, "_pivots", counted)
        code, out, _ = run(capsys, "verify")
        assert code == 0 and len(loops) == 15
        loops.clear()
        monkeypatch.setattr(cli, "_evaluate", lambda *row: evaluate(*row[:-1], {}))
        code, fresh, _ = run(capsys, "verify")
        assert code == 0 and len(loops) == 19
        assert fresh == out

    @pytest.mark.parametrize("suite", list(VERIFY_LABELS))
    def test_suite_is_a_tag(self, capsys, suite):
        """`all` runs the 26 checks written out above, in order, and each
        suite prints exactly the rows of `all` that carry its tag."""
        assert cli.SUITES == ("all", *VERIFY_LABELS)
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [tuple(row.split(",")[:3]) for row in rows] == [
            label for labels in VERIFY_LABELS.values() for label in labels]
        names = list(VERIFY_LABELS)
        start = sum(len(VERIFY_LABELS[name]) for name in names[:names.index(suite)])
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert out.strip().split("\n")[1:] == rows[start:start + len(VERIFY_LABELS[suite])]


class TestImports:
    def test_cli_import_loads_no_scipy_solver(self):
        """scipy is imported where a route needs it, never by the CLI
        module itself: a cold `det` pays only for numpy."""
        code = ("import sys, flucdet.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'integrate'], "
                "['scipy', 'optimize'], ['scipy', 'linalg'])))")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_cli_import_loads_no_numpy_polynomial(self):
        """The Magnus steps' Gauss rule is written out, so a cold start does
        not load numpy.polynomial (5 ms)."""
        code = "import sys, flucdet.cli; print('numpy.polynomial' in sys.modules)"
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_flow_and_pq_state_load_no_numpy_polynomial_or_ma(self):
        """The coupling flow builds its Gauss rule by Newton's method and
        groups its members, and the dense pq output finds the steps to
        build, without np.unique: a cold process that runs gflow_ratio and a
        periodic pq state loads neither numpy.polynomial (3-7 ms) nor
        numpy.ma (10-15 ms, which np.unique's masked-array check imports)."""
        code = ("import sys, numpy as np, flucdet as fd\n"
                "profile = fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(0.0, 2.0))\n"
                "fd.gflow_ratio(profile, 'periodic', omega0=1.0)\n"
                "fd.solve_ermakov(profile, 1.0, bc='periodic').state(np.linspace(0.0, 2.0, 9))\n"
                "print(sorted(m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules))")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_cli_import_loads_no_oracle(self):
        """The package resolves the oracles' and the amplitude-phase route's
        names on first use, so a cold start compiles neither module nor the
        route's DOP853, while the names stay public."""
        code = ("import sys, flucdet.cli; print(sorted(m for m in sys.modules "
                "if m in ('flucdet.oracle', 'flucdet.ermakov', 'flucdet.dop853')))\n"
                "import flucdet; print(flucdet.gflow_ratio.__module__, "
                "flucdet.basis_from_pq.__module__)")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split("\n")[:2] == ["[]", "flucdet.oracle flucdet.ermakov"]

    def test_odesolve_resolves_solve_ermakov(self):
        """odesolve re-exports the amplitude-phase solve, the same function
        object, and no other name it does not define."""
        from flucdet import ermakov, odesolve
        from flucdet.odesolve import make_basis, solve_ermakov

        assert solve_ermakov is odesolve.solve_ermakov is ermakov.solve_ermakov
        assert make_basis is fd.make_basis and fd.solve_ermakov is solve_ermakov
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            odesolve.nonexistent

    def test_pq_solver_loads_on_first_solve(self):
        """A cold import of the amplitude-phase route's module leaves its
        DOP853 uncompiled until the route's first solve."""
        code = ("import sys, flucdet as fd, flucdet.ermakov\n"
                "print('flucdet.dop853' in sys.modules)\n"
                "fd.solve_ermakov(fd.make_constant_profile(1.0, fd.Interval(0.0, 1.0)), 1.0)\n"
                "print('flucdet.dop853' in sys.modules)")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "True"]

    def test_lazy_names_are_public(self):
        """from flucdet import * binds every name of __all__, the lazily
        resolved ones included; an unknown name is an AttributeError."""
        namespace = {}
        exec("from flucdet import *", namespace)
        assert set(fd.__all__) <= set(namespace)
        assert namespace["lattice_ratio"] is fd.oracle.lattice_ratio
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            fd.nonexistent

    def test_pq_route_loads_no_scipy_integrate(self):
        """The amplitude-phase route runs on the package's own DOP853: a
        cold periodic pq `det` exits with no scipy.integrate module loaded."""
        argv = ["det", "--method", "pq", "--bc", "periodic", "--profile", MODULATED,
                "--t-b", "2.0"]
        code = (f"import sys\nfrom flucdet import cli\ncode = cli.main({argv!r})\n"
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[:2] == ['scipy', 'integrate']))")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        record, last = out.strip().rsplit("\n", 1)
        assert json.loads(record)["diagnostics"]["method"] == "pq"
        assert last == "0 []"


class TestOutput:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "det")
        target = tmp_path / "record.json"
        code, out, _ = run(capsys, "det", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_repeat_runs_identical(self, capsys):
        _, first, _ = run(capsys, "det", "--profile", MODULATED, "--t-b", "2.0")
        _, second, _ = run(capsys, "det", "--profile", MODULATED, "--t-b", "2.0")
        assert first == second

    def test_profile_file_equals_inline(self, capsys, tmp_path):
        config = tmp_path / "profile.json"
        config.write_text(MODULATED, encoding="utf-8")
        _, inline, _ = run(capsys, "det", "--profile", MODULATED,
                           "--t-b", "2.0")
        _, from_file, _ = run(capsys, "det", "--profile", str(config),
                              "--t-b", "2.0")
        assert from_file == inline


class TestFileErrors:
    """A file that cannot be read or written is one error line and exit
    code 1, as any other bad input is."""

    @pytest.mark.parametrize("argv", [
        ("det",), ("green", "--grid-size", "2"),
        ("sweep", "--param", "omega", "--from", "1", "--to", "1", "--steps", "1"),
        ("verify", "--suite", "gflow")], ids=["det", "green", "sweep", "verify"])
    def test_unwritable_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write --out file {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--out", "--profile"])
    def test_no_traceback(self, tmp_path, option):
        """det --out into a missing directory, and det --profile naming a
        directory, from a fresh interpreter."""
        path = str(tmp_path / "missing" / "x.json" if option == "--out" else tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(fd.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "flucdet.cli", "det", option, path],
                              env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and path in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


DET_DEFAULTS = {  # det's options in the order --help lists them, with their defaults
    "--profile": '{"kind": "constant", "omega": 1.0}', "--t-a": "0.0", "--t-b": "1.0",
    "--bc": "dirichlet", "--omega0": "1.0", "--out": None, "--regularized": None,
    "--method": "endpoint"}


class TestUsage:
    """Usage errors exit 1 through main, as any configuration error does,
    with nothing on stdout."""

    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert code == 1 and out == "" and err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "bogus")
        assert code == 1 and out == "" and "bogus" in err

    def test_help(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == ""
        assert out.lower().startswith("usage: flucdet")
        assert all(command in out for command in ("det", "green", "sweep", "verify"))

    @pytest.mark.parametrize("argv", [
        ("det", "--regul"),
        ("det", "--meth", "pq"),
        ("sweep", "--par", "omega", "--from", "1", "--to", "2", "--steps", "1"),
    ], ids=["det-regul", "det-meth", "sweep-par"])
    def test_abbreviated_option_refused(self, capsys, argv):
        """An option is spelled out: a unique prefix of one is refused, never
        run as the option."""
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and argv[1] in err

    def test_negative_exponent_is_a_value(self, capsys):
        """-1e3 and -inf after an option are its value, not an option: the
        interval starts at -1000, and -inf is refused by --omega0's own check."""
        code, out, err = run(capsys, "det", "--t-a", "-1e3", "--t-b", "1")
        assert code == 0 and err == ""
        assert out == run(capsys, "det", "--t-a=-1000.0", "--t-b=1.0")[1]
        assert json.loads(out)["diagnostics"]["reference_value"] == 1001.0
        code, out, err = run(capsys, "det", "--omega0", "-inf")
        assert code == 1 and out == ""
        assert "--omega0" in err and "must be a finite number" in err

    def test_dash_word_is_a_value(self, capsys, tmp_path, monkeypatch):
        """A word with one dash that names no option is the value of the
        option before it: --out -o.txt writes the file -o.txt, and --profile
        -x.json refuses that missing file by name."""
        monkeypatch.chdir(tmp_path)
        _, stdout_text, _ = run(capsys, "det")
        code, out, err = run(capsys, "det", "--out", "-o.txt")
        assert code == 0 and out == "" and err == ""
        assert (tmp_path / "-o.txt").read_text(encoding="utf-8") == stdout_text
        code, out, err = run(capsys, "det", "--profile", "-x.json")
        assert code == 1 and out == ""
        assert "profile config file not found: -x.json" in err

    @pytest.mark.parametrize("argv", [("-h",), ("det", "-h")], ids=["top", "det"])
    def test_short_help(self, capsys, argv):
        """-h stays --help."""
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == run(capsys, *argv[:-1], "--help")[1]

    @pytest.mark.parametrize("argv", [
        ("det", "--nope"), ("det", "-x"), ("det", "--t-b", "2", "-q", "--bc", "periodic"),
    ], ids=["long", "short", "between"])
    def test_unknown_option_refused(self, capsys, argv):
        """An option no command has is a usage error, exit code 1, with one
        dash or two."""
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_det_help_lists_every_default(self, capsys):
        code, out, _ = run(capsys, "det", "--help")
        assert code == 0
        text = " ".join(out.split())
        starts = [text.rindex(option + " ") for option in DET_DEFAULTS]
        assert starts == sorted(starts)
        for (option, default), start, end in zip(DET_DEFAULTS.items(), starts,
                                                 starts[1:] + [len(text)]):
            if default is not None:
                assert f"default: {default}" in text[start:end], option
