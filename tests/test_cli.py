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

MODULATED = '{"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 3.0}'
SEAM = ('{"kind": "modulated", "omega": 1.0, "eps": 0.3, '
        '"nu": 3.141592653589793}')
SINPI = '{"kind": "synthetic", "xi": "sinpi"}'


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

    def test_nan_omega0_rejected(self, capsys):
        code, out, err = run(capsys, "det", "--bc", "periodic", "--omega0", "nan")
        assert code == 1 and out == ""
        assert "--omega0" in err

    def test_infinite_omega0_rejected(self, capsys):
        code, out, err = run(capsys, "det", "--bc", "periodic", "--omega0", "inf")
        assert code == 1 and out == ""
        assert "--omega0" in err

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
        monkeypatch.setitem(
            cli._SUITE_BUILDERS, "zeromode",
            lambda: [cli._check("fake", "dirichlet", "analytic",
                                1.0, 2.0, 1e-6)])
        code, out, err = run(capsys, "verify", "--suite", "zeromode")
        assert code == 3
        assert "fake,dirichlet,analytic" in out
        assert "verification failure" in err
        assert "0/1" in err


class TestImports:
    def test_cli_import_loads_no_scipy_solver(self):
        """scipy is imported where a route needs it, never by the CLI
        module itself: a cold `det` pays only for numpy and click."""
        code = ("import sys, flucdet.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'integrate'], "
                "['scipy', 'optimize'], ['scipy', 'linalg'])))")
        src = str(Path(fd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

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
