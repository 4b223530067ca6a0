"""Command-line front end.

Subcommands
-----------
det     one determinant evaluation, JSON record on stdout
green   Green-function values on a square grid, CSV
sweep   determinants along a parameter range, CSV
verify  cross-validation suites, CSV plus a summary on stderr

Exit codes: 0 success, 1 usage or configuration problem, 2 degenerate
operator (zero mode without --regularized, vanishing reference), 3
verification failure.

All numeric output uses Python's shortest round-trip float representation,
so every printed value parses back to the exact binary double that was
computed.  Output is deterministic: the same invocation produces byte
identical output.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Optional

import click

from . import oracle
from .determinants import (
    det_dirichlet_regularized,
    det_periodic_regularized,
    determinant,
    reference_determinant,
)
from .ermakov import det_ratio_dirichlet_pq, det_ratio_periodic_pq
from .errors import (
    ConfigError,
    DegenerateOperatorError,
    FlucdetError,
    VerificationError,
)
from .green import (
    BC_ANTIPERIODIC,
    BC_DIRICHLET,
    BC_PERIODIC,
    BOUNDARY_CONDITIONS,
    ENDPOINT_DEGENERACY_TOL,
    GreenKernel,
)
from .odesolve import make_basis, solve_ermakov
from .profiles import (
    Interval,
    builtin_zero_mode_spec,
    make_constant_profile,
    make_modulated_profile,
    make_zero_mode_profile,
    profile_from_config,
    profile_to_config,
)

# A determinant ratio (against the reference operator) this close to zero is
# treated as a zero mode: plain `det` refuses and points at --regularized.
# The ratio, unlike the determinant, is not small on every short interval.
ZERO_MODE_GUARD = 1e-6

SWEEP_PARAMS = ("omega", "T", "eps", "nu")
SUITES = ("all", "dirichlet", "periodic", "antiperiodic", "zeromode", "gflow")


# -- serialization helpers ----------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _csv_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


# -- config loading -----------------------------------------------------------

def _load(profile_spec: str, t_a: float, t_b: float):
    try:
        interval = Interval(t_a, t_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = profile_spec.strip()
    if not text:
        raise ConfigError("empty --profile value")
    if not text.startswith("{"):
        if not os.path.exists(text):
            raise ConfigError(f"profile config file not found: {text}")
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return interval, profile_from_config(text, interval)


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"must be a finite number, got {value!r}")
    return value


def shared_options(command):
    decorators = [
        click.option("--profile", "profile_spec",
                     default='{"kind": "constant", "omega": 1.0}',
                     show_default=True,
                     help="Inline JSON profile config or a path to a JSON file."),
        click.option("--t-a", "t_a", type=float, default=0.0,
                     show_default=True, help="Interval start."),
        click.option("--t-b", "t_b", type=float, default=1.0,
                     show_default=True, help="Interval end."),
        click.option("--bc", type=click.Choice(BOUNDARY_CONDITIONS),
                     default=BC_DIRICHLET, show_default=True,
                     help="Boundary condition."),
        click.option("--omega0", type=float, default=1.0, show_default=True,
                     callback=_finite,
                     help="Reference frequency for ratios and the pq route."),
        click.option("--out", default=None,
                     help="Write output to this file instead of stdout."),
    ]
    for decorator in reversed(decorators):
        command = decorator(command)
    return command


@click.group()
def cli():
    """Functional determinants of one-dimensional fluctuation operators."""


# -- det ----------------------------------------------------------------------

def _guard_zero_mode(value: float, ratio: float, bc: str,
                     condition: float = 0.0) -> None:
    if abs(ratio) <= ZERO_MODE_GUARD:
        raise DegenerateOperatorError(
            f"zero mode detected for bc={bc} (determinant {value!r}, |ratio| <= "
            f"ZERO_MODE_GUARD = {ZERO_MODE_GUARD}); use det --regularized")
    if condition >= 1.0 / ENDPOINT_DEGENERACY_TOL:
        raise DegenerateOperatorError(
            f"determinant {value!r} for bc={bc} is lost to cancellation (condition "
            f"{condition:.3g} >= 1/ENDPOINT_DEGENERACY_TOL); use det --regularized")


def _det_endpoint_record(profile, bc: str, omega0: float) -> dict:
    result = determinant(profile, bc=bc, omega0=omega0)
    _guard_zero_mode(result.value, result.ratio, bc, result.diagnostics["condition"])
    diagnostics = dict(result.diagnostics)
    diagnostics.update({
        "method": "endpoint",
        "reference": result.reference,
        "reference_value": result.reference_value,
        "omega0": result.omega0,
    })
    return {"value": result.value, "ratio": result.ratio, "bc": bc,
            "diagnostics": diagnostics}


def _det_pq_record(profile, bc: str, omega0: float) -> dict:
    if not omega0 > 0:
        raise ConfigError("the pq route requires --omega0 > 0")
    reference, reference_value = reference_determinant(
        bc, profile.interval.span, omega0)
    if bc == BC_DIRICHLET:
        sol = solve_ermakov(profile, omega0, bc="initial")
        ratio = det_ratio_dirichlet_pq(sol)
    else:
        sol = solve_ermakov(profile, omega0, bc="periodic")
        ratio = det_ratio_periodic_pq(sol, anti=(bc == BC_ANTIPERIODIC))
    value = ratio * reference_value
    _guard_zero_mode(value, ratio, bc)
    diagnostics = {
        "method": "pq",
        "reference": reference,
        "reference_value": reference_value,
        "omega0": omega0,
        "p_a": sol.p_a,
        "p_b": sol.p_b,
        "total_phase": omega0 * sol.q_b,
        "newton_iterations": sol.newton_iterations,
    }
    if sol.evenness_residual is not None:
        diagnostics["evenness_residual"] = sol.evenness_residual
    return {"value": value, "ratio": ratio, "bc": bc, "diagnostics": diagnostics}


def _det_regularized_record(profile, bc: str, omega0: float) -> dict:
    if bc == BC_DIRICHLET:
        report = det_dirichlet_regularized(profile)
        diagnostics = {
            "method": "regularized-endpoint",
            "xi_norm_sq": report.xi_norm_sq,
            "dxi_a": report.dxi_a,
            "dxi_b": report.dxi_b,
            "eps": report.eps,
            "lambda_eps": report.lambda_eps,
            "det_eps": report.det_eps,
            "quotient_eps": report.quotient_eps,
            "quotient_extrapolated": report.quotient_extrapolated,
            "check_residual": report.check_residual,
        }
        return {"value": report.det_regularized, "ratio": None, "bc": bc,
                "diagnostics": diagnostics}
    report = det_periodic_regularized(
        profile, anti=(bc == BC_ANTIPERIODIC), omega0=omega0)
    spectrum = report.oracle_report
    diagnostics = {
        "method": "regularized-endpoint",
        "denominator": report.denominator,
        "oracle_value": report.oracle_value,
        "discrepant": report.discrepant,
        "lattice_n": spectrum.mesh_size,
        "num_nonpositive": spectrum.num_nonpositive,
        "zero_mode_index": spectrum.zero_mode_index,
    }
    return {"value": report.formula_value, "ratio": None, "bc": bc,
            "diagnostics": diagnostics}


@cli.command("det")
@shared_options
@click.option("--regularized", is_flag=True,
              help="Remove a single zero mode and report the reduced determinant.")
@click.option("--method", type=click.Choice(["endpoint", "pq"]),
              default="endpoint", show_default=True,
              help="endpoint: boundary-value construction; pq: amplitude-phase route.")
def det_command(profile_spec, t_a, t_b, bc, omega0, out, regularized, method):
    """Compute one functional determinant and print a JSON record."""
    _, profile = _load(profile_spec, t_a, t_b)
    if regularized:
        record = _det_regularized_record(profile, bc, omega0)
    elif method == "pq":
        record = _det_pq_record(profile, bc, omega0)
    else:
        record = _det_endpoint_record(profile, bc, omega0)
    # strict JSON: a non-finite number is an error, never NaN or Infinity
    _emit(json.dumps(record, allow_nan=False) + "\n", out)


# -- green --------------------------------------------------------------------

@cli.command("green")
@shared_options
@click.option("--grid-size", type=int, default=21, show_default=True,
              help="Number of grid points per axis.")
def green_command(profile_spec, t_a, t_b, bc, omega0, out, grid_size):
    """Tabulate the Green function on a square grid and print CSV."""
    _, profile = _load(profile_spec, t_a, t_b)
    if grid_size < 2:
        raise ConfigError("--grid-size must be at least 2")
    basis = make_basis(profile)
    kernel = GreenKernel(basis, bc)
    grid, table = kernel.table(grid_size)
    lines = ["t," + ",".join(_fmt(tp) for tp in grid)]
    for ti, row in zip(grid, table):
        lines.append(_fmt(ti) + "," + ",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", out)


# -- sweep --------------------------------------------------------------------

def _sweep_row(v: float, param: str, config: dict, interval: Interval,
               bc: str, omega0: float) -> str:
    cfg = dict(config)
    iv = interval
    if param == "T":
        if not v > 0:
            raise ConfigError(f"T must be positive, got {v}")
        iv = Interval(interval.t_a, interval.t_a + v)
    else:
        cfg[param] = v
    record = _det_endpoint_record(profile_from_config(cfg, iv), bc, omega0)
    return f"{_fmt(v)},{_fmt(record['value'])},{_fmt(record['ratio'])},"


@cli.command("sweep")
@shared_options
@click.option("--param", type=click.Choice(SWEEP_PARAMS), required=True,
              help="Parameter to sweep.")
@click.option("--from", "start", type=float, required=True,
              help="First parameter value.")
@click.option("--to", "stop", type=float, required=True,
              help="Last parameter value.")
@click.option("--steps", type=int, required=True, help="Number of rows.")
def sweep_command(profile_spec, t_a, t_b, bc, omega0, out, param, start,
                  stop, steps):
    """Sweep one parameter and print a determinant per row as CSV.

    Rows are emitted in ascending parameter order.  A row that fails (for
    example a degenerate reference, or a zero mode that `det` refuses) keeps
    its place with empty value and ratio fields and the error message in the
    last column.
    """
    interval, profile = _load(profile_spec, t_a, t_b)
    if steps < 1:
        raise ConfigError("--steps must be at least 1")
    config = profile_to_config(profile)
    if param in ("omega", "eps", "nu") and param not in config:
        raise ConfigError(
            f"profile kind {config.get('kind')!r} has no parameter {param!r}")
    if steps == 1:
        values = [start]
    else:
        values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        values.sort()
    lines = ["param,value,ratio,error"]
    for v in values:
        try:
            lines.append(_sweep_row(v, param, config, interval, bc, omega0))
        except (FlucdetError, ValueError) as exc:
            message = f"{type(exc).__name__}: {exc}"
            lines.append(f"{_fmt(v)},,,{_csv_quote(message)}")
    _emit("\n".join(lines) + "\n", out)


# -- verify -------------------------------------------------------------------

def _check(profile_name: str, bc: str, resolution: str, closed: float,
           oracle_value: float, tol: float) -> tuple:
    rel = abs(closed - oracle_value) / max(abs(oracle_value), 1e-300)
    return (profile_name, bc, resolution, closed, oracle_value, rel, tol)


def _suite_dirichlet() -> list:
    rows = []
    for omega, span, expected in ((1.0, 1.0, math.sin(1.0)),
                                  (2.0, 1.0, math.sin(2.0) / 2.0),
                                  (1.0, 2.5, math.sin(2.5))):
        profile = make_constant_profile(omega, Interval(0.0, span))
        value = determinant(profile, bc=BC_DIRICHLET).value
        rows.append(_check(f"constant omega={omega:g} T={span:g}",
                           BC_DIRICHLET, "analytic", value, expected, 1e-8))
    cases = (
        ("constant omega=1 T=1", make_constant_profile(1.0, Interval(0.0, 1.0))),
        ("modulated omega=1 eps=0.2 nu=3",
         make_modulated_profile(1.0, 0.2, 3.0, Interval(0.0, 2.0))),
    )
    for name, profile in cases:
        closed = determinant(profile, bc=BC_DIRICHLET).ratio
        lattice = oracle.lattice_ratio(profile, BC_DIRICHLET, omega0=0.0, n=2000)
        rows.append(_check(name, BC_DIRICHLET, "lattice-2000",
                           closed, lattice, 2e-4))
        extrapolated = oracle.lattice_ratio_richardson(
            profile, BC_DIRICHLET, omega0=0.0, n=2000)
        rows.append(_check(name, BC_DIRICHLET, "richardson-2000",
                           closed, extrapolated, 1e-6))
    return rows


def _suite_wrapped(bc: str) -> list:
    anti = bc == BC_ANTIPERIODIC
    rows = []
    for omega, span in ((1.0, 1.0), (2.0, 1.0)):
        profile = make_constant_profile(omega, Interval(0.0, span))
        result = determinant(profile, bc=bc, omega0=omega)
        half = 0.5 * omega * span
        expected = 4.0 * math.cos(half) ** 2 if anti else 4.0 * math.sin(half) ** 2
        name = f"constant omega={omega:g} T={span:g}"
        rows.append(_check(name, bc, "analytic", result.value, expected, 1e-8))
        rows.append(_check(name, bc, "ratio-vs-1", result.ratio, 1.0, 1e-10))
    profile = make_modulated_profile(1.0, 0.2, 3.0, Interval(0.0, 2.0))
    name = "modulated omega=1 eps=0.2 nu=3"
    closed = determinant(profile, bc=bc, omega0=1.0).ratio
    lattice = oracle.lattice_ratio(profile, bc, omega0=1.0, n=2000)
    rows.append(_check(name, bc, "lattice-2000", closed, lattice, 2e-4))
    extrapolated = oracle.lattice_ratio_richardson(profile, bc, omega0=1.0, n=2000)
    rows.append(_check(name, bc, "richardson-2000", closed, extrapolated, 1e-6))
    return rows


def _suite_zeromode() -> list:
    profile = make_zero_mode_profile(
        builtin_zero_mode_spec("sinpi", Interval(0.0, 1.0)))
    report = det_dirichlet_regularized(profile)
    target = -1.0 / (2.0 * math.pi ** 2)
    rows = [
        _check("sinpi", BC_DIRICHLET, "analytic",
               report.det_regularized, target, 1e-6),
        _check("sinpi", BC_DIRICHLET, "eps-chain",
               report.quotient_extrapolated, report.det_regularized, 1e-3),
    ]
    spectrum = oracle.pseudo_det_ratio(profile, BC_DIRICHLET, n=2000, omega0=0.0)
    rows.append(_check("sinpi", BC_DIRICHLET, "lattice-2000",
                       abs(spectrum.aligned_pseudo_det), abs(target), 1e-4))
    return rows


def _suite_gflow() -> list:
    rows = []
    const = make_constant_profile(1.0, Interval(0.0, 1.0))
    modulated = make_modulated_profile(1.0, 0.2, 3.0, Interval(0.0, 2.0))
    dirichlet_cases = (("constant omega=1 T=1", const),
                       ("modulated omega=1 eps=0.2 nu=3", modulated))
    for name, profile in dirichlet_cases:
        closed = determinant(profile, bc=BC_DIRICHLET).ratio
        flow = oracle.gflow_ratio(profile, BC_DIRICHLET, omega0=0.0, g_steps=32)
        rows.append(_check(name, BC_DIRICHLET, "gauss-32", flow, closed, 1e-5))
    for bc in (BC_PERIODIC, BC_ANTIPERIODIC):
        closed = determinant(modulated, bc=bc, omega0=1.0).ratio
        flow = oracle.gflow_ratio(modulated, bc, omega0=1.0, g_steps=32)
        rows.append(_check("modulated omega=1 eps=0.2 nu=3", bc,
                           "gauss-32", flow, closed, 1e-5))
    return rows


_SUITE_BUILDERS = {
    "dirichlet": _suite_dirichlet,
    "periodic": lambda: _suite_wrapped(BC_PERIODIC),
    "antiperiodic": lambda: _suite_wrapped(BC_ANTIPERIODIC),
    "zeromode": _suite_zeromode,
    "gflow": _suite_gflow,
}


@cli.command("verify")
@click.option("--suite", type=click.Choice(SUITES), default="all",
              show_default=True, help="Which cross-validation suite to run.")
@click.option("--out", default=None,
              help="Write the CSV to this file instead of stdout.")
def verify_command(suite, out):
    """Run cross-validation suites and print one CSV row per check."""
    names = list(SUITES[1:]) if suite == "all" else [suite]
    rows = []
    for name in names:
        rows.extend(_SUITE_BUILDERS[name]())
    lines = ["profile,bc,resolution,closed_form,oracle,rel_err"]
    failures = 0
    for profile_name, bc, resolution, closed, oracle_value, rel, tol in rows:
        lines.append(f"{profile_name},{bc},{resolution},"
                     f"{_fmt(closed)},{_fmt(oracle_value)},{_fmt(rel)}")
        if rel > tol:
            failures += 1
    _emit("\n".join(lines) + "\n", out)
    click.echo(f"verify: {len(rows) - failures}/{len(rows)} checks "
               "within tolerance", err=True)
    if failures:
        raise VerificationError(
            f"{failures} of {len(rows)} checks out of tolerance")


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    """Run the CLI and translate exceptions into the exit-code contract."""
    try:
        cli.main(args=argv, prog_name="flucdet", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except DegenerateOperatorError as exc:
        click.echo(json.dumps({"error": {
            "type": "DegenerateOperatorError", "message": str(exc)}}))
        return 2
    except VerificationError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return 3
    except (FlucdetError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
