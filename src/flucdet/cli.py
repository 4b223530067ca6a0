"""Command-line front end.

Subcommands
-----------
det     one determinant evaluation, JSON record on stdout
green   Green-function values on a square grid, CSV
sweep   determinants along a parameter range, CSV
verify  cross-validation suites, CSV plus a summary on stderr

Exit codes: 0 success, 1 usage or configuration problem (an unreadable
--profile file or an unwritable --out file among them), 2 degenerate
operator (zero mode without --regularized, vanishing reference), 3
verification failure.

argparse parses the options. The amplitude-phase route and the oracles are
imported by the commands and options that run them (verify, --regularized,
--method pq), so a plain det compiles neither.

All numeric output uses Python's shortest round-trip float representation,
so every printed value parses back to the exact binary double that was
computed.  Output is deterministic: the same invocation produces byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .determinants import (
    det_dirichlet_regularized,
    det_periodic_regularized,
    determinant,
)
from .errors import (
    ConfigError,
    DegenerateOperatorError,
    FlucdetError,
    VerificationError,
)
from .green import _SIGMA, GreenKernel, reference_determinant
from .odesolve import make_basis
from .profiles import Interval, profile_from_config

SWEEP_PARAMS = ("omega", "T", "eps", "nu")


# -- serialization helpers ----------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _csv_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out file {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# -- config loading -----------------------------------------------------------

def _load(profile_spec: str, t_a: float, t_b: float):
    try:
        interval = Interval(t_a, t_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = profile_spec.strip()
    if not text:
        raise ConfigError("empty --profile value")
    if not text.startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            problem = "not found" if isinstance(exc, FileNotFoundError) else "unreadable"
            raise ConfigError(f"profile config file {problem}: {text} ({exc.strerror})") from exc
    return interval, profile_from_config(text, interval)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


# -- det ----------------------------------------------------------------------

def _det_endpoint_record(profile, bc: str, omega0: float) -> dict:
    result = determinant(profile, bc=bc, omega0=omega0)
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
    from .ermakov import det_ratio_dirichlet_pq, det_ratio_periodic_pq, solve_ermakov
    if not omega0 > 0:
        raise ConfigError("the pq route requires --omega0 > 0")
    reference, reference_value = reference_determinant(
        bc, profile.interval.span, omega0)
    if _SIGMA[bc]:
        sol = solve_ermakov(profile, omega0, bc="periodic")
        ratio = det_ratio_periodic_pq(sol, anti=_SIGMA[bc] < 0)
    else:
        sol = solve_ermakov(profile, omega0, bc="initial")
        ratio = det_ratio_dirichlet_pq(sol)
    value = ratio * reference_value
    diagnostics = {
        "method": "pq",
        "reference": reference,
        "reference_value": reference_value,
        "omega0": omega0,
        "p_a": sol.p_a,
        "p_b": sol.p_b,
        "total_phase": omega0 * sol.q_b,
        "newton_iterations": sol.newton_iterations,
        "steps": len(sol.knots) - 1,
    }
    return {"value": value, "ratio": ratio, "bc": bc, "diagnostics": diagnostics}


def _det_regularized_record(profile, bc: str, omega0: float) -> dict:
    from . import oracle
    if not _SIGMA[bc]:
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
        # det' K = -dM12/dlambda, minus the closed form, as for the wrapped conditions
        return {"value": -report.det_regularized, "ratio": None, "bc": bc,
                "diagnostics": diagnostics}
    value = det_periodic_regularized(profile, bc)
    # the independent lattice pseudo-determinant, which converges to det' K;
    # the value does not depend on it, so a lattice that cannot be built is reported
    try:
        s = oracle.pseudo_det_ratio(profile, bc, 800, omega0=omega0)
        lattice = {"oracle_value": s.aligned_pseudo_det, "lattice_n": s.mesh_size,
                   "num_nonpositive": s.num_nonpositive, "zero_mode_index": s.zero_mode_index}
    except DegenerateOperatorError as exc:
        lattice = {"oracle_error": str(exc)}
    return {"value": value, "ratio": None, "bc": bc,
            "diagnostics": {"method": "regularized-endpoint", **lattice}}


def det_command(profile_spec, t_a, t_b, bc, omega0, out, regularized, method):
    """Compute one functional determinant and print a JSON record."""
    if regularized and method == "pq":
        raise ConfigError("--regularized runs the endpoint route; drop --method pq")
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
    config = profile.config
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

_MODULATED = "modulated omega=1 eps=0.2 nu=3"
_PROFILES = {  # label: (config, T) on [0, T]
    "constant omega=1 T=1": ({"kind": "constant", "omega": 1.0}, 1.0),
    "constant omega=2 T=1": ({"kind": "constant", "omega": 2.0}, 1.0),
    "constant omega=1 T=2.5": ({"kind": "constant", "omega": 1.0}, 2.5),
    _MODULATED: ({"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 3.0}, 2.0),
    "sinpi": ({"kind": "synthetic", "xi": "sinpi"}, 1.0),
}
_DET_PRIME_SINPI = -1.0 / (2.0 * math.pi ** 2)
# one row per check, printed in this order: suite tag, profile, bc, omega0,
# route, tolerance, and the analytic value where the row has one
_CHECKS = (
    ("dirichlet", "constant omega=1 T=1", "dirichlet", 0.0, "analytic", 1e-8, math.sin(1.0)),
    ("dirichlet", "constant omega=2 T=1", "dirichlet", 0.0, "analytic", 1e-8, math.sin(2.0) / 2.0),
    ("dirichlet", "constant omega=1 T=2.5", "dirichlet", 0.0, "analytic", 1e-8, math.sin(2.5)),
    ("dirichlet", "constant omega=1 T=1", "dirichlet", 0.0, "lattice-2000", 2e-4, None),
    ("dirichlet", "constant omega=1 T=1", "dirichlet", 0.0, "richardson-2000", 1e-6, None),
    ("dirichlet", _MODULATED, "dirichlet", 0.0, "lattice-2000", 2e-4, None),
    ("dirichlet", _MODULATED, "dirichlet", 0.0, "richardson-2000", 1e-6, None),
    ("periodic", "constant omega=1 T=1", "periodic", 1.0, "analytic", 1e-8,
     4.0 * math.sin(0.5) ** 2),
    ("periodic", "constant omega=1 T=1", "periodic", 1.0, "ratio-vs-1", 1e-10, 1.0),
    ("periodic", "constant omega=2 T=1", "periodic", 2.0, "analytic", 1e-8,
     4.0 * math.sin(1.0) ** 2),
    ("periodic", "constant omega=2 T=1", "periodic", 2.0, "ratio-vs-1", 1e-10, 1.0),
    ("periodic", _MODULATED, "periodic", 1.0, "lattice-2000", 2e-4, None),
    ("periodic", _MODULATED, "periodic", 1.0, "richardson-2000", 1e-6, None),
    ("antiperiodic", "constant omega=1 T=1", "antiperiodic", 1.0, "analytic", 1e-8,
     4.0 * math.cos(0.5) ** 2),
    ("antiperiodic", "constant omega=1 T=1", "antiperiodic", 1.0, "ratio-vs-1", 1e-10, 1.0),
    ("antiperiodic", "constant omega=2 T=1", "antiperiodic", 2.0, "analytic", 1e-8,
     4.0 * math.cos(1.0) ** 2),
    ("antiperiodic", "constant omega=2 T=1", "antiperiodic", 2.0, "ratio-vs-1", 1e-10, 1.0),
    ("antiperiodic", _MODULATED, "antiperiodic", 1.0, "lattice-2000", 2e-4, None),
    ("antiperiodic", _MODULATED, "antiperiodic", 1.0, "richardson-2000", 1e-6, None),
    ("zeromode", "sinpi", "dirichlet", 0.0, "analytic", 1e-6, _DET_PRIME_SINPI),
    ("zeromode", "sinpi", "dirichlet", 0.0, "eps-chain", 1e-3, None),
    ("zeromode", "sinpi", "dirichlet", 0.0, "lattice-2000", 1e-4, _DET_PRIME_SINPI),
    ("gflow", "constant omega=1 T=1", "dirichlet", 0.0, "gauss-32", 1e-5, None),
    ("gflow", _MODULATED, "dirichlet", 0.0, "gauss-32", 1e-5, None),
    ("gflow", _MODULATED, "periodic", 1.0, "gauss-32", 1e-5, None),
    ("gflow", _MODULATED, "antiperiodic", 1.0, "gauss-32", 1e-5, None),
)
SUITES = ("all", *dict.fromkeys(row[0] for row in _CHECKS))


def _evaluate(profile_name: str, bc: str, omega0: float, route: str, analytic,
              profiles: dict) -> tuple:
    """(closed_form, oracle) of one check; a flow row puts the flow first.
    profiles keeps one profile object per label for the run, so that
    lattice_ratio's kept read carries from a lattice-2000 row to the
    richardson-2000 row after it."""
    from . import oracle
    profile = profiles.get(profile_name)
    if profile is None:
        config, span = _PROFILES[profile_name]
        profile = profiles[profile_name] = profile_from_config(config, Interval(0.0, span))
    if profile_name == "sinpi":  # det' K with the zero mode removed
        if route == "lattice-2000":
            spectrum = oracle.pseudo_det_ratio(profile, bc, n=2000, omega0=omega0)
            return -spectrum.aligned_pseudo_det, analytic
        report = det_dirichlet_regularized(profile)
        if route == "eps-chain":
            return report.quotient_extrapolated, report.det_regularized
        return report.det_regularized, analytic
    result = determinant(profile, bc=bc, omega0=omega0)
    if route == "analytic":
        return result.value, analytic
    if route == "ratio-vs-1":
        return result.ratio, analytic
    if route == "gauss-32":
        return oracle.gflow_ratio(profile, bc, omega0=omega0, g_steps=32), result.ratio
    lattice = oracle.lattice_ratio if route == "lattice-2000" else oracle.lattice_ratio_richardson
    return result.ratio, lattice(profile, bc, omega0=omega0, n=2000)


def verify_command(suite, out):
    """Run cross-validation suites and print one CSV row per check."""
    rows = [row for row in _CHECKS if suite in ("all", row[0])]
    lines = ["profile,bc,resolution,closed_form,oracle,rel_err"]
    failures, profiles = 0, {}
    for _, profile_name, bc, omega0, route, tol, analytic in rows:
        closed, oracle_value = _evaluate(profile_name, bc, omega0, route, analytic, profiles)
        rel = abs(closed - oracle_value) / max(abs(oracle_value), 1e-300)
        lines.append(f"{profile_name},{bc},{route},"
                     f"{_fmt(closed)},{_fmt(oracle_value)},{_fmt(rel)}")
        failures += not rel <= tol  # a NaN is out of tolerance
    _emit("\n".join(lines) + "\n", out)
    print(f"verify: {len(rows) - failures}/{len(rows)} checks within tolerance",
          file=sys.stderr)
    if failures:
        raise VerificationError(
            f"{failures} of {len(rows)} checks out of tolerance")


# -- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """No abbreviated options, every default in --help, and a usage error
    raised as a ConfigError, which main reports with exit code 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False,
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def _parse_optional(self, arg_string):
        # every option but -h has two dashes, so a word with one dash that names
        # no option is a value: -1e3, -inf, or a file named -o.txt
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and (
                arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--profile", dest="profile_spec",
                        default='{"kind": "constant", "omega": 1.0}',
                        help="Inline JSON profile config or a path to a JSON file.")
    shared.add_argument("--t-a", type=float, default=0.0, help="Interval start.")
    shared.add_argument("--t-b", type=float, default=1.0, help="Interval end.")
    shared.add_argument("--bc", choices=tuple(_SIGMA), default="dirichlet",
                        help="Boundary condition.")
    shared.add_argument("--omega0", type=_finite, default=1.0,
                        help="Reference frequency for ratios and the pq route.")
    shared.add_argument("--out", help="Write output to this file instead of stdout.")
    parser = _Parser(prog="flucdet", description="Functional determinants of "
                     "one-dimensional fluctuation operators.")
    commands = parser.add_subparsers(required=True)

    def command(name, run, *parents):
        sub = commands.add_parser(name, parents=parents, help=run.__doc__.split("\n")[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    det = command("det", det_command, shared)
    det.add_argument("--regularized", action="store_true",
                     help="Remove a single zero mode and report the reduced determinant.")
    det.add_argument("--method", choices=("endpoint", "pq"), default="endpoint",
                     help="endpoint: boundary-value construction; pq: amplitude-phase route.")
    command("green", green_command, shared).add_argument(
        "--grid-size", type=int, default=21, help="Number of grid points per axis.")
    sweep = command("sweep", sweep_command, shared)
    sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True, help="Parameter to sweep.")
    sweep.add_argument("--from", dest="start", type=_finite, required=True,
                       help="First parameter value.")
    sweep.add_argument("--to", dest="stop", type=_finite, required=True,
                       help="Last parameter value.")
    sweep.add_argument("--steps", type=int, required=True, help="Number of rows.")
    verify = command("verify", verify_command)
    verify.add_argument("--suite", choices=SUITES, default="all",
                        help="Which cross-validation suite to run.")
    verify.add_argument("--out", help="Write the CSV to this file instead of stdout.")
    return parser


def main(argv=None) -> int:
    """Run the CLI and translate exceptions into the exit-code contract."""
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
    except SystemExit as exc:  # --help, argparse's one exit of its own
        return exc.code
    except DegenerateOperatorError as exc:
        print(json.dumps({"error": {"type": "DegenerateOperatorError", "message": str(exc)}}))
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (FlucdetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
