"""Command-line interface: kernels, factorization, solves, oracle, verification.

Subcommands
-----------
kernel     sample a scalar or matrix kernel on a circle, write CSV
factorize  multiplicative factorization of a scalar kernel (CSV + JSON report)
solve      end-to-end scalar WH solve, write the field CSV and a report
oracle     finite-lattice direct solve (family shortcut or JSON problem spec)
compare    relative l2 / max-abs difference of two field CSV files
verify     run a named invariant suite; exits nonzero on any violation

Exit codes: 0 success, 1 invalid input, 2 numerical failure.
Outputs are deterministic: identical configurations produce identical bytes
for a fixed BLAS thread count.  Oracle CSVs differ between thread counts at
rounding level (numpy's OpenBLAS runs the capacitance LU and the transform
products); CI checks two runs at one thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks, kernels, whsolver
from .branches import Frequency, Lattice, dispersion_solve
from .errors import (
    DivergentSeries,
    IllConditionedClosure,
    LatticeWHError,
    NoConvergence,
    NonzeroWinding,
    OutsidePassBand,
    PhaseStepTooLarge,
    SolveFailure,
    UnsupportedFamily,
    ZeroOnContour,
)
from .fields import FieldGrid, compare_fields
from .kernels import (
    MATRIX_FAMILIES,
    SCALAR_FAMILIES,
    MatrixKernelSpec,
    ScalarKernel,
    eval_scalar_kernel,
    family_record,
)
from .oracle import BlochSpec, Defect, LatticeProblemSpec, assemble, problem_for, solve_direct
from .series import CircleGrid, mult_factorize, sample, series_to_csv

_NUMERICAL_ERRORS = (
    NonzeroWinding, DivergentSeries, SolveFailure, IllConditionedClosure,
    NoConvergence, OutsidePassBand, ZeroOnContour, PhaseStepTooLarge,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@dataclass
class RunConfig:
    """Validated run parameters shared by the computational subcommands."""

    family: str | None = None
    omega: complex = 1 + 0.1j
    theta: float = 0.0
    amplitude: complex = 1.0 + 0j
    nq: int = 4096
    radius: float = 1.0
    window: int = 20
    count: int | None = None
    sep: int = 1
    offsets: tuple[int, ...] = field(default_factory=tuple)

    def validate(self, need_damping: bool):
        if self.omega.real <= 0:
            raise ValueError("Re(omega) must be positive")
        if need_damping and self.omega.imag <= 0:
            raise ValueError("this command requires Im(omega) > 0")
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError("theta must lie in (-pi/2, pi/2)")
        if self.nq <= 0 or self.nq % 2:
            raise ValueError("nq must be a positive even integer")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        return self


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex number from {text!r}")


def _half_window(text: str) -> int:
    """argparse type of --window: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"half window must be >= 0, got {text}")
    return int(text)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        family=getattr(args, "family", None),
        omega=_parse_complex(args.omega),
        theta=getattr(args, "theta", 0.0),
        amplitude=_parse_complex(getattr(args, "amplitude", "1")),
        nq=getattr(args, "nq", 4096),
        radius=getattr(args, "radius", 1.0),
        window=getattr(args, "window", 20),
        count=getattr(args, "nu", None),
        sep=getattr(args, "sep", 1),
        offsets=tuple(int(t) for t in getattr(args, "offsets", "").split(",") if t != ""),
    )


def _kernel_descriptor(cfg: RunConfig):
    """ScalarKernel or MatrixKernelSpec from a validated configuration."""
    rec = family_record(cfg.family)
    if rec.dim == 1:
        return ScalarKernel(cfg.family, cfg.omega)
    psi = None
    if rec.psi:
        inc = dispersion_solve(rec.lattice, Frequency(cfg.omega), cfg.theta)
        psi = complex(np.exp(-1j * inc.kappa_y * cfg.sep))
    return MatrixKernelSpec(cfg.family, cfg.omega, count=cfg.count, sep=cfg.sep,
                            offsets=cfg.offsets, psi=psi)


def _incidence_for(cfg: RunConfig, lattice: Lattice):
    return dispersion_solve(lattice, Frequency(cfg.omega), cfg.theta, cfg.amplitude)


def _write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# --- subcommands -------------------------------------------------------------

def _cmd_kernel(args) -> int:
    if args.list_families:
        for fam in SCALAR_FAMILIES:
            print(f"{fam}  (scalar)")
        for fam in MATRIX_FAMILIES:
            print(f"{fam}  (matrix)")
        return 0
    if args.family is None or args.output is None:
        raise ValueError("kernel requires --family and --output (or --list)")
    cfg = _config_from_args(args).validate(need_damping=False)
    kern = _kernel_descriptor(cfg)
    grid = CircleGrid(cfg.radius, cfg.nq)
    nodes = grid.nodes
    vals = kern(nodes)  # (nq,) for a scalar kernel, (nq, d, d) for a matrix one
    # one row per entry in row-major order: node k, then matrix row i and column j
    k, *ij = np.indices(vals.shape).reshape(vals.ndim, -1)
    rows = np.column_stack([k, nodes.real[k], nodes.imag[k], *ij,
                            vals.real.ravel(), vals.imag.ravel()])
    with open(args.output, "w") as fh:
        fh.write(f"# family = {cfg.family}\n# omega = {cfg.omega}\n")
        fh.write(f"# nq = {cfg.nq}\n# radius = {cfg.radius}\n")
        fh.write("k,z_re,z_im,re,im\n" if vals.ndim == 1 else "k,z_re,z_im,i,j,re,im\n")
        np.savetxt(fh, rows, fmt=["%d", "%.17e", "%.17e", *["%d"] * len(ij), "%.17e", "%.17e"],
                   delimiter=",")
    return 0


def _cmd_factorize(args) -> int:
    cfg = _config_from_args(args).validate(need_damping=False)
    if cfg.family not in SCALAR_FAMILIES:
        raise UnsupportedFamily("factorize supports scalar kernel families only")
    kern = ScalarKernel(cfg.family, cfg.omega)
    grid = CircleGrid(cfg.radius, cfg.nq)
    samples = sample(lambda z: eval_scalar_kernel(kern, z), grid)
    plus, minus, report = mult_factorize(samples, grid)
    # factors are unique only up to a constant; this package fixes K_minus(0) = 1
    norm_note = "normalization = K_minus(0) = 1"
    series_to_csv(plus, args.output_plus,
                  header_lines=["factor = plus", f"family = {cfg.family}", norm_note])
    series_to_csv(minus, args.output_minus,
                  header_lines=["factor = minus", f"family = {cfg.family}", norm_note])
    _write_json(args.report, {"family": cfg.family, "omega": cfg.omega, **report.as_dict()})
    return 0


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args).validate(need_damping=True)
    if cfg.family not in SCALAR_FAMILIES:
        raise UnsupportedFamily("solve supports the four scalar problems only")
    lattice = kernels.kernel_lattice(cfg.family)
    inc = _incidence_for(cfg, lattice)
    problem = whsolver.ScalarWHProblem.for_family(
        cfg.family, inc, CircleGrid(cfg.radius, cfg.nq))
    solution = whsolver.solve_scalar(problem)
    wnd = cfg.window
    fld = whsolver.reconstruct_field(problem, solution, ((-wnd, wnd), (-wnd, wnd)))
    fld.to_csv(args.output)
    payload = {
        "family": cfg.family,
        "omega": cfg.omega,
        "theta": cfg.theta,
        "residual": solution.residual,
        "winding": solution.factorization.winding,
        "factorization_residual": solution.factorization.reconstruction_residual,
        "constants": {f"{sub}({x},{y})": v
                      for (sub, x, y), v in solution.constants.items()},
        "closure_condition": solution.closure_condition,
    }
    _write_json(args.report, payload)
    return 0


def _json_complex(data: dict, key: str, default=None) -> complex:
    """A config value given as a number or as [re, im]."""
    value = data.get(key, default)
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
            isinstance(part, (int, float)) for part in value):
        return complex(*value)
    raise ValueError(f"{key!r} must be a number or [re, im], got {value!r}")


def _problem_from_json(path) -> tuple[LatticeProblemSpec, int | None]:
    """The problem of a JSON spec, and its half_width if it gives one."""
    with open(path) as fh:
        data = json.load(fh)
    lattice = Lattice(data["lattice"])
    omega = _json_complex(data, "omega")
    amplitude = _json_complex(data, "amplitude", 1.0)
    inc = dispersion_solve(lattice, Frequency(omega), float(data.get("theta", 0.0)), amplitude)
    defects = tuple(
        Defect(d["kind"], int(d["row"]), d.get("side", "left"), int(d.get("tip", 0)))
        for d in data.get("defects", ())
    )
    bloch = None
    if "bloch" in data and data["bloch"]:
        period = int(data["bloch"]["period"])
        bloch = BlochSpec(period=period,
                          multiplier=complex(np.exp(-1j * inc.kappa_y * period)))
    spec = LatticeProblemSpec(lattice, defects, inc, bloch)
    return spec, int(data["half_width"]) if "half_width" in data else None


def _cmd_oracle(args) -> int:
    json_width = None
    if args.config:
        spec, json_width = _problem_from_json(args.config)
    else:
        cfg = _config_from_args(args).validate(need_damping=True)
        if cfg.family is None:
            raise ValueError("oracle requires --family or --config")
        kern = _kernel_descriptor(cfg)
        inc = _incidence_for(cfg, kern.lattice)
        spec = problem_for(kern, inc)
    # -L first, then the JSON half_width, then 100
    half_width = next(w for w in (args.half_width, json_width, 100) if w is not None)
    fld = solve_direct(assemble(spec, half_width))
    fld.to_csv(args.output)
    return 0


def _cmd_compare(args) -> int:
    a = FieldGrid.from_csv(args.field_a)
    b = FieldGrid.from_csv(args.field_b)
    wnd = args.window
    report = compare_fields(a, b, ((-wnd, wnd), (-wnd, wnd)))
    _write_json(args.report, report.as_dict())
    return 0


# --- verify -----------------------------------------------------------------

def _cmd_verify(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        print(f"== suite {name}")
        for check in checks.SUITES[name]():
            print(f"{'PASS' if check.ok else 'FAIL'}  {check.label}: "
                  f"{check.value:.3e} (bound {check.bound:.1e})")
            failures += not check.ok
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    print("all checks passed")
    return 0


# --- entry point --------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="latticewh",
                     description="Wiener-Hopf kernels and solvers for lattice defect scattering")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--omega", default="1,0.1", help="complex frequency, e.g. 1,0.1")
        p.add_argument("--theta", type=float, default=0.0, help="incidence angle (rad)")
        p.add_argument("--amplitude", default="1", help="incident amplitude, e.g. 1,0")

    def add_circle(p):
        p.add_argument("--nq", type=int, default=4096, help="circle sample count")
        p.add_argument("--radius", type=float, default=1.0, help="circle radius")

    def add_rows(p):
        p.add_argument("--nu", type=int, default=None, help="defect count (array kernels)")
        p.add_argument("--sep", type=int, default=1, help="row separation N")
        p.add_argument("--offsets", default="", help="tip offsets, e.g. 0,2,5")

    pk = sub.add_parser("kernel", help="sample a kernel on a circle")
    pk.add_argument("--family")
    pk.add_argument("--list", action="store_true", dest="list_families",
                    help="print the kernel catalog and exit")
    add_common(pk)
    add_circle(pk)
    add_rows(pk)
    pk.add_argument("-o", "--output", default=None)
    pk.set_defaults(func=_cmd_kernel)

    pf = sub.add_parser("factorize", help="factorize a scalar kernel")
    pf.add_argument("--family", required=True)
    add_common(pf)
    add_circle(pf)
    pf.add_argument("--output-plus", default="factor_plus.csv")
    pf.add_argument("--output-minus", default="factor_minus.csv")
    pf.add_argument("--report", default=None, help="JSON report path (stdout if omitted)")
    pf.set_defaults(func=_cmd_factorize)

    ps = sub.add_parser("solve", help="solve a scalar WH problem end to end")
    ps.add_argument("--family", required=True)
    add_common(ps)
    add_circle(ps)
    ps.add_argument("--window", type=_half_window, default=20, help="field half window")
    ps.add_argument("-o", "--output", required=True, help="field CSV path")
    ps.add_argument("--report", default=None)
    ps.set_defaults(func=_cmd_solve)

    po = sub.add_parser("oracle", help="finite-lattice direct solve")
    po.add_argument("--family", default=None)
    po.add_argument("--config", default=None, help="JSON problem spec")
    add_common(po)
    add_rows(po)
    po.add_argument("-L", "--half-width", type=int, default=None,
                    help="window half width (default: the JSON half_width, else 100)")
    po.add_argument("-o", "--output", required=True)
    po.set_defaults(func=_cmd_oracle)

    pc = sub.add_parser("compare", help="compare two field CSV files")
    pc.add_argument("field_a")
    pc.add_argument("field_b")
    pc.add_argument("--window", type=_half_window, default=20)
    pc.add_argument("--report", default=None)
    pc.set_defaults(func=_cmd_compare)

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("--suite", choices=[*checks.SUITES, "all"], default="all")
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LatticeWHError, FileNotFoundError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
