"""Scalar Wiener-Hopf solver: factorize, split, close constants, rebuild fields.

Solves f+ + K f- = c on a circle inside the annulus:

    K = K+ K-  (multiplicative, winding 0),
    c / K+ = C+ + C-  (additive),
    f+ = K+ C+,   f- = C- / K-.

Under the package's splitting convention (plus = orders n <= 0, minus =
n >= 1) the entire-function term vanishes identically, so no Liouville
constant appears; correctness is checked downstream through interior
equation residuals and the finite-lattice oracle.

Forcings with unknown lattice constants (rigid-constraint problems) are
solved per affine component; each unknown is then re-derived from the
candidate solution (adjacent-row inverse transform and a truncated
half-line recurrence along the defect row) and the resulting fixed-point
system alpha = G(alpha) is solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .branches import (
    Incidence,
    Lattice,
    _slant_root,
    annulus_bounds,
    branch_points,
    hex_coupling,
    hex_reduced_omega_sq,
    square_branches,
)
from .errors import IllConditionedClosure, InvalidSpec, PhaseStepTooLarge, WindowTooLarge
from .fields import FieldGrid, lattice_omega_shift
from .kernels import AffineForcing, ScalarKernel, family_record, scalar_forcing
from .series import (
    CircleGrid,
    FactorizationReport,
    LaurentSeries,
    coefficients,
    mult_factorize,
    row_coefficients,
    row_split,
    row_values,
    sample,
)

__all__ = [
    "ScalarWHProblem",
    "WHSolution",
    "solve_scalar",
    "close_constants",
    "reconstruct_field",
    "inverse_transform_row",
]

_CLOSURE_SPAN = 200  # half-line recurrence truncation (zero tail beyond)

# The grid rule of ScalarWHProblem.for_family and its confirmation tolerance.
# The floor keeps _CLOSURE_SPAN inside the grid's orders.
_NQ_FLOOR = 512
_NQ_CAP = 4096
_NQ_SPAN = 48.0  # nq * d, d the log-distance of the nearest singularity
_RESOLVED_TOL = 1e-12


@dataclass(frozen=True)
class ScalarWHProblem:
    """A scalar WH problem on one sampling circle.

    With refine_grid set, solve_scalar may move to a finer grid than this
    one (see for_family); the solution records the grid it was solved on.
    """

    kernel: ScalarKernel
    forcing: AffineForcing
    grid: CircleGrid
    incidence: Incidence
    refine_grid: bool = False

    def __post_init__(self):
        lo, hi = annulus_bounds(self.incidence)
        if not lo < self.grid.radius < hi:
            raise InvalidSpec(
                f"grid radius {self.grid.radius} outside the annulus ({lo:.6f}, {hi:.6f})")

    @classmethod
    def for_family(cls, family: str, incidence: Incidence,
                   grid: CircleGrid | None = None) -> "ScalarWHProblem":
        """The problem of a scalar family, on the given grid or on one it picks.

        Without a grid it samples the unit circle at the smallest power of
        two nq >= 512 with nq * d >= 48, at most 4096.  d is the smallest
        |log|z|| over the row multiplier's branch points (branch_points)
        and the two radii of annulus_bounds: the trapezoidal rule converges
        like exp(-nq d).  solve_scalar confirms the choice with numbers it
        computes anyway: the factorization's reconstruction residual and
        leakage, and at the end the equation residual.  If one of them is
        above 1e-12 while nq < 4096, it solves again at twice the count.
        At 4096 the solve is exactly that of an explicit CircleGrid(1.0, 4096).
        An explicit grid is used as given.
        """
        kernel = ScalarKernel(family, incidence.omega)
        forcing = scalar_forcing(family, incidence)
        if grid is not None:
            return cls(kernel=kernel, forcing=forcing, grid=grid, incidence=incidence)
        return cls(kernel=kernel, forcing=forcing, incidence=incidence, refine_grid=True,
                   grid=CircleGrid(1.0, _initial_count(kernel, incidence)))


def _initial_count(kernel: ScalarKernel, incidence: Incidence) -> int:
    """Grid size for_family starts from; see _NQ_SPAN."""
    lo, hi = annulus_bounds(incidence)
    points = branch_points(kernel.lattice, kernel.omega_value)
    d = min(-math.log(lo), math.log(hi), float(np.min(np.abs(np.log(np.abs(points))))))
    count = _NQ_FLOOR
    while count < _NQ_CAP and count * d < _NQ_SPAN:
        count *= 2
    return count


@dataclass(frozen=True)
class WHSolution:
    f_plus: LaurentSeries
    f_minus: LaurentSeries
    factor_plus: LaurentSeries
    factor_minus: LaurentSeries
    factorization: FactorizationReport
    constants: dict
    residual: float
    grid: CircleGrid
    closure_condition: float | None = None

    def transform_values(self, grid: CircleGrid) -> np.ndarray:
        """Samples of f+ + f- (the solved row transform) on the grid."""
        plus, minus = row_values(np.stack([self.f_plus.coeff, self.f_minus.coeff]), grid)
        return plus + minus


def solve_scalar(problem: ScalarWHProblem) -> WHSolution:
    """Solve the scalar WH problem, including unknown-constant closure.

    Returns the split transforms as support-enforced Laurent series, the
    kernel factors, the closed constants, and the max relative equation
    residual |f+ + K f- - c| / max(1, |c|) over the grid.  A problem with
    refine_grid doubles its grid below 4096 until the solve is resolved
    (ScalarWHProblem.for_family); the solution's grid is the one used.
    """
    while True:
        confirm = problem.refine_grid and problem.grid.count < _NQ_CAP
        solution = _solve_on_grid(problem, confirm)
        if solution is not None:
            return solution
        problem = replace(problem, grid=CircleGrid(problem.grid.radius, 2 * problem.grid.count))


def _solve_on_grid(problem: ScalarWHProblem, confirm: bool) -> WHSolution | None:
    """solve_scalar on the problem's grid; with confirm, None where it is not resolved."""
    grid = problem.grid
    k_vals = sample(problem.kernel, grid)  # ScalarKernel or any callable of z
    try:
        factor_plus, factor_minus, report = mult_factorize(k_vals, grid)
    except PhaseStepTooLarge:
        if confirm:
            return None
        raise
    if confirm and max(report.reconstruction_residual, report.leakage_plus,
                       report.leakage_minus) > _RESOLVED_TOL:
        return None
    kp_vals, km_vals = report.plus_samples, report.minus_samples

    # the known part of the forcing and each unknown's unit component,
    # split in one pass: row 0 is the base, row i the i-th term
    forcing = problem.forcing
    c_rows = np.stack([sample(forcing.base, grid)] + [sample(fn, grid) for _, fn in forcing.terms])
    plus, minus = row_split(row_coefficients(c_rows / kp_vals, grid))
    fp_rows = kp_vals * row_values(plus, grid)
    fm_rows = row_values(minus, grid) / km_vals
    c_base = c_rows[0]
    base_pair = (fp_rows[0], fm_rows[0])
    term_data = [(key, c_rows[i], (fp_rows[i], fm_rows[i]))
                 for i, (key, _) in enumerate(forcing.terms, start=1)]

    constants: dict = {}
    condition = None
    if term_data:
        constants, condition = close_constants(
            problem, base_pair, [(key, pair) for key, _, pair in term_data])

    fp_vals = base_pair[0].copy()
    fm_vals = base_pair[1].copy()
    c_vals = c_base.copy()
    for key, c_term, (tp, tm) in term_data:
        alpha = constants[key]
        fp_vals += alpha * tp
        fm_vals += alpha * tm
        c_vals += alpha * c_term

    residual = float(np.max(np.abs(fp_vals + k_vals * fm_vals - c_vals)))
    residual /= max(1.0, float(np.max(np.abs(c_vals))))
    if confirm and residual > _RESOLVED_TOL:
        return None

    # support-enforced series: f+ keeps orders n <= 0, f- keeps n >= 1
    plus, minus = row_split(row_coefficients(np.stack([fp_vals, fm_vals]), grid))
    return WHSolution(
        f_plus=LaurentSeries(plus[0], grid.radius),
        f_minus=LaurentSeries(minus[1], grid.radius),
        factor_plus=factor_plus,
        factor_minus=factor_minus,
        factorization=report,
        constants=constants,
        residual=residual,
        grid=grid,
        closure_condition=condition,
    )


def inverse_transform_row(series: LaurentSeries, x_range) -> np.ndarray:
    """Row values u_x = a_{-x} from a row-transform series.

    The stored coefficients are true Laurent coefficients, so the grid
    radius has already been divided out; on the unit circle this is the
    plain coefficient read-off; orders outside the stored range read 0.
    """
    i = series.coeff.size // 2 - np.asarray(x_range, dtype=np.int64)
    inside = (i >= 0) & (i < series.coeff.size)
    return np.where(inside, series.coeff[np.where(inside, i, 0)], 0j)


def _derive_estimates(problem: ScalarWHProblem, fp_vals, fm_vals,
                      with_incident_boundary: bool) -> dict:
    """Re-derive each unknown constant from one affine solution component.

    f = u_1 for both constraint problems; a row-1 unknown is a direct
    coefficient read-off, a row-0 unknown comes from the half-line
    defect-row recurrence driven by the reconstructed row 1, truncated at
    x = _CLOSURE_SPAN with a zero tail (justified by the exponential
    damping decay).
    """
    grid = problem.grid
    kernel = problem.kernel
    if family_record(kernel.family).closure is None:
        raise ValueError(f"no closure rule for family {kernel.family!r}")
    row1_series = coefficients(fp_vals + fm_vals, grid)
    span = _CLOSURE_SPAN
    row1 = inverse_transform_row(row1_series, range(-1, span + 2))  # x = -1 .. span+1
    left = -complex(problem.incidence.field(-1, 0)) if with_incident_boundary else 0j
    row0 = _row0_half_line(kernel, row1, left, span)
    estimates = {}
    for key in problem.forcing.constant_ids:
        _, x, y = key
        estimates[key] = complex(row1[x + 1] if y == 1 else row0[x])
    return estimates


def _row0_half_line(kernel: ScalarKernel, row1: np.ndarray,
                    left_boundary: complex, span: int) -> np.ndarray:
    """Defect-row values u_{x,0}, x = 0..span, from the adjacent row.

    Solves the one-dimensional row equation of the constraint problems
    (square: u[x+1] + u[x-1] + 2 u1[x] + (w^2-4) u[x] = 0; triangular:
    the slant-symmetric analogue, whose row-1 neighbours are x and x-1)
    as a tridiagonal system with the given left boundary value u_{-1,0}
    and a zero tail at x = span + 1.  row1 holds u_{x,1} for x = -1 .. span+1.
    """
    w = kernel.omega_value
    diag = lattice_omega_shift(kernel.lattice, w * w)
    neighbours = [row1[1 + s: span + 2 + s] for s in family_record(kernel.family).closure]
    rhs = -2.0 * sum(neighbours[1:], neighbours[0])
    n = span + 1
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = 1.0
    ab[1, :] = diag
    ab[2, :-1] = 1.0
    b = rhs.astype(complex).copy()
    b[0] -= left_boundary
    return scipy.linalg.solve_banded((1, 1), ab, b)


def close_constants(problem: ScalarWHProblem, base_pair, term_pairs):
    """Solve the fixed point alpha = G(alpha) of the re-derivation map.

    base_pair is (f+, f-) samples for the known part of the forcing and
    term_pairs a list of (key, (f+, f-)) for each unknown's unit
    component.  Returns (constants, condition number of I - G).
    """
    keys = [key for key, _ in term_pairs]
    g0_map = _derive_estimates(problem, *base_pair, with_incident_boundary=True)
    g0 = np.array([g0_map[k] for k in keys])
    g_cols = []
    for _, pair in term_pairs:
        est = _derive_estimates(problem, *pair, with_incident_boundary=False)
        g_cols.append([est[k] for k in keys])
    g_matrix = np.array(g_cols).T
    system = np.eye(len(keys)) - g_matrix
    det = np.linalg.det(system)
    if abs(det) < 1e-10:
        raise IllConditionedClosure(f"|det(I - G)| = {abs(det):.3e}")
    alpha = np.linalg.solve(system, g0)
    condition = float(np.linalg.cond(system))
    if condition >= 1e6:
        raise IllConditionedClosure(f"closure condition number {condition:.3e}")
    return dict(zip(keys, alpha)), condition


def _row_multiplier(lattice: Lattice, w: complex, z):
    """Per-row propagation multiplier of the lattice: lam, t or hh."""
    if lattice is Lattice.SQUARE:
        return square_branches(z, w).lam
    s = w * w if lattice is Lattice.TRIANGULAR else hex_reduced_omega_sq(w)
    return np.asarray(_slant_root(z, s))


def reconstruct_field(problem: ScalarWHProblem, solution: WHSolution, window) -> FieldGrid:
    """Scattered field on the window from the solved row transform.

    Reads the transform on the solution's grid, which may be finer than
    the problem's (solve_scalar).

    Rows y >= 0 follow u_y = u_0 * multiplier^y (with the honeycomb
    companion factor for the v rows); the lower half plane is filled by
    the family's reflection image (odd across the crack line, even
    across the constraint row, slant-shifted for the slant lattices).
    All row levels, the honeycomb v rows included, are transformed by
    one FFT along the last axis and only the window's columns are read
    from it; each row is bit-identical to coefficients() of its level.
    """
    (x0, x1), (y0, y1) = window
    grid = solution.grid
    nodes = grid.nodes
    kernel = problem.kernel
    rec = family_record(kernel.family)
    w = kernel.omega_value
    inc = problem.incidence

    pad = abs(y0) + 1
    ex0, ex1 = x0 - pad, x1 + pad
    reach = max(abs(ex0), abs(ex1))
    if reach >= grid.count // 2 - 2:
        raise WindowTooLarge(f"window reads Laurent order {reach}, past the range of an "
                             f"nq = {grid.count} grid; it needs nq >= {2 * reach + 6}")
    y_top = max(y1, abs(y0) + 1, 1)

    f_vals = solution.transform_values(grid)
    prop = _row_multiplier(kernel.lattice, w, nodes)
    honeycomb = kernel.lattice is Lattice.HONEYCOMB

    # crack problems solve for row 0 directly; constraint problems solve
    # for row 1 and never divide by the propagator (it vanishes at the
    # z = -1 node for the slant lattices)
    constraint_like = rec.closure is not None
    first = 1 if constraint_like else 0
    # level y is f * prop^(y - first), one multiply at a time: a cumulative
    # product rounds differently
    subs = ("u", "v") if honeycomb else ("u",)
    n_levels = y_top + 1 - first
    levels = np.empty((len(subs) * n_levels, grid.count), dtype=complex)
    levels[0] = f_vals
    for i in range(1, n_levels):
        np.multiply(levels[i - 1], prop, out=levels[i])
    if honeycomb:  # v rows: the companion factor times each u level
        np.multiply(levels[:n_levels], (1.0 + nodes + prop) / hex_coupling(w), out=levels[n_levels:])
    # u_x = a_{-x}: every row of every sublattice from one batched FFT
    xs = np.arange(ex0, ex1 + 1)
    upper = np.zeros((len(subs), y_top + 1, xs.size), dtype=complex)
    upper[:, first:] = row_coefficients(levels, grid, -xs).reshape(len(subs), -1, xs.size)
    upper = dict(zip(subs, upper))

    if constraint_like:
        span = max(_CLOSURE_SPAN, ex1 + 50)
        row1 = inverse_transform_row(coefficients(f_vals, grid), range(-1, span + 2))
        row0_pos = _row0_half_line(kernel, row1, -complex(inc.field(-1, 0)), span)
        pinned = xs < 0
        # u = -u_in on the constraint, one site at a time: the array form
        # of inc.field rounds differently in the last bit
        upper["u"][0, pinned] = [-complex(inc.field(x, 0)) for x in xs[pinned]]
        upper["u"][0, ~pinned] = row0_pos[xs[~pinned]]

    image = rec.image
    cols = np.arange(x0, x1 + 1) - ex0
    above = np.arange(max(y0, 0), y1 + 1)[:, None]
    below = np.arange(y0, min(y1, -1) + 1)[:, None]
    out = {}
    for sub, src, x_shift in image.sources:
        mirrored = upper[src][-below - image.row_shift, cols + image.x_per_row * below + x_shift]
        out[sub] = np.concatenate([-mirrored if image.odd else mirrored,
                                   upper[sub][above, cols]])

    meta = {
        "lattice": kernel.lattice.value,
        "omega": w,
        "theta": inc.theta,
        "amplitude": inc.amplitude,
        "family": kernel.family,
        "window": f"[{x0},{x1}]x[{y0},{y1}]",
    }
    return FieldGrid(lattice=kernel.lattice, x_range=(x0, x1),
                     y_range=(y0, y1), u=out["u"], v=out.get("v"), meta=meta)
