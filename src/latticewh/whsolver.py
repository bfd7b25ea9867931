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

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .branches import (
    Incidence,
    Lattice,
    annulus_bounds,
    branch_points,
    hex_coupling,
    lattice_omega_shift,
)
from .errors import (IllConditionedClosure, InvalidSpec, LengthMismatch, PhaseStepTooLarge,
                     UnsupportedFamily, WindowMismatch, WindowTooLarge)
from .fields import FieldGrid
from .kernels import AffineForcing, ScalarKernel, family_record, nodes_at, scalar_forcing
from .series import (
    CircleGrid,
    FactorizationReport,
    LaurentSeries,
    mult_factorize,
    plus_values,
    row_coefficients,
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
# the unit circles it picks from, shared so that each builds its node tables once
_UNIT_GRIDS = {grid: grid for grid in (CircleGrid(1.0, n) for n in (512, 1024, 2048, 4096))}


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
        |log|z|| over the row multiplier's branch points (branch_points),
        the kernel's zeros off them (the family record's zeros) and the two
        radii of annulus_bounds: the trapezoidal rule converges like
        exp(-nq d).  solve_scalar confirms the choice with numbers it
        computes anyway: the factorization's reconstruction residual and
        leakage, and at the end the equation residual.  If one of them is
        above 1e-12 while nq < 4096, it solves again at twice the count.
        At 4096 the solve is exactly that of an explicit CircleGrid(1.0, 4096).
        An explicit grid is used as given.
        """
        if incidence.omega is None:
            raise InvalidSpec("the incidence carries no omega (dispersion_solve sets it)")
        kernel = ScalarKernel(family, incidence.omega)
        forcing = scalar_forcing(family, incidence)
        if grid is not None:
            return cls(kernel=kernel, forcing=forcing, grid=grid, incidence=incidence)
        return cls(kernel=kernel, forcing=forcing, incidence=incidence, refine_grid=True,
                   grid=_UNIT_GRIDS[CircleGrid(1.0, _initial_count(kernel, incidence))])


def _initial_count(kernel: ScalarKernel, incidence: Incidence) -> int:
    """Grid size for_family starts from; see _NQ_SPAN."""
    lo, hi = annulus_bounds(incidence)
    w = kernel.omega_value
    points = np.append(branch_points(kernel.lattice, w), family_record(kernel.family).zeros(w))
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
    # the row multiplier at the grid's nodes; None for a plain callable kernel
    multiplier: np.ndarray | None = field(default=None, repr=False, compare=False)

    def transform_values(self, grid: CircleGrid) -> np.ndarray:
        """Samples of f+ + f- (the solved row transform) on the grid, as one
        row: the two supports are disjoint, so the coefficient sum is exact."""
        return row_values(self.f_plus.coeff + self.f_minus.coeff, grid)


def solve_scalar(problem: ScalarWHProblem) -> WHSolution:
    """Solve the scalar WH problem, including unknown-constant closure.

    Returns the split transforms as support-enforced Laurent series, the
    kernel factors, the closed constants, and the max relative equation
    residual |f+ + K f- - c| / max(1, |c|) over the grid.  A problem with
    refine_grid doubles its grid below 4096 until the solve is resolved
    (ScalarWHProblem.for_family); the solution's grid is the one used.
    Per grid, the lattice branch is evaluated once at the nodes; K, the
    forcing rows (through one projector) and the row multiplier, kept on
    the solution for reconstruct_field, are all read off it.
    """
    while True:
        confirm = problem.refine_grid and problem.grid.count < _NQ_CAP
        solution = _solve_on_grid(problem, confirm)
        if solution is not None:
            return solution
        grid = CircleGrid(problem.grid.radius, 2 * problem.grid.count)
        problem = replace(problem, grid=_UNIT_GRIDS.get(grid, grid))


def _node_samples(problem: ScalarWHProblem, grid: CircleGrid):
    """K, the forcing rows (one forcing.rows call) and the row multiplier at the
    grid's nodes; a plain callable kernel is sampled as given, with no multiplier.
    Rows of a shape other than (1 + len(constant_ids), count) raise LengthMismatch."""
    kernel, forcing = problem.kernel, problem.forcing
    nodes = nodes_at(kernel, grid.nodes) if isinstance(kernel, ScalarKernel) else None
    rows = forcing.rows(grid.nodes, nodes)
    shape = (1 + len(forcing.constant_ids), grid.count)
    if np.shape(rows) != shape:
        raise LengthMismatch(f"forcing rows of shape {np.shape(rows)}, expected {shape}")
    if nodes is None:
        return sample(kernel, grid), rows, None
    return nodes.kernel, rows, nodes.multiplier


def _solve_on_grid(problem: ScalarWHProblem, confirm: bool) -> WHSolution | None:
    """solve_scalar on the problem's grid; with confirm, None where it is not resolved."""
    grid = problem.grid
    k_vals, c_rows, multiplier = _node_samples(problem, grid)
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
    # split in one pass: row 0 is the base, row i the i-th term; c/K+ less
    # its plus part C+ is its minus part C-
    fm_rows = c_rows / kp_vals
    fp_rows = plus_values(fm_rows, grid)
    fm_rows -= fp_rows
    fm_rows /= km_vals
    fp_rows *= kp_vals
    keys = problem.forcing.constant_ids
    constants, condition = close_constants(problem, fp_rows + fm_rows) if keys else ({}, None)
    weights = np.array([1.0] + [constants[key] for key in keys])
    fp_vals, fm_vals, c_vals = weights @ fp_rows, weights @ fm_rows, weights @ c_rows

    residual = float(np.max(np.abs(fp_vals + k_vals * fm_vals - c_vals)))
    residual /= max(1.0, float(np.max(np.abs(c_vals))))
    if confirm and residual > _RESOLVED_TOL:
        return None

    # support-enforced series: f+ keeps orders n <= 0, f- keeps n >= 1
    plus, minus = row_coefficients(np.stack([fp_vals, fm_vals]), grid)
    plus[grid.count // 2 + 1:] = minus[:grid.count // 2 + 1] = 0.0
    return WHSolution(
        f_plus=LaurentSeries(plus, grid.radius),
        f_minus=LaurentSeries(minus, grid.radius),
        factor_plus=factor_plus,
        factor_minus=factor_minus,
        factorization=report,
        constants=constants,
        residual=residual,
        grid=grid,
        closure_condition=condition,
        multiplier=multiplier,
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


@functools.lru_cache(maxsize=8)
def _sine_modes(n: int) -> tuple:
    """The orthonormal DST-I of n points (symmetric, its own inverse) and the
    eigenvalues 2 cos(pi k / (n + 1)) of tridiag(1, 0, 1) on its modes
    k = 1 .. n, kept read-only per n.

    The oracle has no DST-I: its windows wrap, and oracle._axis_transform
    builds DFT and Hartley tables.  Were it to need one, it would build its
    own, on purpose: the WH path and the oracle check each other, so they
    share no solver code.
    """
    m = np.pi * np.arange(2 * n + 2) / (n + 1)  # sin(pi m / (n + 1)) has period 2n + 2 in m
    k = np.arange(1, n + 1)
    sine = np.sin(m)[np.outer(k, k) % (2 * n + 2)]
    sine *= math.sqrt(2.0 / (n + 1))
    eigen = 2.0 * np.cos(m[1:n + 1])
    for table in (sine, eigen):
        table.flags.writeable = False
    return sine, eigen


def _row0_half_line(kernel: ScalarKernel, row1: np.ndarray,
                    left_boundary: complex | np.ndarray, span: int) -> np.ndarray:
    """Defect-row values u_{x,0}, x = 0..span, from the adjacent row.

    Solves the one-dimensional row equation of the constraint problems
    (square: u[x+1] + u[x-1] + 2 u1[x] + (w^2-4) u[x] = 0; triangular:
    the slant-symmetric analogue, whose row-1 neighbours are x and x-1)
    as a tridiagonal system with the given left boundary value u_{-1,0}
    and a zero tail at x = span + 1.  Each row of row1 (u_{x,1}, x = -1 ..
    span+1) with its left boundary is a right-hand side of one solve.

    The system is tridiag(1, diag, 1) with a constant diag on both
    lattices, so the DST-I S of _sine_modes diagonalizes it:
    u = S diag(1 / (diag + 2 cos(pi k / (span + 2)))) S b, two real table
    products over the interleaved real and imaginary parts of b.
    """
    w = kernel.omega_value
    diag = lattice_omega_shift(kernel.lattice, w * w)
    neighbours = [row1[..., 1 + s: span + 2 + s] for s in family_record(kernel.family).closure]
    b = (-2.0 * sum(neighbours[1:], neighbours[0])).astype(complex, copy=False)
    b[..., 0] -= left_boundary
    sine, eigen = _sine_modes(span + 1)
    columns = np.ascontiguousarray(b.reshape(-1, span + 1).T)  # [site, right-hand side]
    modes = (sine @ columns.view(float)).view(complex)
    modes /= (diag + eigen)[:, None]
    return (sine @ modes.view(float)).view(complex).T.reshape(b.shape)


def close_constants(problem: ScalarWHProblem, rows):
    """Solve the fixed point alpha = G(alpha) of the re-derivation map.

    rows are samples of f+ + f- on the problem's grid, stacked as the forcing's:
    the known part, then each unknown's unit component in constant_ids order;
    any other shape raises LengthMismatch, a family without a closure rule
    UnsupportedFamily.  Returns (constants, condition number of I - G).

    f = u_1 for both constraint problems; one batched transform gives
    every component's row 1.  Each unknown is re-derived from it: a row-1
    unknown is read off, a row-0 unknown comes from the half-line
    defect-row recurrence driven by row 1, truncated at x = _CLOSURE_SPAN
    with a zero tail (justified by the exponential damping decay).  Only
    the known part carries the incident boundary value u_{-1,0}.
    """
    kernel, keys = problem.kernel, problem.forcing.constant_ids
    if family_record(kernel.family).closure is None:
        raise UnsupportedFamily(f"no closure rule for family {kernel.family!r}")
    shape = (1 + len(keys), problem.grid.count)
    if np.shape(rows) != shape:
        raise LengthMismatch(f"closure rows of shape {np.shape(rows)}, expected {shape}")
    # u_1 = a_{-x}, x = -1 .. span+1
    rows1 = row_coefficients(rows, problem.grid, -np.arange(-1, _CLOSURE_SPAN + 2))
    left = np.array([-complex(problem.incidence.field(-1, 0))] + [0j] * len(keys))
    rows0 = _row0_half_line(kernel, rows1, left, _CLOSURE_SPAN)
    estimates = np.array([[row1[x + 1] if y == 1 else row0[x] for _, x, y in keys]
                          for row1, row0 in zip(rows1, rows0)])
    system = np.eye(len(keys)) - estimates[1:].T
    det = np.linalg.det(system)
    if abs(det) < 1e-10:
        raise IllConditionedClosure(f"|det(I - G)| = {abs(det):.3e}")
    alpha = np.linalg.solve(system, estimates[0])
    condition = float(np.linalg.cond(system))
    if condition >= 1e6:
        raise IllConditionedClosure(f"closure condition number {condition:.3e}")
    return dict(zip(keys, alpha)), condition


def reconstruct_field(problem: ScalarWHProblem, solution: WHSolution, window) -> FieldGrid:
    """Scattered field on the window from the solved row transform.

    Reads the transform and the row multiplier solve_scalar kept for the
    solution's grid, which may be finer than the problem's: no branch is
    evaluated here.

    Rows y >= 0 follow u_y = u_0 * multiplier^y, the honeycomb v rows the
    v-site equation on them.  The lower half plane is filled by the
    family's reflection image (odd across the crack line, even across the
    constraint row, slant-shifted for the slant lattices).  All u levels
    are transformed by one FFT along the last axis, written over them, and
    only the window's orders are read from it; each row is bit-identical
    to coefficients() of its level.  The constraint families' closure row
    comes from the same transform.
    """
    (x0, x1), (y0, y1) = window
    if x0 > x1 or y0 > y1:
        raise WindowMismatch(f"reversed window {(x0, x1)} x {(y0, y1)}")
    grid = solution.grid
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

    # the honeycomb v rows read u one column right and one row up
    extra = 1 if kernel.lattice is Lattice.HONEYCOMB else 0

    # crack problems solve for row 0 directly; constraint problems solve
    # for row 1 and never divide by the propagator (it vanishes at the
    # z = -1 node for the slant lattices)
    constraint_like = rec.closure is not None
    first = 1 if constraint_like else 0
    # level y is f * multiplier^(y - first), one multiply at a time: a
    # cumulative product rounds differently
    f_vals = solution.transform_values(grid)
    levels = np.empty((y_top + 1 + extra - first, grid.count), dtype=complex)
    levels[0] = f_vals
    for i in range(1, len(levels)):
        np.multiply(levels[i - 1], solution.multiplier, out=levels[i])
    # u_x = a_{-x}: every level from one FFT, written over them; constraint
    # families also read row 1 at x = -1 .. span + 1 from it for the
    # closure recurrence (orders past the grid read 0)
    xs = np.arange(ex0, ex1 + 1 + extra)
    span = max(_CLOSURE_SPAN, ex1 + 50)
    reads = np.arange(min(ex0, -1), min(span + 1, grid.count // 2) + 1) if constraint_like else xs
    coeff = row_coefficients(levels, grid, -reads, out=levels)
    del f_vals, levels  # only the orders read are kept
    u = np.zeros((y_top + 1 + extra, xs.size), dtype=complex)
    u[first:] = coeff[:, xs - reads[0]]

    if constraint_like:
        row1 = np.zeros(span + 3, dtype=complex)
        row1[:reads[-1] + 2] = coeff[0, -1 - reads[0]:]
        row0_pos = _row0_half_line(kernel, row1, -complex(inc.field(-1, 0)), span)
        pinned = xs < 0
        u[0, pinned] = -inc.field(xs[pinned], 0)  # u = -u_in on the constraint
        u[0, ~pinned] = row0_pos[xs[~pinned]]
    upper = {"u": u}
    if extra:  # the v-site equation of motion
        upper = {"u": u[:-1, :-1], "v": (u[:-1, :-1] + u[:-1, 1:] + u[1:, :-1]) / hex_coupling(w)}

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
