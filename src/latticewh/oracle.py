"""Independent finite-lattice direct solver and WH-equation verification.

The solver assembles the scattered-field equations on a truncated window
[-L, L]^2 (one vertical period with twisted coupling for Bloch problems)
and solves them.  Defects are semi-infinite rows of broken bonds (cracks)
or pinned sites (rigid constraints), pointing left (x < tip) or right
(x >= tip).

Every window without Bloch rows is solved by the capacitance matrix
method (_capacitance_solve): a defect-free operator with a fast free solve
differs from the window's equations on a few rows, and the Woodbury
identity turns the solve into two fast free solves plus one small dense
system.  On the square lattice that operator is the window's own, with
zero Dirichlet data, diagonalized by the 2-D DST-I.  On the triangular and
honeycomb lattices it lives on a torus of period 2L + 2, diagonalized by
the 2-D FFT (per mode a 2 x 2 block on the honeycomb), whose extra row and
column of pinned sites cut the torus back to the window.  Iterative
refinement, on the equations whose backward error is still too large,
recovers the small field near the defects when the damped incident spans
many orders of magnitude across the window.  Bloch strips, a few rows
high, and any window whose refinement does not converge are solved by a
sparse LU factorization.  Both paths must meet the same checks against
the assembled matrix: the relative residual, and the backward error of
every equation.

Assembly is array code driven by one table, _STENCILS: per lattice, one
neighbour list per sublattice of entries (dx, dy, neighbour sublattice,
bond cell).  Masks on the window padded by one site mark pinned sites and
cracked bonds; crack[y, x] is the bond between (x, y) and the row below
(honeycomb: u(x, y) -- v(x, y-1)), and the bond to the neighbour is broken
when crack[y+by, x+bx] is set for the bond cell (bx, by).  A broken bond
raises the diagonal by one; a pinned neighbour (total field zero) drops out.

Truncation uses zero Dirichlet data on the solved unknown, relying on the
damping Im(omega) > 0.  A right-pointing defect is illuminated by the
growing flank of the damped incident wave, so the plain scattered field
does not decay toward +x; for those configurations the solver subtracts
the closed-form response of the corresponding *infinite* straight defect
(a one-dimensional reflection problem solved exactly) and applies the
window to the remainder, which decays in every direction.  The returned
FieldGrid always contains the full scattered field.

wh_residual checks the paper's functional equation f+ + K f- = c directly
against oracle data: half-range transforms are truncated sums of the
remainder plus exact geometric closed forms of the background and the
incident parts, and unknown lattice constants are read off the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .branches import Incidence, Lattice, square_branches
from .errors import InvalidSpec, SolveFailure, WindowTooSmall
from .fields import (
    ComparisonReport,
    FieldGrid,
    compare_fields,
    lattice_omega_shift,
)
from .kernels import ScalarKernel, family_record, scalar_forcing, vector_forcing
from .series import CircleGrid, sample

__all__ = [
    "Defect",
    "BlochSpec",
    "LatticeProblemSpec",
    "AssembledSystem",
    "assemble",
    "solve_direct",
    "compare_fields",
    "ComparisonReport",
    "wh_residual",
    "problem_for",
]


@dataclass(frozen=True)
class Defect:
    """Semi-infinite defect row.

    Cracks break the bonds between `row` and `row - 1` (honeycomb: the
    u(x, row) -- v(x, row-1) bonds); constraints pin the sites of `row`
    (honeycomb: both sublattices).  side "left" covers x < tip, "right"
    covers x >= tip.
    """

    kind: str
    row: int
    side: str = "left"
    tip: int = 0

    def __post_init__(self):
        if self.kind not in ("crack", "constraint"):
            raise InvalidSpec(f"unknown defect kind {self.kind!r}")
        if self.side not in ("left", "right"):
            raise InvalidSpec(f"unknown defect side {self.side!r}")


@dataclass(frozen=True)
class BlochSpec:
    period: int
    multiplier: complex


@dataclass(frozen=True)
class LatticeProblemSpec:
    lattice: Lattice
    defects: tuple
    incidence: Incidence
    bloch: BlochSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "lattice", Lattice(self.lattice))
        object.__setattr__(self, "defects", tuple(self.defects))
        if self.incidence.lattice is not self.lattice:
            raise InvalidSpec("incidence lattice does not match the problem lattice")
        seen = set()
        for d in self.defects:
            key = (d.kind, self._norm_row(d.row))
            if key in seen:
                raise InvalidSpec(f"duplicate {d.kind} at row {d.row}")
            seen.add(key)
        if self.bloch is not None:
            if self.lattice is not Lattice.SQUARE:
                raise InvalidSpec("Bloch periodicity is implemented for the square lattice")
            if self.bloch.period < 2:
                raise InvalidSpec("Bloch period must be >= 2")
        if any(d.side == "right" for d in self.defects) and self.lattice is not Lattice.SQUARE:
            raise InvalidSpec("right-pointing defects are supported on the square lattice")

    def _norm_row(self, row: int) -> int:
        if self.bloch is not None:
            return row % self.bloch.period
        return row


# --- closed-form straight-defect backgrounds --------------------------------

@dataclass(frozen=True)
class _StraightBackground:
    """Scattered field of one infinite straight defect (square lattice).

    bg(x, y) = exp(-i kx x) * profile(y), a single horizontal mode; the
    profile decays away from the defect row on both sides.
    """

    kind: str
    row: int
    kappa_x: complex
    mode: complex          # per-row decay factor, |mode| < 1
    coef_above: complex
    coef_below: complex

    def profile(self, y):
        ya = np.asarray(y)
        up = self.coef_above * self.mode ** np.maximum(ya - self.row, 0)
        down = self.coef_below * self.mode ** np.maximum(self.row - 1 - ya, 0)
        return np.where(ya >= self.row, up, down)

    def evaluate(self, x, y):
        return np.exp(-1j * self.kappa_x * np.asarray(x)) * self.profile(y)


def _straight_backgrounds(spec: LatticeProblemSpec) -> tuple:
    """Backgrounds for every right-pointing defect (empty tuple if none)."""
    out = []
    right = [d for d in spec.defects if d.side == "right"]
    if not right:
        return ()
    inc = spec.incidence
    w = inc.omega
    kx, ky, amp = inc.kappa_x, inc.kappa_y, inc.amplitude
    # vertical mode at the incident horizontal wavenumber: the propagation
    # root of the square lattice evaluated at z0 = exp(-i kx)
    mode = square_branches(np.exp(-1j * kx), w).lam
    sigma = 2.0 * np.cos(kx) + w * w - 3.0  # coordination-3 row symbol

    def inc_row(y):
        return amp * np.exp(-1j * ky * y)

    for d in right:
        r = d.row
        if d.kind == "crack":
            above = -(sigma * inc_row(r) + inc_row(r + 1)) / (sigma + mode)
            below = -(sigma * inc_row(r - 1) + inc_row(r - 2)) / (sigma + mode)
        else:
            # pinned row: scattered = -incident at row r seen from both
            # sides; the below profile is anchored at row r - 1
            above = -inc_row(r)
            below = -inc_row(r) * mode
        out.append(_StraightBackground(
            kind=d.kind, row=r, kappa_x=kx, mode=mode,
            coef_above=complex(above), coef_below=complex(below),
        ))
    return tuple(out)


# --- assembly ----------------------------------------------------------------

# per sublattice: (dx, dy, neighbour sublattice, bond cell or None); see the module docstring
_SQUARE = ((1, 0, "u", None), (-1, 0, "u", None), (0, 1, "u", (0, 1)), (0, -1, "u", (0, 0)))
_STENCILS = {
    Lattice.SQUARE: {"u": _SQUARE},
    Lattice.TRIANGULAR: {"u": _SQUARE + ((-1, 1, "u", (-1, 1)), (1, -1, "u", (0, 0)))},
    Lattice.HONEYCOMB: {
        "u": ((0, 0, "v", None), (-1, 0, "v", None), (0, -1, "v", (0, 0))),
        "v": ((0, 0, "u", None), (1, 0, "u", None), (0, 1, "u", (0, 1))),
    },
}


@dataclass
class AssembledSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    spec: LatticeProblemSpec
    half_width: int
    x_range: tuple[int, int]
    y_range: tuple[int, int]
    index_u: np.ndarray
    index_v: np.ndarray | None
    bg_u: np.ndarray          # background-only values on the window (adds back)
    incident_u: np.ndarray    # incident values on the window
    incident_v: np.ndarray | None

    def row_entries(self, x: int, y: int, sublattice: str = "u") -> dict:
        """Matrix row of the equation at a free site, keyed by column id."""
        idx = self.index_u if sublattice == "u" else self.index_v
        i = idx[y - self.y_range[0], x - self.x_range[0]]
        if i < 0:
            raise InvalidSpec(f"site ({x},{y},{sublattice}) is not a free unknown")
        row = self.matrix.getrow(i).tocoo()
        return {int(c): complex(val) for c, val in zip(row.col, row.data)}

    def site_id(self, x: int, y: int, sublattice: str = "u") -> int:
        idx = self.index_u if sublattice == "u" else self.index_v
        return int(idx[y - self.y_range[0], x - self.x_range[0]])


def assemble(spec: LatticeProblemSpec, half_width: int) -> AssembledSystem:
    """Assemble the truncated scattered-field equations.

    The solved unknown is the scattered field minus the closed-form
    straight-defect backgrounds (zero when no right-pointing defect is
    present); zero Dirichlet data closes the window.  Every equation is
    the exact lattice equation of motion with all known parts (incident
    plus backgrounds) moved to the right-hand side, so sites adjacent to
    the window boundary keep the known contributions of outside sites.
    """
    L = int(half_width)
    if L < 20:
        raise InvalidSpec("half width must be >= 20")
    for d in spec.defects:
        if abs(d.tip) >= L // 2:
            raise WindowTooSmall(f"tip offset {d.tip} needs half width >= {2 * abs(d.tip) + 2}")
    inc = spec.incidence
    w = inc.omega
    if w.imag <= 0:
        raise InvalidSpec("oracle solves require Im(omega) > 0")

    bloch = spec.bloch
    x0, x1 = -L, L
    y0, y1 = (0, bloch.period - 1) if bloch is not None else (-L, L)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    # masks and known field (incident + backgrounds) on the padded grid
    # [x0-1, x1+1] x [y0-1, y1+1]; window cells are [1:ny+1, 1:nx+1]
    XP, YP = np.meshgrid(np.arange(x0 - 1, x1 + 2), np.arange(y0 - 1, y1 + 2))
    masks = {"crack": np.zeros(XP.shape, bool), "constraint": np.zeros(XP.shape, bool)}
    for d in spec.defects:
        masks[d.kind] |= (spec._norm_row(YP) == spec._norm_row(d.row)) & (
            (XP < d.tip) if d.side == "left" else (XP >= d.tip))
    crack, pinned = masks["crack"], masks["constraint"]

    bg_pad = sum((bg.evaluate(XP, YP) for bg in _straight_backgrounds(spec)),
                 np.zeros(XP.shape, complex))
    stencils = _STENCILS[spec.lattice]
    known = {sub: np.asarray(inc.field(XP, YP, sub), dtype=complex) for sub in stencils}
    known["u"] = known["u"] + bg_pad

    def shifted(arr, dx, dy):
        """Padded-grid values at (x+dx, y+dy) for every window site (x, y)."""
        return arr[1 + dy:ny + 1 + dy, 1 + dx:nx + 1 + dx]

    # unknowns: free u sites row by row, then free v sites; pinned sites
    # (total field zero) are eliminated
    free = ~shifted(pinned, 0, 0)
    count = np.cumsum(free, dtype=np.int64).reshape(ny, nx)
    n_free = int(count[-1, -1])
    index = {sub: np.where(free, k * n_free + count - 1, -1) for k, sub in enumerate(stencils)}
    n_unknowns = len(stencils) * n_free

    # neighbour columns on the padded grid: -1 outside the x range, and
    # outside the y range unless Bloch rows wrap with weight multiplier**shift
    if bloch is None:
        col = {sub: np.pad(idx, 1, constant_values=-1) for sub, idx in index.items()}
        weight = np.ones(XP.shape)
    else:
        shift, wrapped = np.divmod(np.arange(-1, ny + 1), ny)
        col = {sub: np.pad(idx[wrapped], ((0, 0), (1, 1)), constant_values=-1)
               for sub, idx in index.items()}
        weight = np.broadcast_to((bloch.multiplier**shift)[:, None], XP.shape)

    diag_base = lattice_omega_shift(spec.lattice, w * w)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n_unknowns, dtype=complex)
    for sub, stencil in stencils.items():
        i = index[sub]
        diag = np.full((ny, nx), diag_base, dtype=complex)
        acc = np.zeros((ny, nx), dtype=complex)
        for dx, dy, nsub, cell in stencil:
            broken = shifted(crack, *cell) if cell else np.zeros((ny, nx), bool)
            diag += broken  # coordination reduced by the missing bond
            live = ~broken & ~shifted(pinned, dx, dy)
            acc += np.where(live, shifted(known[nsub], dx, dy), 0)
            j = shifted(col[nsub], dx, dy)
            keep = free & live & (j >= 0)
            rows.append(i[keep])
            cols.append(j[keep])
            vals.append(shifted(weight, dx, dy)[keep])
        rows.append(i[free])
        cols.append(i[free])
        vals.append(diag[free])
        rhs[i[free]] = -(acc + diag * shifted(known[sub], 0, 0))[free]

    return AssembledSystem(
        matrix=sp.csc_matrix(sp.coo_matrix(
            (np.concatenate(vals).astype(complex), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_unknowns, n_unknowns))),
        rhs=rhs,
        spec=spec,
        half_width=L,
        x_range=(x0, x1),
        y_range=(y0, y1),
        index_u=index["u"],
        index_v=index.get("v"),
        bg_u=shifted(bg_pad, 0, 0),
        incident_u=shifted(known["u"] - bg_pad, 0, 0),
        incident_v=shifted(known["v"], 0, 0) if "v" in known else None,
    )


def _real_matmul(real: np.ndarray, cplx: np.ndarray) -> np.ndarray:
    """real @ cplx as one real product over the interleaved real/imaginary parts."""
    return (real @ np.ascontiguousarray(cplx).view(float)).view(complex)


def _sine_operator(stencils, diag: complex, n: int) -> tuple:
    """Free solve and Green's function block of A0 on the n x n square window.

    With zero Dirichlet data A0 is diagonalized by the 2-D DST-I.  Returns
    free_solve(b), A0^-1 b for b on the grid, and green(cols, rows), the
    block G[C, R] of G = A0^-1.
    """
    # orthonormal DST-I matrix (symmetric, its own inverse); A0's symbol on modes [ky, kx]
    k = np.arange(1, n + 1)
    sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    t = np.pi * k / (n + 1)
    inverse = 1.0 / (diag + sum(np.cos(dx * t + dy * t[:, None]) for dx, dy, *_ in stencils["u"]))

    def free_solve(b):
        """S ((S b S) / symbol) S."""
        b = b.reshape(n, n)
        for scale in (inverse, 1.0):
            b = _real_matmul(sine, _real_matmul(sine, b).T).T * scale
        return b.ravel()

    def by_row(sites):
        """Grid rows of the sorted sites, their x indices and one slice per row."""
        y, x = np.divmod(sites, n)
        ys, start = np.unique(y, return_index=True)
        return ys, x, [slice(a, b) for a, b in zip(start, [*start[1:], sites.size])]

    def green(cols, rows):
        """G[C, R] by blocks of one grid row of C and one of R: the x-mode
        weights of a row pair sum the y-modes of its two rows."""
        (c_rows, cx, c_slices), (r_rows, rx, r_slices) = by_row(cols), by_row(rows)
        pairs = (sine[c_rows][:, None] * sine[r_rows][None]).reshape(-1, n)
        weights = _real_matmul(pairs, inverse).reshape(c_rows.size, r_rows.size, n)
        g = np.empty((rows.size, cols.size), complex)
        for a, cs in enumerate(c_slices):
            for b, rs in enumerate(r_slices):
                g[rs, cs] = _real_matmul(sine[rx[rs]], weights[a, b, :, None] * sine[cx[cs]].T)
        return g.T

    return free_solve, green


def _torus_operator(stencils, diag: complex, period: int) -> tuple:
    """Free solve and Green's function block of A0 on the period x period torus.

    A0 is a convolution on each sublattice pair, so one 2-D FFT diagonalizes
    it: per mode it is an s x s matrix over the s sublattices (1 x 1 on the
    triangular lattice, 2 x 2 on the honeycomb), inverted mode by mode.  G =
    A0^-1 is then the convolution G[(a, c), (b, r)] = g_ab[(c - r) mod period]
    with g = ifft2 of that inverse.  Returns free_solve and green as
    _sine_operator does.
    """
    subs = list(stencils)
    s = len(subs)
    t = 2 * np.pi * np.arange(period) / period
    symbol = np.zeros((s, s, period, period), complex)  # [a, b, ky, kx]
    for a, stencil in enumerate(stencils.values()):
        symbol[a, a] = diag
        for dx, dy, nsub, _ in stencil:
            symbol[a, subs.index(nsub)] += np.outer(np.exp(1j * dy * t), np.exp(1j * dx * t))
    if s == 1:
        inverse = 1.0 / symbol
    else:  # the 2 x 2 adjugate over the determinant
        (p, q), (r, u) = symbol
        inverse = np.array([[u, -q], [-r, p]]) / (p * u - q * r)

    def free_solve(b):
        b = np.fft.fft2(b.reshape(s, period, period))
        return np.fft.ifft2(np.einsum("abyx,byx->ayx", inverse, b)).ravel()

    def green(cols, rows):
        """G[C, R], read off g tiled to (2 period - 1)^2 per sublattice pair so
        that every offset c - r indexes it directly, without a modulo."""
        m = 2 * period - 1
        wrap = np.arange(1 - period, period) % period
        tiled = np.fft.ifft2(inverse)[:, :, wrap[:, None], wrap].ravel()
        (cb, cy, cx), (rb, ry, rx) = (np.unravel_index(ids, (s, period, period))
                                      for ids in (cols, rows))
        at_c = (cb * s * m + cy) * m + cx
        at_r = (rb * m - ry) * m - rx + (period - 1) * (m + 1)
        return tiled[at_c[:, None] + at_r]

    return free_solve, green


def _perturbation(system: AssembledSystem, free: np.ndarray, diag: complex) -> tuple:
    """Rows R, columns C and the block D[R, C] of D = A_ext - A0.

    free marks the free sites on a grid of s x period x period sites, s
    sublattices whose first n rows and columns hold the window; sites are
    numbered in that array's order.  A_ext is system.matrix embedded there,
    with the row e_p and a zero right-hand side at each pinned site p: the
    pinned window sites and, when period > n, the ring of sites outside the
    window.  A0 is the defect-free operator: diag on the diagonal and weight
    one on the stencil couplings, which stop at the window edge when period
    == n (zero Dirichlet data) and wrap round the grid otherwise (a torus;
    the pinned ring then makes A_ext equal to the Dirichlet window).  Both
    are tabled by (site, slot), slot 0 the site itself and slot j its j-th
    stencil neighbour.  A0's couplings from free rows into pinned columns are
    left out of A0: the pinned unknowns are zero, so those entries leave the
    solution alone, and R keeps only the defect rows and the ring.
    """
    stencils = _STENCILS[system.spec.lattice]
    subs = list(stencils)
    period, n = free.shape[-1], system.index_u.shape[1]
    # per sublattice and slot: (dx, dy, neighbour sublattice)
    slots = np.array([[(0, 0, a)] + [(dx, dy, subs.index(nsub)) for dx, dy, nsub, _ in stencil]
                      for a, stencil in enumerate(stencils.values())])
    mode = "wrap" if period > n else "constant"
    live = np.pad(free, ((0, 0), (1, 1), (1, 1)), mode=mode)
    inside = np.pad(np.ones((period, period), bool), 1, mode=mode)
    n_slots = slots.shape[1]
    table = np.empty((*free.shape, n_slots), complex)  # A0 - A_ext
    table[..., 0] = diag
    for a, sub_slots in enumerate(slots):
        for j, (dx, dy, b) in enumerate(sub_slots[1:], 1):
            cut = (slice(1 + dy, period + 1 + dy), slice(1 + dx, period + 1 + dx))
            table[a, :, :, j] = np.where(free[a], live[b][cut], inside[cut])
    # a matrix entry's slot, looked up by its row's sublattice and the site
    # offset from its row to its column; matrix entries couple window sites,
    # so that offset never wraps round the grid
    size = period * period
    span = (2 * len(subs) - 1) * size  # offsets between any two sublattices
    slot = np.zeros(len(subs) * span, int)
    dx, dy, b = np.moveaxis(slots, -1, 0)
    a = np.indices(b.shape)[0]
    slot[a * span + (b - a) * size + dy * period + dx + span // 2] = np.arange(n_slots)
    sites = np.flatnonzero(free)  # grid sites of the unknowns
    row_key = sites // size * span + span // 2 - sites
    m = system.matrix.tocoo()
    table = table.reshape(-1, n_slots)
    table.ravel()[sites[m.row] * n_slots + slot[sites[m.col] + row_key[m.row]]] -= m.data
    table[np.flatnonzero(~free), 0] -= 1.0
    r, j = np.nonzero(table)
    sub, y, x = np.unravel_index(r, free.shape)
    dx, dy, b = slots[sub, j].T
    c = np.ravel_multi_index((b, (y + dy) % period, (x + dx) % period), free.shape)
    rows, row_at = np.unique(r, return_inverse=True)
    cols, col_at = np.unique(c, return_inverse=True)
    return rows, cols, sp.csr_matrix((-table[r, j], (row_at, col_at)),
                                     shape=(rows.size, cols.size))


# bound on the relative residual and on every equation's backward error
# (_backward_errors) of a direct solve; the capacitance solve refines its
# answer at most _REFINE_STEPS times, to the tighter _REFINE_TOL, which keeps
# the field near the defects at about 1e-12 relative
_SOLVE_TOL = 1e-10
_REFINE_TOL = 1e-13
_REFINE_STEPS = 8


def _capacitance_solve(system: AssembledSystem) -> np.ndarray | None:
    """Solve system.matrix w = system.rhs on a window without Bloch rows.

    The defect-free operator A0 has a fast free solve: the 2-D DST-I on the
    square window with zero Dirichlet data (_sine_operator), and on the
    triangular and honeycomb lattices the 2-D FFT on a torus of period
    2L + 2, whose extra row and column are pinned (_torus_operator).  The
    embedded system differs from A0 by D on a few rows R (see
    _perturbation).  The Woodbury identity (the capacitance matrix method of
    Buzbee, Dorr, George and Golub) then gives, with G = A0^-1 and y = G b,

        w = y - G P_R (I + D[R, C] G[C, R])^-1 D[R, C] y[C],

    two fast free solves and one dense |R| x |R| LU.  Iterative refinement
    reuses the LU; None is returned when it does not bring every equation's
    backward error below _REFINE_TOL within _REFINE_STEPS steps.
    """
    spec = system.spec
    stencils = _STENCILS[spec.lattice]
    n = system.index_u.shape[1]
    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega ** 2)
    if spec.lattice is Lattice.SQUARE:
        period, operator = n, _sine_operator
    else:
        period, operator = n + 1, _torus_operator
    free_solve, green = operator(stencils, diag, period)
    free = np.zeros((len(stencils), period, period), bool)
    free[:, :n, :n] = system.index_u >= 0  # a pinned site pins every sublattice
    rows, cols, d = _perturbation(system, free, diag)
    capacitance = d @ green(cols, rows)
    capacitance[np.diag_indices(rows.size)] += 1.0
    lu = scipy.linalg.lu_factor(capacitance)
    sites = np.flatnonzero(free)

    def solve(rhs):
        b = np.zeros(free.size, complex)
        b[sites] = rhs
        y = free_solve(b)
        correction = np.zeros(free.size, complex)
        correction[rows] = scipy.linalg.lu_solve(lu, d @ y[cols])
        return (y - free_solve(correction))[sites]

    # A free solve spreads rounding of order eps |b| over the whole grid, and
    # the damped incident can span tens of orders of magnitude across the
    # window, which buries the field near the defects.  Solving again for the
    # residual of just the equations that miss the bound recovers it.
    w = solve(system.rhs)
    abs_matrix = abs(system.matrix)
    for _ in range(_REFINE_STEPS):
        residual, errors = _backward_errors(system, w, abs_matrix)
        bad = ~(errors <= _REFINE_TOL)  # NaN counts as missed
        if not bad.any():
            return w
        w = w + solve(np.where(bad, residual, 0))
    return None


def _backward_errors(system: AssembledSystem, w: np.ndarray, abs_matrix) -> tuple:
    """Residual r = b - A w and each equation's backward error.

    That is the componentwise backward error |r_i| / (|A| |w| + |b|)_i of
    Oettli and Prager, except that the scale of an equation never drops
    below the incident amplitude: the field is compared at that scale, and
    no fast solve resolves equations 30 orders of magnitude below it.
    """
    residual = system.rhs - system.matrix @ w
    scale = np.maximum(abs_matrix @ np.abs(w) + np.abs(system.rhs),
                       abs(system.spec.incidence.amplitude))
    errors = np.divide(np.abs(residual), scale, out=np.zeros(scale.shape), where=scale > 0)
    return residual, errors


def solve_direct(system: AssembledSystem) -> FieldGrid:
    """Solve the assembled system; returns the scattered field.

    A window without Bloch rows, on any lattice, is solved by the
    capacitance matrix method (_capacitance_solve: sine transform on the
    square lattice, torus FFT on the triangular and honeycomb lattices); a
    Bloch strip, or a window whose capacitance solve does not converge
    under iterative refinement, by a sparse LU.  On either path both the
    relative residual against system.matrix and the largest backward error
    of one equation (see _backward_errors) must come out below 1e-10, or
    SolveFailure is raised.  Eliminated (pinned) sites are filled with
    -incident so boundary conditions can be checked on the output.
    """
    spec = system.spec
    w = _capacitance_solve(system) if spec.bloch is None else None
    if w is None:
        w = spla.splu(system.matrix).solve(system.rhs)
    residual, errors = _backward_errors(system, w, abs(system.matrix))
    norm_rhs = float(np.linalg.norm(system.rhs))
    residual = float(np.linalg.norm(residual))
    residual = residual / norm_rhs if norm_rhs > 0 else residual
    if not np.isfinite(residual) or residual > _SOLVE_TOL:
        raise SolveFailure("direct solve missed the residual contract", residual)
    backward = float(np.max(errors, initial=0.0))
    if not np.isfinite(backward) or backward > _SOLVE_TOL:
        raise SolveFailure("direct solve missed the backward error contract", backward)

    ny, nx = system.index_u.shape
    u = np.empty((ny, nx), dtype=complex)
    free = system.index_u >= 0
    u[free] = w[system.index_u[free]]
    u[~free] = 0.0
    u += system.bg_u
    u[~free] = -system.incident_u[~free]

    v = None
    if system.index_v is not None:
        v = np.empty((ny, nx), dtype=complex)
        free_v = system.index_v >= 0
        v[free_v] = w[system.index_v[free_v]]
        v[~free_v] = -system.incident_v[~free_v]

    inc = spec.incidence
    meta = {
        "lattice": spec.lattice.value,
        "omega": inc.omega,
        "theta": inc.theta,
        "amplitude": inc.amplitude,
        "half_width": system.half_width,
        "defects": ";".join(f"{d.kind}@{d.row}:{d.side}:{d.tip}" for d in spec.defects),
    }
    return FieldGrid(
        lattice=spec.lattice,
        x_range=system.x_range,
        y_range=system.y_range,
        u=u,
        v=v,
        bloch_multiplier=None if spec.bloch is None else spec.bloch.multiplier,
        meta=meta,
    )


# --- WH residual verification -------------------------------------------------

def _combine(rows, combine: str, row: int):
    """Row combination of f: rows(y, sub) gives row y of one sublattice."""
    if combine in ("u_row", "v_row"):
        return rows(row, combine[0])
    if combine == "crack_diff":
        return rows(row, "u") - rows(row - 1, "u")
    return rows(row + 1, "u") + rows(row - 1, "u")


def _half_sums(values: np.ndarray, xs: np.ndarray, offset: int, nodes: np.ndarray):
    """Truncated sums sum_m values[offset+m] z^-m over each half range."""
    i0 = int(offset - xs[0])
    plus_terms = values[i0:]
    minus_terms = values[:i0][::-1]  # m = -1, -2, ... from offset-1 downward
    mp = np.arange(plus_terms.size)
    mm = np.arange(1, minus_terms.size + 1)
    plus = (nodes[:, None] ** (-mp[None, :])) @ plus_terms
    minus = (nodes[:, None] ** mm[None, :]) @ minus_terms
    return plus, minus


def wh_residual(problem: LatticeProblemSpec, kernel, field: FieldGrid,
                kernel_eval=None) -> float:
    """Max normalized residual of f+ + K f- = c against oracle data, at 256 unit-circle nodes.

    f+/f- component transforms are computed from the oracle field: the
    closed-form straight-defect background is split off and transformed
    exactly (its geometric sum continues through the divergent side),
    while the decaying remainder is summed over all available window
    columns.  Unknown constants in the forcing are read directly off the
    field.  kernel_eval overrides the kernel evaluator (used by the
    perturbation sensitivity check).

    The oracle field itself limits the attainable residual: the damped
    incident spans exp(k2 (|cos t| + |sin t|) L) across the window, and
    once that range approaches 1/eps the edge columns carry rounding
    noise.  Keep k2 * L moderate (the slant lattices have larger k2 at
    equal omega than the square lattice).
    """
    inc = problem.incidence
    if inc.omega.imag < 0.05:
        raise InvalidSpec("wh_residual requires damping Im(omega) >= 0.05")
    grid = CircleGrid(1.0, 256)
    nodes = grid.nodes
    # row combinations making up f, top defect row first
    layout = family_record(kernel.family).components(kernel)
    backgrounds = _straight_backgrounds(problem)
    q = np.exp(1j * inc.kappa_x)

    dim = len(layout)
    f_plus = np.empty((nodes.size, dim), dtype=complex)
    f_minus = np.empty((nodes.size, dim), dtype=complex)
    xs = field.xs
    mode = np.exp(-1j * inc.kappa_x * xs)
    for i, (combine, row, offset) in enumerate(layout):
        vals = _combine(field.row, combine, row)
        gamma = sum((complex(_combine(lambda y, _: bg.profile(y), combine, row))
                     for bg in backgrounds), 0j)
        rem = vals - gamma * mode
        plus, minus = _half_sums(rem, xs, offset, nodes)
        amp = gamma * np.exp(-1j * inc.kappa_x * offset)
        qz = q * nodes
        f_plus[:, i] = plus + amp * qz / (qz - 1.0)
        f_minus[:, i] = minus + amp * qz / (1.0 - qz)

    if isinstance(kernel, ScalarKernel):
        forcing = scalar_forcing(kernel.family, inc)
    else:
        forcing = vector_forcing(kernel, inc)
    constants = {}
    for key in forcing.constant_ids:
        sub, x, y = key
        constants[key] = field.value(x, y, sub)
    c = sample(lambda z: forcing(z, constants), grid).reshape(nodes.size, dim)
    k = sample(kernel_eval or kernel, grid).reshape(nodes.size, dim, dim)
    res = f_plus + np.einsum("nij,nj->ni", k, f_minus) - c
    return float(np.max(np.abs(res))) / max(1.0, float(np.max(np.abs(c))))


def problem_for(kernel, incidence: Incidence) -> LatticeProblemSpec:
    """Defect layout matching a kernel descriptor, for oracle runs."""
    rec = family_record(kernel.family)
    defects, period = rec.defects(kernel)
    bloch = None if period is None else BlochSpec(period=period,
                                                  multiplier=complex(kernel.psi))
    return LatticeProblemSpec(rec.lattice, tuple(Defect(*d) for d in defects), incidence, bloch)
