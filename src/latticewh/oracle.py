"""Independent finite-lattice direct solver and WH-equation verification.

The solver assembles the scattered-field equations on a truncated window
[-L, L]^2 (one vertical period with twisted coupling for Bloch problems)
and solves them.  Defects are semi-infinite rows of broken bonds (cracks)
or pinned sites (rigid constraints), pointing left (x < tip) or right
(x >= tip).

Assembly is array code driven by one table, _STENCILS: per lattice, one
neighbour list per sublattice of entries (dx, dy, neighbour sublattice,
bond cell).  Masks on the window padded by one site mark pinned sites and
cracked bonds; crack[y, x] is the bond between (x, y) and the row below
(honeycomb: u(x, y) -- v(x, y-1)), and the bond to the neighbour is broken
when crack[y+by, x+bx] is set for the bond cell (bx, by).  A broken bond
raises the diagonal by one; a pinned neighbour (total field zero) drops out.
The equations come out as a stencil table, a weight and a neighbour per
unknown and slot, and the sparse matrix is built from it.

Every window without Bloch rows is solved by the capacitance matrix
method (_capacitance): a defect-free operator A0 with a fast free solve,
plus multipliers that hold the pinned sites at zero and rank-one terms for
the broken bonds, read off the stencil table.  That costs two free solves
and one complex symmetric system with a row per pinned site and per bond.
A0 is the square window with zero Dirichlet data (2-D DST-I), or on the
triangular and honeycomb lattices a torus of period 2L + 2 (2-D FFT, per
mode a 2 x 2 block on the honeycomb) whose extra row and column are
pinned.  Refinement recovers the small field near the defects when the
damped incident spans many orders of magnitude across the window.  Bloch
strips, and windows whose refinement does not converge, are solved by a
sparse LU.  Both paths must meet the same checks against the assembled
matrix: the relative residual, and the backward error of every equation.

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
    matrix: sp.csr_matrix
    weights: np.ndarray       # stencil table [unknown, slot]: coupling, 0 for a broken bond
    neighbours: np.ndarray    # [unknown, slot]: unknown coupled, -1 if pinned or outside
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
    The equations are kept as a stencil table: per unknown, one slot for
    itself and one per stencil neighbour, in column order.
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

    # neighbour columns on the padded grid: -1 outside the x range, and
    # outside the y range unless Bloch rows wrap with weight multiplier**shift
    if bloch is None:
        col = {sub: np.pad(idx, 1, constant_values=-1) for sub, idx in index.items()}
    else:
        shift, wrapped = np.divmod(np.arange(-1, ny + 1), ny)
        col = {sub: np.pad(idx[wrapped], ((0, 0), (1, 1)), constant_values=-1)
               for sub, idx in index.items()}
        weight = np.broadcast_to((bloch.multiplier**shift)[:, None], XP.shape)

    # the stencil table, a row per unknown and its slots in the order of
    # (sublattice, dy, dx), column order unless Bloch rows wrap: weight one on
    # an intact bond (Bloch: its wrap weight), zero on a broken one, and the
    # diagonal on the own slot
    diag_base = lattice_omega_shift(spec.lattice, w * w)
    shape = (len(stencils), n_free, 1 + len(stencils["u"]))
    weights, neighbours = np.ones(shape, complex), np.empty(shape, np.int64)
    broken, rhs = np.zeros(shape, bool), np.empty(shape[:2], complex)
    subs = list(stencils)
    for k, (sub, stencil) in enumerate(stencils.items()):
        slots = np.argsort(np.argsort([9 * k] + [9 * subs.index(nsub) + 3 * dy + dx
                                                 for dx, dy, nsub, _ in stencil]))
        acc = np.zeros((ny, nx), dtype=complex)
        n_broken = np.zeros((ny, nx), np.int64)  # coordination reduced by the missing bonds
        for j, (dx, dy, nsub, cell) in zip(slots[1:], stencil):
            neighbours[k, :, j] = shifted(col[nsub], dx, dy)[free]
            if bloch is not None:
                weights[k, :, j] = shifted(weight, dx, dy)[free]
            cut = shifted(crack, *cell) if cell else np.zeros((ny, nx), bool)
            n_broken += cut
            broken[k, :, j] = cut[free]
            np.add(acc, shifted(known[nsub], dx, dy), out=acc,  # intact bonds to unpinned sites
                   where=~(cut | shifted(pinned, dx, dy)))
        diag = diag_base + n_broken
        neighbours[k, :, slots[0]] = index[sub][free]
        weights[k, :, slots[0]] = diag[free]
        rhs[k] = -(acc + diag * shifted(known[sub], 0, 0))[free]
    weights[broken] = 0
    weights, neighbours = weights.reshape(-1, shape[2]), neighbours.reshape(-1, shape[2])

    # the matrix: every slot of the table with a column and an intact bond
    keep = (neighbours >= 0) & ~broken.reshape(neighbours.shape)
    # a row's length is its slot count less its few dropped slots (keep.sum(1) costs 7x more),
    # and int32 indices, which SciPy would pick itself, spare its range check and copy
    length = shape[2] - np.bincount(np.flatnonzero(~keep) // shape[2], minlength=keep.shape[0])
    matrix = sp.csr_matrix((weights[keep], neighbours[keep].astype(np.int32),
                            np.concatenate([[0], np.cumsum(length)]).astype(np.int32)),
                           shape=(keep.shape[0], keep.shape[0]))
    if bloch is not None:
        matrix.sum_duplicates()  # sorts wrapped rows; a two-row strip couples twice to one row
    return AssembledSystem(
        matrix=matrix,
        weights=weights,
        neighbours=neighbours,
        rhs=rhs.ravel(),
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
    """Free solve and Green's function of A0 on the n x n square window.

    With zero Dirichlet data the 2-D DST-I diagonalizes A0 of an axis-aligned
    stencil, the square lattice's, into diag plus a cosine in kx and one in
    ky.  Returns free_solve(b), A0^-1 b for b on the grid, and green(rows,
    cols), the block G[R, C] of G = A0^-1 for grid sites R and C.
    """
    # orthonormal DST-I matrix (symmetric, its own inverse); A0's symbol on modes [ky, kx]
    k = np.arange(1, n + 1)
    sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(2 * n + 2) / (n + 1))[
        np.outer(k, k) % (2 * n + 2)]  # sin(pi jk / (n + 1)) has period 2n + 2 in jk
    t = np.pi * k / (n + 1)
    cos_x = sum(np.cos(dx * t) for dx, dy, *_ in stencils["u"] if dy == 0)
    cos_y = sum(np.cos(dy * t) for dx, dy, *_ in stencils["u"] if dx == 0)
    inverse = 1.0 / (diag + cos_x + cos_y[:, None])

    def free_solve(b):
        """S ((S b S) / symbol) S."""
        b = b.reshape(n, n)
        for scale in (inverse, 1.0):
            b = _real_matmul(sine, _real_matmul(sine, b).T).T * scale
        return b.ravel()

    def green(rows, cols):
        """G[R, C] by blocks of one grid row of R and one of C: the x-mode
        weights of such a pair sum the y-modes of its two rows."""
        (y_r, x_r), (y_c, x_c) = np.divmod(rows, n), np.divmod(cols, n)
        g = np.empty((rows.size, cols.size), complex)
        for yr in np.unique(y_r):
            for yc in np.unique(y_c):
                ra, cb = np.flatnonzero(y_r == yr), np.flatnonzero(y_c == yc)
                weights = _real_matmul(sine[yr] * sine[yc], inverse)
                g[np.ix_(ra, cb)] = _real_matmul(sine[x_r[ra]], weights[:, None] * sine[x_c[cb]].T)
        return g

    return free_solve, green


def _torus_operator(stencils, diag: complex, period: int) -> tuple:
    """Free solve and Green's function of A0 on the period x period torus.

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
    # [a, b, ky, kx]: diag if a = b, plus exp(i (dy ky + dx kx)) summed over the
    # stencil entries from a to b, as one product over them; e[d + 1] = exp(i d t)
    symbol = np.empty((s, s, period, period), complex)
    e = np.exp(1j * np.outer(np.arange(-1, 2), t))
    for a, stencil in enumerate(stencils.values()):
        for b, nsub in enumerate(subs):
            dx, dy = (np.array([entry[i] for entry in stencil if entry[2] == nsub], int) + 1
                      for i in (0, 1))
            symbol[a, b] = e[dy].T @ e[dx] + (diag if a == b else 0)
    if s == 1:
        inverse = 1.0 / symbol
    else:  # the 2 x 2 adjugate over the determinant
        (p, q), (r, u) = symbol
        inverse = np.array([[u, -q], [-r, p]]) / (p * u - q * r)

    def free_solve(b):
        b = np.fft.fft2(b.reshape(s, period, period))
        return np.fft.ifft2(np.einsum("abyx,byx->ayx", inverse, b)).ravel()

    # g tiled to 2 period x 2 period, so that every offset between two sites
    # indexes it without a modulo.  On the honeycomb the symbol's diagonal
    # blocks are both diag and the v stencil mirrors the u stencil, so g_vv =
    # g_uu and g_vu(d) = g_uv(-d): two ifft2 give the tiles g_vu, g_uu and
    # g_uv, and sublattices (a, b) read tile 1 - a + b
    g = np.fft.ifft2(inverse[0])
    g = g if s == 1 else [np.roll(g[1, ::-1, ::-1], 1, axis=(0, 1)), *g]
    tiled, m = np.tile(g, (1, 2, 2)).ravel(), 2 * period

    def green(rows, cols):
        """G[R, C] for grid sites R and C."""
        a, y_r, x_r = np.unravel_index(rows, (s, period, period))
        b, y_c, x_c = np.unravel_index(cols, (s, period, period))
        at_r = (((s - 1) * (1 - a) * m + y_r + period) * m + x_r + period)[:, None]
        return np.take(tiled, at_r + ((b * m - y_c) * m - x_c))

    return free_solve, green


def _bonds(system: AssembledSystem, diag: complex) -> tuple | None:
    """Broken bonds read off the stencil table, as pairs of unknowns.

    The second unknown is -1 for a bond to a pinned or outside site.  On
    the free rows the table then differs from A0 (diag on the diagonal,
    weight one on every stencil coupling) by exactly B B^T, with one
    column e_i - e_j or e_i of B per bond.  None is returned when it
    differs by anything else.
    """
    weights, n = system.weights, system.weights.shape[0]
    rows = n // len(_STENCILS[system.spec.lattice])
    off = weights != 1  # one pass over the table, then read a column at a time
    own, ends, slot = [], [], []  # per sublattice the own slot's weights, found on its first row
    for start in range(0, n, rows):
        j_own = np.flatnonzero(system.neighbours[start] == start)[0]
        own.append(weights[start:start + rows, j_own])
        for j in np.flatnonzero(np.arange(weights.shape[1]) != j_own):
            ends.append(start + np.flatnonzero(off[start:start + rows, j]))
            slot.append(np.full(ends[-1].size, j))
    ends, slot = np.concatenate(ends), np.concatenate(slot)
    if np.any(weights[ends, slot]) or not np.array_equal(  # a weight neither one nor zero
            np.concatenate(own), diag + np.bincount(ends, minlength=n)):
        return None
    other = system.neighbours[ends, slot]
    # a bond between two unknowns is broken from both of them: keep it once
    inner = other >= 0
    a, b = ends[inner], other[inner]
    if not np.array_equal(*np.sort([a * n + b, b * n + a])):
        return None
    once = ~inner | (ends < other)
    return ends[once], other[once]


def _capacitance(system: AssembledSystem) -> tuple | None:
    """Capacitance matrix M of a window without Bloch rows, and solve(rhs).

    A0 is the free operator of _sine_operator or _torus_operator.  Each
    pinned site gets a multiplier lambda and each broken bond a multiplier
    mu for its column of B (_bonds): A0 w + P lambda + B mu = b, P^T w = 0,
    B^T w = mu.  With G = A0^-1, symmetric like A0, and y = G b, that is the
    capacitance matrix method (Buzbee, Dorr, George and Golub) in symmetric
    form, factored by LDL^T (zsytrf):

        M = [[G_PP, G_P. B], [B^T G_.P, I + B^T G B]],
        M [lambda; mu] = [y_P; B^T y],    w = y - G (P lambda + B mu).

    None is returned when the window is not of that form or M is singular.
    """
    spec = system.spec
    stencils = _STENCILS[spec.lattice]
    n = system.index_u.shape[1]
    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega * spec.incidence.omega)
    bonds = _bonds(system, diag)
    if bonds is None:
        return None
    square = spec.lattice is Lattice.SQUARE
    period, operator = (n, _sine_operator) if square else (n + 1, _torus_operator)
    free_solve, green = operator(stencils, diag, period)
    free = np.zeros((len(stencils), period, period), bool)
    free[:, :n, :n] = system.index_u >= 0  # a pinned site pins every sublattice
    sites = np.flatnonzero(free)  # grid sites of the unknowns
    # per multiplier the grid site of its +1, and of its -1 if paired
    ends, other = bonds
    plus = np.concatenate([np.flatnonzero(~free), sites[ends]])
    bond = np.arange(plus.size - ends.size, plus.size)
    paired, minus = bond[other >= 0], sites[other[other >= 0]]
    capacitance = green(plus, plus)  # M - [0, 0; 0, I] = K^T G K with K = [P B]
    cross = green(plus, minus)  # G is symmetric: G[minus, plus] = cross^T
    capacitance[:, paired] -= cross
    capacitance[paired] -= cross.T
    capacitance[np.ix_(paired, paired)] += green(minus, minus)
    capacitance[bond, bond] += 1.0
    # without the workspace query zsytrf runs unblocked, several times slower
    lwork = int(scipy.linalg.lapack.zsytrf_lwork(max(plus.size, 1))[0].real)
    ldl, pivots, info = scipy.linalg.lapack.zsytrf(capacitance, lwork=lwork)
    if info != 0:
        return None

    def solve(rhs):
        b = np.zeros(free.size, complex)
        b[sites] = rhs
        y = free_solve(b)
        r = y[plus]
        r[paired] -= y[minus]
        x = scipy.linalg.lapack.zsytrs(ldl, pivots, r)[0] if r.size else r  # zsytrs needs n > 0
        c = np.zeros(free.size, complex)
        np.add.at(c, np.r_[plus, minus], np.r_[x, -x[paired]])
        return (y - free_solve(c))[sites]

    return capacitance, solve


# bound on the relative residual and on every equation's backward error
# (_backward_errors) of a direct solve; the capacitance solve refines its
# answer at most _REFINE_STEPS times, to the tighter _REFINE_TOL, which keeps
# the field near the defects at about 1e-12 relative
_SOLVE_TOL = 1e-10
_REFINE_TOL = 1e-13
_REFINE_STEPS = 8


def _refined_solve(system: AssembledSystem, abs_matrix) -> tuple | None:
    """The capacitance solve, refined: w, its residual and backward errors.

    A free solve spreads rounding of order eps |b| over the whole grid, and
    the damped incident can span tens of orders of magnitude across the
    window, which buries the field near the defects.  Solving again for the
    residual of the equations whose backward error exceeds _REFINE_TOL, with
    the same factors, recovers it.  None is returned when _capacitance
    does, or after _REFINE_STEPS steps.
    """
    capacitance = _capacitance(system)
    if capacitance is None:
        return None
    solve = capacitance[1]
    w = solve(system.rhs)
    for step in range(_REFINE_STEPS + 1):
        residual, errors = _backward_errors(system, w, abs_matrix)
        bad = ~(errors <= _REFINE_TOL)  # NaN counts as missed
        if not bad.any():
            return w, residual, errors
        if step < _REFINE_STEPS:
            w = w + solve(np.where(bad, residual, 0))
    return None


def _capacitance_solve(system: AssembledSystem) -> np.ndarray | None:
    """The field of _refined_solve alone, or None."""
    refined = _refined_solve(system, abs(system.matrix))
    return None if refined is None else refined[0]


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
    capacitance matrix method (_capacitance, _refined_solve: sine transform
    on the square lattice, torus FFT on the triangular and honeycomb); a
    Bloch strip, or a window whose capacitance solve does not converge
    under iterative refinement, by a sparse LU.  On either path both the
    relative residual against system.matrix and the largest backward error
    of one equation (see _backward_errors) must come out below 1e-10, or
    SolveFailure is raised.  Eliminated (pinned) sites are filled with
    -incident so boundary conditions can be checked on the output.
    """
    spec = system.spec
    abs_matrix = abs(system.matrix)
    checked = _refined_solve(system, abs_matrix) if spec.bloch is None else None
    if checked is None:
        w = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        checked = (w, *_backward_errors(system, w, abs_matrix))
    w, residual, errors = checked
    norm_rhs = float(np.linalg.norm(system.rhs))
    residual = float(np.linalg.norm(residual))
    residual = residual / norm_rhs if norm_rhs > 0 else residual
    if not np.isfinite(residual) or residual > _SOLVE_TOL:
        raise SolveFailure("direct solve missed the residual contract", residual)
    backward = float(np.max(errors, initial=0.0))
    if not np.isfinite(backward) or backward > _SOLVE_TOL:
        raise SolveFailure("direct solve missed the backward error contract", backward)

    u = np.where(system.index_u >= 0, w[system.index_u] + system.bg_u, -system.incident_u)
    v = None if system.index_v is None else np.where(
        system.index_v >= 0, w[system.index_v], -system.incident_v)
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


def _half_sums(values: np.ndarray, xs: np.ndarray, offset: int, count: int):
    """Truncated sums sum_m values[offset+m] z^-m over each half range, at the
    count roots of unity z = exp(2 pi i k / count): as z^count = 1, each sum
    folds its terms mod count into one FFT."""
    def folded(terms):
        return np.pad(terms, (0, -terms.size % count)).reshape(-1, count).sum(0)

    i0 = int(offset - xs[0])
    plus = np.fft.fft(folded(values[i0:]))
    minus = count * np.fft.ifft(folded(np.r_[0, values[:i0][::-1]]))  # m = 0, -1, -2, ...
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
        plus, minus = _half_sums(rem, xs, offset, grid.count)
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
