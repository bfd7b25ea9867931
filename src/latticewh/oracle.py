"""Independent finite-lattice direct solver and WH-equation verification.

The solver assembles the scattered-field equations on a truncated window
[-L, L]^2 (one vertical period with twisted coupling for Bloch problems;
otherwise, on the triangular and honeycomb lattices, a torus: the window
wrapped both ways) and solves them.  Defects are semi-infinite rows of
broken bonds (cracks) or pinned sites (rigid constraints), pointing left
(x < tip) or right (x >= tip).

Assembly is array code driven by one table, _STENCILS: per lattice, one
neighbour list per sublattice of entries (dx, dy, neighbour sublattice,
bond cell).  Masks on the window padded by one site (periodically on a
torus) mark pinned sites and cracked bonds; crack[y, x] is the bond
between (x, y) and the row below (honeycomb: u(x, y) -- v(x, y-1)), and
the bond to the neighbour is broken when crack[y+by, x+bx] is set for the
bond cell (bx, by).  A broken bond raises the diagonal by one; a pinned
neighbour (total field zero) drops out.  The equations come out as a
stencil table, a weight and a neighbour per unknown and slot; it is the
only stored form of them.

The right-hand side is exactly zero off the defect rows (assemble).
Every window without Bloch rows is then solved by the capacitance matrix
method (_capacitance) with one free solve of a defect-free operator A0,
plus multipliers that hold the pinned sites at zero and rank-one terms for
the broken bonds, read off the stencil table.  A0 is the square window
with zero Dirichlet data (2-D DST-I), or on the triangular and honeycomb
lattices the torus of period 2L + 1 that the window wraps into (2-D FFT,
per mode a 2 x 2 block on the honeycomb), so the multipliers are the
defects' alone.  Bloch strips go to a sparse LU, which alone builds a
sparse matrix.  Either answer is refined where a defect row runs through
an incident far larger than the field elsewhere (_refined_solve), and
both must meet the same checks, read off the table: the relative
residual, and every equation's backward error.

Truncation relies on the damping Im(omega) > 0.  The square window puts
zero Dirichlet data on the solved unknown.  On a torus a wave that leaves
at one edge re-enters at the other after about the path a reflection
takes; a defect row ends at the seam, so a crack there is finite.  The
known field wraps with the window, so a source across the seam reads the
site the seam leads to.  A right-pointing defect is illuminated by the
growing flank of the damped incident wave, so the plain scattered field
does not decay toward +x; for those configurations the solver subtracts
the closed-form response of the corresponding *infinite* straight defect
(a one-dimensional reflection problem solved exactly) and applies the
window to the remainder, which decays in every direction.  One such
background per window: two or more right-pointing defects are refused.
The returned FieldGrid always contains the full scattered field.

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

from .branches import Incidence, Lattice
from .errors import InvalidSpec, SolveFailure, WindowTooSmall
from .fields import (
    ComparisonReport,
    FieldGrid,
    compare_fields,
    lattice_omega_shift,
)
from .kernels import ScalarKernel, family_record, nodes_at, scalar_forcing, vector_forcing
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
        return row if self.bloch is None else row % self.bloch.period


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
    """Backgrounds for every right-pointing defect (empty tuple if none).

    At the incident's kx the square dispersion leaves two vertical modes,
    exp(-i ky) and exp(i ky); the background takes the one of modulus below
    one.  At ky = 0 (grazing incidence) neither decays, so InvalidSpec.

    Each background solves its own infinite defect alone.  On another
    right-pointing defect's row it leaves sources that grow toward +x with
    the incident, so a window never converges there: two or more
    right-pointing defects raise InvalidSpec too.
    """
    right = [d for d in spec.defects if d.side == "right"]
    if not right:
        return ()
    if len(right) > 1:
        raise InvalidSpec(f"{len(right)} right-pointing defects: the straight-defect "
                          "backgrounds support one")
    inc = spec.incidence
    kx, ky, amp = inc.kappa_x, inc.kappa_y, inc.amplitude
    if ky.imag == 0:
        raise InvalidSpec("right-pointing defects need ky != 0: at grazing incidence "
                          "no vertical mode decays")
    down = ky.imag < 0  # the incident itself decays upward: mode = exp(-i ky)
    mode = np.exp(-1j * ky) if down else np.exp(1j * ky)

    def coefficients(d):
        r = d.row
        if d.kind == "constraint":  # -incident on the pinned row, decaying to both sides
            above = -amp * np.exp(-1j * ky * r)
            return above, above * mode
        # -(sigma inc(r) + inc(r + 1)) / (sigma + mode) above and its mirror
        # below, sigma = 1 - 2 cos ky, with the 0/0 at ky -> 0 cancelled
        edge = amp * np.exp(-1j * ky * (r if down else r - 1))
        return (-edge, edge) if down else (edge, -edge)

    return tuple(_StraightBackground(d.kind, d.row, kx, mode, *map(complex, coefficients(d)))
                 for d in right)


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
    """The window's equations: sum_j weights[i, j] w[neighbours[i, j]] = rhs[i]
    over the slots j of row i with a neighbour, each neighbour once a row.
    matrix builds them as a CSR matrix on each read; nothing stores it."""

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

    @property
    def matrix(self) -> sp.csr_matrix:
        """Every slot of the table with a neighbour and a nonzero weight, as CSR."""
        keep = (self.neighbours >= 0) & (self.weights != 0)
        matrix = sp.csr_matrix((self.weights[keep], self.neighbours[keep],
                                np.r_[0, np.cumsum(keep.sum(1))]), shape=(self.rhs.size,) * 2)
        matrix.sort_indices()  # the wrapped rows of a Bloch strip
        return matrix

    def row_entries(self, x: int, y: int, sublattice: str = "u") -> dict:
        """Matrix row of the equation at a free site, keyed by column id."""
        i = self.site_id(x, y, sublattice)
        if i < 0:
            raise InvalidSpec(f"site ({x},{y},{sublattice}) is not a free unknown")
        return {int(c): complex(val) for c, val in zip(self.neighbours[i], self.weights[i])
                if c >= 0 and val != 0}

    def site_id(self, x: int, y: int, sublattice: str = "u") -> int:
        idx = self.index_u if sublattice == "u" else self.index_v
        return int(idx[y - self.y_range[0], x - self.x_range[0]])


def _slot_sources(cut, pinned, other, own):
    """One stencil slot's right-hand side terms where the equations differ
    from A0: other - own across a broken bond, other from a pinned site."""
    return np.where(cut, other - own, np.where(pinned, other, 0))


def assemble(spec: LatticeProblemSpec, half_width: int) -> AssembledSystem:
    """Assemble the truncated scattered-field equations.

    The solved unknown is the scattered field minus the closed-form
    straight-defect backgrounds (zero when no right-pointing defect is
    present).  Zero Dirichlet data closes a square window or a Bloch
    strip's columns; a triangular or honeycomb window without Bloch rows
    wraps into a torus, neighbours across an edge coupled with weight one.
    Every equation is the exact lattice equation of motion with all known
    parts (incident plus backgrounds) moved to the right-hand side, kept as
    a stencil table: per unknown, one slot for itself and one per stencil
    neighbour, in column order unless rows wrap.

    The incident solves the defect-free equations A0, so the right-hand
    side holds only the terms the defects change (the equivalent sources
    of the total-field/scattered-field method), never a sum that cancels
    to zero: known_j - known_i for a bond broken from i to j, known_j for
    an intact bond to a pinned j.  A background solves the equations of
    its infinite defect, so it adds the same terms of that defect with the
    opposite sign: they cancel exactly past a lone defect's tip, leaving
    (A_def - A_inf)(incident + background).  Every other equation gets
    exactly 0.  Bloch rows read the unwrapped incident, so this holds for
    any multiplier.  A torus reads the wrapped one: the incident then
    solves A0 everywhere but on the seam, and the right-hand side leaves
    that seam residual out, so the field solved is what the defects
    scatter.  Read unwrapped, a pinned row crossing the seam would get a
    false source |inc(L + 1) - inc(-L)|.
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
    torus = bloch is None and spec.lattice is not Lattice.SQUARE
    x0, x1 = -L, L
    y0, y1 = (0, bloch.period - 1) if bloch is not None else (-L, L)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    # masks and known field (incident + backgrounds) on the padded grid
    # [x0-1, x1+1] x [y0-1, y1+1]; window cells are [1:ny+1, 1:nx+1].  On a
    # torus the padded coordinates wrap, so every padded array is the
    # periodic pad of its window
    xs, ys = np.arange(x0 - 1, x1 + 2), np.arange(y0 - 1, y1 + 2)[:, None]
    if torus:
        xs, ys = x0 + (xs - x0) % nx, y0 + (ys - y0) % ny
    padded = (ys.size, xs.size)
    masks = {"crack": np.zeros(padded, bool), "constraint": np.zeros(padded, bool)}
    for d in spec.defects:
        masks[d.kind] |= (spec._norm_row(ys) == spec._norm_row(d.row)) & (
            (xs < d.tip) if d.side == "left" else (xs >= d.tip))
    crack, pinned = masks["crack"], masks["constraint"]

    stencils = _STENCILS[spec.lattice]
    incident = {sub: np.exp(-1j * inc.kappa_y * ys) * inc.field(xs, 0, sub) for sub in stencils}
    # a background solves the equations of its infinite defect (its row
    # unwrapped), so the terms of that defect with incident + bg give A0 bg;
    # on a pinned row a free vertical mode runs on to both sides, and there
    # A0 bg = bg (mode - 1 / mode)
    bg_pad, image = np.zeros(padded, complex), np.zeros(padded, complex)
    none, infinite = np.zeros(padded, bool), []
    for bg in _straight_backgrounds(spec):
        values, row = bg.evaluate(xs, ys), np.broadcast_to(ys == bg.row, padded)
        bg_pad += values
        cut_pin = (row, none) if bg.kind == "crack" else (none, row)
        infinite.append((cut_pin, incident["u"] + values))
        if bg.kind == "constraint":
            image += np.where(row, values * (bg.mode - 1 / bg.mode), 0)
    known = dict(incident, u=incident["u"] + bg_pad)

    def shifted(arr, dx, dy):
        """Padded-grid values at (x+dx, y+dy) for every window site (x, y)."""
        return arr[1 + dy:ny + 1 + dy, 1 + dx:nx + 1 + dx]

    # unknowns: free u sites row by row, then free v sites; pinned sites
    # (total field zero) are eliminated
    free = ~shifted(pinned, 0, 0)
    count = np.cumsum(free, dtype=np.int64).reshape(ny, nx)
    n_free = int(count[-1, -1])
    index = {sub: np.where(free, k * n_free + count - 1, -1) for k, sub in enumerate(stencils)}

    # neighbour columns on the padded grid: a torus wraps both ways with
    # weight one; otherwise -1 outside the x range, and outside the y range
    # unless Bloch rows wrap with weight multiplier**shift
    if torus:
        col = {sub: np.pad(idx, 1, "wrap") for sub, idx in index.items()}
    elif bloch is None:
        col = {sub: np.pad(idx, 1, constant_values=-1) for sub, idx in index.items()}
    else:
        shift, wrapped = np.divmod(np.arange(-1, ny + 1), ny)
        col = {sub: np.pad(idx[wrapped], ((0, 0), (1, 1)), constant_values=-1)
               for sub, idx in index.items()}
        weight = np.broadcast_to((bloch.multiplier**shift)[:, None], padded)

    # the stencil table, a row per unknown and its slots in the order of
    # (sublattice, dy, dx), column order unless rows wrap: weight one on
    # an intact bond (Bloch: its wrap weight), zero on a broken one, and the
    # diagonal on the own slot
    diag_base = lattice_omega_shift(spec.lattice, w * w)
    shape = (len(stencils), n_free, 1 + len(stencils["u"]))
    weights, neighbours = np.ones(shape, complex), np.empty(shape, np.int64)
    rhs = np.empty(shape[:2], complex)
    subs = list(stencils)
    for k, (sub, stencil) in enumerate(stencils.items()):
        slots = np.argsort(np.argsort([9 * k] + [9 * subs.index(nsub) + 3 * dy + dx
                                                 for dx, dy, nsub, _ in stencil]))
        own = shifted(known[sub], 0, 0)
        source = 0 - shifted(image, 0, 0)  # backgrounds live on u only (square lattice)
        n_broken = np.zeros((ny, nx), np.int64)  # coordination reduced by the missing bonds
        for j, (dx, dy, nsub, cell) in zip(slots[1:], stencil):
            neighbours[k, :, j] = shifted(col[nsub], dx, dy)[free]
            if bloch is not None:
                weights[k, :, j] = shifted(weight, dx, dy)[free]
            cut = shifted(crack, *cell) if cell else np.zeros((ny, nx), bool)
            n_broken += cut
            weights[k, cut[free], j] = 0
            terms = _slot_sources(cut, shifted(pinned, dx, dy), shifted(known[nsub], dx, dy), own)
            for (cuts, pins), total in infinite:  # less A0 bg, as its infinite defect's terms
                terms = terms - _slot_sources(shifted(cuts, *cell) if cell else False,
                                              shifted(pins, dx, dy), shifted(total, dx, dy),
                                              shifted(total, 0, 0))
            source += terms
        neighbours[k, :, slots[0]] = index[sub][free]
        weights[k, :, slots[0]] = (diag_base + n_broken)[free]
        rhs[k] = source[free]
    weights, neighbours = weights.reshape(-1, shape[2]), neighbours.reshape(-1, shape[2])
    if bloch is not None:  # a two-row strip couples a row twice to one site: one slot sums both
        for i, j in zip(*np.triu_indices(shape[2], 1)):
            twice = (neighbours[:, i] == neighbours[:, j]) & (neighbours[:, j] >= 0)
            weights[twice, i] += weights[twice, j]
            weights[twice, j], neighbours[twice, j] = 0, -1
    return AssembledSystem(
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
        incident_u=shifted(incident["u"], 0, 0),
        incident_v=shifted(incident["v"], 0, 0) if "v" in incident else None,
    )


def _real_matmul(real: np.ndarray, cplx: np.ndarray) -> np.ndarray:
    """real @ cplx as one real product over the interleaved real/imaginary parts."""
    return (real @ np.ascontiguousarray(cplx).view(float)).view(complex)


def _sine_operator(stencils, diag: complex, n: int) -> tuple:
    """Free solve and Green's function of A0 on the n x n square window.

    With zero Dirichlet data the 2-D DST-I diagonalizes A0 of an axis-aligned
    stencil, the square lattice's, into diag plus a cosine in kx and one in
    ky.  Returns free_solve(b), A0^-1 b for b on the grid; green(rows, cols),
    the block G[R, C] of G = A0^-1 for grid sites R and C; and solve_at(b,
    sites), (A0^-1 b)[sites] for a b on few grid rows.
    """
    # orthonormal DST-I matrix (symmetric, its own inverse); A0's symbol on modes [ky, kx]
    k = np.arange(1, n + 1)
    sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(2 * n + 2) / (n + 1))[
        np.outer(k, k) % (2 * n + 2)]  # sin(pi jk / (n + 1)) has period 2n + 2 in jk
    t = np.pi * k / (n + 1)
    cos_x = sum(np.cos(dx * t) for dx, dy, *_ in stencils["u"] if dy == 0)
    cos_y = sum(np.cos(dy * t) for dx, dy, *_ in stencils["u"] if dx == 0)
    inverse = 1.0 / (diag + cos_x + cos_y[:, None])

    def modes(b):
        """(S b S) / symbol, transformed over the nonzero rows of b only."""
        b = b.reshape(n, n)
        rows = np.flatnonzero(b.any(1))
        return _real_matmul(sine[:, rows], _real_matmul(sine, b[rows].T).T) * inverse

    def free_solve(b):
        """S ((S b S) / symbol) S."""
        return _real_matmul(sine, _real_matmul(sine, modes(b)).T).T.ravel()

    def solve_at(b, sites):
        """free_solve(b)[sites], transformed back over the rows of sites only."""
        y, x = np.divmod(sites, n)
        targets, at = np.unique(y, return_inverse=True)
        return _real_matmul(sine, _real_matmul(sine[targets], modes(b)).T)[x, at]

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

    return free_solve, green, solve_at


def _torus_operator(stencils, diag: complex, period: int) -> tuple:
    """Free solve and Green's function of A0 on the period x period torus.

    A triangular or honeycomb window of n = 2L + 1 sites a side wraps into
    the torus of period n (assemble), so A0 is its table's own free part.
    A0 is a convolution on each sublattice pair, so one 2-D FFT diagonalizes
    it: per mode it is an s x s matrix over the s sublattices (1 x 1 on the
    triangular lattice, 2 x 2 on the honeycomb), inverted mode by mode.  G =
    A0^-1 is then the convolution G[(a, c), (b, r)] = g_ab[(c - r) mod period]
    with g = ifft2 of that inverse.  Returns free_solve, green and solve_at
    as _sine_operator does; solve_at gathers G over the sources of b.
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

    def solve_at(b, sites):
        source = np.flatnonzero(b)
        return green(sites, source) @ b[source]

    return free_solve, green, solve_at


def _bonds(system: AssembledSystem, diag: complex) -> tuple | None:
    """Broken bonds read off the stencil table, as pairs of unknowns.

    The second unknown is -1 for a bond to a pinned site, or on the square
    window to a site outside it.  On the free rows the table then differs
    from A0 (diag on the diagonal, weight one on every stencil coupling) by
    exactly B B^T, with one column e_i - e_j or e_i of B per bond.  None is
    returned when it differs by anything else.
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

    A0 is the free operator of the window itself: _sine_operator on the
    square, _torus_operator on the torus a triangular or honeycomb window
    wraps into.  So M has a row per pinned site and per broken bond of the
    defects and no others, 100 for a left half-row at L = 100.  Each
    pinned site gets a multiplier lambda and each broken bond a multiplier
    mu for its column of B (_bonds): A0 w + P lambda + B mu = b, P^T w = 0,
    B^T w = mu.  With G = A0^-1, symmetric like A0, and K = [P B], that is
    the capacitance matrix method (Buzbee, Dorr, George and Golub) in
    symmetric form, factored by LDL^T (zsytrf):

        M = K^T G K + [[0, 0], [0, I]],    M x = K^T G b,    w = G (b - K x).

    b lives on a few rows (assemble), so K^T G b reads G b at the multiplier
    sites only (solve_at) and a solve takes one full free solve.  None is
    returned when the window is not of that form or M is singular.
    """
    spec = system.spec
    stencils = _STENCILS[spec.lattice]
    n = system.index_u.shape[1]
    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega * spec.incidence.omega)
    bonds = _bonds(system, diag)
    if bonds is None:
        return None
    operator = _sine_operator if spec.lattice is Lattice.SQUARE else _torus_operator
    free_solve, green, solve_at = operator(stencils, diag, n)
    # a pinned site pins every sublattice
    free = np.broadcast_to(system.index_u >= 0, (len(stencils), n, n))
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
        y = solve_at(b, np.r_[plus, minus])  # K^T y needs y only at the multiplier sites
        r = y[:plus.size]
        r[paired] -= y[plus.size:]
        x = scipy.linalg.lapack.zsytrs(ldl, pivots, r)[0] if r.size else r  # zsytrs needs n > 0
        np.subtract.at(b, np.r_[plus, minus], np.r_[x, -x[paired]])
        return free_solve(b)[sites]

    return capacitance, solve


# bound on the relative residual and on every equation's backward error
# (_backward_errors) of a direct solve; a solve refines its answer at most
# _REFINE_STEPS times, to the tighter _REFINE_TOL
_SOLVE_TOL = 1e-10
_REFINE_TOL = 1e-13
_REFINE_STEPS = 8


def _refined_solve(system: AssembledSystem, solve) -> tuple:
    """solve(system.rhs), refined where needed: w, its residual and backward errors.

    A free solve spreads rounding of order eps |b| over the whole grid, which
    buries equations of small scale when a defect row runs through a much
    larger incident.  Solving again with the same factors for the residual
    of the equations whose backward error exceeds _REFINE_TOL recovers them;
    where the defect rows pass near the origin no step is taken.
    """
    w = solve(system.rhs)
    for step in range(_REFINE_STEPS + 1):
        residual, errors = _backward_errors(system, w)
        bad = ~(errors <= _REFINE_TOL)  # NaN counts as missed
        if step == _REFINE_STEPS or not bad.any():
            return w, residual, errors
        w = w + solve(np.where(bad, residual, 0))


def _backward_errors(system: AssembledSystem, w: np.ndarray) -> tuple:
    """Residual r = b - A w and each equation's backward error.

    That is the componentwise backward error |r_i| / (|A| |w| + |b|)_i of
    Oettli and Prager, except that the scale of an equation never drops
    below the incident amplitude: the field is compared at that scale, and
    no fast solve resolves equations 30 orders of magnitude below it.  A w
    and |A| |w| are read off the stencil table.
    """
    # w at each slot's neighbour, 0 at none; both sums add the slots in turn, in
    # the order of a CSR product off the Bloch rows
    weights, neighbours = system.weights, system.neighbours
    residual = system.rhs - np.einsum("ij,ij->i", weights, np.append(w, 0)[neighbours])
    scale = np.maximum(sum((np.abs(weights) * np.append(np.abs(w), 0)[neighbours]).T)
                       + np.abs(system.rhs), abs(system.spec.incidence.amplitude))
    errors = np.divide(np.abs(residual), scale, out=np.zeros(scale.shape), where=scale > 0)
    return residual, errors


def solve_direct(system: AssembledSystem) -> FieldGrid:
    """Solve the assembled system; returns the scattered field.

    A window without Bloch rows, on any lattice, is solved by the
    capacitance matrix method (_capacitance), a Bloch strip or a window
    that _bonds rejects by a sparse LU of system.matrix (its one CSR
    build), either refined by _refined_solve.  The relative residual and
    the largest backward error of one equation (see _backward_errors) must
    come out below 1e-10, or SolveFailure is raised.  Eliminated (pinned)
    sites are filled with -incident so boundary conditions can be checked
    on the output.
    """
    spec = system.spec
    capacitance = _capacitance(system) if spec.bloch is None else None
    solve = spla.splu(system.matrix.tocsc()).solve if capacitance is None else capacitance[1]
    w, residual, errors = _refined_solve(system, solve)
    residual = float(np.linalg.norm(residual)) / (float(np.linalg.norm(system.rhs)) or 1.0)
    backward = float(np.max(errors, initial=0.0))
    for name, value in (("residual", residual), ("backward error", backward)):
        if not value <= _SOLVE_TOL:  # NaN counts as missed
            raise SolveFailure(f"direct solve missed the {name} contract", value)

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
    at = nodes_at(kernel, nodes)
    rows = forcing.rows(nodes, at).reshape(-1, nodes.size, dim)
    c = rows[0]
    for i, (sub, x, y) in enumerate(forcing.constant_ids, start=1):
        c = c + field.value(x, y, sub) * rows[i]
    k = at.kernel if kernel_eval is None else sample(kernel_eval, grid)
    k = k.reshape(nodes.size, dim, dim)
    res = f_plus + np.einsum("nij,nj->ni", k, f_minus) - c
    return float(np.max(np.abs(res))) / max(1.0, float(np.max(np.abs(c))))


def problem_for(kernel, incidence: Incidence) -> LatticeProblemSpec:
    """Defect layout matching a kernel descriptor, for oracle runs."""
    rec = family_record(kernel.family)
    defects, period = rec.defects(kernel)
    bloch = None if period is None else BlochSpec(period=period,
                                                  multiplier=complex(kernel.psi))
    return LatticeProblemSpec(rec.lattice, tuple(Defect(*d) for d in defects), incidence, bloch)
