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
neighbour (total field zero) drops out.

Only the rows next to a defect differ from the defect-free operator A0
of the window, and the right-hand side is exactly zero off them.  So
assemble stores the equations as a stencil table of those rows alone, a
weight and a neighbour per stored unknown and slot; every other equation
is A0's, read off _STENCILS.  A Bloch strip stores every row, for their
wrap weights.  AssembledSystem.full_table expands the table for the
readers that need every row: the matrix of the sparse LU, and the tests.

Every window without Bloch rows is solved by the capacitance matrix
method (_capacitance) with one free solve of A0, plus multipliers that
hold the pinned sites at zero and rank-one terms for the broken bonds,
read off the stored rows.  A0 is the square window with zero Dirichlet
data, or on the triangular and honeycomb lattices the torus of period
2L + 1 that the window wraps into, so the multipliers are the defects'
alone.  One free operator serves both, by dense per-axis tables (2-D
DST-I or DFT).  It transforms a source along y over its few rows only,
and the whole grid once per solve, for the field.  Bloch strips go to a
sparse LU, which alone builds a sparse matrix.  Either answer is refined
where a defect row runs through an incident far larger than the field
elsewhere (_refined_solve), and both must meet the same checks: the
relative residual, and every equation's backward error, read off the
stored rows and, for A0's rows, off shifted slices of the field on the
grid.

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

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .branches import Incidence, Lattice
from .errors import InvalidSpec, SolveFailure, WindowMismatch, WindowTooSmall
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

    @property
    def torus(self) -> bool:
        """Whether the window wraps into a torus (see assemble)."""
        return self.bloch is None and self.lattice is not Lattice.SQUARE

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
    """The window's equations: sum_j weights[r, j] w[neighbours[r, j]] = rhs[i]
    for the unknown i = stored[r], over the slots j with a neighbour, each
    neighbour once a row.  The table holds the stored rows only, the
    unknowns whose equation differs from A0 (all of them on a Bloch
    strip); every other equation is A0's: lattice_omega_shift(omega^2) on
    the diagonal, weight one to each _STENCILS neighbour and right-hand
    side 0.  full_table expands the table to every unknown, and matrix
    builds it as a CSR matrix, on each read; nothing stores either."""

    weights: np.ndarray       # stencil table [stored row, slot]: coupling, 0 for a broken bond
    neighbours: np.ndarray    # [stored row, slot]: unknown coupled, -1 if pinned or outside
    stored: np.ndarray        # the unknowns of the table's rows, ascending
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

    def full_table(self) -> tuple:
        """The stencil table of every unknown, (weights, neighbours): the
        stored rows, and A0's rows elsewhere."""
        n = self.rhs.size
        if self.stored.size == n:
            return self.weights, self.neighbours
        stencils, omega = _STENCILS[self.spec.lattice], self.spec.incidence.omega
        index = dict(zip(stencils, (self.index_u, self.index_v)))
        neighbours = _neighbour_table(self.spec, index, np.arange(self.index_u.shape[0]))
        weights = np.ones((len(stencils), n // len(stencils), neighbours.shape[1]), complex)
        for k, slots in enumerate(_slot_order(stencils)):  # A0's diagonal on the own slot
            weights[k, :, slots[0]] = lattice_omega_shift(self.spec.lattice, omega * omega)
        weights = weights.reshape(neighbours.shape)
        weights[self.stored], neighbours[self.stored] = self.weights, self.neighbours
        return weights, neighbours

    @property
    def matrix(self) -> sp.csr_matrix:
        """Every slot of the full table with a neighbour and a nonzero weight, as CSR."""
        weights, neighbours = self.full_table()
        keep = (neighbours >= 0) & (weights != 0)
        matrix = sp.csr_matrix((weights[keep], neighbours[keep],
                                np.r_[0, np.cumsum(keep.sum(1))]), shape=(self.rhs.size,) * 2)
        matrix.sort_indices()  # the wrapped rows of a Bloch strip
        return matrix

    def row_entries(self, x: int, y: int, sublattice: str = "u") -> dict:
        """Matrix row of the equation at a free site, keyed by column id."""
        i = self.site_id(x, y, sublattice)
        if i < 0:
            raise InvalidSpec(f"site ({x},{y},{sublattice}) is not a free unknown")
        weights, neighbours = self.full_table()
        return {int(c): complex(val) for c, val in zip(neighbours[i], weights[i])
                if c >= 0 and val != 0}

    def site_id(self, x: int, y: int, sublattice: str = "u") -> int:
        """Unknown id of a window site, -1 if it is pinned."""
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            raise WindowMismatch(f"site ({x},{y}) outside the window [{x0}, {x1}] x [{y0}, {y1}]")
        idx = self.index_u if sublattice == "u" else self.index_v
        return int(idx[y - y0, x - x0])


def _slot_order(stencils) -> list:
    """Per sublattice, the table slots of its own site and of each stencil
    entry in turn: the order of (sublattice, dy, dx), which is column order
    unless rows wrap."""
    subs = list(stencils)
    return [np.argsort(np.argsort([9 * k] + [9 * subs.index(nsub) + 3 * dy + dx
                                             for dx, dy, nsub, _ in stencil]))
            for k, stencil in enumerate(stencils.values())]


def _neighbour_table(spec: LatticeProblemSpec, index: dict, rows: np.ndarray) -> np.ndarray:
    """Neighbours [unknown, slot] of the free sites on the window rows `rows`,
    sublattice by sublattice, from the unknown ids `index` of the window.
    A torus wraps both ways; otherwise a neighbour is -1 outside the x
    range, and outside the y range unless Bloch rows wrap, and -1 pinned."""
    if spec.torus:
        col = {sub: np.pad(idx, 1, "wrap") for sub, idx in index.items()}
    elif spec.bloch is None:
        col = {sub: np.pad(idx, 1, constant_values=-1) for sub, idx in index.items()}
    else:
        wrapped = np.arange(-1, spec.bloch.period + 1) % spec.bloch.period
        col = {sub: np.pad(idx[wrapped], ((0, 0), (1, 1)), constant_values=-1)
               for sub, idx in index.items()}
    stencils, nx = _STENCILS[spec.lattice], index["u"].shape[1]
    tables = []
    for slots, (sub, stencil) in zip(_slot_order(stencils), stencils.items()):
        own = index[sub][rows]
        free = own >= 0
        table = np.empty((np.count_nonzero(free), slots.size), np.int64)
        table[:, slots[0]] = own[free]
        for j, (dx, dy, nsub, _) in zip(slots[1:], stencil):
            table[:, j] = col[nsub][rows + 1 + dy, 1 + dx:nx + 1 + dx][free]
        tables.append(table)
    return np.concatenate(tables)


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
    parts (incident plus backgrounds) moved to the right-hand side.  The
    stencil table keeps the equations that differ from A0: per stored
    unknown, one slot for itself and one per stencil neighbour, in column
    order unless rows wrap.

    The incident solves the defect-free equations A0, so the right-hand
    side holds only the terms the defects change (the equivalent sources
    of the total-field/scattered-field method), never a sum that cancels
    to zero: known_j - known_i for a bond broken from i to j, known_j for
    an intact bond to a pinned j.  A background solves the equations of
    its infinite defect, so it adds the same terms of that defect with the
    opposite sign: they cancel exactly past a lone defect's tip, leaving
    (A_def - A_inf)(incident + background).  Every other equation gets
    exactly 0: an equation differs from A0 only if its stencil reaches a
    crack row, a pinned row or a background's row, so the table, the
    sources, the zeroed weights of broken bonds and the raised diagonals
    are formed on those window rows alone (every row of a Bloch strip, for
    its wrap weights).  Bloch rows read the unwrapped incident, so
    this holds for any multiplier.  A torus reads the wrapped one: the
    incident then solves A0 everywhere but on the seam, and the right-hand
    side leaves that seam residual out, so the field solved is what the
    defects scatter.  Read unwrapped, a pinned row crossing the seam would
    get a false source |inc(L + 1) - inc(-L)|.
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

    bloch, torus = spec.bloch, spec.torus
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
    reach = crack.any(1) | pinned.any(1)  # padded rows holding a defect or a background's row
    for bg in _straight_backgrounds(spec):
        values, row = bg.evaluate(xs, ys), np.broadcast_to(ys == bg.row, padded)
        bg_pad += values
        reach |= row[:, 0]
        cut_pin = (row, none) if bg.kind == "crack" else (none, row)
        infinite.append((cut_pin, incident["u"] + values))
        if bg.kind == "constraint":
            image += np.where(row, values * (bg.mode - 1 / bg.mode), 0)
    known = dict(incident, u=incident["u"] + bg_pad)

    def shifted(arr, dx, dy):
        """Padded-grid values at (x+dx, y+dy) for every window site (x, y)."""
        return arr[1 + dy:ny + 1 + dy, 1 + dx:nx + 1 + dx]

    # the window rows whose stencil reaches a row of reach (padded rows y..y+2):
    # only their equations differ from A0, so the table stores their rows
    # alone and every other equation gets exactly 0.  A Bloch strip stores
    # every row: a row wrapped by shift periods couples with multiplier**shift
    if bloch is None:
        near = np.flatnonzero(np.convolve(reach, np.ones(3, int), "valid"))
    else:
        near = np.arange(ny)
        weight = np.broadcast_to((bloch.multiplier ** (np.arange(-1, ny + 1) // ny))[:, None],
                                 padded)

    def local(arr, dx, dy):
        """shifted(arr, dx, dy) on the rows near only."""
        return arr[near + 1 + dy, 1 + dx:nx + 1 + dx]

    # unknowns: free u sites row by row, then free v sites; pinned sites
    # (total field zero) are eliminated
    free = ~shifted(pinned, 0, 0)
    count = np.cumsum(free, dtype=np.int64).reshape(ny, nx)
    n_free = int(count[-1, -1])
    index = {sub: np.where(free, k * n_free + count - 1, -1) for k, sub in enumerate(stencils)}
    free_near = free[near]
    at = count[near][free_near] - 1  # unknown per free site of near, less k * n_free

    # the stencil table, a row per free site of near and sublattice: weight
    # one on an intact bond (Bloch: its wrap weight), zero on a broken one,
    # and the diagonal on the own slot
    neighbours = _neighbour_table(spec, index, near)
    diag_base = lattice_omega_shift(spec.lattice, w * w)
    weights = np.ones((len(stencils), at.size, neighbours.shape[1]), complex)
    rhs = np.zeros((len(stencils), n_free), complex)
    for k, (slots, (sub, stencil)) in enumerate(zip(_slot_order(stencils), stencils.items())):
        own = local(known[sub], 0, 0)
        source = 0 - local(image, 0, 0)  # backgrounds live on u only (square lattice)
        n_broken = np.zeros(own.shape, np.int64)  # coordination reduced by the missing bonds
        for j, (dx, dy, nsub, cell) in zip(slots[1:], stencil):
            if bloch is not None:
                weights[k, :, j] = local(weight, dx, dy)[free_near]
            cut = local(crack, *cell) if cell else np.zeros(own.shape, bool)
            n_broken += cut
            weights[k, cut[free_near], j] = 0
            terms = _slot_sources(cut, local(pinned, dx, dy), local(known[nsub], dx, dy), own)
            for (cuts, pins), total in infinite:  # less A0 bg, as its infinite defect's terms
                terms = terms - _slot_sources(local(cuts, *cell) if cell else False,
                                              local(pins, dx, dy), local(total, dx, dy),
                                              local(total, 0, 0))
            source += terms
        weights[k, :, slots[0]] = (diag_base + n_broken)[free_near]
        rhs[k, at] = source[free_near]
    weights = weights.reshape(neighbours.shape)
    if bloch is not None:  # a two-row strip couples a row twice to one site: one slot sums both
        for i, j in zip(*np.triu_indices(weights.shape[1], 1)):
            twice = (neighbours[:, i] == neighbours[:, j]) & (neighbours[:, j] >= 0)
            weights[twice, i] += weights[twice, j]
            weights[twice, j], neighbours[twice, j] = 0, -1
    return AssembledSystem(
        weights=weights,
        neighbours=neighbours,
        stored=(at + n_free * np.arange(len(stencils))[:, None]).ravel(),
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


def _product(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """table @ values, for a real table as one real product over the
    interleaved real and imaginary parts of values."""
    if np.isrealobj(table):
        return (table @ np.ascontiguousarray(values).view(float)).view(complex)
    return table @ values


@functools.lru_cache(maxsize=8)
def _axis_transform(n: int, torus: bool) -> tuple:
    """A0's transform along one axis of n sites, kept read-only per (n, torus):
    the forward table [mode, site], the inverse table [site, mode] and per
    mode the factor of a shift by d = -1, 0, 1 ([d + 1, mode]).  That is the
    orthonormal DST-I (its own inverse) with factors cos(d pi k / (n + 1)),
    or on the torus of period n the DFT with factors exp(2 pi i d k / n)."""
    d, k = np.arange(-1, 2), np.arange(n) if torus else np.arange(1, n + 1)
    jk = np.outer(k, k)
    if torus:
        root = np.exp(2j * np.pi * k / n)
        inverse = root[np.remainder(jk, n, out=jk)]
        tables = (inverse.conj(), inverse, root[np.outer(d, k) % n])
        inverse /= n
    else:  # sin(pi jk / (n + 1)) has period 2n + 2 in jk
        sine = np.sin(np.pi * np.arange(2 * n + 2) / (n + 1))[np.remainder(jk, 2 * n + 2, out=jk)]
        sine *= np.sqrt(2.0 / (n + 1))
        tables = (sine, sine, np.cos(np.outer(d, np.pi * k / (n + 1))))
    for table in tables:
        table.flags.writeable = False
    return tables


def _free_operator(stencils, diag: complex, n: int, torus: bool) -> tuple:
    """Free solve and Green's function of A0 on the n x n window, with zero
    Dirichlet data or, with torus set, wrapped into the torus of period n.

    The 2-D transform of _axis_transform diagonalizes A0 into an s x s matrix
    per mode over the s sublattices (2 x 2 on the honeycomb), inverted mode
    by mode; the DST-I does so for the square lattice's axis-aligned stencil
    only.  Returns free_solve(b), A0^-1 b for b on the grid; green(rows,
    cols), the block G[R, C] of G = A0^-1 for grid sites R and C; and
    solve_at(b, sites), (A0^-1 b)[sites] for a b on few grid rows.
    """
    forward, inverse, shift = _axis_transform(n, torus)
    subs = list(stencils)
    s = len(subs)
    # [a, b, ky, kx]: diag if a = b, plus the y times the x shift factors
    # summed over the stencil entries from a to b, as one product over them
    symbol = np.empty((s, s, n, n), complex)
    for a, stencil in enumerate(stencils.values()):
        for b, nsub in enumerate(subs):
            dx, dy = (np.array([entry[i] for entry in stencil if entry[2] == nsub], int) + 1
                      for i in (0, 1))
            np.matmul(shift[dy].T, shift[dx], out=symbol[a, b])
        symbol[a, a] += diag
    # inverted in place: 1 / symbol, or the 2 x 2 adjugate (diagonal blocks
    # swapped, the others negated) times 1 / det, det being the adjugate's too
    if s == 1:
        np.reciprocal(symbol, out=symbol)
    else:
        symbol[[0, 1], [0, 1]] = symbol[[1, 0], [1, 0]]
        symbol[[0, 1], [1, 0]] *= -1
        (p, q), (r, u) = symbol
        symbol *= 1.0 / (p * u - q * r)

    def modes(b):
        """symbol^-1 times the 2-D transform of b, along y over its nonzero rows only."""
        b = b.reshape(s, n, n)
        rows = np.flatnonzero(b.any((0, 2)))
        along_x = _product(forward, b[:, rows].transpose(0, 2, 1)).transpose(0, 2, 1)
        return np.einsum("abyx,byx->ayx", symbol, _product(forward[:, rows], along_x))

    def free_solve(b):
        along_y = _product(inverse, modes(b)).transpose(0, 2, 1)
        return _product(inverse, along_y).transpose(0, 2, 1).ravel()

    def solve_at(b, sites):
        """free_solve(b)[sites], transformed back over the rows of sites only."""
        a, y, x = np.unravel_index(sites, (s, n, n))
        targets, at = np.unique(y, return_inverse=True)
        return np.sum(inverse[x] * _product(inverse[targets], modes(b))[a, at], axis=-1)

    def green(rows, cols):
        """G[R, C] by blocks of one (sublattice, row) of R and one of C: the
        x-mode weights of such a pair sum the y-modes of its two rows."""
        (line_r, x_r), (line_c, x_c) = np.divmod(rows, n), np.divmod(cols, n)
        g = np.empty((rows.size, cols.size), complex)
        for lr in np.unique(line_r):
            for lc in np.unique(line_c):
                ra, cb = np.flatnonzero(line_r == lr), np.flatnonzero(line_c == lc)
                (a, yr), (b, yc) = divmod(lr, n), divmod(lc, n)
                mix = _product(inverse[yr] * forward[:, yc], symbol[a, b])
                g[np.ix_(ra, cb)] = _product(inverse[x_r[ra]], mix[:, None] * forward[:, x_c[cb]])
        return g

    return free_solve, green, solve_at


def _bonds(system: AssembledSystem, diag: complex) -> tuple | None:
    """Broken bonds read off the stored rows, as pairs of unknowns.

    The second unknown is -1 for a bond to a pinned site, or on the square
    window to a site outside it.  On the free rows the table then differs
    from A0 (diag on the diagonal, weight one on every stencil coupling) by
    exactly B B^T, with one column e_i - e_j or e_i of B per bond; the rows
    it does not store are A0's.  None is returned when it differs by
    anything else.  The bonds come by sublattice, then slot, then unknown.
    """
    weights, neighbours, stored = system.weights, system.neighbours, system.stored
    own = neighbours == stored[:, None]
    slot, at = np.nonzero(((weights != 1) & ~own).T)
    at_sub = stored[at] // (system.rhs.size // len(_STENCILS[system.spec.lattice]))
    order = np.argsort(at_sub, kind="stable")
    slot, at = slot[order], at[order]
    if np.any(weights[at, slot]) or not np.array_equal(  # a weight neither one nor zero
            weights[own], diag + np.bincount(at, minlength=stored.size)):
        return None
    n, ends, other = system.rhs.size, stored[at], neighbours[at, slot]
    # a bond between two unknowns is broken from both of them: keep it once
    inner = other >= 0
    a, b = ends[inner], other[inner]
    if not np.array_equal(*np.sort([a * n + b, b * n + a])):
        return None
    once = ~inner | (ends < other)
    return ends[once], other[once]


def _capacitance(system: AssembledSystem) -> tuple | None:
    """Capacitance matrix M of a window without Bloch rows, and solve(rhs).

    A0 is the free operator of the window itself (_free_operator): with
    zero Dirichlet data on the square, or on the torus a triangular or
    honeycomb window wraps into (LatticeProblemSpec.torus).  So M has a row
    per pinned site and per broken bond of the defects and no others, 100
    for a left half-row at L = 100.  Each pinned site gets a multiplier
    lambda and each broken bond a multiplier mu for its column of B
    (_bonds): A0 w + P lambda + B mu = b, P^T w = 0, B^T w = mu.  With
    G = A0^-1, symmetric like A0, and K = [P B], that is the capacitance
    matrix method (Buzbee, Dorr, George and Golub) in symmetric form,
    factored by LDL^T (zsytrf):

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
    free_solve, green, solve_at = _free_operator(stencils, diag, n, spec.torus)
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
    and |A| |w| are A0's on the grid (_free_products), then read off the
    table on the stored rows.
    """
    product, scale = _free_products(system, w)
    # w at each slot's neighbour, 0 at none; both sums add the slots in turn, in
    # the order of a CSR product off the Bloch rows
    weights, neighbours, stored = system.weights, system.neighbours, system.stored
    at = w[neighbours]
    at[neighbours < 0] = 0
    product[stored] = np.einsum("ij,ij->i", weights, at)
    scale[stored] = sum((np.abs(weights) * np.abs(at)).T)
    residual = np.subtract(system.rhs, product, out=product)
    scale += np.abs(system.rhs)
    np.maximum(scale, abs(system.spec.incidence.amplitude), out=scale)
    errors = np.divide(np.abs(residual), scale, out=np.zeros(scale.shape), where=scale > 0)
    return residual, errors


def _free_products(system: AssembledSystem, w: np.ndarray) -> tuple:
    """A0 w and |A0| |w| at every unknown: the diagonal times w plus shifted
    slices of w on the window padded by one site (zero outside the square
    window, wrapped on the torus), added in place.  |w| replaces w on the
    grid once A0 w is formed.  Left empty on a Bloch strip, whose rows are
    all stored."""
    n, spec = w.size, system.spec
    product, size = np.empty(n, complex), np.empty(n)
    if system.stored.size == n:
        return product, size
    stencils = _STENCILS[spec.lattice]
    subs = list(stencils)
    free = system.index_u >= 0
    (ny, nx), s = free.shape, len(subs)
    grid = np.zeros((s, ny + 2, nx + 2), complex)
    grid[:, 1:ny + 1, 1:nx + 1][:, free] = w.reshape(s, -1)
    if spec.torus:
        grid[:, 0], grid[:, -1] = grid[:, ny], grid[:, 1]
        grid[:, :, 0], grid[:, :, -1] = grid[:, :, nx], grid[:, :, 1]

    def accumulate(out, diag):
        total = np.empty((ny, nx), grid.dtype)
        for k, stencil in enumerate(stencils.values()):
            np.multiply(grid[k, 1:ny + 1, 1:nx + 1], diag, out=total)
            for dx, dy, nsub, _ in stencil:
                total += grid[subs.index(nsub), 1 + dy:ny + 1 + dy, 1 + dx:nx + 1 + dx]
            out.reshape(s, -1)[k] = total[free]

    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega * spec.incidence.omega)
    accumulate(product, diag)
    grid = np.abs(grid)
    accumulate(size, abs(diag))
    return product, size


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
