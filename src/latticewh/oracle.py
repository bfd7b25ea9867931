"""Independent finite-lattice direct solver and WH-equation verification.

The solver assembles the scattered-field equations on a truncated window
[-L, L]^2, wrapped both ways into a torus (for Bloch problems one vertical
period, wrapped along y with twisted coupling), and solves them.  Defects
are semi-infinite rows of broken bonds (cracks) or pinned sites (rigid
constraints), pointing left (x < tip) or right (x >= tip), on a row of the
window (any row of a strip, taken modulo its period).

Assembly is array code driven by one table of the lattices' equations of
motion, _STENCILS, which lives in branches beside Lattice: per lattice, one
neighbour list per sublattice of entries (dx, dy, neighbour sublattice,
bond cell).  Masks on the window padded periodically by one site mark
pinned sites and cracked bonds; crack[y, x] is the bond between (x, y) and
the row below (honeycomb: u(x, y) -- v(x, y-1)), and the bond to the
neighbour is broken when crack[y+by, x+bx] is set for the bond cell (bx,
by).  A broken bond raises the diagonal by one; a pinned neighbour (total
field zero) drops out.

Only the rows next to a defect differ from the defect-free operator A0
of the window, and the right-hand side is exactly zero off them.  So
assemble stores the equations of those rows alone, on the window's grid
sites ([sublattice, y, x] flattened; a pinned site has no equation): a
stencil table of a weight and a neighbouring site per stored site and
slot, and one right-hand side value per stored site; every other
equation is A0's, read off _STENCILS.  A Bloch strip stores every row,
for their wrap weights.  assemble also records each bond it breaks, with
A0's coupling across it.  AssembledSystem.matrix is the one view that
numbers the unknowns, the free sites, as CSR: the solver never reads it,
but the tests' sparse LU references and perfbench's counts do.

Every window is solved by the capacitance matrix method (_capacitance): one
free solve of A0, plus multipliers that hold the pinned sites at zero and
rank-one terms for the recorded broken bonds.  A0 is the window's own, on
the torus of period 2L + 1 or the Bloch strip, so the multipliers are the
defects' alone.  One free operator serves both, by dense per-axis tables of
the period's DFT, one scalar per mode: in its real Hartley form on the
square lattice, whose stencil is even along each axis, complex on the
others, and along a strip's rows twisted by the multiplier.  On the
honeycomb it eliminates v, whose neighbours are all u sites: u solves the
triangular lattice's operator at the reduced frequency, composed from
_STENCILS (_reduced_stencil), and v follows from u by its stencil.  It
transforms a source along y over its few rows only, and u on the whole grid
once per solve, for the field; the capacitance matrix is filled from
Toeplitz blocks of its Green's function.  A solve holds two full-grid
arrays besides the operator's symbol, the modes of u and the field, and
copies neither: the field, exactly zero at the pinned sites, is the
solution vector, and the returned FieldGrid's arrays are views of it.  The
answer is refined where a defect row runs through an incident far larger
than the field elsewhere (_refined_solve), and must meet the relative
residual and every equation's backward error, read off the stored rows and,
for A0's rows, off shifted slices of the field on the grid, summed in
place.

Truncation relies on the damping Im(omega) > 0.  A wave that leaves the
window at one edge re-enters at the other after about the path a reflection
takes; a defect row ends at the seam, so a crack there is finite.  The
known field wraps with the window, so a source across the seam reads the
site the seam leads to.  A right-pointing defect is illuminated by the
growing flank of the damped incident wave, so the plain scattered field
does not decay toward +x; for those configurations the solver subtracts the
closed-form response of the corresponding *infinite* straight defect (a
one-dimensional reflection problem solved exactly) and applies the window
to the remainder, which decays in every direction.  One such background per
window: two or more right-pointing defects are refused.  The system holds
only the window's equations; solve_direct evaluates the known fields on the
window for its output, which always contains the full scattered field: the
background added back at the free sites, and -incident at the pinned ones.

wh_residual checks the paper's functional equation f+ + K f- = c directly
against oracle data: half-range transforms are truncated sums of the
remainder plus exact geometric closed forms of the background and the
incident parts, and unknown lattice constants are read off the field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .branches import _STENCILS, Incidence, Lattice, lattice_omega_shift
from .errors import InvalidSpec, SolveFailure, WindowTooSmall
from .fields import FieldGrid
from .kernels import ScalarKernel, family_record, nodes_at, scalar_forcing, vector_forcing
from .series import CircleGrid, sample

__all__ = [
    "Defect",
    "BlochSpec",
    "LatticeProblemSpec",
    "AssembledSystem",
    "assemble",
    "solve_direct",
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
        if self.incidence.omega is None:
            raise InvalidSpec("the incidence carries no omega (dispersion_solve sets it)")
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
            if self.bloch.multiplier == 0 or not np.isfinite(self.bloch.multiplier):
                raise InvalidSpec("the Bloch multiplier must be finite and nonzero")
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


def _straight_background(spec: LatticeProblemSpec) -> _StraightBackground | None:
    """Background of the right-pointing defect, None without one.

    At the incident's kx the square dispersion leaves two vertical modes,
    exp(-i ky) and exp(i ky); the background takes the one of modulus below
    one.  At ky = 0 (grazing incidence) neither decays, so InvalidSpec.

    A background solves its own infinite defect alone.  On another
    right-pointing defect's row it leaves sources that grow toward +x with
    the incident, so a window never converges there: two or more
    right-pointing defects raise InvalidSpec too.
    """
    right = [d for d in spec.defects if d.side == "right"]
    if not right:
        return None
    if len(right) > 1:
        raise InvalidSpec(f"{len(right)} right-pointing defects: the straight-defect "
                          "backgrounds support one")
    (d,) = right
    inc = spec.incidence
    ky, amp = inc.kappa_y, inc.amplitude
    if ky.imag == 0:
        raise InvalidSpec("right-pointing defects need ky != 0: at grazing incidence "
                          "no vertical mode decays")
    down = ky.imag < 0  # the incident itself decays upward: mode = exp(-i ky)
    mode = np.exp(-1j * ky) if down else np.exp(1j * ky)
    if d.kind == "constraint":  # -incident on the pinned row, decaying to both sides
        above = -amp * np.exp(-1j * ky * d.row)
        below = above * mode
    else:  # -(sigma inc(r) + inc(r + 1)) / (sigma + mode) above and its mirror
        # below, sigma = 1 - 2 cos ky, with the 0/0 at ky -> 0 cancelled
        edge = amp * np.exp(-1j * ky * (d.row if down else d.row - 1))
        above, below = (-edge, edge) if down else (edge, -edge)
    return _StraightBackground(d.kind, d.row, inc.kappa_x, mode, complex(above), complex(below))


# --- assembly ----------------------------------------------------------------

@dataclass
class AssembledSystem:
    """The window's equations on its grid sites, [sublattice, y, x]
    flattened: sum_j weights[r, j] w[neighbours[r, j]] = rhs[r] at the site
    stored[r], over the slots j with a neighbour, each neighbour once a
    row.  The table holds the stored rows only, the free sites whose
    equation differs from A0 (all of them on a Bloch strip); every other
    free site's equation is A0's: lattice_omega_shift(omega^2) on the
    diagonal, weight one to each neighbour in the lattice's entry of
    branches._STENCILS and right-hand side 0.  A pinned site has no
    equation.  bonds holds each broken slot from before a two-row strip
    folds two couplings into one.  Slot 0 of a row is the site itself, slot
    j its lattice's stencil entry j.  The solver reads grid sites alone;
    matrix is the one view that numbers the unknowns, for the tests' sparse
    LU references and perfbench's counts."""

    weights: np.ndarray       # stencil table [stored row, slot]: coupling, 0 for a broken bond
    neighbours: np.ndarray    # [stored row, slot]: grid site coupled, -1 if pinned
    stored: np.ndarray        # the grid sites of the table's rows, ascending
    bonds: tuple              # per broken slot: grid site, neighbour or -1, A0's coupling (1, or
                              # psi^+-1 across a strip's wrap)
    rhs: np.ndarray           # [stored row]
    spec: LatticeProblemSpec
    half_width: int
    x_range: tuple[int, int]
    y_range: tuple[int, int]
    free: np.ndarray          # [y, x]: not pinned (a pinned site pins every sublattice)

    @property
    def pinned(self) -> np.ndarray:
        """The pinned grid sites, ascending."""
        s = len(_STENCILS[self.spec.lattice])
        return np.flatnonzero(~np.broadcast_to(self.free, (s, *self.free.shape)))

    @property
    def matrix(self):
        """The window's equations as a scipy.sparse CSR matrix on the
        unknowns, the free sites numbered row by row, sublattice by
        sublattice: A0's rows with the stored rows laid over them, each slot
        with a neighbour and a nonzero weight.  Built on each read, importing
        scipy.sparse here: importing the package loads no scipy module."""
        import scipy.sparse as sp

        spec, free, w = self.spec, self.free, self.spec.incidence.omega
        # the unknown id of each free grid site, the count of free sites before it
        ids = np.cumsum(np.broadcast_to(free, (len(_STENCILS[spec.lattice]), *free.shape))) - 1
        neighbours = _neighbour_table(spec, free, np.arange(free.shape[0]))
        weights = np.ones(neighbours.shape, complex)
        weights[:, 0] = lattice_omega_shift(spec.lattice, w * w)  # A0's diagonal
        at = ids[self.stored]
        weights[at], neighbours[at] = self.weights, self.neighbours
        keep = (neighbours >= 0) & (weights != 0)
        matrix = sp.csr_matrix((weights[keep], ids[neighbours[keep]],
                                np.r_[0, np.cumsum(keep.sum(1))]), shape=(len(weights),) * 2)
        matrix.sort_indices()  # the rows that wrap
        return matrix


def _neighbour_table(spec: LatticeProblemSpec, free: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Grid sites [row, slot] of the free sites (mask free [y, x]) on the
    window rows `rows` and of their neighbours, sublattice by sublattice.
    The window wraps both ways (a Bloch strip's rows with its multiplier,
    which the weights carry), so a neighbour is -1 only where it is pinned.
    Only the rows next to `rows` are read, padded by one column."""
    ny, nx = free.shape
    stencils = _STENCILS[spec.lattice]

    def sites(k, y):  # the grid sites of window rows y of sublattice k, -1 where pinned
        return np.where(free[y], (k * ny + y)[..., None] * nx + np.arange(nx), -1)

    near = (rows[:, None] + np.arange(-1, 2)) % ny  # window rows y - 1, y, y + 1 of each row y
    band = {sub: np.pad(sites(k, near), ((0, 0), (0, 0), (1, 1)), mode="wrap")
            for k, sub in enumerate(stencils)}
    tables, kept = [], free[rows]
    for k, stencil in enumerate(stencils.values()):
        table = np.empty((np.count_nonzero(kept), 1 + len(stencil)), np.int64)
        table[:, 0] = sites(k, rows)[kept]
        for j, (dx, dy, nsub, _) in enumerate(stencil, 1):
            table[:, j] = band[nsub][:, 1 + dy, 1 + dx:nx + 1 + dx][kept]
        tables.append(table)
    return np.concatenate(tables)


def _slot_sources(cut, pinned, other, own):
    """One stencil slot's right-hand side terms where the equations differ
    from A0: other - own across a broken bond, other from a pinned site."""
    return np.where(cut, other - own, np.where(pinned, other, 0))


def assemble(spec: LatticeProblemSpec, half_width: int) -> AssembledSystem:
    """Assemble the truncated scattered-field equations.

    The solved unknown is the scattered field minus the closed-form
    straight-defect background (zero when no right-pointing defect is
    present).  Every window wraps along x, and along y unless it is a
    Bloch strip, whose rows wrap with the multiplier: the torus of period
    2L + 1, neighbours across an edge coupled with weight one.  Every
    equation is the exact lattice equation of motion with all known
    parts (incident plus background) moved to the right-hand side.  The
    stencil table keeps the equations that differ from A0: per stored
    site, one slot for itself and one per stencil neighbour.  A defect
    row must lie in the window (taken modulo the period on a Bloch strip):
    one past it raises WindowTooSmall.

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
    are formed on those window rows alone, and the known fields on them
    and the rows next to them (every row of a Bloch strip, for its wrap
    weights).  Bloch rows read the unwrapped incident, so this holds for
    any multiplier.  Across every other seam the known field wraps with
    the window: it then solves its own equations (A0, or the infinite
    defect's) everywhere but on the seam, and the right-hand side leaves
    that seam residual out, known(wrapped) - known(continued) per
    neighbour that wraps, so the field solved is what the defects scatter.
    Read unwrapped, a pinned row crossing the seam would get a false
    source |inc(L + 1) - inc(-L)|.
    """
    L = int(half_width)
    if L < 20:
        raise InvalidSpec("half width must be >= 20")
    for d in spec.defects:
        if abs(d.tip) >= L // 2:
            raise WindowTooSmall(f"tip offset {d.tip} needs half width >= {2 * abs(d.tip) + 2}")
        if spec.bloch is None and abs(d.row) > L:
            raise WindowTooSmall(f"defect row {d.row} needs half width >= {abs(d.row)}")
    inc = spec.incidence
    w = inc.omega
    if w.imag <= 0:
        raise InvalidSpec("oracle solves require Im(omega) > 0")

    bloch = spec.bloch
    x0, x1 = -L, L
    y0, y1 = (0, bloch.period - 1) if bloch is not None else (-L, L)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    # masks on the padded grid [x0-1, x1+1] x [y0-1, y1+1], and the known
    # field (incident + background) on the padded rows read below; window
    # cells are [1:ny+1, 1:nx+1].  The padded coordinates wrap (a Bloch
    # strip's rows by its multiplier instead), so every padded array is the
    # periodic pad of its window
    xs, ys = x0 + np.arange(-1, nx + 1) % nx, np.arange(y0 - 1, y1 + 2)[:, None]
    if bloch is None:
        ys = y0 + (ys - y0) % ny
    padded = (ys.size, xs.size)
    masks = {"crack": np.zeros(padded, bool), "constraint": np.zeros(padded, bool)}
    for d in spec.defects:
        masks[d.kind] |= (spec._norm_row(ys) == spec._norm_row(d.row)) & (
            (xs < d.tip) if d.side == "left" else (xs >= d.tip))
    crack, pinned = masks["crack"], masks["constraint"]

    # the window rows whose stencil reaches a row of reach (padded rows y..y+2):
    # only their equations differ from A0, so the table stores their rows
    # alone and every other equation gets exactly 0.  A Bloch strip stores
    # every row: a row wrapped by shift periods couples with multiplier**shift
    reach = crack.any(1) | pinned.any(1)  # padded rows holding a defect or the background's row
    bg = _straight_background(spec)
    if bg is not None:
        reach |= ys[:, 0] == bg.row
    if bloch is None:
        near = np.flatnonzero(np.convolve(reach, np.ones(3, int), "valid"))
    else:
        near = np.arange(ny)
    # the padded rows those rows read, where alone the known fields are formed
    read = np.unique(near[:, None] + np.arange(3))
    ys, crack, pinned_read = ys[read], crack[read], pinned[read]
    if bloch is not None:
        weight = np.broadcast_to((bloch.multiplier ** (np.arange(-1, ny + 1) // ny))[:, None],
                                 padded)[read]

    stencils = _STENCILS[spec.lattice]
    incident = {sub: np.exp(-1j * inc.kappa_y * ys) * inc.field(xs, 0, sub) for sub in stencils}
    # a background solves the equations of its infinite defect (its row
    # unwrapped), so the terms of that defect with incident + bg give A0 bg;
    # on a pinned row a free vertical mode runs on to both sides, and there
    # A0 bg = bg (mode - 1 / mode).  Without a background no grid is formed
    known, image = incident, None
    if bg is not None:
        bg_pad, row = bg.evaluate(xs, ys), np.broadcast_to(ys == bg.row, crack.shape)
        none = np.zeros(crack.shape, bool)
        cuts, pins = (row, none) if bg.kind == "crack" else (none, row)
        known = dict(incident, u=incident["u"] + bg_pad)
        if bg.kind == "constraint":
            image = np.where(row, bg_pad * (bg.mode - 1 / bg.mode), 0)

    at_y = np.searchsorted(read, near) + 1  # the row of read holding each row of near

    def local(arr, dx, dy):
        """Values at (x+dx, y+dy) for every window site (x, y) of the rows
        near, from an array over the padded rows read."""
        return arr[at_y + dy, 1 + dx:nx + 1 + dx]

    # a pinned site (total field zero) has no equation
    free = ~pinned[1:ny + 1, 1:nx + 1]
    free_near = free[near]

    # the stencil table, a row per free site of near and sublattice: weight
    # one on an intact bond (Bloch: its wrap weight), zero on a broken one,
    # and the diagonal on the own slot
    neighbours = _neighbour_table(spec, free, near)
    table = neighbours.reshape(len(stencils), -1, neighbours.shape[1])  # a view
    diag_base = lattice_omega_shift(spec.lattice, w * w)
    weights = np.ones(table.shape, complex)
    rhs = np.empty(table.shape[:2], complex)
    bonds = []  # per broken slot: the site, its neighbour, A0's coupling between them
    for k, (sub, stencil) in enumerate(stencils.items()):
        own = local(known[sub], 0, 0)
        # the background lives on u only (square lattice)
        source = np.zeros(own.shape, complex) if image is None else 0 - local(image, 0, 0)
        n_broken = np.zeros(own.shape, np.int64)  # coordination reduced by the missing bonds
        for j, (dx, dy, nsub, cell) in enumerate(stencil, 1):
            if bloch is not None:
                weights[k, :, j] = local(weight, dx, dy)[free_near]
            cut = local(crack, *cell) if cell else np.zeros(own.shape, bool)
            n_broken += cut
            broken = cut[free_near]
            bonds.append((table[k, broken, 0], table[k, broken, j], weights[k, broken, j]))
            weights[k, broken, j] = 0
            terms = _slot_sources(cut, local(pinned_read, dx, dy), local(known[nsub], dx, dy),
                                  own)
            if bg is not None:  # less A0 bg, as its infinite defect's terms
                terms = terms - _slot_sources(local(cuts, *cell) if cell else False,
                                              local(pins, dx, dy), local(known["u"], dx, dy),
                                              local(known["u"], 0, 0))
            source += terms
        weights[k, :, 0] = (diag_base + n_broken)[free_near]
        rhs[k] = source[free_near]
    weights = weights.reshape(neighbours.shape)
    stored = neighbours[:, 0].copy()  # slot 0 of a row is its own site
    if bloch is not None:  # a two-row strip couples a row twice to one site: one slot sums both
        for i, j in zip(*np.triu_indices(weights.shape[1], 1)):
            twice = (neighbours[:, i] == neighbours[:, j]) & (neighbours[:, j] >= 0)
            weights[twice, i] += weights[twice, j]
            weights[twice, j], neighbours[twice, j] = 0, -1
    return AssembledSystem(
        weights=weights,
        neighbours=neighbours,
        stored=stored,
        bonds=tuple(map(np.concatenate, zip(*bonds))),
        rhs=rhs.ravel(),
        spec=spec,
        half_width=L,
        x_range=(x0, x1),
        y_range=(y0, y1),
        free=free,
    )


def _product(table: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """table @ values (into out if given), for a real table as one real
    product over the interleaved real and imaginary parts of values."""
    if np.isrealobj(table):
        return np.matmul(table, np.ascontiguousarray(values).view(float),
                         out=None if out is None else out.view(float)).view(complex)
    return np.matmul(table, values, out=out)


@functools.lru_cache(maxsize=8)
def _axis_transform(n: int, even: bool, twist: complex = 1.0) -> tuple:
    """A0's transform along one axis of period n, kept read-only per (n,
    even, twist): the forward table [mode, site], the inverse table [site,
    mode], per mode the factor of a shift by d = -1, 0, 1 ([d + 1, mode]),
    and the pair table [d, mode] of _free_operator's green, its inverse.
    That is the DFT, with factors exp(2 pi i d k / n); or, for a stencil
    even in the axis (even set), its real Hartley form cas = cos + sin
    (Bracewell), its own inverse up to 1 / n, with factors cos(2 pi d k / n):
    a real even symbol's modes k and -k are one, and cas keeps them real.  A
    twist wraps the DFT with a Bloch multiplier: mode k is mu_k^y, mu_k =
    twist^(1/n) exp(2 pi i k / n), so mu_k^n = twist, and the tables gain
    the factors twist^(-y/n), twist^(y/n) and twist^(d/n) (spread, all 1.0
    untwisted)."""
    d, k = np.arange(-1, 2), np.arange(n)
    jk = np.remainder(np.outer(k, k), n)
    if even:
        angle = 2 * np.pi * k / n
        forward = (np.cos(angle) + np.sin(angle))[jk]
        inverse = forward / n
        tables = (forward, inverse, np.cos(angle)[np.outer(d, k) % n], inverse)
    else:
        root, spread = np.exp(2j * np.pi * k / n), twist ** (np.arange(-1, n) / n)
        inverse = root[jk]
        shift = root[np.outer(d, k) % n] * spread[:3, None]
        tables = (inverse.conj() / spread[1:], inverse, shift, inverse)
        inverse *= spread[1:, None]
        inverse /= n
    for table in tables:
        table.flags.writeable = False
    return tables


def _runs(sites: np.ndarray, n: int) -> list:
    """Slices of the maximal runs of consecutive grid sites on one line of n."""
    if not sites.size:
        return []
    after = sites[1:]  # a run breaks before a site that does not follow the last, or starts a line
    bounds = [0, *(np.flatnonzero((after != sites[:-1] + 1) | (after % n == 0)) + 1).tolist(),
              sites.size]
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


def _reduced_stencil(stencils, diag: complex) -> tuple:
    """The scalar operator A on the first sublattice of stencils that
    _free_operator inverts, read off the table: (entries, diagonal, factor),
    A having the diagonal and weight one to the site at each entry (dx, dy),
    repeated entries adding.  A lattice of one sublattice is A = A0 itself,
    factor 1.  On a lattice whose other sublattices couple to the first
    alone, with diag on their diagonal (the honeycomb's v), eliminating
    them leaves the Schur complement S = diag - B B^T / diag on the first,
    B its couplings to the others: A = factor S with factor = -diag, the
    u -> v -> u steps composed, those back to the site itself on the
    diagonal.  On the honeycomb that is the triangular lattice's operator
    at the reduced frequency, 3 - diag^2 =
    lattice_omega_shift(TRIANGULAR, hex_reduced_omega_sq(omega))."""
    (kept, own), *others = stencils.items()
    if not others:
        return [entry[:2] for entry in own], diag, 1.0
    if any(entry[2] == kept for entry in own) or any(
            entry[2] != kept for _, stencil in others for entry in stencil):
        raise InvalidSpec("only a lattice whose other sublattices couple to the first alone "
                          "reduces to it")
    steps = [(dx + ex, dy + ey) for dx, dy, sub, _ in own for ex, ey, _, _ in stencils[sub]]
    entries = [step for step in steps if step != (0, 0)]
    return entries, len(steps) - len(entries) - diag * diag, -diag


def _free_operator(stencils, diag: complex, n: int, bloch: BlochSpec | None = None) -> tuple:
    """Free solve and Green's function of A0 on ny rows of n sites, periodic
    along both: the torus of period n, or the Bloch strip of bloch, ny =
    period rows wrapped by its multiplier.

    A0 is solved on its first sublattice, through the scalar operator A =
    factor S of _reduced_stencil (S = A0 on a lattice of one sublattice):
    A0^-1 = E^T S^-1 E + D, where E lifts a grid site to the first
    sublattice, as the site itself or as an eliminated site's neighbours
    there times -1 / diag, and D is 1 / diag on the eliminated sites, zero
    on the others.  The elimination's pivot diag vanishes at omega = 2 on
    the honeycomb, and near it the first solve's largest backward error
    grows about like |diag|^-3: at L = 40, 2e-13 at |diag| = 0.04
    (omega = 1.99 + 0.01i), 4e-10 at 3e-3 (2 + 0.001i) and 1e-6 at 3e-4
    (2 + 1e-4 i), each refined below 1e-13 by _refined_solve.  That is the
    floor: at 3e-5 (2 + 1e-5 i) a pinned window's first solve misses by
    0.7, refinement cannot recover it, and solve_direct raises
    SolveFailure.  The 2-D transform of _axis_transform diagonalizes A into
    a scalar symbol, inverted mode by mode: the DFT, in its real Hartley
    form where A's entries are even under x -> -x and y -> -y (the square
    lattice), else complex.  Along y a strip takes the twisted DFT of its
    period.

    Returns (modes, read, field, green), which solve A0 w = b, for b given
    by its values at a few grid sites [sublattice, y, x]: modes(sites,
    values, out) writes S^-1 times the 2-D transform of E b into out, ny n
    complex values [kx, ky] that the caller owns, transformed along y over
    the rows of E b only, and returns D b as (ascending sites, values), to
    pass on with it; read(modes, local, sites) is (A0^-1 b)[sites];
    field(modes, local, out) writes A0^-1 b on the grid into out,
    [sublattice, y, x]: the first sublattice by two products of a per-axis
    table, spending modes for its one transpose, then E^T of it on shifted
    slices.  green(rows, cols) is the block G[R, C] of G = A0^-1 for grid
    sites R and C.
    """
    entries, diag_a, factor = _reduced_stencil(stencils, diag)
    even = all(sorted(entries) == sorted((sx * dx, sy * dy) for dx, dy in entries)
               for sx, sy in ((-1, 1), (1, -1)))
    forward, inverse, shift, pair = _axis_transform(n, even)
    forward_y, inverse_y, shift_y = ((forward, inverse, shift) if bloch is None else
                                     _axis_transform(bloch.period, False, bloch.multiplier)[:3])
    ny = inverse_y.shape[0]
    # [kx, ky]: S^-1 = factor / A, A the diagonal plus the x times the y
    # shift factors summed over its entries, as one product over them
    dx, dy = (np.array([entry[i] for entry in entries], int) + 1 for i in (0, 1))
    symbol = np.matmul(shift[dx].T, shift_y[dy].astype(complex))
    symbol += diag_a
    np.reciprocal(symbol, out=symbol)
    symbol *= factor
    # E per sublattice: the offsets of a site's sites on the first sublattice
    # and their weights, padded with the site itself at weight zero
    eliminated = list(stencils.values())[1:]
    s, width = 1 + len(eliminated), max([1, *map(len, eliminated)])
    offsets, weights = np.zeros((2, s, width), int), np.zeros((s, width), complex)
    weights[0, 0] = 1.0
    for a, stencil in enumerate(eliminated, 1):
        offsets[:, a, :len(stencil)] = np.array([entry[:2] for entry in stencil]).T
        weights[a, :len(stencil)] = -1 / diag

    def lift(sites):
        """E at the grid sites, per [site, entry] of their sites on the first
        sublattice: (rows, at, x, weights), the rows, ascending, and each
        entry's place among them, column and weight."""
        a, y, x = np.unravel_index(sites, (s, ny, n))
        y, x = (y[:, None] + offsets[1, a]) % ny, (x[:, None] + offsets[0, a]) % n
        rows, at = np.unique(y, return_inverse=True)
        return rows, at.reshape(x.shape), x, weights[a]

    def modes(sites, values, out):
        """out = S^-1 times the 2-D transform of E b, for the b with the given
        values at the grid sites (added where a site repeats), [kx, ky];
        returns D b."""
        rows, at, x, factors = lift(sites)
        source = np.zeros((rows.size, n), complex)
        np.add.at(source, (at, x), factors * values[:, None])
        along_x = _product(forward, source.T)  # [kx, row]
        np.matmul(along_x, forward_y[:, rows].T, out=out)
        np.multiply(symbol, out, out=out)
        off = sites >= ny * n
        local, at = np.unique(sites[off], return_inverse=True)
        b = np.zeros(local.size, complex)
        np.add.at(b, at, values[off])
        return local, b / diag

    def read(modes, local, sites):
        """The field at the grid sites: E^T of modes' field, transformed back
        over the rows it is read on only, plus D b."""
        rows, at, x, factors = lift(sites)
        along_y = np.matmul(modes, inverse_y[rows].T)  # [kx, row]
        values = np.sum(factors * _product(inverse, along_y)[x, at], axis=1)
        local, b = local
        hit = np.isin(sites, local)
        values[hit] += b[np.searchsorted(local, sites[hit])]
        return values

    def field(modes, local, out):
        first = out[0]
        _product(inverse, modes, out=first.reshape(modes.shape))  # [x, ky]
        np.copyto(modes.reshape(first.shape), first.reshape(modes.shape).T)
        _product(inverse_y, modes.reshape(first.shape), out=first)
        for a, stencil in enumerate(eliminated, 1):
            out[a] = 0
            for dx, dy, *_ in stencil:
                _add_shifted(out[a], first, dx, dy)
            out[a] *= -1 / diag
        out.reshape(-1)[local[0]] += local[1]

    window = np.lib.stride_tricks.sliding_window_view
    fold = np.arange(n - 1, -n, -1) % n  # x_r - x_c from n - 1 down: the windows run forward

    def row_pairs(rows_r, rows_c):
        """c [row of R, row of C, x_r - x_c] of S^-1 between rows of the first
        sublattice: the x-mode weights sum the y-modes of the two, and the
        pair table sums those."""
        both = inverse_y[rows_r][:, None] * forward_y[:, rows_c].T  # [row of R, row of C, ky]
        weights = both.reshape(-1, ny) @ symbol.T
        return _product(pair, weights.T).T.reshape(*both.shape[:2], n)

    def green(rows, cols):
        """G[R, C] = (E^T S^-1 E + D)[R, C] by blocks of runs of R and of C at
        consecutive sites of one line (sublattice, row) each.  Per pair of
        lines a function c of x_r - x_c, modulo n, gives the block
        (row_pairs); E sums those of the rows the two lines lift to, each
        shifted by the lifts' x offsets.  So a block is a Toeplitz matrix:
        strided windows of c, copied into G."""
        (line_r, x_r), (line_c, x_c) = np.divmod(rows, n), np.divmod(cols, n)
        (lines_r, at_r), (lines_c, at_c) = (np.unique(line, return_inverse=True)
                                            for line in (line_r, line_c))
        (a, y_r), (b, y_c) = np.divmod(lines_r, ny), np.divmod(lines_c, ny)
        (rows_r, to_r), (rows_c, to_c) = (np.unique((y[:, None] + offsets[1, sub]) % ny,
                                                    return_inverse=True)
                                          for y, sub in ((y_r, a), (y_c, b)))
        # [line of R, its lift, line of C, its lift]
        shift = (offsets[0, a][:, :, None, None] - offsets[0, b])[..., None]
        c = row_pairs(rows_r, rows_c)[to_r.reshape(a.size, width, 1, 1, 1),
                                      to_c.reshape(b.size, width, 1),
                                      (np.arange(n) + shift) % n]
        lines = np.einsum("iajb,iajbx->ijx", weights[a][:, :, None, None] * weights[b], c)
        g = np.empty((rows.size, cols.size), complex)
        runs_c = _runs(cols, n)
        for r in _runs(rows, n):
            for q in runs_c:
                line, xr, xc = lines[at_r[r.start], at_c[q.start]], x_r[r.start], x_c[q.start]
                size, span = r.stop - r.start, q.stop - q.start
                g[r, q] = window(line[fold], span)[n - 1 - xr + xc::-1][:size]
        on = np.flatnonzero(rows >= ny * n)  # D's sites
        i, j = np.nonzero(rows[on, None] == cols)
        g[on[i], j] += 1 / diag
        return g

    return modes, read, field, green


def _bonds(system: AssembledSystem) -> tuple:
    """The broken bonds of AssembledSystem.bonds, each once: a bond between two
    free sites is recorded from both, and kept from the lower one; one to a
    pinned site has -1 for the other.  The bonds between two free sites come
    first."""
    ends, other, coupling = system.bonds
    once = np.flatnonzero((other < 0) | (ends < other))
    once = once[np.argsort(other[once] < 0, kind="stable")]
    return ends[once], other[once], coupling[once]


def _capacitance(system: AssembledSystem) -> tuple:
    """Capacitance matrix M of the window, and solve(sites, values).

    A0 is the free operator of the window itself (_free_operator): on the
    torus of period 2L + 1 that every window wraps into, or on the Bloch
    strip.  So M has a row per pinned site and per broken bond of the
    defects and no others, 100 for a left half-row at L = 100.  A pinned
    site p gets a multiplier lambda for a column e_p of P, and a bond from
    i to j (_bonds) a multiplier mu for the rank-one term u v^T that breaks
    it, u = e_i - a_ji e_j and v = e_i - a_ij e_j with A0's couplings,
    a_ji = 1 / a_ij (u = v = e_i without a j).  With K_L = [P U],
    K_R = [P V] and G = A0^-1: A0 w + P lambda + U mu = b, P^T w = 0 and
    V^T w = mu, the capacitance matrix method (Buzbee, Dorr, George and
    Golub):

        M = K_R^T G K_L + [[0, 0], [0, I]],   M x = K_R^T G b,   w = G (b - K_L x).

    The paired bonds come first, so their block of M is one slice, and
    the blocks of G are added into M in place; off the strips A0 is
    symmetric, and G[minus, plus] is G[plus, minus]^T.  b lives on a few
    rows (assemble), so a solve forms the modes of b from those rows, reads
    G b at the multiplier sites off them, and then forms the modes of
    b - K_L x, on the same rows and the multipliers', into the same array
    for the one full transform.  solve(sites, values) takes b by its
    nonzero values at grid sites and returns w on the grid, exactly 0 at
    the pinned sites.  It holds two full-grid arrays besides the operator's
    symbol, the modes of u and w.  Each solve factors M by numpy's LU
    (np.linalg.solve), and a singular M raises SolveFailure there: a window
    is solved once, unless _refined_solve takes a step, so no factorization
    is kept between solves.
    """
    spec = system.spec
    s = len(_STENCILS[spec.lattice])
    ny, n = system.free.shape
    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega * spec.incidence.omega)
    modes, read, field, green = _free_operator(_STENCILS[spec.lattice], diag, n, spec.bloch)
    # per multiplier the grid site of its +1, and of its -a if paired
    pinned = system.pinned
    ends, other, coupling = _bonds(system)
    plus = np.concatenate([pinned, ends])
    minus = other[other >= 0]
    right, left = coupling[:minus.size], 1 / coupling[:minus.size]  # a_ij of V, a_ji of U
    pins = pinned.size
    paired = slice(pins, pins + minus.size)
    capacitance = green(plus, plus)  # M - [0, 0; 0, I] = K_R^T G K_L
    cross = green(plus, minus)
    capacitance[:, paired] -= cross * left
    capacitance[paired] -= right[:, None] * (cross.T if spec.bloch is None
                                             else green(minus, plus))
    capacitance[paired, paired] += right[:, None] * green(minus, minus) * left
    bond = np.arange(pins, plus.size)
    capacitance[bond, bond] += 1.0
    multipliers = np.r_[plus, minus]

    def solve(sites, values):
        spectrum, w = np.empty((n, ny), complex), np.empty(s * ny * n, complex)
        local = modes(sites, values, spectrum)
        y = read(spectrum, local, multipliers)  # K_R^T G b needs G b only at the multiplier sites
        r = y[:plus.size]
        r[paired] -= right * y[plus.size:]
        try:
            x = np.linalg.solve(capacitance, r)
        except np.linalg.LinAlgError:
            raise SolveFailure("singular capacitance matrix") from None
        local = modes(np.r_[sites, multipliers], np.r_[values, -x, left * x[paired]], spectrum)
        field(spectrum, local, out=w.reshape(s, ny, n))
        w[pinned] = 0
        return w

    return capacitance, solve


# bound on the relative residual and on every equation's backward error
# (_backward_errors) of a direct solve; a solve refines its answer at most
# _REFINE_STEPS times, to the tighter _REFINE_TOL
_SOLVE_TOL = 1e-10
_REFINE_TOL = 1e-13
_REFINE_STEPS = 8
_BLOCK = 1 << 16  # equations per block of the backward errors' last step


def _refined_solve(system: AssembledSystem, solve) -> tuple:
    """The solve of the system's right-hand side, refined where needed: w,
    its residual and backward errors, on the grid.

    A free solve spreads rounding of order eps |b| over the whole grid, which
    buries equations of small scale when a defect row runs through a much
    larger incident.  Solving again with the same M for the residual
    of the equations whose backward error exceeds _REFINE_TOL recovers them;
    where the defect rows pass near the origin no step is taken.
    """
    at = np.flatnonzero(system.rhs)
    w = solve(system.stored[at], system.rhs[at])
    for step in range(_REFINE_STEPS + 1):
        residual, errors = _backward_errors(system, w)
        missed = np.flatnonzero(~(errors <= _REFINE_TOL))  # NaN counts as missed
        if step == _REFINE_STEPS or not missed.size:
            return w, residual, errors
        w += solve(missed, residual[missed])


def _backward_errors(system: AssembledSystem, w: np.ndarray) -> tuple:
    """Residual r = b - A w and each equation's backward error, on the grid.

    That is the componentwise backward error |r_i| / (|A| |w| + |b|)_i of
    Oettli and Prager, except that the scale of an equation never drops
    below the incident amplitude: the field is compared at that scale, and
    no fast solve resolves equations 30 orders of magnitude below it.  A w
    and |A| |w| are A0's on the grid (_free_products), then read off the
    table on the stored rows, where alone b is nonzero.  A pinned site has
    no equation: its residual and backward error are 0.
    """
    product, scale = _free_products(system, w)
    # w at each slot's neighbour, 0 at none
    weights, neighbours, stored = system.weights, system.neighbours, system.stored
    at = w[neighbours]
    at[neighbours < 0] = 0
    product[stored] = np.einsum("ij,ij->i", weights, at)
    scale[stored] = sum((np.abs(weights) * np.abs(at)).T)
    residual = np.negative(product, out=product)
    residual[stored] += system.rhs
    scale[stored] += np.abs(system.rhs)
    np.maximum(scale, abs(system.spec.incidence.amplitude), out=scale)
    pinned = system.pinned
    residual[pinned], scale[pinned] = 0, 0
    # |r| / scale into scale's memory, by blocks: no full |r| is held.  It
    # stays 0 where the scale is: at the pinned sites
    for start in range(0, scale.size, _BLOCK):
        part = scale[start:start + _BLOCK]
        np.divide(np.abs(residual[start:start + _BLOCK]), part, out=part, where=part > 0)
    return residual, scale


def _add_shifted(out: np.ndarray, grid: np.ndarray, dx: int, dy: int):
    """out[y, x] += grid[y + dy, x + dx] over the window, by slices, past an
    edge reading the opposite edge's.  out is C-contiguous, and a block of
    its rows adds as one run shifted by dx (numpy buffers a strided 2-D +=,
    several times slower); the run feeds the edge column from the next row,
    so that column is put back and given its wrapped neighbour."""
    def spans(d, size):  # (target, source) slices, source = target + d, |d| <= 1
        inner = [(slice(max(-d, 0), size - max(d, 0)), slice(max(d, 0), size + min(d, 0)))]
        first, last = slice(0, 1), slice(size - 1, size)
        return inner + [(last, first) if d > 0 else (first, last)] if d else inner

    n = out.shape[1]
    edge = n - 1 if dx > 0 else 0
    kept = out[:, edge].copy() if dx else None
    for to_y, from_y in spans(dy, out.shape[0]):
        run, source = out[to_y].reshape(-1), grid[from_y].reshape(-1)
        ((to_x, from_x),) = spans(dx, run.size)[:1]
        run[to_x] += source[from_x]
    if dx:
        out[:, edge] = kept
        for to_y, from_y in spans(dy, out.shape[0]):
            out[to_y, edge] += grid[from_y, n - 1 - edge]


def _free_products(system: AssembledSystem, w: np.ndarray) -> tuple:
    """A0 w and |A0| |w| on the grid: the diagonal times w plus shifted
    slices of w on the window, wrapped at its edges, added in place (a Bloch
    strip's rows, which wrap by its multiplier, are all stored, and the
    table overwrites them).  w is 0 at the pinned sites, so they add
    nothing to their neighbours."""
    spec = system.spec
    stencils = _STENCILS[spec.lattice]
    subs = list(stencils)
    grid = w.reshape(len(subs), *system.free.shape)

    def accumulate(grid, diag):
        sums = np.empty(grid.shape, grid.dtype)
        for k, stencil in enumerate(stencils.values()):
            np.multiply(grid[k], diag, out=sums[k])
            for dx, dy, nsub, _ in stencil:
                _add_shifted(sums[k], grid[subs.index(nsub)], dx, dy)
        return sums.reshape(-1)

    diag = lattice_omega_shift(spec.lattice, spec.incidence.omega * spec.incidence.omega)
    size = accumulate(np.abs(grid), abs(diag))  # first, so |w| is gone before A0 w is formed
    return accumulate(grid, diag), size


def solve_direct(system: AssembledSystem) -> FieldGrid:
    """Solve the assembled system; returns the scattered field.

    Every window is solved by the capacitance matrix method (_capacitance),
    refined by _refined_solve.  The relative residual and the largest
    backward error of one equation (see _backward_errors), read off the
    table, must come out below 1e-10, or SolveFailure is raised, as for a
    table edited to differ from A0 by more than its pins and bonds.  The
    field's grids are views of the solution w: its pinned sites get
    -incident, evaluated on their rows of the window as assemble does, so
    boundary conditions can be checked on the output, and its free sites
    the straight-defect background back, evaluated on the window too.
    """
    spec, inc = system.spec, system.spec.incidence
    w, residual, errors = _refined_solve(system, _capacitance(system)[1])  # M itself goes
    residual = float(np.linalg.norm(residual)) / (float(np.linalg.norm(system.rhs)) or 1.0)
    backward = float(np.max(errors, initial=0.0))
    for name, value in (("residual", residual), ("backward error", backward)):
        if not value <= _SOLVE_TOL:  # NaN counts as missed
            raise SolveFailure(f"direct solve missed the {name} contract", value)

    free = system.free
    (x0, x1), (y0, y1) = system.x_range, system.y_range
    xs, ys = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
    u, *v = w.reshape(-1, *free.shape)
    pinned = ~free
    rows = np.flatnonzero(pinned.any(1))
    for sub, grid in zip(_STENCILS[spec.lattice], (u, *v)):
        grid[pinned] = -(np.exp(-1j * inc.kappa_y * ys[rows]) * inc.field(xs, 0, sub))[pinned[rows]]
    bg = _straight_background(spec)
    if bg is not None:
        u[free] += bg.evaluate(xs, ys)[free]
    v = v[0] if v else None
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
    bg = _straight_background(problem)
    q = np.exp(1j * inc.kappa_x)

    dim = len(layout)
    f_plus = np.empty((nodes.size, dim), dtype=complex)
    f_minus = np.empty((nodes.size, dim), dtype=complex)
    xs = field.xs
    mode = np.exp(-1j * inc.kappa_x * xs)
    for i, (combine, row, offset) in enumerate(layout):
        vals = _combine(field.row, combine, row)
        gamma = 0j if bg is None else complex(_combine(lambda y, _: bg.profile(y), combine, row))
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
    weights = np.array([1.0] + [field.value(x, y, sub) for sub, x, y in forcing.constant_ids])
    c = (weights @ forcing.rows(nodes, at).reshape(weights.size, -1)).reshape(nodes.size, dim)
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
