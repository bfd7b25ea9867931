"""Branch functions, dispersion solving and incident-wave parameterization.

Three lattice geometries are supported (square, triangular in slant
coordinates, honeycomb in the matching slant coordinates), each defined by
its entry in one table of equations of motion, _STENCILS, which the oracle
assembles from; the dispersion relation is det S = 0 for the table's
plane-wave matrix S.  Everything in the transform domain is driven by a
per-row propagation multiplier:

* square:      lam(z), the root of  lam + 1/lam + z + 1/z - 4 + w^2 = 0
               with |lam| <= 1, realized as lam = (r - h)/(r + h) where
               h(z) = sqrt(2 - z - 1/z - w^2), r(z) = sqrt(h^2 + 4);
* triangular:  t(z), the root of  t^2 - F(z) t + z = 0 with |t| < 1,
               F(z) = (6 - z - 1/z - (3/2) w^2) / (1 + 1/z);
* honeycomb:   same quadratic with w^2 replaced by the reduced frequency
               wT^2 = (3/2) w^2 (2 - w^2/4).

All square roots use the principal branch (cut on the negative real
axis).  The quadratic roots are selected by modulus, which is robust
across the branch-cut geometry; the closed square-lattice form is kept
consistent by flipping the sign of h when the principal branches land on
the outer root.

Evaluation is vectorized: ``z`` may be a complex scalar or an ndarray.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegeneratePoint,
    EmptyAnnulus,
    NoConvergence,
    OnBranchCut,
    OutsidePassBand,
    PoleAtMinusOne,
    RootSelectionAmbiguous,
)

__all__ = [
    "Lattice",
    "Frequency",
    "Incidence",
    "BranchValue",
    "principal_sqrt",
    "square_branches",
    "tri_branch",
    "hex_branch",
    "hex_reduced_omega_sq",
    "hex_coupling",
    "dispersion_solve",
    "dispersion_residual",
    "lattice_omega_shift",
    "annulus_bounds",
    "branch_points",
]

_CUT_TOL = 1e-12
_POLE_TOL = 1e-13
_DEGENERATE_TOL = 1e-14
_POLISH_STEPS = 3  # dispersion Newton steps past convergence, toward rounding


class Lattice(str, Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    HONEYCOMB = "honeycomb"


# Each lattice's equations of motion: per sublattice, a site's neighbours, each of weight one,
# as (dx, dy, neighbour sublattice, bond cell or None; see the oracle's docstring), and
# lattice_omega_shift(w^2) on the site itself.
_SQUARE = ((1, 0, "u", None), (-1, 0, "u", None), (0, 1, "u", (0, 1)), (0, -1, "u", (0, 0)))
_STENCILS = {
    Lattice.SQUARE: {"u": _SQUARE},
    Lattice.TRIANGULAR: {"u": _SQUARE + ((-1, 1, "u", (-1, 1)), (1, -1, "u", (0, 0)))},
    Lattice.HONEYCOMB: {
        "u": ((0, 0, "v", None), (-1, 0, "v", None), (0, -1, "v", (0, 0))),
        "v": ((0, 0, "u", None), (1, 0, "u", None), (0, 1, "u", (0, 1))),
    },
}


def lattice_omega_shift(lattice: Lattice, w2: complex) -> complex:
    """Coefficient of the center site in the interior equation, n (w^2/4 - 1)
    for n neighbours per site."""
    n = len(_STENCILS[Lattice(lattice)]["u"])
    return 0.25 * n * w2 - n


@dataclass(frozen=True)
class Frequency:
    """Nondimensional complex frequency w = w1 + i w2.

    Material constants are absorbed into w, so this is the only
    frequency-like quantity in the package.  Kernel evaluation tolerates
    w2 = 0 (off branch cuts); solver-grade operations require w2 > 0.
    """

    omega: complex

    def __post_init__(self):
        w = complex(self.omega)
        if w.real <= 0:
            raise ValueError(f"frequency real part must be positive, got {w}")
        if w.imag < 0:
            raise ValueError(f"frequency imaginary part must be >= 0, got {w}")
        object.__setattr__(self, "omega", w)

    @property
    def omega1(self) -> float:
        return self.omega.real

    @property
    def omega2(self) -> float:
        return self.omega.imag


def _omega_value(omega) -> complex:
    """Accept a Frequency or a bare complex (closed-form point checks use w=0)."""
    if isinstance(omega, Frequency):
        return omega.omega
    return complex(omega)


@dataclass(frozen=True)
class Incidence:
    """Incident plane wave A exp(-i kx x - i ky y) in lattice indices.

    omega is the frequency the wavenumbers were solved at, redundant with
    the dispersion relation but kept for exact reuse.  Kernels, forcings
    and the oracle read it; `dispersion_solve` sets it.
    """

    amplitude: complex
    theta: float
    kappa_x: complex
    kappa_y: complex
    lattice: Lattice
    hex_ratio: complex | None = None
    omega: complex | None = None

    @property
    def kappa2(self) -> float:
        """Positive imaginary part of sqrt(kx^2 + ky^2) for damped waves."""
        return principal_sqrt(self.kappa_x**2 + self.kappa_y**2).imag

    def field(self, x, y, sublattice: str = "u"):
        """Incident value at site (x, y); honeycomb v-sites carry hex_ratio."""
        amp = self.amplitude
        if sublattice == "v":
            if self.hex_ratio is None:
                raise ValueError("v-sublattice requested for a non-honeycomb incidence")
            amp = amp * self.hex_ratio
        return amp * np.exp(-1j * (self.kappa_x * np.asarray(x) + self.kappa_y * np.asarray(y)))


@dataclass(frozen=True)
class BranchValue:
    """Square-lattice branch triple (h, r, lam) with r^2 - h^2 = 4."""

    h: complex
    r: complex
    lam: complex


def principal_sqrt(w):
    """Square root with branch cut on the negative real axis, Re >= 0.

    The cut-adjacent continuation follows the sign of Im(w): values
    approached from above the cut map to +i sqrt(|w|).
    """
    arr = np.asarray(w, dtype=complex)
    out = np.sqrt(arr)
    if arr.ndim == 0:
        return complex(out)
    return out


def _maybe_scalar(arr, scalar_input):
    return complex(arr[0]) if scalar_input else arr


def square_branches(z, omega):
    """Evaluate (h, r, lam) for the square lattice at z.

    h = sqrt(2 - z - 1/z - w^2), r = sqrt(h^2 + 4), lam = (r - h)/(r + h).
    The sign of h is flipped wherever the principal branches would give
    |lam| > 1, so the returned triple always satisfies both
    lam = (r - h)/(r + h) and |lam| <= 1.

    Raises OnBranchCut when |lam| is within 1e-12 of 1 (the two quadratic
    roots coincide in modulus there) and DegeneratePoint if r + h ~ 0.
    """
    w2 = _omega_value(omega) ** 2
    za = np.asarray(z, dtype=complex)
    scalar = za.ndim == 0
    za = np.atleast_1d(za)
    if np.any(za == 0):
        raise ValueError("square_branches requires z != 0")

    h = np.sqrt((2.0 - w2) - (za + 1.0 / za))
    r = np.sqrt(h * h + 4.0)
    r_plus, r_minus = r + h, r - h
    if np.any(np.abs(r_plus) < _DEGENERATE_TOL) or np.any(np.abs(r_minus) < _DEGENERATE_TOL):
        raise DegeneratePoint("r + h (or r - h) vanished; lam undefined")
    lam = np.divide(r_minus, r_plus, out=r_minus)
    modulus = np.abs(lam)  # |lam| and 1 / |lam| are as near 1
    if np.any(np.abs(modulus - 1.0) < _CUT_TOL):
        raise OnBranchCut("both propagation roots have unit modulus at this z")
    outside = modulus > 1.0  # flipped in place to the inner root
    np.divide(1.0, lam, out=lam, where=outside)
    np.negative(h, out=h, where=outside)
    return BranchValue(*(_maybe_scalar(a, scalar) for a in (h, r, lam)))


def _slant_root(z, omega_sq_eff):
    """Modulus-selected root of (1 + 1/z) t^2 - G t + (1 + z) = 0.

    G = 6 - z - 1/z - (3/2) * omega_sq_eff.  This is the quadratic for the
    triangular/honeycomb row multiplier cleared of the pole of F at
    z = -1; there the small root degenerates smoothly to t = 0 (the other
    root escapes to infinity), so evaluation is stable on sampling grids
    that contain z = -1 exactly.
    """
    za = np.asarray(z, dtype=complex)
    scalar = za.ndim == 0
    za = np.atleast_1d(za)
    if np.any(za == 0):
        raise ValueError("slant-lattice root requires z != 0")

    inverse = 1.0 / za
    a = 1.0 + inverse
    b = (za + inverse) - (6.0 - 1.5 * omega_sq_eff)
    c = 1.0 + za
    disc = np.sqrt(b * b - 4.0 * a * c)
    # q-method: disc's sign with Re(b conj(disc)) >= 0 avoids cancellation in b + disc
    np.negative(disc, out=disc, where=b.real * disc.real + b.imag * disc.imag < 0)
    q = -0.5 * (b + disc)
    # the roots multiply to c / a = z: the small root c / q and its modulus decide.
    # At the pole of F, z = -1, c and with it the inside root vanish (q = 0 only there)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = c / q
        inside[q == 0] = 0.0
        m_small = np.abs(inside)
        m_big = np.abs(za) / m_small
        swap = m_small > m_big
        inside[swap] = q[swap] / a[swap]
    if np.any(np.abs(m_big - m_small) < 1e-12):
        raise RootSelectionAmbiguous("both quadratic roots have the same modulus")
    return _maybe_scalar(inside, scalar)


def tri_branch(z, omega):
    """Triangular-lattice row multiplier t(z) with |t| < 1 on the annulus.

    Root of t^2 - F(z) t + z = 0, F = (6 - z - 1/z - 1.5 w^2)/(1 + 1/z).
    Raises PoleAtMinusOne within 1e-13 of z = -1 (F has a simple pole
    there; kernel evaluators use the cleared quadratic instead).
    """
    za = np.asarray(z, dtype=complex)
    if np.any(np.abs(1.0 + 1.0 / np.atleast_1d(za)) < _POLE_TOL):
        raise PoleAtMinusOne("F(z) has a pole at z = -1")
    return _slant_root(z, _slant_omega_sq(Lattice.TRIANGULAR, omega))


def hex_reduced_omega_sq(omega) -> complex:
    """Reduced squared frequency wT^2 = (3/2) w^2 (2 - w^2/4)."""
    w2 = _omega_value(omega) ** 2
    return 1.5 * w2 * (2.0 - 0.25 * w2)


def _slant_omega_sq(lattice: Lattice, omega) -> complex:
    """The squared frequency of the slant lattices' row quadratic
    (_slant_root): w^2 on the triangular lattice, the reduced wT^2 on the
    honeycomb."""
    if lattice is Lattice.HONEYCOMB:
        return hex_reduced_omega_sq(omega)
    return _omega_value(omega) ** 2


def hex_coupling(omega) -> complex:
    """Honeycomb sublattice coupling 3 (1 - w^2/4); must be nonzero."""
    w2 = _omega_value(omega) ** 2
    return 3.0 * (1.0 - 0.25 * w2)


def hex_branch(z, omega):
    """Honeycomb row multiplier: the triangular quadratic at wT^2.

    For w = 0 this coincides bit-for-bit with tri_branch since wT = 0.
    Requires w != 2 so the sublattice coupling stays invertible downstream.
    """
    if abs(hex_coupling(omega)) < 1e-14:
        raise ValueError("honeycomb requires omega != 2 (coupling 3(1 - w^2/4) vanishes)")
    za = np.asarray(z, dtype=complex)
    if np.any(np.abs(1.0 + 1.0 / np.atleast_1d(za)) < _POLE_TOL):
        raise PoleAtMinusOne("F(z) has a pole at z = -1")
    return _slant_root(z, _slant_omega_sq(Lattice.HONEYCOMB, omega))


def _plane_wave(lattice, w, c, s):
    """The plane-wave matrix of the lattice's table along (c, s), as a function
    of the magnitude k: S[a][b] = diag [a = b] + sum of exp(-i k p) over the
    neighbours of sublattice a on sublattice b, p = c dx + s dy.  Returns
    det(k), giving det S and its k-derivative, and entry(k, a, b), giving
    S[a][b] and its k-derivative; c, s = kx, ky at k = 1 read S at a wave
    vector."""
    stencils = _STENCILS[lattice]
    subs = tuple(stencils)
    diag = lattice_omega_shift(lattice, w * w)
    phases = [[[] for _ in subs] for _ in subs]
    for a, sub in enumerate(subs):
        for dx, dy, nsub, _ in stencils[sub]:
            p = c * dx + s * dy
            phases[a][subs.index(nsub)].append((p, 1j * p))

    def entry(k, a, b):
        val, der, mik = (diag if a == b else 0j), 0j, -1j * k
        for p, ip in phases[a][b]:
            e = cmath.exp(mik * p)
            val += e
            der -= ip * e
        return val, der

    def det(k):
        if len(subs) == 1:
            return entry(k, 0, 0)
        s00, d00 = entry(k, 0, 0)
        s01, d01 = entry(k, 0, 1)
        s10, d10 = entry(k, 1, 0)
        s11, d11 = entry(k, 1, 1)
        return s00 * s11 - s01 * s10, d00 * s11 + s00 * d11 - d01 * s10 - s01 * d10

    return det, entry


def dispersion_residual(lattice, kappa_x, kappa_y, omega) -> float:
    """|det S| of the lattice's plane-wave matrix at (kx, ky, omega)."""
    det, _ = _plane_wave(Lattice(lattice), _omega_value(omega), kappa_x, kappa_y)
    return abs(det(1.0)[0])


def dispersion_solve(lattice, omega, theta: float, amplitude: complex = 1.0) -> Incidence:
    """Solve the lattice dispersion for kx = k cos(theta), ky = k sin(theta).

    Newton iteration on det S, S the plane-wave matrix of the lattice's
    table, in the complex magnitude k from the long-wave initial guess
    k0 = w n / sqrt(2 (n sum p^2 - (sum p)^2)) over the n neighbours of a
    u-site, p = cos(theta) dx + sin(theta) dy.  Convergence is declared at
    |det S| < 1e-13; up to three more steps follow while the residual still
    falls, so the returned incidence satisfies the plane-wave form of the
    governing equation to rounding.  For honeycomb the companion sublattice
    amplitude ratio solves the v-equation, -S[v][u] / S[v][v].

    Raises OutsidePassBand when a real frequency admits no propagating
    (real-k) root in this direction, NoConvergence after 100 iterations.
    """
    lattice = Lattice(lattice)
    freq = omega if isinstance(omega, Frequency) else Frequency(complex(omega))
    w = freq.omega
    if not (-math.pi / 2 < theta < math.pi / 2):
        raise ValueError("incidence angle must lie in (-pi/2, pi/2)")
    if lattice is Lattice.SQUARE and freq.omega1 >= 2.0 * math.sqrt(2.0):
        raise OutsidePassBand("square lattice pass band is 0 < Re(omega) < 2*sqrt(2)")

    c, s = math.cos(theta), math.sin(theta)
    det, entry = _plane_wave(lattice, w, c, s)
    ps = [c * dx + s * dy for dx, dy, _, _ in _STENCILS[lattice]["u"]]
    n = len(ps)
    k = w * n / math.sqrt(2.0 * (n * sum(p * p for p in ps) - sum(ps) ** 2))

    for _ in range(100):
        gval, deriv = det(k)
        if abs(gval) < 1e-13:
            break
        if deriv == 0:
            raise NoConvergence("dispersion Newton hit a stationary point")
        k = k - gval / deriv
    else:
        if freq.omega2 == 0.0:
            # a real frequency with no real root keeps Newton on the real
            # axis forever: no propagating wave in this direction
            raise OutsidePassBand(f"no propagating root at omega={w} along theta={theta}")
        raise NoConvergence("dispersion Newton did not converge in 100 iterations")
    # converged; a few more steps take the residual down to rounding, and
    # stop as soon as a step no longer lowers it
    for _ in range(_POLISH_STEPS):
        if deriv == 0:
            break
        trial = k - gval / deriv
        gtrial, dtrial = det(trial)
        if not abs(gtrial) < abs(gval):
            break
        k, gval, deriv = trial, gtrial, dtrial

    if freq.omega2 == 0.0:
        if abs(k.imag) > 1e-9:
            raise OutsidePassBand(f"no propagating root at omega={w} along theta={theta}")
        k = complex(k.real, 0.0)
    elif k.imag <= 0 or k.real <= 0:
        # near a band top Newton can land on the mirrored root -k* (Re k < 0),
        # whose wave does not travel along theta
        raise OutsidePassBand(f"damped frequency gave k = {k}, no wave travelling along theta")

    kx, ky = k * c, k * s
    hex_ratio = -entry(k, 1, 0)[0] / entry(k, 1, 1)[0] if len(_STENCILS[lattice]) == 2 else None
    return Incidence(
        amplitude=complex(amplitude),
        theta=theta,
        kappa_x=kx,
        kappa_y=ky,
        lattice=lattice,
        hex_ratio=hex_ratio,
        omega=w,
    )


def annulus_bounds(inc: Incidence) -> tuple[float, float]:
    """Containing annulus (e^(-k2), e^(k2 cos theta)) for the transforms.

    k2 is the positive imaginary part of sqrt(kx^2 + ky^2); both bounds
    approach 1 as the damping vanishes.
    """
    k2 = inc.kappa2
    if k2 <= 0:
        raise ValueError("annulus bounds require kappa2 > 0 (damped incidence)")
    lo = math.exp(-k2)
    hi = math.exp(k2 * math.cos(inc.theta))
    if lo >= hi:
        raise EmptyAnnulus(f"annulus collapsed: [{lo}, {hi}]")
    return lo, hi


def branch_points(lattice, omega) -> np.ndarray:
    """Branch points in z of the lattice's row multiplier.

    Each set solves z + 1/z = u, so the points come in pairs (z, 1/z):
    square, u = 2 - w^2 and 6 - w^2 (h = 0 and r = 0); slant lattices, the
    roots of the discriminant quartic of the multiplier's quadratic,
    z^4 - (2g + 4) z^3 + (g^2 - 6) z^2 - (2g + 4) z + 1 with g = 6 - (3/2) s,
    which is palindromic and gives u = g + 2 +- 2 sqrt(g + 3); s is
    _slant_omega_sq.
    """
    lattice = Lattice(lattice)
    if lattice is Lattice.SQUARE:
        w2 = _omega_value(omega) ** 2
        sums = (2.0 - w2, 6.0 - w2)
    else:
        g = 6.0 - 1.5 * _slant_omega_sq(lattice, omega)
        root = 2.0 * cmath.sqrt(g + 3.0)
        sums = (g + 2.0 + root, g + 2.0 - root)
    return np.array([z for u in sums for z in _reciprocal_pair(u)])


def _reciprocal_pair(u: complex) -> tuple:
    """The roots z, 1/z of z + 1/z = u, the big one free of cancellation."""
    disc = cmath.sqrt(u * u - 4.0)
    big = (u + disc if abs(u + disc) >= abs(u - disc) else u - disc) / 2.0
    return big, 1.0 / big
