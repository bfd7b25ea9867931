"""The defect families: one record each, and the Wiener-Hopf kernels they define.

Every problem of the package reduces to one functional equation on an
annulus, f+(z) + K(z) f-(z) = c(z), and one family differs from another
only in data: its lattice, K, det K, forcing c, defect layout and
symmetry.  Each family is one `Family` record in `FAMILIES` (the fields
are listed there), the public functions below are lookups in that table,
and adding a family means adding one record.

Scalar families (one semi-infinite defect, kernel is a scalar function
on the annulus):

===============  =========================================================
sq_crack         h/r = (1 - lam)/(1 + lam)
sq_constraint    (h^2 + 2)/(r h) = (1 + lam^2)/(1 - lam^2)
tri_dirichlet    F/(F - 2 t), evaluated stably as (z + t^2)/(z - t^2)
hex_crack        (Ns - 1)/(Ns + 1),  Ns = ((1 + z)/hh + 1)/(3(1 - w^2/4))
===============  =========================================================

Matrix families (2x2 unless noted) cover a crack in the triangular
lattice, a zigzag constraint in the honeycomb lattice (both of
Daniele-Khrapkov type), finite arrays of parallel cracks/constraints
(nu x nu), a Floquet-Bloch mixed array, a crack/constraint pair, and the
three opposing-tip configurations.  Closed-form determinants and the
N -> infinity structural limits are provided for validation.

Every kernel is built on one lattice branch: lam on the square lattice,
the slant root t or hh on the others.  `nodes_at` evaluates it once at z
and reads K off it; the forcing's projector reads the same `Nodes`, and
det, dk and limit take the branch as K does.

Evaluation near z = -1 (a node of power-of-two sampling grids) goes
through the cleared quadratic for the slant-lattice root, where the
kernels have removable limits (t -> 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .branches import (
    BranchValue,
    Incidence,
    Lattice,
    _omega_value,
    _reciprocal_pair,
    _slant_omega_sq,
    _slant_root,
    hex_coupling,
    hex_reduced_omega_sq,
    square_branches,
)
from .errors import InvalidSpec, SingularN, UnsupportedFamily
from .series import half_transform_exp

__all__ = [
    "FAMILIES",
    "SCALAR_FAMILIES",
    "MATRIX_FAMILIES",
    "Family",
    "ScalarKernel",
    "MatrixKernelSpec",
    "DKForm",
    "AffineForcing",
    "family_record",
    "eval_scalar_kernel",
    "scalar_kernel_forms",
    "eval_matrix_kernel",
    "det_closed_form",
    "dk_form",
    "vector_forcing",
    "scalar_forcing",
    "diag_limit_defect",
    "kernel_lattice",
]


# --- shared pieces of the kernels ---------------------------------------------

def _sq_h2p2(z, w2):
    """h^2 + 2 = 4 - z - 1/z - w^2 (polynomial; no branch needed)."""
    return 4.0 - z - 1.0 / z - w2


def _tri_G(z, s_eff):
    """Cleared numerator G = 6 - z - 1/z - (3/2) s_eff of the slant F."""
    return 6.0 - z - 1.0 / z - 1.5 * s_eff


def _crack(lam):
    return (1.0 - lam) / (1.0 + lam)


def _constraint(lam):
    return (1.0 + lam**2) / (1.0 - lam**2)


def _tri_n(z, w2, t):
    """N(z) = 4 - z - 1/z - (1 + 1/z) t - (3/2) w^2 of the triangular crack."""
    nz = 4.0 - z - 1.0 / z - (1.0 + 1.0 / z) * t - 1.5 * w2
    if np.any(np.abs(nz) < 1e-14):
        raise SingularN("N(z) vanished; printed inverse kernel undefined")
    return nz


def _hex_m(z, w, hh):
    """M(z) = ((1 + 1/z) hh + 1)/beta of the honeycomb zigzag constraint."""
    return ((1.0 + 1.0 / z) * hh + 1.0) / hex_coupling(w)


def _hex_ns(z, w, hh):
    """Ns of the honeycomb crack, (1 + z)/hh rewritten through the quadratic.

    The cleared form stays finite as hh -> 0 (at z = -1).
    """
    return (_tri_G(z, hex_reduced_omega_sq(w)) - (1.0 + 1.0 / z) * hh + 1.0) / hex_coupling(w)


def _matrix(rows):
    """Entries (broadcastable arrays) stacked into shape (..., n, m)."""
    flat = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for row in rows for e in row))
    out = np.stack(flat, axis=-1)
    return out.reshape(out.shape[:-1] + (len(rows), len(rows[0])))


def _scale(a):
    """A factor of shape (...) broadcast over trailing (d, d) axes."""
    return np.asarray(a)[..., None, None]


def _apply(mat, vec):
    """Matrix-vector product over leading axes: (..., d, d) x (..., d)."""
    return np.einsum("...ij,...j->...i", mat, vec)


def _branch(spec, z):
    """The lattice branch every kernel of the family is built on, at z:
    square_branches' (h, r, lam), or the slant root t (triangular) or hh
    (honeycomb)."""
    if spec.lattice is Lattice.SQUARE:
        return square_branches(z, spec.omega_value)
    return np.asarray(_slant_root(z, _slant_omega_sq(spec.lattice, spec.omega_value)))


def _evaluate(fn, spec, z):
    """A record field fn(spec, z, branch) at z, on one branch evaluation."""
    za = np.asarray(z, dtype=complex)
    return fn(spec, za, _branch(spec, za))


# --- kernels, determinants, limits of the square-lattice families ------------

def _h_over_r(spec, z, bv):
    return bv.h / bv.r


def _h2p2_over_rh(spec, z, bv):
    return _sq_h2p2(z, spec.omega_value**2) / (bv.r * bv.h)


def _array_kernel(scalar):
    """nu x nu array of one scalar kernel: entry (p, q) = s lam^(N|p-q|) z^(m_p - m_q).

    Paper row p holds defect nu - 1 - p, so the offsets run reversed.
    """
    def kernel(spec, z, bv):
        p = np.arange(spec.count)
        m = np.array(spec.offsets[::-1])
        power = spec.sep * np.abs(p[:, None] - p[None, :])
        shift = m[:, None] - m[None, :]
        return _scale(scalar(spec, z, bv)) * _scale(bv.lam) ** power * _scale(z) ** shift
    return kernel


def _array_det(scalar):
    def det(spec, z, bv):
        return (scalar(spec, z, bv) ** spec.count
                * (1.0 - bv.lam ** (2 * spec.sep)) ** (spec.count - 1))
    return det


def _mixed_k(spec, z, bv):
    lam, n, psi = bv.lam, spec.sep, complex(spec.psi)
    pn = lam**n - psi
    qn = lam**n - 1.0 / psi
    pn1 = lam ** (n - 1) - psi
    qn1 = lam ** (n - 1) - 1.0 / psi
    top_left = -(pn / psi + lam ** (n + 2) * qn) / (1.0 - lam**2)
    top_right = (-(lam ** (n - 1)) * pn + lam**2 * psi * qn) / (1.0 + lam)
    bot_left = lam * (-pn1 / psi + lam**n * qn1) / (1.0 + lam)
    bot_right = _crack(lam) * (1.0 - lam ** (2 * n))
    return _matrix([[top_left, top_right], [bot_left, bot_right]]) / _scale(pn * qn)


def _mixed_det(spec, z, bv):
    lam, n, psi = bv.lam, spec.sep, complex(spec.psi)
    return ((1.0 + lam**3) * (lam**-n + lam ** (n - 1))
            / ((1.0 + lam) ** 2 * (lam**-n + lam**n - psi - 1.0 / psi)))


def _mixed_limit(spec, z, bv):
    # one combined crack+constraint defect: the limit is not diagonal
    lam = bv.lam
    return _matrix([[1.0 / (1.0 - lam**2), -(lam**2) / (1.0 + lam)],
                    [lam / (1.0 + lam), _crack(lam)]])


def _pair_k(spec, z, bv):
    lam, n = bv.lam, spec.sep
    return _matrix([
        [_constraint(lam), -(lam**n) * (1.0 + lam**2) / (1.0 + lam)],
        [lam ** (n + 1) / (1.0 + lam), _crack(lam)],
    ])


def _pair_det(spec, z, bv):
    lam, n = bv.lam, spec.sep
    return (1.0 + lam**2) * (1.0 + lam ** (2 * n + 1)) / (1.0 + lam) ** 2


def _opposing_k(upper, lower):
    """Opposing tips: inverse upper scalar, lower scalar, off-diagonal lam^N z^(+-M)."""
    def kernel(spec, z, bv):
        lam, n, m = bv.lam, spec.sep, spec.offsets[0]
        return _matrix([
            [1.0 / upper(lam), lam**n * z**m],
            [-(lam**n) * z**-m, lower(lam) * (1.0 - lam ** (2 * n))],
        ])
    return kernel


def _opposing_mixed_k(spec, z, bv):
    lam, n, m = bv.lam, spec.sep, spec.offsets[0]
    return _matrix([
        [1.0 / _constraint(lam), -(1.0 - lam) * lam**n * z**m],
        [-(1.0 - lam) * lam * lam**n * z**-m / (1.0 + lam**2),
         _crack(lam) * (1.0 + lam ** (2 * n + 1))],
    ])


def _unit_det(spec, z, bv):
    return np.ones_like(z)


def _opposing_mixed_det(spec, z, bv):
    lam = bv.lam
    return (1.0 - lam) ** 2 / (1.0 + lam**2)


# --- the slant-lattice families ----------------------------------------------

def _tri_dirichlet_k(spec, z, t):
    return (z + t * t) / (z - t * t)


def _tri_dirichlet_alt(spec, z):
    F = _tri_G(z, spec.omega_value**2) / (1.0 + 1.0 / z)
    return F / (F - 2.0 * _branch(spec, z))


def _hex_crack_k(spec, z, hh):
    ns = _hex_ns(z, spec.omega_value, hh)
    return (ns - 1.0) / (ns + 1.0)


def _hex_crack_alt(spec, z):
    ns = ((1.0 + z) / _branch(spec, z) + 1.0) / hex_coupling(spec.omega_value)
    return (ns - 1.0) / (ns + 1.0)


def _tri_crack_k(spec, z, t):
    nz = _tri_n(z, spec.omega_value**2, t)
    den = (nz + 2.0) ** 2 - (1.0 + z) * (1.0 + 1.0 / z)
    return _scale(nz / den) * _matrix([[nz + 2.0, 1.0 + z], [1.0 + 1.0 / z, nz + 2.0]])


def _tri_crack_dk(spec, z, t):
    nz = _tri_n(z, spec.omega_value**2, t)
    return 1.0 + 2.0 / nz, (1.0 + 1.0 / z) / nz


def _hex_constraint_k(spec, z, hh):
    w = spec.omega_value
    beta = hex_coupling(w)
    inner = _matrix([[-beta, 1.0 + z], [1.0 + 1.0 / z, -beta]])
    k_inv = np.eye(2) + _scale(_hex_m(z, w, hh)) * np.linalg.inv(inner)
    return np.linalg.inv(k_inv)


def _hex_constraint_dk(spec, z, hh):
    w = spec.omega_value
    beta = hex_coupling(w)
    m_fn = _hex_m(z, w, hh)
    den = beta**2 - (1.0 + z) * (1.0 + 1.0 / z)
    return 1.0 - beta * m_fn / den, (1.0 + 1.0 / z) * m_fn / den


# --- forcings -----------------------------------------------------------------

class Chi(NamedTuple):
    """Data of the forcing vector chi(z), which enters c = P(z) chi(z).

    halves   (component, weight, combine, row, offset, side): the closed-form
             half transform of an incident row combination (`combine` as in
             `components`, over x = offset + m for m on `side`), times
             weight(z, w^2) when weight is callable, else the number weight
    known    ((sub, x, y), const, zcoef): the incident value at the site
             times const + z zcoef
    unknown  ((sub, x, y), const, zcoef): one unknown scattered value at
             the site, entering as the term const + z zcoef

    const and zcoef are numbers for the scalar families and length-d
    vectors otherwise.
    """

    halves: tuple
    known: tuple = ()
    unknown: tuple = ()


def _chi(halves, points):
    """chi on the stacked rows: halves join the base row of points, in place."""
    points[0] += halves
    return points


def _i_minus_k(mix=None):
    """Projector c = (I - K) mix chi of the matrix forcings; mix(spec) defaults to I."""
    def project(spec, nodes, halves, points):
        chi = _chi(halves, points)
        if mix is not None:
            chi = chi @ np.transpose(mix(spec))
        return _apply(np.eye(spec.dim) - nodes.kernel, chi)
    return project


def _sq_scalar_project(spec, nodes, halves, points):
    return 0.5 * (1.0 - nodes.kernel) * _chi(halves, points)


def _tri_dirichlet_project(spec, nodes, halves, points):
    # c = -t (G u0m + u_in(-1,0) - 2 u(-1,1) + z u(0,0)) / D with
    # D = G - 2 t (1 + 1/z); stable through the removable point z = -1
    z, t = nodes.z, nodes.branch
    return -t * _chi(halves, points) / (_tri_G(z, spec.omega_value**2) - 2.0 * t * (1.0 + 1.0 / z))


def _tri_crack_project(spec, nodes, halves, points):
    # the tip value u(0,-1) enters through K/N, not through I - K
    k = nodes.kernel
    nz = _tri_n(nodes.z, spec.omega_value**2, nodes.branch)
    c = _apply(k / _scale(nz), points)
    c[0] += _apply(np.eye(2) - k, halves)
    return c


def _mixed_chi(spec):
    # the crack shares row 0 with the constraint, which then keeps h^2 + 1
    zero, e = np.zeros(2), np.eye(2)[0]
    return Chi(halves=((0, lambda z, w2: _sq_h2p2(z, w2) - 1.0, "u_row", 0, 0, "minus"),
                       (1, None, "crack_diff", 0, 0, "minus")),
               unknown=((("u", -1, 0), -e, zero), (("u", 0, 0), zero, e)))


def _tri_crack_chi(spec):
    tip = (("u", 0, -1), np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
    return Chi(halves=((0, None, "u_row", 0, 0, "minus"), (1, None, "u_row", -1, 0, "minus")),
               known=(tip,), unknown=(tip,))


def _hex_constraint_chi(spec):
    # chi holds the total field at the two tip sites: incident plus unknown
    tips = ((("u", 0, 0), np.zeros(2), np.eye(2)[0]), (("v", -1, 0), -np.eye(2)[1], np.zeros(2)))
    return Chi(halves=((0, None, "u_row", 1, 0, "minus"), (1, None, "v_row", -1, 0, "minus")),
               known=tips, unknown=tips)


# --- the family record and table ---------------------------------------------

class Image(NamedTuple):
    """Reflection image of a scalar problem: rows y < 0 from rows y >= 0.

    value(sub, x, y) = +-value(src, x + x_per_row * y + x_shift, -y - row_shift)
    for each (sub, src, x_shift) in sources, with the minus sign when odd.
    """

    odd: bool
    row_shift: int
    x_per_row: int
    sources: tuple


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one defect family.

    lattice     square, triangular or honeycomb
    dim         d: 1 for the scalar families, else 2 (arrays: nu)
    count       the descriptor takes nu >= 2 defect rows, one tip offset each
    offsets     otherwise, the number of tip offsets it takes (0 or 1)
    psi         the descriptor takes a Floquet-Bloch multiplier
    kernel      (spec, z, branch) -> K(z) on arrays, shape (...) for a scalar
                family, else (..., d, d); branch is `_branch` at z
    det         (spec, z, branch) -> closed-form det K
    dk          (spec, z, branch) -> Daniele-Khrapkov (a1, a2) of a 2x2 kernel
    limit       (spec, z, branch) -> K in the separation limit N -> infinity
    alternate   (spec, z) -> the second printed form of a scalar kernel,
                evaluating its own branch: an independent reference
    chi         descriptor -> `Chi`: the data of the forcing vector chi(z)
    project     (spec, nodes, halves, points) -> c = P(z) chi(z) on rows
                stacked base first, then each unknown's unit term (halves the
                base's, points every row's); (I - K(z)) mix for most matrix families
    components  the row combinations making up f, for `oracle.wh_residual`
    defects     the oracle layout: (kind, row, side, tip) tuples and a Bloch
                period or None
    closure     scalar constraint families: x-shifts of the row-1 neighbours
                of a defect-row site, which close the unknown constants
    image       scalar families: the reflection `Image` filling rows y < 0
    zeros       scalar families: w -> the zeros of K off the branch points
    """

    lattice: Lattice
    kernel: Callable
    chi: Callable
    project: Callable
    components: Callable
    defects: Callable
    dim: int = 2
    count: bool = False
    offsets: int = 0
    psi: bool = False
    det: Callable | None = None
    dk: Callable | None = None
    limit: Callable | None = None
    alternate: Callable | None = None
    closure: tuple | None = None
    image: Image | None = None
    zeros: Callable = lambda w: ()


def _single(kind):
    return lambda spec: (((kind, 0, "left", 0),), None)


def _solved_row(row):
    return lambda spec: (("u_row", row, 0),)


def _square_rows(defects, **fields) -> Family:
    """A square-lattice family whose defects sit on distinct rows.

    f and chi have one component per defect row, top row first.  A crack
    row adds the jump of f across it ("crack_diff") and the incident jump
    to chi.  A constraint row adds the two rows next to it ("sum_pm1"),
    and (h^2+2) times its incident row plus its two tip values,
    z u(tip, row) - u(tip-1, row), to chi; a right-pointing constraint
    takes them with the opposite sign, since with the recentered
    transform chi_N = (h^2+2) u_in_N^+ + u(M-1, N) - z u(M, N).  As
    N -> infinity the rows decouple: the limit is diagonal, each row's
    single-defect kernel, inverted for a right-pointing tip.  The forcing
    is c = (I - K) S chi, where S negates the right-pointing rows.
    """
    def rows(spec):
        layout = sorted(defects(spec)[0], key=lambda d: -d[1])
        return [(kind, row, tip, "minus" if side == "left" else "plus")
                for kind, row, side, tip in layout]

    def chi(spec):
        halves, unknown = [], []
        layout = rows(spec)
        for p, (kind, row, tip, side) in enumerate(layout):
            if kind == "crack":
                halves.append((p, None, "crack_diff", row, tip, side))
                continue
            halves.append((p, _sq_h2p2, "u_row", row, tip, side))
            e = np.eye(len(layout))[p] * (1.0 if side == "minus" else -1.0)
            zero = np.zeros(len(layout))
            unknown += [(("u", tip - 1, row), -e, zero), (("u", tip, row), zero, e)]
        return Chi(halves=tuple(halves), unknown=tuple(unknown))

    def limit(spec, z, bv):
        lam = bv.lam
        entries = []
        for kind, _, _, side in rows(spec):
            single = _crack(lam) if kind == "crack" else _constraint(lam)
            entries.append(single if side == "minus" else 1.0 / single)
        return np.stack(np.broadcast_arrays(*entries), axis=-1)[..., None] * np.eye(len(entries))

    return Family(
        lattice=Lattice.SQUARE, defects=defects, limit=limit, chi=chi,
        project=_i_minus_k(lambda s: np.diag([1.0 if side == "minus" else -1.0
                                              for *_, side in rows(s)])),
        components=lambda s: tuple(("crack_diff" if kind == "crack" else "sum_pm1", row, tip)
                                   for kind, row, tip, _ in rows(s)),
        **fields)


FAMILIES = {
    "sq_crack": Family(
        lattice=Lattice.SQUARE, dim=1, kernel=_h_over_r,
        alternate=lambda s, z: _crack(_branch(s, z).lam),
        chi=lambda s: Chi(halves=((0, None, "crack_diff", 0, 0, "minus"),)),
        project=_sq_scalar_project, components=_solved_row(0), defects=_single("crack"),
        image=Image(odd=True, row_shift=1, x_per_row=0, sources=(("u", "u", 0),))),
    "sq_constraint": Family(
        lattice=Lattice.SQUARE, dim=1, kernel=_h2p2_over_rh,
        alternate=lambda s, z: _constraint(_branch(s, z).lam),
        chi=lambda s: Chi(halves=((0, _sq_h2p2, "u_row", 0, 0, "minus"),),
                          known=((("u", -1, 0), 1, 0),), unknown=((("u", 0, 0), 0, 1),)),
        project=_sq_scalar_project, components=_solved_row(1),
        defects=_single("constraint"), closure=(0,),
        image=Image(odd=False, row_shift=0, x_per_row=0, sources=(("u", "u", 0),)),
        zeros=lambda w: _reciprocal_pair(4.0 - w * w)),  # h^2 + 2 = 0
    "tri_dirichlet": Family(
        lattice=Lattice.TRIANGULAR, dim=1, kernel=_tri_dirichlet_k,
        alternate=_tri_dirichlet_alt,
        chi=lambda s: Chi(halves=((0, _tri_G, "u_row", 0, 0, "minus"),),
                          known=((("u", -1, 0), 1, 0),),
                          unknown=((("u", -1, 1), -2, 0), (("u", 0, 0), 0, 1))),
        project=_tri_dirichlet_project, components=_solved_row(1),
        defects=_single("constraint"), closure=(0, -1),
        image=Image(odd=False, row_shift=0, x_per_row=1, sources=(("u", "u", 0),))),
    "hex_crack": Family(
        lattice=Lattice.HONEYCOMB, dim=1, kernel=_hex_crack_k, alternate=_hex_crack_alt,
        # c = (u0m - v(-1)m)/(Ns + 1)
        chi=lambda s: Chi(halves=((0, None, "u_row", 0, 0, "minus"),
                                  (0, -1.0, "v_row", -1, 0, "minus"))),
        project=lambda s, n, halves, points: (
            _chi(halves, points) / (1.0 + _hex_ns(n.z, s.omega_value, n.branch))),
        components=_solved_row(0), defects=_single("crack"),
        # odd across the crack line: u(x,y) = -v(x+y, -1-y), v(x,y) = -u(x+y+1, -1-y)
        image=Image(odd=True, row_shift=1, x_per_row=1,
                    sources=(("u", "v", 0), ("v", "u", 1)))),
    "tri_crack_2x2": Family(
        lattice=Lattice.TRIANGULAR, kernel=_tri_crack_k, dk=_tri_crack_dk,
        chi=_tri_crack_chi, project=_tri_crack_project,
        components=lambda s: (("u_row", 0, 0), ("u_row", -1, 0)), defects=_single("crack")),
    "hex_constraint_2x2": Family(
        lattice=Lattice.HONEYCOMB, kernel=_hex_constraint_k, dk=_hex_constraint_dk,
        chi=_hex_constraint_chi, project=_i_minus_k(),
        components=lambda s: (("u_row", 1, 0), ("v_row", -1, 0)),
        defects=_single("constraint")),
    "array_cracks": _square_rows(
        lambda s: (tuple(("crack", j * s.sep, "left", s.offsets[j]) for j in range(s.count)),
                   None),
        count=True, kernel=_array_kernel(_h_over_r), det=_array_det(_h_over_r)),
    "array_constraints": _square_rows(
        lambda s: (tuple(("constraint", j * s.sep, "left", s.offsets[j])
                         for j in range(s.count)), None),
        count=True, kernel=_array_kernel(_h2p2_over_rh),
        # grouped as ((h^2+2)/(r h))^nu (1 - lam^(2N))^(nu-1), the grouping
        # pinned by numeric comparison against the assembled kernel
        det=_array_det(_h2p2_over_rh)),
    "mixed_array": Family(
        lattice=Lattice.SQUARE, psi=True, kernel=_mixed_k, det=_mixed_det,
        limit=_mixed_limit, chi=_mixed_chi, project=_i_minus_k(lambda s: ((1.0, 1.0), (0.0, 1.0))),
        components=lambda s: (("u_row", 1, 0), ("crack_diff", 0, 0)),
        defects=lambda s: ((("constraint", 0, "left", 0), ("crack", 0, "left", 0)), s.sep)),
    "pair_crack_constraint": _square_rows(
        lambda s: ((("crack", 0, "left", 0), ("constraint", s.sep, "left", 0)), None),
        kernel=_pair_k, det=_pair_det),
    "opposing_cracks": _square_rows(
        lambda s: ((("crack", s.sep, "right", s.offsets[0]), ("crack", 0, "left", 0)), None),
        offsets=1, kernel=_opposing_k(_crack, _crack), det=_unit_det),
    "opposing_constraints": _square_rows(
        lambda s: ((("constraint", s.sep, "right", s.offsets[0]),
                    ("constraint", 0, "left", 0)), None),
        offsets=1, kernel=_opposing_k(_constraint, _constraint), det=_unit_det),
    "opposing_mixed": _square_rows(
        lambda s: ((("constraint", s.sep, "right", s.offsets[0]), ("crack", 0, "left", 0)),
                   None),
        offsets=1, kernel=_opposing_mixed_k, det=_opposing_mixed_det),
}

SCALAR_FAMILIES = tuple(name for name, rec in FAMILIES.items() if rec.dim == 1)
MATRIX_FAMILIES = tuple(name for name, rec in FAMILIES.items() if rec.dim != 1)


def family_record(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnsupportedFamily(f"unknown kernel family {name!r}") from None


def kernel_lattice(family: str) -> Lattice:
    return family_record(family).lattice


# --- descriptors and the public lookups ----------------------------------------

class _Descriptor:
    """What the scalar and matrix kernel descriptors share."""

    @property
    def omega_value(self) -> complex:
        return _omega_value(self.omega)

    @property
    def lattice(self) -> Lattice:
        return kernel_lattice(self.family)


@dataclass(frozen=True)
class ScalarKernel(_Descriptor):
    """Descriptor of a scalar WH kernel; evaluable at any z off the cuts."""

    family: str
    omega: object  # Frequency, or bare complex for closed-form point checks
    dim = 1

    def __post_init__(self):
        if self.family not in SCALAR_FAMILIES:
            raise UnsupportedFamily(f"{self.family!r} is not a scalar kernel family")

    def __call__(self, z):
        return eval_scalar_kernel(self, z)


def _scalar_out(out):
    return complex(out) if np.ndim(out) == 0 else out


class Nodes(NamedTuple):
    """A kernel's branch at z (one `_branch` evaluation) and K read off it."""

    spec: object
    z: np.ndarray
    branch: object
    kernel: np.ndarray

    @property
    def multiplier(self) -> np.ndarray:
        """The row propagation multiplier u_(y+1) / u_y: lam, t or hh."""
        return self.branch.lam if isinstance(self.branch, BranchValue) else self.branch


def nodes_at(spec, z) -> Nodes:
    """One branch evaluation at z, and K read off it."""
    za = np.asarray(z, dtype=complex)
    branch = _branch(spec, za)
    return Nodes(spec, za, branch, np.asarray(FAMILIES[spec.family].kernel(spec, za, branch)))


def eval_scalar_kernel(kernel: ScalarKernel, z):
    """Evaluate the scalar kernel at z (scalar or ndarray).

    Uses the form of each kernel that stays finite on power-of-two grids
    (in particular through the removable point z = -1 of the slant
    families).
    """
    return _scalar_out(nodes_at(kernel, z).kernel)


def scalar_kernel_forms(kernel: ScalarKernel, z):
    """Both printed algebraic forms of the kernel, for agreement checks.

    Returns (primary, alternate): h/r vs (1-lam)/(1+lam) style pairs.
    Not defined at the removable point z = -1 for the slant families.
    """
    za = np.asarray(z, dtype=complex)
    return nodes_at(kernel, za).kernel, FAMILIES[kernel.family].alternate(kernel, za)


@dataclass(frozen=True)
class MatrixKernelSpec(_Descriptor):
    """Descriptor of a matrix WH kernel.

    count    number of defect rows (nu), arrays only;
    sep      vertical row separation N;
    offsets  tip offsets: one per defect row for arrays, a single offset
             for the opposing families, empty otherwise;
    psi      Floquet-Bloch multiplier exp(-i ky N), mixed_array only.
    """

    family: str
    omega: object
    count: int | None = None
    sep: int = 1
    offsets: tuple[int, ...] = ()
    psi: complex | None = None

    def __post_init__(self):
        if self.family not in MATRIX_FAMILIES:
            raise UnsupportedFamily(f"{self.family!r} is not a matrix kernel family")
        object.__setattr__(self, "offsets", tuple(int(m) for m in self.offsets))
        rec = FAMILIES[self.family]
        if rec.count:
            if self.count is None or self.count < 2:
                raise InvalidSpec("array kernels require count (nu) >= 2")
            if len(self.offsets) != self.count:
                raise InvalidSpec("array kernels require one tip offset per defect row")
        elif len(self.offsets) != rec.offsets:
            raise InvalidSpec(f"{self.family} takes {rec.offsets} tip offset(s), "
                              f"got {len(self.offsets)}")
        if self.sep < 1:
            raise InvalidSpec("row separation must be >= 1")
        if rec.psi and (self.psi is None or self.psi == 0 or not np.isfinite(self.psi)):
            raise InvalidSpec(f"{self.family} requires a finite, nonzero Floquet multiplier")

    @property
    def dim(self) -> int:
        return self.count if FAMILIES[self.family].count else FAMILIES[self.family].dim

    def __call__(self, z):
        return eval_matrix_kernel(self, z)


def eval_matrix_kernel(spec: MatrixKernelSpec, z) -> np.ndarray:
    """Evaluate the matrix kernel: z of shape (...) gives shape (..., d, d)."""
    return nodes_at(spec, z).kernel


def det_closed_form(spec: MatrixKernelSpec, z):
    """Printed closed-form determinant of the matrix kernel, shape of z.

    The two Daniele-Khrapkov families take theirs from `dk_form`.
    """
    det = FAMILIES[spec.family].det
    if det is None:
        raise UnsupportedFamily(
            f"{spec.family} determinant comes from the Daniele-Khrapkov form; use dk_form")
    return _scalar_out(np.asarray(_evaluate(det, spec, z)))


@dataclass(frozen=True)
class DKForm:
    """Daniele-Khrapkov data: K = (a1^2 - z a2^2)^(-1) (a1 I + a2 R), (a1, a2) = pair(z)."""

    pair: Callable

    @staticmethod
    def R(z) -> np.ndarray:
        return _matrix([[0.0, z], [1.0, 0.0]])

    def reconstruct(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        a1, a2 = self.pair(z)
        return (_scale(a1) * np.eye(2) + _scale(a2) * self.R(z)) / _scale(a1 * a1 - z * a2 * a2)

    def det(self, z):
        z = np.asarray(z, dtype=complex)
        a1, a2 = self.pair(z)
        return _scalar_out(1.0 / (a1 * a1 - z * a2 * a2))


def dk_form(spec: MatrixKernelSpec) -> DKForm:
    """Daniele-Khrapkov representation of the two reducible 2x2 kernels."""
    dk = FAMILIES[spec.family].dk
    if dk is None:
        raise UnsupportedFamily(f"{spec.family} has no Daniele-Khrapkov form here")
    return DKForm(pair=partial(_evaluate, dk, spec))


def diag_limit_defect(spec: MatrixKernelSpec) -> Callable:
    """Kernel in the N -> infinity limit (all lam^N terms dropped).

    Arrays, the pair, and the opposing families decouple into the
    single-defect scalar kernels on the diagonal.  The mixed array tends
    to the full (non-diagonal) kernel of one combined crack+constraint
    defect instead; that limit matrix is returned verbatim.
    """
    limit = FAMILIES[spec.family].limit
    if limit is None:
        raise UnsupportedFamily(
            f"{spec.family} has no separation parameter to send to infinity")
    return partial(_evaluate, limit, spec)


@dataclass(frozen=True)
class AffineForcing:
    """Forcing c(z; alpha) = c_0(z) + sum_k alpha_k c_k(z) as its stacked rows.

    The unknown lattice constants alpha_k are keyed by site tuples like
    ("u", x, y) in constant_ids.  rows(z, nodes=None) stacks c_0, then each
    c_k in that order: shape (1 + len(constant_ids),) + z.shape, plus a
    length-dim axis for matrix problems.  A family's forcing computes them
    through one projector, reading nodes when they are its own kernel's.
    """

    constant_ids: tuple
    rows: Callable


def _incident_half(inc: Incidence, combine: str, row: int, offset: int, side: str,
                   strict: bool):
    """Closed-form half transform of an incident row combination.

    combine: "u_row"      u_in at (m + offset, row)
             "v_row"      the honeycomb v sublattice at (m + offset, row)
             "crack_diff" u_in(.., row) - u_in(.., row - 1)

    Sums run over m in Z^+ (side "plus") or Z^- ("minus") with weight
    z^(-m).  With strict=False divergent sides are evaluated by analytic
    continuation of the geometric sum (legitimate: the incident transform
    continues to the whole plane minus the single pole).
    """
    amp = inc.field(offset, row, "v" if combine == "v_row" else "u")
    if combine == "crack_diff":
        amp = amp * (1.0 - np.exp(1j * inc.kappa_y))
    return half_transform_exp(amp, np.exp(1j * inc.kappa_x), side, strict=strict)


def _affine_forcing(kernel, inc: Incidence, strict: bool) -> AffineForcing:
    """AffineForcing c = P(z) chi(z) from the family record's data."""
    rec = FAMILIES[kernel.family]
    if inc.lattice is not rec.lattice:
        raise InvalidSpec(f"incidence is for {inc.lattice.value}, kernel needs {rec.lattice.value}")
    w2 = kernel.omega_value**2
    chi = rec.chi(kernel)
    halves = [(p, weight, _incident_half(inc, combine, row, offset, side, strict))
              for p, weight, combine, row, offset, side in chi.halves]
    known = [(complex(inc.field(x, y, sub)), c, e) for (sub, x, y), c, e in chi.known]

    def point(c, e, z):
        return c + np.multiply.outer(z, e)

    def rows(z, nodes=None):
        za = np.asarray(z, dtype=complex)
        if nodes is None or nodes.spec != kernel:
            nodes = nodes_at(kernel, za)
        comps = [0] * kernel.dim
        for p, weight, fn in halves:
            val = fn(za)
            if weight is not None:
                val = (weight(za, w2) if callable(weight) else weight) * val
            comps[p] = comps[p] + val
        h = comps[0] if rec.dim == 1 else np.stack(np.broadcast_arrays(*comps), axis=-1)
        # the point terms in one block: the known sites' on row 0, each unknown's on its own
        points = np.empty((1 + len(chi.unknown),) + np.shape(h), dtype=complex)
        points[0] = sum((value * point(c, e, za) for value, c, e in known), 0)
        for i, (_, c, e) in enumerate(chi.unknown, 1):
            points[i] = point(c, e, za)
        return rec.project(kernel, nodes, h, points)

    return AffineForcing(tuple(key for key, _, _ in chi.unknown), rows)


def scalar_forcing(family: str, inc: Incidence) -> AffineForcing:
    """Wiener-Hopf forcing c(z) of the four scalar problems.

    sq_crack and hex_crack are fully known; sq_constraint carries the
    unknown scattered value u(0,0) and tri_dirichlet carries u(-1,1) and
    u(0,0).  Incident half-transforms are the exact geometric sums.
    """
    return _affine_forcing(ScalarKernel(family, inc.omega), inc, strict=True)


def vector_forcing(spec: MatrixKernelSpec, inc: Incidence) -> AffineForcing:
    """Vector forcing c(z) of the matrix WH problems.

    Unknown scattered point values near defect tips enter as affine
    terms keyed by site tuples; values constrained to -u_in by a rigid
    row are still listed (callers may substitute the known value).
    Incident half transforms on divergent sides use the analytic
    continuation of the geometric sum.
    """
    return _affine_forcing(spec, inc, strict=False)
