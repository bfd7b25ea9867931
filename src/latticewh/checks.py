"""Invariant checks shared by `latticewh verify` and the acceptance suite.

Each suite returns a list of :class:`Check`; a check passes when its value
is at most its bound.  The suites hold the cases, random draws and bounds
of every acceptance criterion; `tests/test_acceptance.py` adds only
wall-clock bounds.

Criterion by criterion: 1 `branches`, 2 `points`, 3 `factorization`,
4-6 `fields` (the functions `square_crack`, `honeycomb_crack` and
`closure`), 7 `dets`, 8 `dk`, 9 `limits`, 10 `residuals`, and 11
`convergence`, which adds the WH residual of oracle fields against
window width.

A strict criterion ``value < b`` is stored as the bound
``math.nextafter(b, 0)``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .branches import (
    Frequency,
    Lattice,
    dispersion_solve,
    hex_branch,
    hex_reduced_omega_sq,
    square_branches,
    tri_branch,
)
from .fields import compare_fields
from .kernels import (
    SCALAR_FAMILIES,
    MatrixKernelSpec,
    ScalarKernel,
    det_closed_form,
    diag_limit_defect,
    dk_form,
    eval_matrix_kernel,
    eval_scalar_kernel,
    kernel_lattice,
)
from .oracle import assemble, problem_for, solve_direct, wh_residual
from .series import CircleGrid, mult_factorize, sample
from .whsolver import ScalarWHProblem, reconstruct_field, solve_scalar

_THETA = math.pi / 6
_WINDOW = ((-20, 20), (-20, 20))
_WH_RESIDUAL_MAX = 5e-2


class Check(NamedTuple):
    label: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


def _below(bound: float) -> float:
    """The bound b of a strict test value < b, as an inclusive bound."""
    return math.nextafter(bound, 0.0)


def _worst(values) -> float:
    return float(np.max(np.abs(values)))


def _name(spec: MatrixKernelSpec) -> str:
    return spec.family + (f" nu={spec.count}" if spec.count else "")


def branches() -> list[Check]:
    """Branch identities at 4096 unit-circle points, worst over three frequencies."""
    # offset half a step so the slant coefficient function F stays finite
    zs = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    quad = hyp = mod = slant = slant_mod = 0.0
    for omega in (0.5 + 0.05j, 1 + 0.1j, 2 + 0.2j):
        w2 = omega * omega
        bv = square_branches(zs, omega)
        lam = np.asarray(bv.lam)
        quad = max(quad, _worst(lam + 1 / lam + zs + 1 / zs - 4 + w2))
        hyp = max(hyp, _worst(np.asarray(bv.r) ** 2 - np.asarray(bv.h) ** 2 - 4))
        mod = max(mod, _worst(lam))
        for root, s in ((np.asarray(tri_branch(zs, omega)), w2),
                        (np.asarray(hex_branch(zs, omega)), hex_reduced_omega_sq(omega))):
            f_vals = (6 - zs - 1 / zs - 1.5 * s) / (1 + 1 / zs)
            slant = max(slant, _worst(root**2 - f_vals * root + zs))
            slant_mod = max(slant_mod, _worst(root))
    return [
        Check("lam + 1/lam + z + 1/z - 4 + omega^2", quad, _below(1e-11)),
        Check("r^2 - h^2 - 4", hyp, _below(1e-12)),
        Check("max |lam|", mod, 1 + 1e-12),
        Check("slant roots t, hh: root^2 - F root + z", slant, _below(1e-11)),
        Check("max |t|, |hh|", slant_mod, _below(1.0)),
    ]


def points() -> list[Check]:
    """Branches and scalar kernels at omega = 0 against their closed forms."""
    r2, r3, r7 = math.sqrt(2), math.sqrt(3), math.sqrt(7)

    def kern(family, z):
        return eval_scalar_kernel(ScalarKernel(family, 0j), z)

    errs = [
        square_branches(-1.0, 0j).lam - (3 - 2 * r2),
        square_branches(1j, 0j).lam - (2 - r3),
        kern("sq_crack", -1.0) - 1 / r2,
        kern("sq_constraint", 1j) - 2 / r3,
        tri_branch(1j, 0j) - (3 - r7) * (1 + 1j) / 2,
        kern("tri_dirichlet", 1j) - 3 / r7,
        kern("hex_crack", 1j) - 1 / r7,
    ]
    return [Check("closed-form values at omega = 0, max error", _worst(errs), _below(1e-12))]


def factorization() -> list[Check]:
    """K = K+ K- of the four scalar kernels at omega = 1 + 0.1i, nq = 4096 and 8192."""
    winding = res = leak = ratio = 0.0
    for family in SCALAR_FAMILIES:
        kern = ScalarKernel(family, 1 + 0.1j)
        rep, rep2 = (mult_factorize(sample(kern, grid), grid)[2]
                     for grid in (CircleGrid(1.0, 4096), CircleGrid(1.0, 8192)))
        winding = max(winding, abs(rep.winding))
        res = max(res, rep.reconstruction_residual)
        leak = max(leak, rep.leakage_plus, rep.leakage_minus)
        ratio = max(ratio, rep2.reconstruction_residual / rep.reconstruction_residual)
    return [
        Check("|winding|", winding, 0.0),
        Check("factorization residual, nq = 4096", res, 1e-8),
        Check("coefficient leakage K+, K-", leak, 1e-9),
        Check("factorization residual nq = 8192 / nq = 4096", ratio, 3.0),
    ]


def _scalar_solve(family: str):
    """WH solution, its field on +-20 and the L = 100 oracle field of a scalar family."""
    inc = dispersion_solve(kernel_lattice(family), Frequency(1 + 0.1j), _THETA)
    problem = ScalarWHProblem.for_family(family, inc)
    sol = solve_scalar(problem)
    fld = reconstruct_field(problem, sol, _WINDOW)
    return sol, fld, solve_direct(assemble(problem_for(problem.kernel, inc), 100))


def square_crack() -> list[Check]:
    """Criterion 4: the sq_crack WH field against the oracle on +-20.

    Also the relative residual of the square-lattice equation on the WH
    field, at least two rows away from the crack pair (rows 0 and -1).
    """
    _, fld, ref = _scalar_solve("sq_crack")
    rel_l2 = compare_fields(fld, ref, _WINDOW).rel_l2
    u = fld.u
    centre = u[1:-1, 1:-1]
    res = (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
           + ((1 + 0.1j) ** 2 - 4) * centre)
    rows = fld.ys[1:-1]
    away = (rows < -3) | (rows > 2)
    interior = float(np.max(np.abs(res[away]) / np.maximum(np.abs(centre[away]), 1e-30)))
    return [
        Check("sq_crack WH vs oracle rel_l2", rel_l2, 5e-2),
        Check("sq_crack interior equation residual", interior, _below(1e-6)),
    ]


def honeycomb_crack() -> list[Check]:
    """Criterion 5: the hex_crack WH field against the oracle on +-20.

    A failure here would flag the reduced-frequency convention of the
    honeycomb branch function.
    """
    _, fld, ref = _scalar_solve("hex_crack")
    return [Check("hex_crack WH vs oracle rel_l2", compare_fields(fld, ref, _WINDOW).rel_l2, 7e-2)]


def closure() -> list[Check]:
    """Criterion 6: the closed lattice constants against the oracle's values there."""
    errs, conds = [], []
    for family, keys in (("sq_constraint", (("u", 0, 0),)),
                         ("tri_dirichlet", (("u", -1, 1), ("u", 0, 0)))):
        sol, _, ref = _scalar_solve(family)
        for sub, x, y in keys:
            exact = ref.value(x, y, sub)
            errs.append(abs(sol.constants[(sub, x, y)] - exact) / abs(exact))
        conds.append(sol.closure_condition)
    return [
        Check("closed constants vs oracle, max relative error", max(errs), 2e-2),
        Check("closure condition number", max(conds), _below(1e6)),
    ]


def fields() -> list[Check]:
    """Criteria 4, 5 and 6: WH fields and closed constants against the L = 100 oracle."""
    return square_crack() + honeycomb_crack() + closure()


def dets() -> list[Check]:
    """det K against its closed form at 256 unit-circle points per separation."""
    rng = np.random.default_rng(20260810)
    omega = 1 + 0.1j
    psi = complex(np.exp(0.45j) * 0.97)
    general = unit = 0.0
    for sep in (1, 2, 4):
        specs = [MatrixKernelSpec("pair_crack_constraint", omega, sep=sep),
                 MatrixKernelSpec("mixed_array", omega, sep=sep, psi=psi),
                 MatrixKernelSpec("opposing_mixed", omega, sep=sep,
                                  offsets=(int(rng.integers(0, 9)),))]
        for nu in (2, 3, 5):
            offsets = tuple(int(v) for v in rng.integers(0, 9, nu))
            specs += [MatrixKernelSpec(f, omega, count=nu, sep=sep, offsets=offsets)
                      for f in ("array_cracks", "array_constraints")]
        unit_specs = [MatrixKernelSpec(f, omega, sep=sep, offsets=(int(rng.integers(0, 9)),))
                      for f in ("opposing_cracks", "opposing_constraints")]
        zs = np.exp(2j * np.pi * rng.random(256))
        for spec in specs:
            num = np.linalg.det(eval_matrix_kernel(spec, zs))
            ref = det_closed_form(spec, zs)
            general = max(general, float(np.max(np.abs(num - ref) / np.maximum(1.0, np.abs(ref)))))
        for spec in unit_specs:
            unit = max(unit, _worst(np.linalg.det(eval_matrix_kernel(spec, zs)) - 1.0))
    return [
        Check("det K = closed form, relative", general, 1e-10),
        Check("det K = 1, opposing cracks and constraints", unit, 1e-12),
    ]


def dk() -> list[Check]:
    """Daniele-Khrapkov structure of the two reducible 2x2 kernels at 256 points each."""
    rng = np.random.default_rng(7)
    recon = r_sq = det = 0.0
    for family, check_det in (("tri_crack_2x2", True), ("hex_constraint_2x2", False)):
        spec = MatrixKernelSpec(family, 1 + 0.1j)
        form = dk_form(spec)
        zs = np.exp(2j * np.pi * rng.random(256))
        k = eval_matrix_kernel(spec, zs)
        r = form.R(zs)
        recon = max(recon, _worst(k - form.reconstruct(zs)))
        r_sq = max(r_sq, _worst(r @ r - zs[:, None, None] * np.eye(2)))
        if check_det:
            det = max(det, _worst(np.linalg.det(k) - form.det(zs)))
    return [
        Check("DK reconstruction", recon, _below(1e-12)),
        Check("R^2 = z I", r_sq, _below(1e-12)),
        Check("det K = (a1^2 - z a2^2)^-1 tri_crack_2x2", det, _below(1e-12)),
    ]


_LIMIT_CASES = (
    ("pair_crack_constraint", {}),
    ("opposing_cracks", {"offsets": (0,)}),
    ("opposing_constraints", {"offsets": (0,)}),
    ("opposing_mixed", {"offsets": (0,)}),
    ("array_cracks", {"count": 2, "offsets": (0, 2)}),
    ("array_constraints", {"count": 2, "offsets": (0, 2)}),
    ("array_constraints", {"count": 3, "offsets": (0, 2, 5)}),
)


def limits() -> list[Check]:
    """K minus its large-separation diagonal limit decays like |lam|^N.

    The value is the factor between the measured and the expected decay
    from N to N + 5, whichever way round is larger.
    """
    omega = 1 + 0.1j
    z = complex(np.exp(0.9j))
    lam = abs(square_branches(z, omega).lam)
    out = []
    for family, kwargs in _LIMIT_CASES:
        errs = {}
        for n in (10, 15, 20):
            spec = MatrixKernelSpec(family, omega, sep=n, **kwargs)
            errs[n] = _worst(eval_matrix_kernel(spec, z) - diag_limit_defect(spec)(z))
        for n0, n1 in ((10, 15), (15, 20)):
            ratio = errs[n1] / errs[n0]
            expected = lam ** (n1 - n0)
            out.append(Check(f"limit rate {_name(spec)} N={n0}->{n1} vs |lam|^{n1 - n0}",
                             max(ratio / expected, expected / ratio), 3.0))
    return out


def _perturbed(spec: MatrixKernelSpec, z):
    """The kernel of spec with lam^N -> lam^(N+1) in entry (0, 1)."""
    k = eval_matrix_kernel(spec, z)
    k[..., 0, 1] *= square_branches(z, spec.omega).lam
    return k


def residuals() -> list[Check]:
    """WH-equation residual of oracle fields, and its sensitivity to a wrong kernel.

    The last check is the residual of the array_cracks nu=2 field divided
    by its residual under the perturbed kernel.
    """
    omega = 1 + 0.15j
    inc = dispersion_solve(Lattice.SQUARE, Frequency(omega), _THETA)
    psi = complex(np.exp(-1j * inc.kappa_y * 3))
    cases = [
        MatrixKernelSpec("array_cracks", omega, count=2, sep=3, offsets=(0, 2)),
        MatrixKernelSpec("array_cracks", omega, count=3, sep=2, offsets=(0, 2, 5)),
        MatrixKernelSpec("array_constraints", omega, count=2, sep=3, offsets=(0, 2)),
        MatrixKernelSpec("array_constraints", omega, count=3, sep=2, offsets=(0, 2, 5)),
        MatrixKernelSpec("pair_crack_constraint", omega, sep=3),
        MatrixKernelSpec("opposing_cracks", omega, sep=3, offsets=(3,)),
        MatrixKernelSpec("opposing_constraints", omega, sep=3, offsets=(3,)),
        MatrixKernelSpec("opposing_mixed", omega, sep=3, offsets=(3,)),
        MatrixKernelSpec("mixed_array", omega, sep=3, psi=psi),
    ]
    out = []
    for spec in cases:
        prob = problem_for(spec, inc)
        fld = solve_direct(assemble(prob, 100))
        res = wh_residual(prob, spec, fld)
        out.append(Check(f"wh_residual {_name(spec)}", res, _WH_RESIDUAL_MAX))
        if spec is cases[0]:
            res_pert = wh_residual(prob, spec, fld, kernel_eval=partial(_perturbed, spec))
            sensitivity = Check(f"residual / perturbed-kernel residual {_name(spec)}",
                                res / res_pert, 0.1)
    return out + [sensitivity]


def convergence() -> list[Check]:
    """Oracle self-convergence, and the WH residual of oracle fields against width.

    Criterion 11 compares the sq_crack fields at L = 50 and 100 on +-10.
    The sweep solves opposing_constraints (sep 3, offset 3) at L = 40, 60,
    80 and 100; its residual falls by more than 5 per step of 20 columns.
    """
    inc = dispersion_solve(Lattice.SQUARE, Frequency(1 + 0.2j), _THETA)
    prob = problem_for(ScalarKernel("sq_crack", 1 + 0.2j), inc)
    change = compare_fields(solve_direct(assemble(prob, 50)), solve_direct(assemble(prob, 100)),
                            ((-10, 10), (-10, 10))).rel_l2
    out = [Check("sq_crack inner-window change L = 50 -> 100", change, _below(1e-3))]

    omega = 1 + 0.15j
    spec = MatrixKernelSpec("opposing_constraints", omega, sep=3, offsets=(3,))
    prob = problem_for(spec, dispersion_solve(Lattice.SQUARE, Frequency(omega), _THETA))
    res = []
    for width in (40, 60, 80, 100):
        res.append(wh_residual(prob, spec, solve_direct(assemble(prob, width))))
        out.append(Check(f"wh_residual {_name(spec)} L = {width}", res[-1], _WH_RESIDUAL_MAX))
    out.append(Check(f"wh_residual {_name(spec)}, worst ratio L -> L + 20",
                     max(b / a for a, b in zip(res, res[1:])), 0.2))
    return out


SUITES = {
    "branches": branches,
    "points": points,
    "factorization": factorization,
    "fields": fields,
    "dets": dets,
    "dk": dk,
    "limits": limits,
    "residuals": residuals,
    "convergence": convergence,
}
