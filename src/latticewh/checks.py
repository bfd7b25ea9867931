"""Invariant checks shared by `latticewh verify` and the acceptance suite.

Each suite returns a list of :class:`Check`; a check passes when its value
is at most its bound.  The cases, random draws and bounds are those of
acceptance criteria 1 (branches), 7 (dets), 8 (dk), 9 (limits) and 10
(residuals).  A strict criterion ``value < b`` is stored as the bound
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
from .kernels import MatrixKernelSpec, det_closed_form, diag_limit_defect, dk_form, eval_matrix_kernel
from .oracle import assemble, problem_for, solve_direct, wh_residual


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
    inc = dispersion_solve(Lattice.SQUARE, Frequency(omega), math.pi / 6)
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
        out.append(Check(f"wh_residual {_name(spec)}", res, 5e-2))
        if spec is cases[0]:
            res_pert = wh_residual(prob, spec, fld, kernel_eval=partial(_perturbed, spec))
            sensitivity = Check(f"residual / perturbed-kernel residual {_name(spec)}",
                                res / res_pert, 0.1)
    return out + [sensitivity]


SUITES = {
    "branches": branches,
    "dets": dets,
    "dk": dk,
    "limits": limits,
    "residuals": residuals,
}
