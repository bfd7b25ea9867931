#!/usr/bin/env python3
"""Survey of the matrix kernel catalog: determinants and structure checks.

Samples every family at random points near the unit circle and tabulates
the worst deviation of the numeric determinant from its closed form, the
Daniele-Khrapkov reconstruction error for the two reducible kernels, and
the distance from the large-separation limit.
"""

import argparse

import numpy as np

from latticewh.errors import UnsupportedFamily
from latticewh.kernels import (
    MatrixKernelSpec,
    det_closed_form,
    diag_limit_defect,
    dk_form,
    eval_matrix_kernel,
)


def survey_specs(omega):
    psi = complex(0.92 * np.exp(0.4j))
    return [
        MatrixKernelSpec("tri_crack_2x2", omega),
        MatrixKernelSpec("hex_constraint_2x2", omega),
        MatrixKernelSpec("array_cracks", omega, count=3, sep=2, offsets=(0, 2, 5)),
        MatrixKernelSpec("array_constraints", omega, count=3, sep=2, offsets=(0, 2, 5)),
        MatrixKernelSpec("mixed_array", omega, sep=3, psi=psi),
        MatrixKernelSpec("pair_crack_constraint", omega, sep=3),
        MatrixKernelSpec("opposing_cracks", omega, sep=3, offsets=(3,)),
        MatrixKernelSpec("opposing_constraints", omega, sep=3, offsets=(3,)),
        MatrixKernelSpec("opposing_mixed", omega, sep=3, offsets=(3,)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", default="1,0.1")
    ap.add_argument("--samples", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    re_w, im_w = (float(t) for t in args.omega.split(","))
    omega = complex(re_w, im_w)
    rng = np.random.default_rng(args.seed)
    zs = rng.uniform(0.95, 1.05, args.samples) * np.exp(
        2j * np.pi * rng.random(args.samples))

    print(f"{'family':22s} {'dim':>4s} {'det err':>10s} {'DK err':>10s} {'limit dist':>11s}")
    for spec in survey_specs(omega):
        k = eval_matrix_kernel(spec, zs)
        det_err = dk_err = lim_dist = float("nan")
        try:
            det_err = float(np.max(np.abs(np.linalg.det(k) - det_closed_form(spec, zs))))
        except UnsupportedFamily:
            pass
        try:
            dk_err = float(np.max(np.abs(k - dk_form(spec).reconstruct(zs))))
        except UnsupportedFamily:
            pass
        try:
            lim_dist = float(np.max(np.abs(k - diag_limit_defect(spec)(zs))))
        except UnsupportedFamily:
            pass
        print(f"{spec.family:22s} {spec.dim:4d} {det_err:10.2e} "
              f"{dk_err:10.2e} {lim_dist:11.2e}")


if __name__ == "__main__":
    main()
