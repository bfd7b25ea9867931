#!/usr/bin/env python3
"""Convergence study: WH-equation residual of oracle data vs window size.

For a chosen matrix kernel family, solves the finite lattice at a range
of half widths and reports how the functional-equation residual decays;
with --perturb the kernel is deliberately corrupted (one off-diagonal
lam^N -> lam^(N+1)) to show the sensitivity floor.
"""

import argparse
import math
import time

import numpy as np

from latticewh.branches import Frequency, dispersion_solve, square_branches
from latticewh.kernels import MatrixKernelSpec, eval_matrix_kernel, family_record
from latticewh.oracle import assemble, problem_for, solve_direct, wh_residual


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="opposing_constraints")
    ap.add_argument("--omega", default="1,0.15")
    ap.add_argument("--theta", type=float, default=math.pi / 6)
    ap.add_argument("--sep", type=int, default=3)
    ap.add_argument("--offset", type=int, default=3)
    ap.add_argument("--nu", type=int, default=2)
    ap.add_argument("--widths", default="40,60,80,100")
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args()

    re_w, im_w = (float(t) for t in args.omega.split(","))
    omega = complex(re_w, im_w)
    inc = dispersion_solve("square", Frequency(omega), args.theta)

    rec = family_record(args.family)
    kwargs = {"sep": args.sep}
    if rec.count:
        kwargs.update(count=args.nu, offsets=tuple(range(0, 2 * args.nu, 2)))
    elif rec.offsets:
        kwargs.update(offsets=(args.offset,))
    if rec.psi:
        kwargs.update(psi=complex(np.exp(-1j * inc.kappa_y * args.sep)))
    spec = MatrixKernelSpec(args.family, omega, **kwargs)
    prob = problem_for(spec, inc)

    kernel_eval = None
    if args.perturb:
        def kernel_eval(z):
            k = eval_matrix_kernel(spec, z)
            k[..., 0, 1] *= square_branches(z, omega).lam
            return k

    print(f"{args.family}: omega={omega}, theta={args.theta:.3f}, "
          f"sep={args.sep}" + (" [perturbed kernel]" if args.perturb else ""))
    print(f"{'L':>5s} {'residual':>12s} {'time':>8s}")
    for width in (int(t) for t in args.widths.split(",")):
        t0 = time.time()
        fld = solve_direct(assemble(prob, width))
        res = wh_residual(prob, spec, fld, kernel_eval=kernel_eval)
        print(f"{width:5d} {res:12.3e} {time.time() - t0:7.1f}s")


if __name__ == "__main__":
    main()
