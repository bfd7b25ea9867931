"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every tolerance is pinned exactly as stated: here, or for criteria 1, 7,
8, 9 and 10 in `latticewh.checks`, which `latticewh verify` runs too.
Runtime bounds are asserted on wall-clock time.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import pytest

from latticewh import checks
from latticewh.branches import Frequency, dispersion_solve, square_branches, tri_branch
from latticewh.fields import compare_fields
from latticewh.kernels import ScalarKernel, eval_scalar_kernel
from latticewh.oracle import assemble, problem_for, solve_direct
from latticewh.series import CircleGrid, mult_factorize, sample
from latticewh.whsolver import ScalarWHProblem, reconstruct_field, solve_scalar

SQRT2, SQRT3, SQRT7 = math.sqrt(2), math.sqrt(3), math.sqrt(7)


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _report_checks(criterion: str, found: list, *extra: str, ok: bool = True):
    """Report a criterion from its `latticewh.checks` suite, plus extra conditions."""
    detail = "; ".join([f"{c.label} {c.value:.1e}" for c in found] + list(extra))
    _report(criterion, ok and all(c.ok for c in found), detail)


@pytest.fixture(scope="module")
def inc_sq():
    return dispersion_solve("square", Frequency(1 + 0.1j), math.pi / 6)


@pytest.fixture(scope="module")
def inc_hex():
    return dispersion_solve("honeycomb", Frequency(1 + 0.1j), math.pi / 6)


@pytest.fixture(scope="module")
def inc_tri():
    return dispersion_solve("triangular", Frequency(1 + 0.1j), math.pi / 6)


def test_criterion_01_branch_identity_suite():
    start = time.time()
    found = checks.branches()
    elapsed = time.time() - start
    _report_checks("criterion 1: branch identity suite", found, f"{elapsed:.2f}s",
                   ok=elapsed < 5.0)


def test_criterion_02_closed_form_point_values():
    checks = [
        ("lam(-1;0)", square_branches(-1.0, 0j).lam, 3 - 2 * SQRT2),
        ("lam(i;0)", square_branches(1j, 0j).lam, 2 - SQRT3),
        ("K_sq_crack(-1;0)", eval_scalar_kernel(ScalarKernel("sq_crack", 0j), -1.0),
         1 / SQRT2),
        ("K_sq_constraint(i;0)",
         eval_scalar_kernel(ScalarKernel("sq_constraint", 0j), 1j), 2 / SQRT3),
        ("t(i;0)", tri_branch(1j, 0j), (3 - SQRT7) * (1 + 1j) / 2),
        ("K_tri_dirichlet(i;0)",
         eval_scalar_kernel(ScalarKernel("tri_dirichlet", 0j), 1j), 3 / SQRT7),
        ("K_hex_crack(i;0)",
         eval_scalar_kernel(ScalarKernel("hex_crack", 0j), 1j), 1 / SQRT7),
    ]
    worst = max(abs(got - expect) for _, got, expect in checks)
    _report("criterion 2: closed-form point values", worst < 1e-12, f"max err {worst:.1e}")


def test_criterion_03_scalar_factorization():
    details = []
    ok = True
    for family in ("sq_crack", "sq_constraint", "tri_dirichlet", "hex_crack"):
        kern = ScalarKernel(family, 1 + 0.1j)
        start = time.time()
        grid = CircleGrid(1.0, 4096)
        _, _, rep = mult_factorize(sample(kern, grid), grid)
        elapsed = time.time() - start
        grid2 = CircleGrid(1.0, 8192)
        _, _, rep2 = mult_factorize(sample(kern, grid2), grid2)
        good = (rep.winding == 0
                and rep.reconstruction_residual <= 1e-8
                and rep.leakage_plus <= 1e-9 and rep.leakage_minus <= 1e-9
                and rep2.reconstruction_residual <= 3 * rep.reconstruction_residual
                and elapsed < 2.0)
        ok = ok and good
        details.append(f"{family}: res {rep.reconstruction_residual:.1e}"
                       f"->{rep2.reconstruction_residual:.1e} {elapsed:.2f}s")
    _report("criterion 3: scalar factorization", ok, "; ".join(details))


def test_criterion_04_square_crack_end_to_end(inc_sq):
    start = time.time()
    problem = ScalarWHProblem.for_family("sq_crack", inc_sq)
    sol = solve_scalar(problem)
    fld = reconstruct_field(problem, sol, ((-20, 20), (-20, 20)))
    oracle_field = solve_direct(assemble(problem_for(problem.kernel, inc_sq), 100))
    rep = compare_fields(fld, oracle_field, ((-20, 20), (-20, 20)))
    # interior residual at least two rows away from the crack pair (0, -1)
    w2 = (1 + 0.1j) ** 2
    worst_interior = 0.0
    for y in range(-19, 20):
        if -3 <= y <= 2:
            continue
        for x in range(-19, 20):
            res = (fld.value(x + 1, y) + fld.value(x - 1, y) + fld.value(x, y + 1)
                   + fld.value(x, y - 1) + (w2 - 4) * fld.value(x, y))
            worst_interior = max(worst_interior, abs(res) / max(abs(fld.value(x, y)), 1e-30))
    elapsed = time.time() - start
    ok = rep.rel_l2 <= 5e-2 and worst_interior < 1e-6 and elapsed < 60.0
    _report("criterion 4: square crack end-to-end", ok,
            f"rel_l2 {rep.rel_l2:.2e}, interior {worst_interior:.1e}, {elapsed:.1f}s")


def test_criterion_05_honeycomb_crack_end_to_end(inc_hex):
    start = time.time()
    problem = ScalarWHProblem.for_family("hex_crack", inc_hex)
    sol = solve_scalar(problem)
    fld = reconstruct_field(problem, sol, ((-20, 20), (-20, 20)))
    oracle_field = solve_direct(assemble(problem_for(problem.kernel, inc_hex), 100))
    rep = compare_fields(fld, oracle_field, ((-20, 20), (-20, 20)))
    elapsed = time.time() - start
    # a failure here would flag the reduced-frequency convention of the
    # honeycomb branch function, not silent acceptance
    ok = rep.rel_l2 <= 7e-2 and elapsed < 60.0
    _report("criterion 5: honeycomb crack end-to-end (reduced-frequency convention)",
            ok, f"rel_l2 {rep.rel_l2:.2e}, {elapsed:.1f}s")


def test_criterion_06_constant_closure(inc_sq, inc_tri):
    sol_sq = solve_scalar(ScalarWHProblem.for_family("sq_constraint", inc_sq))
    sol_tri = solve_scalar(ScalarWHProblem.for_family("tri_dirichlet", inc_tri))
    oracle_sq = solve_direct(assemble(
        problem_for(ScalarKernel("sq_constraint", 1 + 0.1j), inc_sq), 100))
    oracle_tri = solve_direct(assemble(
        problem_for(ScalarKernel("tri_dirichlet", 1 + 0.1j), inc_tri), 100))
    errs = []
    ref = oracle_sq.value(0, 0)
    errs.append(abs(sol_sq.constants[("u", 0, 0)] - ref) / abs(ref))
    for key in (("u", -1, 1), ("u", 0, 0)):
        ref = oracle_tri.value(key[1], key[2])
        errs.append(abs(sol_tri.constants[key] - ref) / abs(ref))
    conds = (sol_sq.closure_condition, sol_tri.closure_condition)
    ok = max(errs) <= 2e-2 and max(conds) < 1e6
    _report("criterion 6: constant closure", ok,
            f"max rel err {max(errs):.2e}, cond {max(conds):.1e}")


def test_criterion_07_determinant_identities():
    _report_checks("criterion 7: determinant identities", checks.dets())


def test_criterion_08_daniele_khrapkov():
    _report_checks("criterion 8: Daniele-Khrapkov structure", checks.dk())


def test_criterion_09_diagonalization_limits():
    _report_checks("criterion 9: diagonalization limits", checks.limits())


def test_criterion_10_matrix_kernel_residuals():
    start = time.time()
    found = checks.residuals()
    elapsed = time.time() - start
    _report_checks("criterion 10: matrix-kernel residual validation", found,
                   f"{elapsed:.0f}s", ok=elapsed < 600.0)


def test_criterion_11_oracle_self_convergence():
    inc = dispersion_solve("square", Frequency(1 + 0.2j), math.pi / 6)
    prob = problem_for(ScalarKernel("sq_crack", 1 + 0.2j), inc)
    small = solve_direct(assemble(prob, 50))
    large = solve_direct(assemble(prob, 100))
    rep = compare_fields(small, large, ((-10, 10), (-10, 10)))
    _report("criterion 11: oracle self-convergence", rep.rel_l2 < 1e-3,
            f"inner-window change {rep.rel_l2:.1e}")
