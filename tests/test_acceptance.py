"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every criterion's cases and bounds live in the suites of
`latticewh.checks`, which `latticewh verify` runs too (the module
docstring there maps criteria to suites).  This file adds only the
wall-clock bounds, each on the whole suite call, and one convergence test
beside criterion 3.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""

import time

import pytest

from latticewh import checks
from latticewh.branches import Frequency, dispersion_solve
from latticewh.kernels import kernel_lattice
from latticewh.series import CircleGrid
from latticewh.whsolver import ScalarWHProblem, solve_scalar


def _report(criterion: str, suite, seconds: float | None = None):
    """Run a suite, print its PASS/FAIL line, and fail on any check or on the time bound."""
    start = time.time()
    found = suite()
    elapsed = time.time() - start
    detail = [f"{c.label} {c.value:.2e}" for c in found]
    ok = all(c.ok for c in found)
    if seconds is not None:
        detail.append(f"{elapsed:.2f}s")
        ok = ok and elapsed < seconds
    print(f"{'PASS' if ok else 'FAIL'} {criterion} ({'; '.join(detail)})")
    assert ok, f"{criterion}: {'; '.join(detail)}"


def test_criterion_01_branch_identity_suite():
    _report("criterion 1: branch identity suite", checks.branches, seconds=5.0)


def test_criterion_02_closed_form_point_values():
    _report("criterion 2: closed-form point values", checks.points)


def test_criterion_03_scalar_factorization():
    _report("criterion 3: scalar factorization", checks.factorization, seconds=2.0)


@pytest.mark.parametrize("family,fall", [("sq_crack", 1e7), ("sq_constraint", 1e7),
                                         ("tri_dirichlet", 1e7), ("hex_crack", 1e5)])
def test_criterion_03_residual_converges_under_weak_damping(family, fall):
    """Criterion 3 doubles nq where both residuals are at rounding.  At
    omega = 1 + 0.003i they are not: the larger of the factorization and
    equation residuals reads 2.6e-7 to 1.6e-4 at nq = 4096 and 2.2e-14 to
    1.4e-13 at nq = 16384, a fall of 1.2e7 (hex_crack) to 2.5e9.  Each gate
    sits about 100x below its measured fall."""
    inc = dispersion_solve(kernel_lattice(family), Frequency(1 + 0.003j), 0.5)
    coarse, fine = (
        solve_scalar(ScalarWHProblem.for_family(family, inc, CircleGrid(1.0, nq)))
        for nq in (4096, 16384))
    res = [max(sol.residual, sol.factorization.reconstruction_residual)
           for sol in (coarse, fine)]
    assert res[0] >= fall * res[1]
    assert res[1] <= 1e-11


def test_criterion_04_square_crack_end_to_end():
    _report("criterion 4: square crack end-to-end", checks.square_crack, seconds=60.0)


def test_criterion_05_honeycomb_crack_end_to_end():
    _report("criterion 5: honeycomb crack end-to-end (reduced-frequency convention)",
            checks.honeycomb_crack, seconds=60.0)


def test_criterion_06_constant_closure():
    _report("criterion 6: constant closure", checks.closure)


def test_criterion_07_determinant_identities():
    _report("criterion 7: determinant identities", checks.dets)


def test_criterion_08_daniele_khrapkov():
    _report("criterion 8: Daniele-Khrapkov structure", checks.dk)


def test_criterion_09_diagonalization_limits():
    _report("criterion 9: diagonalization limits", checks.limits)


def test_criterion_10_matrix_kernel_residuals():
    _report("criterion 10: matrix-kernel residual validation", checks.residuals, seconds=600.0)


def test_criterion_11_oracle_self_convergence():
    _report("criterion 11: oracle self-convergence", checks.convergence)
