"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every criterion's cases and bounds live in the suites of
`latticewh.checks`, which `latticewh verify` runs too (the module
docstring there maps criteria to suites).  This file adds only the
wall-clock bounds, each on the whole suite call.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

from latticewh import checks


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
