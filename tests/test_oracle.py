import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticewh import branches, checks, kernels, oracle
from latticewh.branches import (
    _STENCILS,
    Frequency,
    Lattice,
    dispersion_solve,
    hex_reduced_omega_sq,
    lattice_omega_shift,
    square_branches,
)
from latticewh.errors import InvalidSpec, SolveFailure, WindowMismatch, WindowTooSmall
from latticewh.fields import FieldGrid, compare_fields
from latticewh.kernels import FAMILIES, MatrixKernelSpec, ScalarKernel, family_record, kernel_lattice
from latticewh.oracle import (
    BlochSpec,
    Defect,
    LatticeProblemSpec,
    assemble,
    problem_for,
    solve_direct,
    wh_residual,
)
from latticewh.series import CircleGrid
from latticewh.whsolver import ScalarWHProblem, reconstruct_field, solve_scalar

from conftest import OMEGA, THETA

W2 = OMEGA * OMEGA


@pytest.fixture(scope="module")
def crack_spec(inc_square):
    return LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square)


@pytest.fixture(scope="module")
def crack_field(crack_spec):
    return solve_direct(assemble(crack_spec, 60))


class TestSpecValidation:
    def test_duplicate_rows_rejected(self, inc_square):
        with pytest.raises(InvalidSpec):
            LatticeProblemSpec("square", (Defect("crack", 0), Defect("crack", 0)),
                               inc_square)

    def test_same_row_different_kinds_allowed(self, inc_square):
        spec = LatticeProblemSpec(
            "square", (Defect("crack", 0), Defect("constraint", 0)), inc_square)
        assert len(spec.defects) == 2

    def test_lattice_mismatch(self, inc_honeycomb):
        with pytest.raises(InvalidSpec):
            LatticeProblemSpec("square", (), inc_honeycomb)

    def test_incidence_without_omega_is_refused(self, inc_square):
        """Incidence defaults omega to None; assemble raised a bare
        AttributeError on it."""
        with pytest.raises(InvalidSpec, match="no omega"):
            LatticeProblemSpec("square", (Defect("crack", 0),), replace(inc_square, omega=None))

    @pytest.mark.parametrize("multiplier", [0, np.nan, np.inf, complex(1, np.inf)])
    def test_bloch_multiplier_must_be_finite_and_nonzero(self, inc_square, multiplier):
        """A zero multiplier made assemble raise numpy's bare ValueError on a
        negative integer power; NaN and inf reached solve_direct, which
        reported only SolveFailure."""
        with pytest.raises(InvalidSpec, match="Bloch multiplier"):
            LatticeProblemSpec("square", (Defect("crack", 0),), inc_square,
                               BlochSpec(3, multiplier))

    def test_window_too_small(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 30),),
                                  inc_square)
        with pytest.raises(WindowTooSmall):
            assemble(spec, 40)

    def test_window_too_small_states_the_minimum(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", -10),), inc_square)
        with pytest.raises(WindowTooSmall, match="needs half width >= 22"):
            assemble(spec, 21)
        assert assemble(spec, 22).half_width == 22

    @pytest.mark.parametrize("lattice", ["square", "triangular"])
    @pytest.mark.parametrize("kind", ["crack", "constraint"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_defect_row_must_lie_in_the_window(self, request, lattice, kind, sign):
        """Rows +-L solve, on the square window and on the torus.  A row past
        the window once stored no equation, and the solve returned a zero
        scattered field; now it raises.  Bloch rows are taken modulo the
        period, so any row fits a strip."""
        inc = request.getfixturevalue(f"inc_{lattice}")
        edge = LatticeProblemSpec(lattice, (Defect(kind, sign * 20),), inc)
        assert np.any(solve_direct(assemble(edge, 20)).u)
        for row in (sign * 21, sign * 150):
            past = LatticeProblemSpec(lattice, (Defect(kind, row),), inc)
            with pytest.raises(WindowTooSmall, match=f"defect row {row} needs half width"):
                assemble(past, 20)
        if lattice == "square":
            strip = LatticeProblemSpec(lattice, (Defect(kind, sign * 25),), inc,
                                       BlochSpec(3, complex(np.exp(-3j * inc.kappa_y))))
            assert np.any(assemble(strip, 20).rhs)


class TestAssembly:
    def test_crack_unknown_count(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square)
        system = assemble(spec, 40)
        assert system.matrix.shape == (81 * 81, 81 * 81)  # nothing eliminated

    def test_constraint_elimination_count(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("constraint", 0, "left", 0),),
                                  inc_square)
        system = assemble(spec, 40)
        assert system.matrix.shape[0] == 81 * 81 - 40  # x in [-40, -1] pinned

    def test_crack_row_stencils(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square)
        system = assemble(spec, 40)
        # broken side (x < 0): coordination 3, no down coupling
        row = _row(system, -5, 0)
        assert abs(row[_site_id(system, -5, 0)] - (W2 - 3)) < 1e-14
        assert _site_id(system, -5, -1) not in row
        assert row[_site_id(system, -4, 0)] == 1.0
        # intact side (x >= 0): full stencil
        row = _row(system, 5, 0)
        assert abs(row[_site_id(system, 5, 0)] - (W2 - 4)) < 1e-14
        assert row[_site_id(system, 5, -1)] == 1.0

    def test_opposing_rows_match_printed_equations(self, inc_square):
        # opposing cracks N=3, M=3: rows N, N-1, 0, -1 carry the Heaviside
        # bond pattern of the two tips
        spec = problem_for(
            MatrixKernelSpec("opposing_cracks", OMEGA, sep=3, offsets=(3,)), inc_square)
        system = assemble(spec, 40)
        # at y = N, x <= M-1 the bond down is intact; x >= M broken
        row = _row(system, 1, 3)
        assert row[_site_id(system, 1, 2)] == 1.0
        assert abs(row[_site_id(system, 1, 3)] - (W2 - 4)) < 1e-14
        row = _row(system, 6, 3)
        assert _site_id(system, 6, 2) not in row
        assert abs(row[_site_id(system, 6, 3)] - (W2 - 3)) < 1e-14
        # at y = 0 the crack points left
        row = _row(system, -6, 0)
        assert _site_id(system, -6, -1) not in row
        row = _row(system, 6, 0)
        assert row[_site_id(system, 6, -1)] == 1.0

    def test_right_pointing_crack_stencils(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "right", 3),), inc_square)
        system = assemble(spec, 20)
        # broken for x >= 3, from both faces of the crack
        for y, other in ((0, -1), (-1, 0)):
            row = _row(system, 5, y)
            assert _site_id(system, 5, other) not in row
            assert abs(row[_site_id(system, 5, y)] - (W2 - 3)) < 1e-14
            row = _row(system, 2, y)
            assert row[_site_id(system, 2, other)] == 1.0
            assert abs(row[_site_id(system, 2, y)] - (W2 - 4)) < 1e-14

    def test_triangular_slant_bonds_at_crack(self, inc_triangular):
        spec = LatticeProblemSpec("triangular", (Defect("crack", 0, "left", 0),),
                                  inc_triangular)
        system = assemble(spec, 20)
        base = 1.5 * W2 - 6
        # below the crack face (x < 0): the vertical and the (1,-1) slant
        # bond break together, coordination drops by 2
        row = _row(system, -5, 0)
        assert len(row) == 5
        assert _site_id(system, -5, -1) not in row and _site_id(system, -4, -1) not in row
        assert row[_site_id(system, -6, 1)] == 1.0
        assert abs(row[_site_id(system, -5, 0)] - (base + 2)) < 1e-14
        # above it the (-1,1) slant bond reads the crack cell of x - 1
        row = _row(system, -5, -1)
        assert len(row) == 5
        assert _site_id(system, -5, 0) not in row and _site_id(system, -6, 0) not in row
        assert row[_site_id(system, -4, -2)] == 1.0
        assert abs(row[_site_id(system, -5, -1)] - (base + 2)) < 1e-14
        # at the tip only the slant bond (-1,0)--(0,-1) is broken
        row = _row(system, 0, -1)
        assert _site_id(system, -1, 0) not in row
        assert row[_site_id(system, 0, 0)] == 1.0
        assert abs(row[_site_id(system, 0, -1)] - (base + 1)) < 1e-14
        row = _row(system, -1, 0)
        assert _site_id(system, 0, -1) not in row and _site_id(system, -1, -1) not in row
        assert abs(row[_site_id(system, -1, 0)] - (base + 2)) < 1e-14
        row = _row(system, 0, 0)
        assert row[_site_id(system, 0, -1)] == row[_site_id(system, 1, -1)] == 1.0
        assert abs(row[_site_id(system, 0, 0)] - base) < 1e-14

    def test_honeycomb_rows_at_crack(self, inc_honeycomb):
        spec = LatticeProblemSpec("honeycomb", (Defect("crack", 0, "left", 0),),
                                  inc_honeycomb)
        system = assemble(spec, 20)
        base = 0.75 * W2 - 3
        # u(x, 0) -- v(x, -1) is the broken bond for x < 0
        row = _row(system, -5, 0, "u")
        assert set(row) == {_site_id(system, -5, 0, "u"), _site_id(system, -5, 0, "v"),
                            _site_id(system, -6, 0, "v")}
        assert abs(row[_site_id(system, -5, 0, "u")] - (base + 1)) < 1e-14
        row = _row(system, -5, -1, "v")
        assert set(row) == {_site_id(system, -5, -1, "v"), _site_id(system, -5, -1, "u"),
                            _site_id(system, -4, -1, "u")}
        assert abs(row[_site_id(system, -5, -1, "v")] - (base + 1)) < 1e-14
        # intact side
        row = _row(system, 5, 0, "u")
        assert row[_site_id(system, 5, -1, "v")] == 1.0
        assert abs(row[_site_id(system, 5, 0, "u")] - base) < 1e-14
        row = _row(system, 5, -1, "v")
        assert row[_site_id(system, 5, 0, "u")] == 1.0
        assert abs(row[_site_id(system, 5, -1, "v")] - base) < 1e-14

    def test_honeycomb_pinned_neighbours(self, inc_honeycomb):
        spec = LatticeProblemSpec("honeycomb", (Defect("constraint", 0, "left", 0),),
                                  inc_honeycomb)
        system = assemble(spec, 20)
        base = 0.75 * W2 - 3
        assert _site_id(system, -5, 0, "u") < 0 and _site_id(system, -5, 0, "v") < 0
        # a pinned neighbour drops its column and leaves the diagonal alone
        for (x, y, sub), kept in (((-5, 1, "u"), {(-5, 1, "v"), (-6, 1, "v")}),
                                  ((-5, -1, "v"), {(-5, -1, "u"), (-4, -1, "u")}),
                                  ((0, 0, "u"), {(0, 0, "v"), (0, -1, "v")})):
            row = _row(system, x, y, sub)
            own = _site_id(system, x, y, sub)
            assert set(row) == {own} | {_site_id(system, *site) for site in kept}
            assert abs(row[own] - base) < 1e-14

    @pytest.mark.parametrize("family", ["sq_crack", "hex_crack"])
    def test_sites_outside_the_window_are_refused(self, request, family):
        """Past either edge of the L = 20 window, on either axis and either
        honeycomb sublattice, the solved field has no value; a negative
        offset must not wrap to the opposite edge."""
        lattice = kernel_lattice(family).value
        spec = problem_for(ScalarKernel(family, OMEGA), request.getfixturevalue(f"inc_{lattice}"))
        field = solve_direct(assemble(spec, 20))
        for sub in NEIGHBOURS[lattice]:
            for x, y in ((-21, 0), (21, 0), (0, -21), (0, 21)):
                with pytest.raises(WindowMismatch):
                    field.value(x, y, sub)
            for x, y in ((-20, -20), (20, 20)):
                assert field.value(x, y, sub) == field.row(y, sub)[x + 20]

    @pytest.mark.parametrize("family", ["sq_crack", "tri_dirichlet", "hex_crack"])
    def test_unknown_sublattices_are_refused(self, request, family):
        """A sublattice the lattice lacks ("v" off the honeycomb) or that no
        lattice has raises InvalidSpec from the solved field: "v" raised a
        bare TypeError on the square and triangular lattices, and on the
        honeycomb any name but "u" read v."""
        lattice = kernel_lattice(family).value
        spec = problem_for(ScalarKernel(family, OMEGA), request.getfixturevalue(f"inc_{lattice}"))
        field = solve_direct(assemble(spec, 20))
        for name in ["w", "U", ""] + ([] if lattice == "honeycomb" else ["v"]):
            for read in (lambda: field.row(3, name), lambda: field.value(5, 3, name)):
                with pytest.raises(InvalidSpec, match="sublattice"):
                    read()
        for name in NEIGHBOURS[lattice]:
            assert field.value(5, 3, name) == field.row(3, name)[25]

    def test_bloch_wrap_entries(self, inc_square):
        psi = 0.8 + 0.3j
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square,
                                  bloch=BlochSpec(period=3, multiplier=psi))
        system = assemble(spec, 20)
        # row 0 couples down to row -1 = psi^-1 * row 2, row 2 up to row 3 = psi * row 0
        row = _row(system, 5, 0)
        assert abs(row[_site_id(system, 5, 2)] - psi**-1) < 1e-15
        assert row[_site_id(system, 5, 1)] == 1.0
        row = _row(system, 5, 2)
        assert abs(row[_site_id(system, 5, 0)] - psi) < 1e-15
        assert row[_site_id(system, 5, 1)] == 1.0
        # the crack at row 0 (x < 0) cuts the wrapped bond from both sides
        row = _row(system, -5, 0)
        assert _site_id(system, -5, 2) not in row
        assert abs(row[_site_id(system, -5, 0)] - (W2 - 3)) < 1e-14
        row = _row(system, -5, 2)
        assert _site_id(system, -5, 0) not in row
        assert abs(row[_site_id(system, -5, 2)] - (W2 - 3)) < 1e-14


class TestSolveDirect:
    def test_no_defects_zero_field(self, inc_square):
        spec = LatticeProblemSpec("square", (), inc_square)
        fld = solve_direct(assemble(spec, 25))
        assert np.max(np.abs(fld.u)) < 1e-10

    def test_damping_decay(self):
        inc = dispersion_solve("square", Frequency(1 + 0.2j), THETA)
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc)
        fld = solve_direct(assemble(spec, 50))
        near = abs(fld.value(0, 1))
        # one damping length ~ 1/Im(omega) sites: expect at least e^-1 decay
        far = abs(fld.value(0, 1 + 10))
        assert far < near * np.exp(-1.0)

    def test_self_convergence_is_monotone(self, inc_square, crack_field):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square)
        small = solve_direct(assemble(spec, 30))
        large = solve_direct(assemble(spec, 90))
        mid = crack_field  # L = 60
        err_small = compare_fields(small, mid, ((-10, 10), (-10, 10))).rel_l2
        err_large = compare_fields(mid, large, ((-10, 10), (-10, 10))).rel_l2
        assert err_small < 1e-2
        assert err_large < err_small

    def test_total_field_checks(self, inc_square, crack_field):
        tot = lambda x, y: crack_field.value(x, y) + inc_square.field(x, y)
        # interior stencil away from the crack
        for x, y in [(4, 6), (-7, 3), (2, -5)]:
            res = tot(x + 1, y) + tot(x - 1, y) + tot(x, y + 1) + tot(x, y - 1) \
                + (W2 - 4) * tot(x, y)
            assert abs(res) < 1e-11
        # broken-bond faces
        for x in (-3, -11):
            res = tot(x + 1, 0) + tot(x - 1, 0) + tot(x, 1) + (W2 - 3) * tot(x, 0)
            assert abs(res) < 1e-11


class TestCompareFields:
    def test_identical(self, crack_field):
        rep = compare_fields(crack_field, crack_field, ((-5, 5), (-5, 5)))
        assert rep.rel_l2 == 0.0 and rep.max_abs == 0.0

    def test_scaled(self, crack_field):
        other = FieldGrid(lattice=crack_field.lattice, x_range=crack_field.x_range,
                          y_range=crack_field.y_range, u=1.01 * crack_field.u)
        rep = compare_fields(other, crack_field, ((-5, 5), (-5, 5)))
        assert abs(rep.rel_l2 - 0.01) < 1e-12

    def test_window_mismatch(self, crack_field):
        with pytest.raises(WindowMismatch):
            compare_fields(crack_field, crack_field, ((-100, 100), (0, 0)))
        with pytest.raises(WindowMismatch, match="exceeds the stored grid"):
            compare_fields(crack_field, crack_field, ((0, 0), (-100, 100)))

    def test_lattice_mismatch(self):
        """A square grid and a triangular grid holding the same numbers are
        not the same field."""
        values = np.arange(121, dtype=complex).reshape(11, 11)
        square, triangular = (FieldGrid(lattice, (-5, 5), (-5, 5), values)
                              for lattice in ("square", "triangular"))
        with pytest.raises(WindowMismatch, match="square grid with a triangular grid"):
            compare_fields(square, triangular, ((-2, 2), (-2, 2)))

    @pytest.mark.parametrize("window", [((2, -2), (2, -2)), ((-2, 2), (2, -2)),
                                        ((2, -2), (-2, 2))])
    def test_reversed_window(self, window):
        """A window with x0 > x1 or y0 > y1 is a WindowMismatch, not the
        ValueError of an empty grid's shape check; a single cell is not
        reversed."""
        grid = FieldGrid("square", (-5, 5), (-5, 5), np.ones((11, 11), complex))
        with pytest.raises(WindowMismatch, match="reversed window"):
            compare_fields(grid, grid, window)
        assert compare_fields(grid, grid, ((2, 2), (-2, -2))).rel_l2 == 0.0


class TestBloch:
    def test_twisted_periodicity(self, inc_square):
        psi = complex(np.exp(-1j * inc_square.kappa_y * 3))
        spec = LatticeProblemSpec(
            "square",
            (Defect("constraint", 0, "left", 0), Defect("crack", 0, "left", 0)),
            inc_square,
            bloch=BlochSpec(period=3, multiplier=psi),
        )
        fld = solve_direct(assemble(spec, 40))
        assert fld.u.shape[0] == 3
        # wrapped row access applies the multiplier
        assert np.allclose(fld.row(3), psi * fld.row(0))
        assert np.allclose(fld.row(-1), fld.row(2) / psi)
        # pinned sites and broken-bond equation of the mixed defect
        for x in (-2, -9):
            assert fld.value(x, 0) == -inc_square.field(x, 0)
        tot = lambda x, y: fld.value(x, y) + inc_square.field(x, y)
        for x in (-4, -8):
            # row y = -1 (image of row 2): bond up broken for x < 0
            res = tot(x + 1, -1) + tot(x - 1, -1) + tot(x, -2) + (W2 - 3) * tot(x, -1)
            assert abs(res) < 1e-11


class TestWHResidual:
    def test_scalar_crack(self, crack_spec, crack_field):
        kern = ScalarKernel("sq_crack", OMEGA)
        res = wh_residual(crack_spec, kern, crack_field)
        assert res < 5e-2

    def test_half_sums_match_the_power_sums(self):
        # 301 terms on one side and 300 on the other: both sums fold mod 256
        rng = np.random.default_rng(5)
        xs = np.arange(-300, 301)
        values = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
        nodes = CircleGrid(1.0, 256).nodes
        for offset in (0, 7, -300, 301):
            m = xs - offset
            plus, minus = oracle._half_sums(values, xs, offset, 256)
            for fast, half in ((plus, m >= 0), (minus, m < 0)):
                direct = (nodes[:, None] ** -m[half]) @ values[half]
                assert np.max(np.abs(fast - direct)) <= 1e-13 * np.sum(np.abs(values))

    def test_sensitivity_to_wrong_kernel(self, crack_spec, crack_field):
        kern = ScalarKernel("sq_crack", OMEGA)
        res = wh_residual(crack_spec, kern, crack_field)
        wrong = lambda z: square_branches(z, OMEGA).lam * \
            (1 - square_branches(z, OMEGA).lam) / (1 + square_branches(z, OMEGA).lam)
        res_wrong = wh_residual(crack_spec, kern, crack_field, kernel_eval=wrong)
        assert res_wrong > 10 * res

    def test_matrix_family_small_window(self, inc_square):
        spec = MatrixKernelSpec("array_cracks", OMEGA, count=2, sep=3, offsets=(0, 2))
        prob = problem_for(spec, inc_square)
        fld = solve_direct(assemble(prob, 60))
        assert wh_residual(prob, spec, fld) < 5e-2

    def test_opposing_small_window(self, inc_square):
        spec = MatrixKernelSpec("opposing_mixed", OMEGA, sep=3, offsets=(3,))
        prob = problem_for(spec, inc_square)
        fld = solve_direct(assemble(prob, 60))
        assert wh_residual(prob, spec, fld) < 5e-2

    def test_triangular_crack_two_by_two(self):
        w = 1 + 0.15j
        inc = dispersion_solve("triangular", Frequency(w), THETA)
        spec = MatrixKernelSpec("tri_crack_2x2", w)
        prob = problem_for(spec, inc)
        fld = solve_direct(assemble(prob, 60))
        assert wh_residual(prob, spec, fld) < 5e-2

    def test_honeycomb_constraint_two_by_two(self):
        w = 1 + 0.15j
        inc = dispersion_solve("honeycomb", Frequency(w), THETA)
        spec = MatrixKernelSpec("hex_constraint_2x2", w)
        prob = problem_for(spec, inc)
        fld = solve_direct(assemble(prob, 60))
        assert wh_residual(prob, spec, fld) < 5e-2

    @pytest.mark.parametrize("spec", [
        MatrixKernelSpec("array_constraints", OMEGA, count=2, sep=3, offsets=(0, 2)),
        MatrixKernelSpec("array_cracks", OMEGA, count=2, sep=3, offsets=(0, 2))],
        ids=["unknowns", "no_unknowns"])
    def test_one_branch_evaluation_per_call(self, inc_square, spec, monkeypatch):
        """The forcing's rows and K come from one branch evaluation at the nodes."""
        prob = problem_for(spec, inc_square)
        fld = solve_direct(assemble(prob, 40))
        sizes = []
        branch = kernels.square_branches
        monkeypatch.setattr(kernels, "square_branches",
                            lambda z, w: sizes.append(np.size(z)) or branch(z, w))
        wh_residual(prob, spec, fld)
        assert sizes == [256]

    def test_converges_as_the_window_grows(self):
        """The damped incident spans about 1e78 across the L = 100 window.
        Formed by cancellation, the right-hand side's rounding grew with the
        window and took this residual from 2.6e-4 at L = 40 to 1.3e11 at
        L = 100; now it falls to rounding."""
        w = 1 + 0.3j
        spec = MatrixKernelSpec("hex_constraint_2x2", w)
        prob = problem_for(spec, dispersion_solve("honeycomb", Frequency(w), THETA))
        residuals = [wh_residual(prob, spec, solve_direct(assemble(prob, L))) for L in (40, 100)]
        assert residuals[1] <= 1e-13 < residuals[0]

    def test_scalar_hex_crack(self, inc_honeycomb):
        kern = ScalarKernel("hex_crack", OMEGA)
        prob = problem_for(kern, inc_honeycomb)
        fld = solve_direct(assemble(prob, 60))
        assert wh_residual(prob, kern, fld) < 5e-2

    def test_scalar_constraints(self, inc_square, inc_triangular):
        for kern, inc in ((ScalarKernel("sq_constraint", OMEGA), inc_square),
                          (ScalarKernel("tri_dirichlet", OMEGA), inc_triangular)):
            prob = problem_for(kern, inc)
            fld = solve_direct(assemble(prob, 60))
            assert wh_residual(prob, kern, fld) < 5e-2


# Oracle layouts of every family, as problem_for wrote them before the
# layouts moved into the family table: (kernel, lattice, defects, Bloch period)
LAYOUTS = [
    (ScalarKernel("sq_crack", OMEGA), "square", [("crack", 0, "left", 0)], None),
    (ScalarKernel("sq_constraint", OMEGA), "square", [("constraint", 0, "left", 0)], None),
    (ScalarKernel("tri_dirichlet", OMEGA), "triangular", [("constraint", 0, "left", 0)], None),
    (ScalarKernel("hex_crack", OMEGA), "honeycomb", [("crack", 0, "left", 0)], None),
    (MatrixKernelSpec("tri_crack_2x2", OMEGA), "triangular", [("crack", 0, "left", 0)], None),
    (MatrixKernelSpec("hex_constraint_2x2", OMEGA), "honeycomb",
     [("constraint", 0, "left", 0)], None),
    (MatrixKernelSpec("array_cracks", OMEGA, count=3, sep=2, offsets=(0, 2, 5)), "square",
     [("crack", 0, "left", 0), ("crack", 2, "left", 2), ("crack", 4, "left", 5)], None),
    (MatrixKernelSpec("array_constraints", OMEGA, count=2, sep=3, offsets=(4, 1)), "square",
     [("constraint", 0, "left", 4), ("constraint", 3, "left", 1)], None),
    (MatrixKernelSpec("mixed_array", OMEGA, sep=5, psi=0.8 + 0.3j), "square",
     [("constraint", 0, "left", 0), ("crack", 0, "left", 0)], 5),
    (MatrixKernelSpec("pair_crack_constraint", OMEGA, sep=3), "square",
     [("crack", 0, "left", 0), ("constraint", 3, "left", 0)], None),
    (MatrixKernelSpec("opposing_cracks", OMEGA, sep=3, offsets=(2,)), "square",
     [("crack", 3, "right", 2), ("crack", 0, "left", 0)], None),
    (MatrixKernelSpec("opposing_constraints", OMEGA, sep=4, offsets=(1,)), "square",
     [("constraint", 4, "right", 1), ("constraint", 0, "left", 0)], None),
    (MatrixKernelSpec("opposing_mixed", OMEGA, sep=2, offsets=(3,)), "square",
     [("constraint", 2, "right", 3), ("crack", 0, "left", 0)], None),
]


class TestProblemFor:
    def test_every_family_has_a_pinned_layout(self):
        assert [kernel.family for kernel, *_ in LAYOUTS] == list(FAMILIES)

    @pytest.mark.parametrize("kernel,lattice,defects,period", LAYOUTS,
                             ids=[kernel.family for kernel, *_ in LAYOUTS])
    def test_layout(self, request, kernel, lattice, defects, period):
        prob = problem_for(kernel, request.getfixturevalue(f"inc_{lattice}"))
        assert prob.lattice.value == lattice
        assert [(d.kind, d.row, d.side, d.tip) for d in prob.defects] == defects
        if period is None:
            assert prob.bloch is None
        else:
            assert prob.bloch.period == period
            assert prob.bloch.multiplier == kernel.psi

    def test_array_layout(self, inc_square):
        spec = MatrixKernelSpec("array_constraints", OMEGA, count=3, sep=2,
                                offsets=(0, 1, 2))
        prob = problem_for(spec, inc_square)
        rows = sorted(d.row for d in prob.defects)
        assert rows == [0, 2, 4]
        assert all(d.kind == "constraint" and d.side == "left" for d in prob.defects)

    def test_opposing_layout(self, inc_square):
        spec = MatrixKernelSpec("opposing_mixed", OMEGA, sep=4, offsets=(2,))
        prob = problem_for(spec, inc_square)
        kinds = {(d.kind, d.side, d.row, d.tip) for d in prob.defects}
        assert kinds == {("constraint", "right", 4, 2), ("crack", "left", 0, 0)}

    def test_mixed_layout_is_bloch(self, inc_square):
        psi = complex(np.exp(-1j * inc_square.kappa_y * 5))
        spec = MatrixKernelSpec("mixed_array", OMEGA, sep=5, psi=psi)
        prob = problem_for(spec, inc_square)
        assert prob.bloch.period == 5
        assert prob.bloch.multiplier == psi


# Layouts solved by the capacitance matrix method (the sine transform on
# the square lattice, the torus on the others, and along the rows of a
# Bloch strip the twisted DFT): every entry of LAYOUTS, array_cracks with
# nu = 2, hand-made defect sets and the period-2 strip
CAPACITANCE_KERNELS = [kernel for kernel, *_ in LAYOUTS]
CAPACITANCE_KERNELS.append(MatrixKernelSpec("array_cracks", OMEGA, count=2, sep=3,
                                            offsets=(0, 2)))
DEFECT_SETS = {
    "crack_and_constraint_one_row": ("square", (Defect("crack", 0, "left", 3),
                                                Defect("constraint", 0, "left", -2))),
    "right_crack": ("square", (Defect("crack", 1, "right", 3),)),
    "defect_free": ("square", ()),
    "hex_crack_and_constraint": ("honeycomb", (Defect("crack", 0, "left", 2),
                                               Defect("constraint", 3, "left", -5))),
    "tri_two_cracks_and_constraint": ("triangular", (Defect("crack", 0, "left", 0),
                                                     Defect("crack", 2, "left", 3),
                                                     Defect("constraint", -2, "left", -4))),
    "tri_defect_free": ("triangular", ()),
    "hex_defect_free": ("honeycomb", ()),
}
CAPACITANCE_LAYOUTS = CAPACITANCE_KERNELS + list(DEFECT_SETS) + ["period_two_strip"]


def _layout_id(layout):
    if isinstance(layout, str):
        return layout
    return layout.family + (f"_{layout.count}" if layout.family == "array_cracks" else "")


def _lattice(layout):
    if isinstance(layout, str):
        return DEFECT_SETS[layout][0]
    return family_record(layout.family).lattice.value


def _spec(request, layout):
    if layout not in DEFECT_SETS and isinstance(layout, str):  # a fixture of its own
        return request.getfixturevalue(layout)
    inc = request.getfixturevalue(f"inc_{_lattice(layout)}")
    if isinstance(layout, str):
        return LatticeProblemSpec(*DEFECT_SETS[layout], inc)
    return problem_for(layout, inc)


# Neighbours of a site per lattice and sublattice, (dx, dy, sublattice,
# upper): a crack at (x, y) breaks the bonds from (x, y) to the row below,
# and upper is the offset of the bond's upper site from the site
NEIGHBOURS = {
    "square": {"u": [(1, 0, "u", None), (-1, 0, "u", None), (0, 1, "u", (0, 1)),
                     (0, -1, "u", (0, 0))]},
    "triangular": {"u": [(1, 0, "u", None), (-1, 0, "u", None), (0, 1, "u", (0, 1)),
                         (0, -1, "u", (0, 0)), (-1, 1, "u", (-1, 1)), (1, -1, "u", (0, 0))]},
    "honeycomb": {"u": [(0, 0, "v", None), (-1, 0, "v", None), (0, -1, "v", (0, 0))],
                  "v": [(0, 0, "u", None), (1, 0, "u", None), (0, 1, "u", (0, 1))]},
}


def _reference_assembly(spec, L):
    """The window's equations one site at a time, from the equations of motion.

    Each free site's equation sums the total field of its neighbours across
    intact bonds plus (omega shift + broken bonds) times its own; a pinned
    site has total field zero.  The unknown is the scattered field minus the
    straight backgrounds, so the known part (incident plus backgrounds) of
    every term moves to the right-hand side.  A triangular or honeycomb
    window without Bloch rows is a torus: a neighbour across its edge is
    the site of the opposite edge, defects and known field included.  The
    incident then solves the free equations everywhere but on the seam, so
    its own free equation is taken off each right-hand side: the field
    solved is the one the defects scatter.
    Returns the matrix entries {(row, column): value}, the right-hand side,
    the scale of each equation (the sum of the moduli of the incident and
    background parts of its known terms) and the unknown ids.
    """
    inc, bloch, lattice = spec.incidence, spec.bloch, spec.lattice.value
    ys = range(bloch.period) if bloch else range(-L, L + 1)
    xs = range(-L, L + 1)
    bg = oracle._straight_background(spec)
    torus = bloch is None and lattice != "square"

    def wrap(x, y):
        return ((x + L) % (2 * L + 1) - L, (y + L) % (2 * L + 1) - L) if torus else (x, y)

    def on(kind, x, y):
        return any(d.kind == kind and spec._norm_row(y) == spec._norm_row(d.row)
                   and ((x < d.tip) if d.side == "left" else (x >= d.tip)) for d in spec.defects)

    def known(x, y, sub):
        """The known field at a site and the size of its parts."""
        parts = [inc.field(x, y, sub)] + ([bg.evaluate(x, y)] if bg and sub == "u" else [])
        return complex(sum(parts)), sum(map(abs, parts))

    sites = [(x, y, sub) for sub in NEIGHBOURS[lattice] for y in ys for x in xs
             if not on("constraint", x, y)]
    ids = {site: i for i, site in enumerate(sites)}
    entries, rhs, scale = {}, [], []
    for i, (x, y, sub) in enumerate(sites):
        known_terms = []
        diag = lattice_omega_shift(spec.lattice, inc.omega * inc.omega)
        for dx, dy, nsub, upper in NEIGHBOURS[lattice][sub]:
            if upper and on("crack", *wrap(x + upper[0], y + upper[1])):
                diag += 1  # a broken bond raises the diagonal by one
                continue
            xn, yn = wrap(x + dx, y + dy)
            if on("constraint", xn, yn):
                continue
            known_terms.append(known(xn, yn, nsub))
            shift, yw = divmod(yn, bloch.period) if bloch else (0, yn)  # Bloch rows wrap
            if xn in xs and yw in ys:
                col = ids[(xn, yw, nsub)]
                weight = bloch.multiplier ** shift if bloch else 1.0
                entries[i, col] = entries.get((i, col), 0) + weight
        entries[i, i] = diag
        own, own_size = known(x, y, sub)
        if torus:  # less the incident's own free equation, nonzero on the seam only
            free = [known(*wrap(x + dx, y + dy), nsub) for dx, dy, nsub, _ in NEIGHBOURS[lattice][sub]]
            shift = lattice_omega_shift(spec.lattice, inc.omega * inc.omega)
            known_terms += [(-value, size) for value, size in free]
            known_terms.append((-shift * own, abs(shift) * own_size))
        rhs.append(-(sum(value for value, _ in known_terms) + diag * own))
        scale.append(sum(size for _, size in known_terms) + abs(diag) * own_size)
    return entries, np.array(rhs), np.array(scale), ids


@pytest.fixture(scope="module")
def period_two_strip():
    """A period-2 Bloch strip: each row's up and down neighbours are one
    site of the other row, so the table folds two couplings into one slot."""
    w = 1.2 + 0.1j
    inc = dispersion_solve("square", Frequency(w), 0.7)
    psi = complex(np.exp(-2j * inc.kappa_y))
    return problem_for(MatrixKernelSpec("mixed_array", w, sep=2, psi=psi), inc)


def _csr_residual(system, w):
    """The residual b - A w and each equation's backward error scale,
    max(|A| |w| + |b|, |amplitude|), as defined on the CSR matrix, for w
    given per unknown."""
    matrix, b = system.matrix, _grid_rhs(system).ravel()[_free_sites(system)]
    scale = np.maximum(abs(matrix) @ np.abs(w) + np.abs(b), abs(system.spec.incidence.amplitude))
    return b - matrix @ w, scale


def _free_sites(system):
    """The grid sites of the unknowns, in their order: the free sites row by
    row, sublattice by sublattice."""
    subs = len(_STENCILS[system.spec.lattice])
    return np.flatnonzero(np.broadcast_to(system.free, (subs, *system.free.shape)))


def _on_grid(system, values):
    """Values given per unknown, on the grid [sublattice, y, x] flattened,
    zero at the pinned sites."""
    grid = np.zeros(len(_STENCILS[system.spec.lattice]) * system.free.size, complex)
    grid[_free_sites(system)] = values
    return grid


def _grid_rhs(system):
    """The right-hand side on the grid, [sublattice, y, x]."""
    b = np.zeros(len(_STENCILS[system.spec.lattice]) * system.free.size, complex)
    b[system.stored] = system.rhs
    return b.reshape(-1, *system.free.shape)


def _grid_site(system, x, y, sub="u"):
    """The grid site [sublattice, y, x] of a window site."""
    subs = list(_STENCILS[system.spec.lattice])
    (x0, _), (y0, _) = system.x_range, system.y_range
    return int(np.ravel_multi_index((subs.index(sub), y - y0, x - x0),
                                    (len(subs), *system.free.shape)))


def _site_id(system, x, y, sub="u"):
    """The unknown id of a window site, its row and column of matrix; -1
    where pinned."""
    sites, site = _free_sites(system), _grid_site(system, x, y, sub)
    i = int(np.searchsorted(sites, site))
    return i if i < sites.size and sites[i] == site else -1


def _row(system, x, y, sub="u"):
    """The matrix row of a free site's equation, {unknown id: value}."""
    i = _site_id(system, x, y, sub)
    assert i >= 0, f"({x}, {y}, {sub}) is pinned"
    row = system.matrix[i]
    return dict(zip(row.indices.tolist(), row.data.tolist()))


class TestReferenceAssembly:
    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS)
                             + ["period_two_strip"], ids=_layout_id)
    def test_matches_the_equations_of_motion(self, request, layout):
        """Every matrix entry exactly, the right-hand side to 1e-14 of the
        scale of each equation, and the unknown numbering, at L = 20; no
        two slots of a stored row share a neighbour."""
        spec = _spec(request, layout)
        system = assemble(spec, 20)
        entries, rhs, scale, ids = _reference_assembly(spec, 20)
        coo = system.matrix.tocoo()
        assert dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist())) == entries
        free = _free_sites(system)
        assert np.all(np.abs(_grid_rhs(system).ravel()[free] - rhs) <= 1e-14 * scale)
        assert [_grid_site(system, *site) for site in ids] == free.tolist()
        assert system.matrix.shape[0] == len(ids)
        assert system.rhs.size == system.stored.size
        slots = np.sort(system.neighbours, axis=1)
        assert not np.any((slots[:, 1:] == slots[:, :-1]) & (slots[:, 1:] >= 0))

    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS),
                             ids=_layout_id)
    def test_rows_off_the_table_are_the_defect_free_equations(self, request, layout):
        """Every equation outside the stored rows equals the same site's
        equation in the defect-free window, matched by grid site, and has a
        zero right-hand side (L = 20).  The defect-free window pins nothing,
        so its unknowns are its grid sites."""
        spec = _spec(request, layout)
        system = assemble(spec, 20)
        free = assemble(LatticeProblemSpec(spec.lattice, (), spec.incidence, spec.bloch), 20)
        assert free.pinned.size == 0
        sites = _free_sites(system)
        off = np.flatnonzero(~np.isin(sites, system.stored))
        assert not np.any(_grid_rhs(system).ravel()[sites[off]])
        ours, theirs = system.matrix[off].tocoo(), free.matrix[sites[off]].tocoo()
        assert set(zip(ours.row.tolist(), sites[ours.col].tolist(), ours.data.tolist())) == \
            set(zip(theirs.row.tolist(), theirs.col.tolist(), theirs.data.tolist()))

    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + ["period_two_strip"],
                             ids=_layout_id)
    def test_row_entries_read_one_row(self, request, layout):
        """_row reads each stored site's matrix row at L = 20: its stored
        row's neighbours of nonzero weight, on both honeycomb sublattices,
        the window's edges and every row of a Bloch strip."""
        system = assemble(_spec(request, layout), 20)
        (x0, _), (y0, _) = system.x_range, system.y_range
        subs, sites = list(NEIGHBOURS[system.spec.lattice.value]), _free_sites(system)
        for site, c, v in zip(system.stored, system.neighbours, system.weights):
            k, y, x = np.unravel_index(site, (len(subs), *system.free.shape))
            keep = (c >= 0) & (v != 0)
            assert _row(system, x0 + x, y0 + y, subs[k]) == dict(zip(
                np.searchsorted(sites, c[keep]).tolist(), v[keep].tolist()))


class TestTableChecks:
    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS)
                             + ["period_two_strip"], ids=_layout_id)
    def test_backward_errors_match_the_csr_definition(self, request, layout):
        """The residual and backward errors read off the table equal those of
        the CSR matrix to rounding, for a random w at L = 20, zero at the
        pinned sites, where both are 0."""
        system = assemble(_spec(request, layout), 20)
        rng = np.random.default_rng(5)
        free = _free_sites(system)
        w = rng.normal(size=free.size) + 1j * rng.normal(size=free.size)
        residual, errors = oracle._backward_errors(system, _on_grid(system, w))
        reference, scale = _csr_residual(system, w)
        assert np.all(np.abs(residual[free] - reference) <= 1e-15 * scale)
        assert np.allclose(errors[free], np.abs(residual[free]) / scale, rtol=1e-14, atol=0)
        assert not np.any(residual[system.pinned]) and not np.any(errors[system.pinned])

    def test_period_two_strip_solve_meets_the_csr_definition(self, monkeypatch,
                                                              period_two_strip):
        """On the strip of the acceptance sweep (L = 40, 82 of its 122 rows
        couple twice to one site), the backward errors solve_direct checks
        are |r| / (|A| |w| + |b|) of the CSR matrix, whose |A| takes the
        modulus of the summed entry, not the sum of the moduli."""
        system = assemble(period_two_strip, 40)
        seen = []
        backward_errors = oracle._backward_errors

        def spy(system, w):
            seen.append((w, *backward_errors(system, w)))
            return seen[-1][1:]

        monkeypatch.setattr(oracle, "_backward_errors", spy)
        solve_direct(system)
        w, residual, errors = seen[-1]
        free = _free_sites(system)
        reference, scale = _csr_residual(system, w[free])
        assert np.all(np.abs(residual[free] - reference) <= 1e-15 * scale)
        assert np.allclose(errors[free], np.abs(residual[free]) / scale, rtol=1e-14, atol=0)


def _wh_against_oracle(family, omega, half_width, theta=0.5):
    """rel_l2 of the WH field against the oracle's on +-20."""
    inc = dispersion_solve(kernel_lattice(family), Frequency(omega), theta)
    problem = ScalarWHProblem.for_family(family, inc)
    window = ((-20, 20), (-20, 20))
    wh = reconstruct_field(problem, solve_scalar(problem), window)
    field = solve_direct(assemble(problem_for(problem.kernel, inc), half_width))
    return compare_fields(wh, field, window).rel_l2


class TestExactRightHandSide:
    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS),
                             ids=_layout_id)
    def test_zero_off_the_defect_rows(self, request, layout):
        """Only equations on a defect row or next to one carry a source (Bloch
        rows taken modulo the period); every other equation, the window's
        edge rows included, is exactly 0."""
        spec = _spec(request, layout)
        system = assemble(spec, 20)
        ys = np.arange(system.y_range[0], system.y_range[1] + 1)
        near = np.isin(spec._norm_row(ys), [spec._norm_row(d.row + k)
                                            for d in spec.defects for k in (-1, 0, 1)])
        assert not np.any(_grid_rhs(system)[:, ~near])

    @pytest.mark.parametrize("kind", ["crack", "constraint"])
    @pytest.mark.parametrize("theta", [0.5, -0.5, 1e-6, -1e-6])
    def test_backgrounds_solve_the_infinite_defect(self, kind, theta):
        """incident + background solves the equations of the infinite straight
        defect on row 2, also next to grazing incidence."""
        w = 1.5 + 0.25j
        inc = dispersion_solve("square", Frequency(w), theta)
        spec = LatticeProblemSpec("square", (Defect(kind, 2, "right", 0),), inc)
        bg = oracle._straight_background(spec)
        x, y = np.meshgrid(np.arange(-6, 7), np.arange(-4, 9))
        total = inc.field(x, y) + bg.evaluate(x, y)
        neighbours = total[1:-1, 2:] + total[1:-1, :-2] + total[2:, 1:-1] + total[:-2, 1:-1]
        rows = y[1:-1, 1:-1]
        if kind == "crack":  # the bond between rows 2 and 1 is broken
            neighbours -= np.where(rows == 2, total[:-2, 1:-1], 0)
            neighbours -= np.where(rows == 1, total[2:, 1:-1], 0)
            equations = neighbours + (w * w - 4 + np.isin(rows, (1, 2))) * total[1:-1, 1:-1]
        else:  # row 2 is pinned: total field zero there, free equations elsewhere
            equations = np.where(rows == 2, total[1:-1, 1:-1],
                                 neighbours + (w * w - 4) * total[1:-1, 1:-1])
        assert np.max(np.abs(equations)) <= 1e-13 * np.max(np.abs(inc.field(x, y)))

    @pytest.mark.parametrize("kind", ["crack", "constraint"])
    def test_zero_past_a_right_pointing_tip(self, inc_square, kind):
        """Past its tip a lone right-pointing defect equals its infinite
        counterpart, which incident + background solves: the equations on
        and next to its row carry no source there, not even rounding."""
        spec = LatticeProblemSpec("square", (Defect(kind, 2, "right", 3),), inc_square)
        system = assemble(spec, 20)
        b = _grid_rhs(system)[0]
        assert not np.any(b[21:24, 23:])  # rows 1-3, x >= 3
        assert np.all(b[22, :23] != 0)  # row 2 before the tip

    @pytest.mark.parametrize("second", [("crack", "right"), ("constraint", "right"),
                                        ("crack", "left")])
    def test_two_right_pointing_defects_are_refused(self, second):
        """Right cracks on rows 3 and -3: each background leaves on the other's
        row sources that grow toward +x, and the +-10 field moved by 0.15
        from L = 40 to L = 80.  With one of them pointing left it converges."""
        inc = dispersion_solve("square", Frequency(1 + 0.1j), 0.5)
        kind, side = second
        spec = LatticeProblemSpec("square", (Defect("crack", 3, "right", 0),
                                             Defect(kind, -3, side, 0)), inc)
        if side == "left":
            assemble(spec, 40)
        else:
            with pytest.raises(InvalidSpec, match="2 right-pointing defects"):
                assemble(spec, 40)

    @pytest.mark.parametrize("family,omega", [("sq_crack", 2.3 + 0.1j), ("sq_crack", 2.5 + 0.1j),
                                              ("hex_crack", 2.0 + 0.1j), ("hex_crack", 2.5 + 0.1j)])
    def test_band_top_fields_match_wh(self, family, omega):
        """Near the band top the damped incident spans 1e76 to 1e129 across
        the L = 100 window.  Formed by cancellation, the right-hand side
        carried rounding of eps times that, and the oracle's field missed
        these points by rel_l2 1.0 while every check passed; now they agree
        to about 5e-15."""
        assert _wh_against_oracle(family, omega, 100, theta=0.3) <= 1e-12


# About 100x what the fields suite measured (omega = 1+0.1i, theta = pi/6,
# L = 100 oracle): 3.9e-9, 2.2e-14 and 1.2e-9.  On the torus the last two
# read 2.3e-14 and 3.8e-10; the gates stay as they were.  The suite's own
# bounds are the acceptance criteria and stay as they are.
FIELD_GATES = {
    "sq_crack WH vs oracle rel_l2": 4e-7,
    "hex_crack WH vs oracle rel_l2": 3e-12,
    "closed constants vs oracle, max relative error": 1.3e-7,
}


def test_fields_suite_near_measured_accuracy():
    found = {check.label: check.value for check in checks.fields()}
    for label, gate in FIELD_GATES.items():
        assert found[label] <= gate, label


def test_residuals_suite_near_measured_accuracy():
    """Every matrix wh_residual of the residuals suite (criterion 10, bound
    5e-2) measures 3.05e-7 (opposing_mixed) to 2.13e-6 (opposing_cracks);
    the gate sits about 100x above the largest."""
    found = [check for check in checks.residuals() if check.label.startswith("wh_residual ")]
    assert len(found) == 9
    for check in found:
        assert check.value <= 2e-4, check.label


class TestTorusWindows:
    @pytest.mark.parametrize("layout", ["hex_crack_and_constraint", "tri_two_cracks_and_constraint",
                                        "tri_defect_free", "hex_defect_free", "crack_spec",
                                        "right_crack", "defect_free"])
    def test_only_square_tables_have_an_outside(self, request, layout):
        """A triangular or honeycomb window without Bloch rows wraps both
        ways, so a slot's neighbour in A0's table is -1 only where it is
        pinned; a square window keeps its zero Dirichlet edge.  A defect-free
        window stores no rows."""
        def outside(system):
            rows = np.arange(system.free.shape[0])
            return np.any(oracle._neighbour_table(system.spec, system.free, rows) < 0)

        spec = _spec(request, layout)
        system = assemble(spec, 20)
        assert (system.stored.size == 0) == (not spec.defects)
        if spec.lattice is Lattice.SQUARE:
            assert outside(system)
        else:
            assert outside(system) == any(d.kind == "constraint" for d in spec.defects)
            cracks = [d for d in spec.defects if d.kind == "crack"]
            assert not outside(assemble(LatticeProblemSpec(spec.lattice, cracks,
                                                           spec.incidence), 20))

    @pytest.mark.parametrize("family,gate", [("tri_dirichlet", 1e-7), ("hex_crack", 3e-12)])
    def test_seam(self, family, gate):
        """WH against the L = 100 torus at 1+0.1i: 5.0e-9 (tri_dirichlet;
        1.03e-8 on a zero Dirichlet window) and 2.3e-14 (hex_crack).  The
        known field wraps with the window: read unwrapped at the seam, a
        pinned row crossing it gets a false source |inc(L+1) - inc(-L)|,
        and tri_dirichlet reads 0.83."""
        assert _wh_against_oracle(family, 1 + 0.1j, 100) <= gate

    @pytest.mark.parametrize("family,gate", [("tri_dirichlet", 3e-3), ("hex_crack", 1e-5),
                                             ("sq_crack", 5e-4), ("sq_constraint", 1e-4)])
    def test_weak_damping_fields(self, family, gate):
        """WH against the L = 400 oracle at 1+0.01i, each gate about 10x its
        measured rel_l2: 2.7e-4, 1.1e-6, 5.0e-5 and 9.9e-6.  The window's
        truncation sets these; the oracle solves take 0.3 to 1 s."""
        assert _wh_against_oracle(family, 1 + 0.01j, 400) <= gate


def _dense_free_operator(lattice, diag, size, torus):
    """A0 as a dense matrix from _STENCILS: diag on the diagonal and one per
    stencil coupling, on the size x size window with zero Dirichlet data or
    on the torus of period size."""
    stencils = _STENCILS[lattice]
    subs = list(stencils)
    a0 = diag * np.eye(len(subs) * size * size, dtype=complex)
    for a, stencil in enumerate(stencils.values()):
        for dx, dy, nsub, _ in stencil:
            for y in range(size):
                for x in range(size):
                    xn, yn = x + dx, y + dy
                    if torus:
                        xn, yn = xn % size, yn % size
                    if 0 <= xn < size and 0 <= yn < size:
                        b = subs.index(nsub)
                        a0[(a * size + y) * size + x, (b * size + yn) * size + xn] += 1
    return a0


class TestFreeOperators:
    @pytest.mark.parametrize("lattice,size,omega", [
        (Lattice.SQUARE, 7, OMEGA), (Lattice.TRIANGULAR, 8, OMEGA), (Lattice.HONEYCOMB, 8, OMEGA),
        (Lattice.TRIANGULAR, 9, OMEGA), (Lattice.HONEYCOMB, 9, OMEGA),
        *((Lattice.HONEYCOMB, size, omega) for omega in (1 + 0.01j, 0.4 + 0.003j, 1.95 + 0.05j)
          for size in (8, 9)),
    ], ids=["square_window", "triangular_torus", "honeycomb_torus", "triangular_torus_odd",
            "honeycomb_torus_odd", *(f"honeycomb_torus{odd}_{omega}"
                                     for omega in ("weak", "low", "band_top")
                                     for odd in ("", "_odd"))])
    def test_match_the_dense_inverse(self, lattice, size, omega):
        """green, and solves through modes, read and field, against the
        inverse of the dense A0: the whole of G, which must be symmetric, an
        unsorted block of it, one solve, and one solve read at unsorted
        sites for a source on two rows; then a source on three rows apart,
        the first and the last among them, and blocks of G between the
        first two and the last two rows, whose row offsets wrap past the
        period on a torus; and a source given with repeated sites, which add.
        On the honeycomb, where the free operator eliminates v, also each of
        G's four u/v blocks at its own scale, and sources on v sites alone;
        its frequencies put |diag| at 2.25 (1 + 0.01i), 2.88 (0.4 + 0.003i)
        and 0.21 (1.95 + 0.05i, near the band top, where 1 / diag is large)."""
        diag = lattice_omega_shift(lattice, omega * omega)
        torus = lattice is not Lattice.SQUARE
        stencils = _STENCILS[lattice]
        modes, read, field, green = oracle._free_operator(stencils, diag, size, torus)
        shape = (len(stencils), size, size)

        def solve(sites, values, at=None):
            spectrum, w = np.empty(shape[1:], complex), np.empty(shape, complex)
            local = modes(sites, values, out=spectrum)
            if at is not None:
                return read(spectrum, local, at)
            field(spectrum, local, out=w)
            return w.ravel()

        def gap(approx, exact):
            return np.max(np.abs(approx - exact)) / np.max(np.abs(exact))

        inverse = np.linalg.inv(_dense_free_operator(lattice, diag, size, torus))
        scale = np.max(np.abs(inverse))
        sites = np.arange(inverse.shape[0])
        g = green(sites, sites)
        assert np.max(np.abs(g - inverse)) <= 1e-12 * scale
        assert np.max(np.abs(g - g.T)) <= 1e-12 * scale
        rng = np.random.default_rng(3)
        rows, cols = rng.permutation(sites)[:10], rng.permutation(sites)[:13]
        assert np.max(np.abs(green(rows, cols) - inverse[np.ix_(rows, cols)])) <= 1e-12 * scale
        b = rng.normal(size=sites.size) + 1j * rng.normal(size=sites.size)
        assert gap(solve(sites, b), inverse @ b) <= 1e-12
        y = (sites // size) % size
        for on in ((0, 1), (0, size // 2, size - 1)):
            source = np.where(np.isin(y, on), b, 0)
            exact = inverse @ source
            at = np.flatnonzero(source)
            assert gap(solve(at, source[at]), exact) <= 1e-12
            assert np.max(np.abs(solve(at, source[at], rows) - exact[rows])) <= \
                1e-12 * np.max(np.abs(exact))
        first, last = rng.permutation(sites[y < 2]), rng.permutation(sites[y >= size - 2])
        for r, c in ((first, last), (last, first)):
            assert np.max(np.abs(green(r, c) - inverse[np.ix_(r, c)])) <= 1e-12 * scale
        twice = np.r_[rows, rows[:4]]
        values = rng.normal(size=twice.size) + 1j * rng.normal(size=twice.size)
        source = np.zeros(sites.size, complex)
        np.add.at(source, twice, values)
        assert gap(solve(twice, values), inverse @ source) <= 1e-12
        if lattice is Lattice.HONEYCOMB:
            u, v = np.split(rng.permutation(sites), 2)
            for r in (u, v):
                for c in (u, v):
                    assert gap(green(r, c), inverse[np.ix_(r, c)]) <= 1e-12
            on_v = sites[sites >= size * size]
            for at in (on_v, np.r_[on_v[:5], on_v[:3]]):  # every v site; a few, repeated
                values = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
                source = np.zeros(sites.size, complex)
                np.add.at(source, at, values)
                exact = inverse @ source
                assert gap(solve(at, values), exact) <= 1e-12
                assert gap(solve(at, values, rows), exact[rows]) <= 1e-12

    @pytest.mark.parametrize("torus", [False, True], ids=["sine", "dft"])
    def test_tables_are_built_once_and_read_only(self, torus):
        tables = oracle._axis_transform(9, torus)
        assert all(a is b for a, b in zip(oracle._axis_transform(9, torus), tables))
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0


def _family_spec(family, omega=1 + 0.1j):
    """The oracle layout of a scalar family at omega, theta = 0.5."""
    inc = dispersion_solve(kernel_lattice(family), Frequency(omega), 0.5)
    return problem_for(ScalarKernel(family, omega), inc)


class TestTorusSolveCost:
    @pytest.mark.parametrize("family", ["sq_crack", "sq_constraint", "tri_dirichlet",
                                        "hex_crack"])
    def test_one_full_grid_transform_and_no_tile(self, monkeypatch, family):
        """An L = 100 solve, on the square window or the torus, that takes no
        refinement step transforms the whole grid once, for the field: two
        products of an n x n table with n^2 outputs each, one per axis, on
        u alone (the honeycomb's v follows from u by slices).  Every other
        product runs over the few rows of the defects.  Memory (tracemalloc
        peaks): the set-up holds the symbol, n^2 complex values, whatever
        the lattice (the honeycomb's 2 x 2 blocks per mode once held 4 n^2
        and 2 n^2 more while inverted); the three blocks of G, the two
        modes, the read and the field each hold less than n^2 (a g tiled to
        2n x 2n once held 4 n^2 per sublattice); and a solve holds its two
        arrays, the modes of n^2 and w of s n^2, and less than n^2
        besides."""
        system = assemble(_family_spec(family), 100)
        n, subs = system.free.shape[0], len(_STENCILS[system.spec.lattice])
        grid = n * n * np.dtype(complex).itemsize
        oracle._axis_transform(n, system.spec.torus)  # cached per size: built outside the count
        full, peaks, checks_run = [], [], []
        product = oracle._product

        def spy(table, values, out=None):
            result = product(table, values, out)
            full.append(table.shape == (n, n) and result.size >= n * n)
            return result
        monkeypatch.setattr(oracle, "_product", spy)

        def measured(stage):
            def run(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = stage(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                return out
            return run

        free_operator, capacitance = oracle._free_operator, oracle._capacitance
        backward_errors = oracle._backward_errors
        monkeypatch.setattr(oracle, "_free_operator",
                            lambda *args: tuple(map(measured, measured(free_operator)(*args))))
        monkeypatch.setattr(oracle, "_capacitance",
                            lambda system: (lambda m, solve: (m, measured(solve)))(
                                *capacitance(system)))
        monkeypatch.setattr(oracle, "_backward_errors",
                            lambda *args: checks_run.append(1) or backward_errors(*args))
        tracemalloc.start()
        try:
            solve_direct(system)
        finally:
            tracemalloc.stop()
        assert len(checks_run) == 1  # no refinement step
        assert sum(full) == 2
        # set-up, three blocks of G, then in the solve two modes, a read and
        # the field, and the solve itself, which returns last
        setup, *stages, solve = peaks
        assert len(stages) == 3 + 4
        assert setup <= grid + 256 * n  # and O(n): the shift factors per stencil entry
        assert max(stages) < grid
        assert solve < (subs + 2) * grid

    # tracemalloc peak of one assemble + solve_direct at theta = 0.5, about
    # 15% above the measured value: at L = 100, 1+0.1i, 4.9 MB (hex_crack),
    # 3.0 MB (tri_dirichlet) and 3.0 MB (sq_crack); at L = 400, 1+0.01i,
    # 40.4 MB (sq_crack), 67.0 MB (hex_crack) and 40.4 MB (tri_dirichlet,
    # pinned).  With the unknowns numbered apart from the grid sites (a
    # gather of the free sites, a scatter into the residuals' grid and a
    # right-hand side over every unknown) they read 6.8, 4.9, 3.9, 55.7,
    # 97.4 and 76.1 MB.  Before that, tri_dirichlet at L = 400 unmeasured:
    # with the honeycomb's 2 x 2 symbol per mode and a full |r| in the
    # backward errors, 8.9, 4.9, 4.0, 60.9 and 138.8 MB; with the window's
    # incident grids kept on the assembled system, 10.2, 5.5, 4.6, 71.2 and
    # 159.4 MB; with a fresh grid per step of the free solve and the
    # backward errors, 13.5, 7.3, 7.3, 114.7 and 212.5 MB; with the stencil
    # table of every unknown, 23.7, 16.5, 13.3 and 211.2 MB (hex_crack at
    # L = 400 not measured)
    @pytest.mark.parametrize("family,omega,half_width,gate_mb", [
        ("hex_crack", 1 + 0.1j, 100, 5.7), ("tri_dirichlet", 1 + 0.1j, 100, 3.5),
        ("sq_crack", 1 + 0.1j, 100, 3.5), ("sq_crack", 1 + 0.01j, 400, 47.0),
        ("hex_crack", 1 + 0.01j, 400, 78.0), ("tri_dirichlet", 1 + 0.01j, 400, 47.0),
    ], ids=["hex_crack", "tri_dirichlet", "sq_crack", "sq_crack_400", "hex_crack_400",
            "tri_dirichlet_400"])
    def test_traced_peak(self, family, omega, half_width, gate_mb):
        spec = _family_spec(family, omega)
        solve_direct(assemble(spec, half_width))  # numpy's one-off allocations out of the count
        tracemalloc.start()
        try:
            solve_direct(assemble(spec, half_width))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gate_mb * 1e6


def _fast(system):
    """The capacitance solve with its refinement, on the grid."""
    return oracle._refined_solve(system, oracle._capacitance(system)[1])[0]


def _first_solve(system, solve=None):
    """One capacitance solve of the right-hand side, unrefined, on the grid."""
    solve = solve or oracle._capacitance(system)[1]
    at = np.flatnonzero(system.rhs)
    return solve(system.stored[at], system.rhs[at])


def _sparse_lu(system):
    """Sparse LU's solution of the CSR matrix, on the grid (0 where pinned)."""
    b = _grid_rhs(system).ravel()[_free_sites(system)]
    return _on_grid(system, spla.splu(system.matrix.tocsc()).solve(b))


@pytest.fixture(scope="module")
def damped_hex():
    """A strongly damped honeycomb window: the incident spans 15 orders of
    magnitude across it.  With the right-hand side formed by cancellation,
    its rounding made the first free solve miss the field near the crack
    by about 1e-8."""
    w = 1.22 + 0.23j
    inc = dispersion_solve("honeycomb", Frequency(w), 0.72)
    system = assemble(problem_for(ScalarKernel("hex_crack", w), inc), 60)
    return system, _sparse_lu(system)


@pytest.fixture(scope="module")
def far_crack():
    """A square crack on row 25 of an L = 30 window at strong damping: its
    sources reach |b| = 4e7 where the incident is largest."""
    w = 2.6 + 0.3j
    inc = dispersion_solve("square", Frequency(w), 1.0)
    system = assemble(LatticeProblemSpec("square", (Defect("crack", 25, "left", 0),), inc), 30)
    return system, _sparse_lu(system)


def _hex_spec(family, omega):
    """The oracle layout of a honeycomb family, scalar or matrix, at theta = 0.5."""
    inc = dispersion_solve("honeycomb", Frequency(omega), 0.5)
    kernel = ScalarKernel if family == "hex_crack" else MatrixKernelSpec
    return problem_for(kernel(family, omega), inc)


class TestHoneycombReduction:
    """The free operator solves the honeycomb on u alone: v, whose
    neighbours are all u sites, is eliminated with the pivot diag =
    3 (omega^2 / 4 - 1), which vanishes at omega = 2."""

    @pytest.mark.parametrize("family", ["hex_crack", "hex_constraint_2x2"])
    @pytest.mark.parametrize("omega", [1.99 + 0.01j, 2.0 + 0.1j, 1 + 0.01j],
                             ids=["band_top", "band_top_damped", "weak"])
    def test_matches_sparse_lu_near_the_band_top(self, family, omega):
        """At L = 40 the solve matches sparse LU within 1e-12 relative; at
        1.99 + 0.01i (|diag| = 0.042) it reads 4.5e-13 (hex_crack) and
        4.0e-13 (hex_constraint_2x2) after one refinement step."""
        system = assemble(_hex_spec(family, omega), 40)
        reference = _sparse_lu(system)
        assert np.linalg.norm(_fast(system) - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_past_the_floor_raises_solve_failure(self):
        """At omega = 2 + 1e-5 i (|diag| = 3e-5) the first solve of the pinned
        window misses by a backward error of 0.7, refinement cannot recover
        it, and the contract raises."""
        with pytest.raises(SolveFailure, match="contract"):
            solve_direct(assemble(_hex_spec("hex_constraint_2x2", 2 + 1e-5j), 40))

    @pytest.mark.parametrize("family", ["hex_crack", "hex_constraint_2x2"])
    def test_independent_of_the_wh_path(self, monkeypatch, family):
        """assemble and solve_direct read the honeycomb off _STENCILS alone:
        with the WH path's honeycomb branch, reduced frequency, sublattice
        coupling and kernel evaluation raising, they still solve."""
        spec = _hex_spec(family, OMEGA)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the WH path")
        for module, name in ((branches, "hex_branch"), (branches, "hex_reduced_omega_sq"),
                             (branches, "hex_coupling"), (kernels, "nodes_at"),
                             (oracle, "nodes_at")):
            monkeypatch.setattr(module, name, refuse)
        solve_direct(assemble(spec, 20))

    def test_reduced_operator_is_the_triangular_lattice_s(self):
        """The operator the oracle derives from _STENCILS on the honeycomb's u
        is the triangular lattice's, its diagonal 3 - diag^2 the triangular
        lattice_omega_shift at the WH path's reduced frequency, over seeded
        omegas."""
        rng = np.random.default_rng(11)
        tri = sorted(entry[:2] for entry in _STENCILS[Lattice.TRIANGULAR]["u"])
        for w in rng.uniform(0.2, 2.6, 20) + 1j * rng.uniform(0.0, 0.3, 20):
            diag = lattice_omega_shift(Lattice.HONEYCOMB, w * w)
            entries, diagonal, factor = oracle._reduced_stencil(_STENCILS[Lattice.HONEYCOMB], diag)
            expected = lattice_omega_shift(Lattice.TRIANGULAR, hex_reduced_omega_sq(w))
            assert abs(diagonal - expected) <= 1e-14 * max(1.0, abs(expected))
            assert sorted(entries) == tri and factor == -diag
        honeycomb = _STENCILS[Lattice.HONEYCOMB]
        v_to_v = dict(honeycomb, v=honeycomb["v"] + ((1, 1, "v", None),))
        with pytest.raises(InvalidSpec, match="couple"):
            oracle._reduced_stencil(v_to_v, 1.0)


class TestCapacitanceSolve:
    @pytest.mark.parametrize("half_width", [20, 40, 60])
    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_matches_sparse_lu(self, request, layout, half_width):
        system = assemble(_spec(request, layout), half_width)
        reference = _sparse_lu(system)
        fast = _fast(system)
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @settings(max_examples=40, deadline=None)
    @given(lattice=st.sampled_from(["square", "triangular", "honeycomb"]),
           defects=st.lists(st.tuples(st.sampled_from(["crack", "constraint"]),
                                      st.integers(-30, 30), st.booleans(), st.integers(-9, 9)),
                            min_size=1, max_size=3, unique_by=lambda d: d[:2]),
           half_width=st.integers(20, 30), re_w=st.floats(0.5, 1.6), im_w=st.floats(0.05, 0.25),
           theta=st.floats(-1, 1))
    @example(lattice="square", defects=[("crack", 0, True, 0)], half_width=20, re_w=1.5,
             im_w=0.25, theta=0.0)
    @example(lattice="square", defects=[("constraint", 2, False, 3)], half_width=20, re_w=1.5,
             im_w=0.25, theta=0.0)
    def test_random_layouts_match_sparse_lu(self, lattice, defects, half_width, re_w, im_w,
                                            theta):
        """Cracks and constraints at random rows and tips, pointing right only
        on the square lattice, rows up to and past the window edge.  assemble
        refuses a row past the edge, two or more right-pointing defects, and
        at grazing incidence (ky = 0) a right-pointing defect, which has no
        decaying background."""
        inc = dispersion_solve(lattice, Frequency(complex(re_w, im_w)), theta)
        spec = LatticeProblemSpec(lattice, tuple(
            Defect(kind, row, "right" if right and lattice == "square" else "left", tip)
            for kind, row, right, tip in defects), inc)
        right = sum(d.side == "right" for d in spec.defects)
        if any(abs(d.row) > half_width for d in spec.defects):
            with pytest.raises(WindowTooSmall, match="defect row"):
                assemble(spec, half_width)
        elif right > 1:
            with pytest.raises(InvalidSpec, match="right-pointing defects: "):
                assemble(spec, half_width)
        elif theta == 0 and right:
            with pytest.raises(InvalidSpec, match="grazing incidence"):
                assemble(spec, half_width)
        else:
            system = assemble(spec, half_width)
            reference = _sparse_lu(system)
            fast = _fast(system)
            assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @settings(max_examples=40, deadline=None)
    @given(period=st.integers(2, 5),
           rows=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
               [("crack",), ("constraint",), ("crack", "constraint")]), st.integers(-9, 9)),
               min_size=1, max_size=2, unique_by=lambda row: row[0]),
           phase=st.one_of(st.none(), st.floats(-np.pi, np.pi)),
           half_width=st.integers(20, 30), re_w=st.floats(0.5, 1.6), im_w=st.floats(0.05, 0.25),
           theta=st.floats(-1, 1))
    @example(period=2, rows=[(0, ("crack",), 0), (1, ("crack",), 3)], phase=None, half_width=20,
             re_w=1.2, im_w=0.1, theta=0.7)
    @example(period=2, rows=[(0, ("crack", "constraint"), 0), (1, ("crack",), -4)], phase=2.0,
             half_width=20, re_w=1.0, im_w=0.05, theta=0.3)
    def test_random_strips_match_sparse_lu(self, period, rows, phase, half_width, re_w, im_w,
                                           theta):
        """Bloch strips of period 2 to 5 with left-pointing cracks and
        constraints on one or two rows (taken modulo the period), the
        multiplier read off the incidence or exp(i phase): a period-2 strip
        with both rows cracked breaks both couplings of one folded slot."""
        inc = dispersion_solve("square", Frequency(complex(re_w, im_w)), theta)
        rows = {row % period: (kinds, tip) for row, kinds, tip in rows}
        psi = np.exp(-1j * inc.kappa_y * period) if phase is None else np.exp(1j * phase)
        spec = LatticeProblemSpec("square", tuple(
            Defect(kind, row, "left", tip) for row, (kinds, tip) in rows.items() for kind in kinds),
            inc, BlochSpec(period, complex(psi)))
        system = assemble(spec, half_width)
        reference = _sparse_lu(system)
        fast = _fast(system)
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("kernel,lattice,pins,bonds", [
        (ScalarKernel("hex_crack", OMEGA), "honeycomb", 0, 20),
        (ScalarKernel("tri_dirichlet", OMEGA), "triangular", 20, 0),
        (MatrixKernelSpec("tri_crack_2x2", OMEGA), "triangular", 0, 2 * 20),
        (ScalarKernel("sq_crack", OMEGA), "square", 0, 20),
        (ScalarKernel("sq_constraint", OMEGA), "square", 20, 0),
        (MatrixKernelSpec("mixed_array", OMEGA, sep=3, psi=0.8 + 0.3j), "square", 20, 20),
    ], ids=["hex_crack", "tri_dirichlet", "tri_crack_2x2", "sq_crack", "sq_constraint",
            "mixed_array"])
    def test_capacitance_matrix_is_symmetric_with_a_row_per_pin_and_bond(
            self, request, kernel, lattice, pins, bonds):
        """At L = 20 the torus of the slant lattices is the window itself,
        so M holds the defect's pins and bonds only, as on the square.  A
        triangular crack breaks a vertical and a slant bond per column; its
        slant bond from x = -L wraps to an intact column, where a zero
        Dirichlet window broke a 41st bond to the outside.  On a Bloch strip
        M holds the pins and bonds too, each of mixed_array's cracked bonds
        running from a free site to a pinned one across the wrap; A0 couples
        the wrapped rows by psi one way and 1 / psi the other, so there M is
        not symmetric."""
        system = assemble(problem_for(kernel, request.getfixturevalue(f"inc_{lattice}")), 20)
        capacitance, _ = oracle._capacitance(system)
        assert capacitance.shape == (pins + bonds, pins + bonds)
        asymmetry = np.max(np.abs(capacitance - capacitance.T)) / np.max(np.abs(capacitance))
        assert (asymmetry > 1e-3) if system.spec.bloch else (asymmetry <= 1e-14)

    @pytest.mark.parametrize("changes", [
        [("own", 0.5)],                      # a mass defect
        [("right", -0.5), ("left", -0.5)],   # a weakened bond, from both ends
        [("own", 1.0), ("right", -1.0)],     # a bond broken from one end only
    ], ids=["mass", "weak_bond", "one_sided_break"])
    def test_other_deviations_raise_solve_failure(self, crack_spec, changes):
        """Equations that differ from A0 by more than assemble's pins and
        bonds are not solved by a capacitance solve of other ones: the
        residual, read off the changed table, misses its contract."""
        system = assemble(crack_spec, 20)
        i, k = _grid_site(system, 5, 0), _grid_site(system, 6, 0)  # an intact bond, stored rows
        for which, delta in changes:
            site, col = {"own": (i, i), "right": (i, k), "left": (k, i)}[which]
            row = np.searchsorted(system.stored, site)
            assert system.stored[row] == site
            system.weights[row, system.neighbours[row] == col] += delta
        with pytest.raises(SolveFailure, match="residual"):
            solve_direct(system)

    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_one_solve_path(self, request, monkeypatch, layout):
        """The oracle holds no sparse LU: every window, on each lattice and
        Bloch strips included, is one capacitance solve."""
        assert not hasattr(oracle, "spla")
        calls, capacitance = [], oracle._capacitance
        monkeypatch.setattr(oracle, "_capacitance",
                            lambda system: calls.append(1) or capacitance(system))
        solve_direct(assemble(_spec(request, layout), 20))
        assert calls == [1]

    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_solves_on_grid_sites_alone(self, request, monkeypatch, layout):
        """assemble and solve_direct build and read no numbering of the
        unknowns: with matrix, its one view, raising they still solve, and
        the right-hand side holds one value per stored row."""
        def refuse(self):
            raise AssertionError("the solve path numbered the unknowns")
        monkeypatch.setattr(oracle.AssembledSystem, "matrix", property(refuse))
        system = assemble(_spec(request, layout), 20)
        assert system.rhs.size == system.stored.size
        solve_direct(system)
        with pytest.raises(AssertionError, match="numbered the unknowns"):
            system.matrix

    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_output_holds_the_solution_and_zero_total_field_where_pinned(self, request, layout):
        """solve_direct evaluates the known fields on the window itself: at
        every pinned site, on every row and sublattice, the total field is
        zero to rounding, and every free site is the capacitance solve plus
        the closed-form background of a right-pointing defect.  The incident
        is evaluated here as one exponential of kx x + ky y, whose rounding
        grows with that phase: 4 eps |incident| per unit of it (at most 0.5
        eps per unit was measured; on row 0 the two evaluations agree)."""
        spec = _spec(request, layout)
        system = assemble(spec, 20)
        field = solve_direct(system)
        free = system.free
        x, y = np.meshgrid(field.xs, field.ys)
        inc, bg = spec.incidence, oracle._straight_background(spec)
        phase = 1 + np.abs(inc.kappa_x * x) + np.abs(inc.kappa_y * y)
        w = _fast(system).reshape(-1, *free.shape)
        for k, (sub, values) in enumerate(zip(_STENCILS[spec.lattice], (field.u, field.v))):
            incident = inc.field(x, y, sub)
            pinned = np.abs(values + incident)[~free]
            assert np.all(pinned <= 4 * np.finfo(float).eps * (phase * np.abs(incident))[~free])
            expected = w[k][free] + (bg.evaluate(x, y)[free] if bg and sub == "u" else 0)
            np.testing.assert_array_equal(values[free], expected)

    @pytest.mark.parametrize("family", ["sq_crack", "sq_constraint", "tri_dirichlet",
                                        "hex_crack", "mixed_array"])
    def test_the_package_and_its_solves_load_no_scipy(self, family):
        """A fresh interpreter imports the package, solves and rebuilds a
        scalar family on the WH path (a constraint family through the
        closure's half-line solve) and assembles and solves its oracle
        window, or mixed_array's Bloch strip, without loading any scipy
        module."""
        code = f"""
import sys
import latticewh
from latticewh.branches import Frequency, dispersion_solve
from latticewh.kernels import MatrixKernelSpec, ScalarKernel, kernel_lattice
from latticewh.oracle import assemble, problem_for, solve_direct
from latticewh.whsolver import ScalarWHProblem, reconstruct_field, solve_scalar

family, omega = {family!r}, {OMEGA!r}
inc = dispersion_solve(kernel_lattice(family), Frequency(omega), {THETA!r})
if family == "mixed_array":
    kernel = MatrixKernelSpec(family, omega, sep=3, psi=0.8 + 0.3j)
else:
    problem = ScalarWHProblem.for_family(family, inc)
    reconstruct_field(problem, solve_scalar(problem), ((-10, 10), (-10, 10)))
    kernel = problem.kernel
solve_direct(assemble(problem_for(kernel, inc), 20))
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
        src = str(Path(oracle.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_singular_capacitance_matrix_raises_solve_failure(self, monkeypatch,
                                                                inc_square):
        """With a Green's function that reads zero, M of a pinned half-row is
        the zero matrix: the solve raises SolveFailure, not numpy's error."""
        free_operator = oracle._free_operator

        def zero_green(*args):
            modes, read, field, green = free_operator(*args)
            return modes, read, field, lambda rows, cols: np.zeros((rows.size, cols.size), complex)

        monkeypatch.setattr(oracle, "_free_operator", zero_green)
        system = assemble(problem_for(ScalarKernel("sq_constraint", OMEGA), inc_square), 20)
        assert not np.any(oracle._capacitance(system)[0])
        with pytest.raises(SolveFailure, match="singular capacitance matrix"):
            solve_direct(system)

    @staticmethod
    def _returns(monkeypatch, field):
        """Make the solve return field(system), with its own backward errors."""
        def refined(system, solve):
            w = field(system)
            return (w, *oracle._backward_errors(system, w))
        monkeypatch.setattr(oracle, "_refined_solve", refined)

    def test_residual_check_guards_the_fast_path(self, monkeypatch, crack_spec, inc_honeycomb):
        self._returns(monkeypatch, lambda system: _first_solve(system) * (1 + 1e-6))
        for spec in (crack_spec, problem_for(ScalarKernel("hex_crack", OMEGA), inc_honeycomb)):
            with pytest.raises(SolveFailure):
                solve_direct(assemble(spec, 20))

    def test_one_solve_recovers_the_field_near_the_defect(self, damped_hex):
        """With the exact right-hand side no equation needs refinement, and
        the field near the crack matches the sparse LU to 1e-12."""
        system, reference = damped_hex
        fast = _first_solve(system)
        _, errors = oracle._backward_errors(system, fast)
        assert np.max(errors) <= oracle._REFINE_TOL
        fast, reference = (w.reshape(-1, *system.free.shape)[0, 40:81, 40:81]  # |x|, |y| <= 20
                           for w in (fast, reference))
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_refinement_recovers_equations_far_below_the_largest_source(self, far_crack):
        """The crack row's sources reach 4e7, far above the field near the
        origin: the first solve misses the backward error check there,
        refinement meets it, and the field matches the sparse LU."""
        system, reference = far_crack
        solve = oracle._capacitance(system)[1]
        _, first = oracle._backward_errors(system, _first_solve(system, solve))
        assert np.max(first) > oracle._SOLVE_TOL
        w, _, errors = oracle._refined_solve(system, solve)
        assert np.max(errors) <= oracle._REFINE_TOL
        w, reference = (field.reshape(-1, *system.free.shape)[0, 20:41, 20:41]  # |x|, |y| <= 10
                        for field in (w, reference))
        assert np.linalg.norm(w - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_backward_error_check_guards_the_field_near_the_defect(self, monkeypatch, far_crack):
        # off by 1e-6 on the crack face at its far end, where the field is
        # 45: invisible to the relative residual, which the sources near the
        # tip dominate (norm of b about 8e7)
        system, reference = far_crack
        bumped = reference.copy()
        bumped[_grid_site(system, -29, 25)] += 1e-6
        self._returns(monkeypatch, lambda system: bumped)
        with pytest.raises(SolveFailure, match="backward error"):
            solve_direct(system)
