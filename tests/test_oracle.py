import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticewh import checks, kernels, oracle
from latticewh.branches import Frequency, Lattice, dispersion_solve, square_branches
from latticewh.errors import InvalidSpec, SolveFailure, WindowMismatch, WindowTooSmall
from latticewh.fields import FieldGrid, compare_fields, lattice_omega_shift
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
        row = system.row_entries(-5, 0)
        assert abs(row[system.site_id(-5, 0)] - (W2 - 3)) < 1e-14
        assert system.site_id(-5, -1) not in row
        assert row[system.site_id(-4, 0)] == 1.0
        # intact side (x >= 0): full stencil
        row = system.row_entries(5, 0)
        assert abs(row[system.site_id(5, 0)] - (W2 - 4)) < 1e-14
        assert row[system.site_id(5, -1)] == 1.0

    def test_opposing_rows_match_printed_equations(self, inc_square):
        # opposing cracks N=3, M=3: rows N, N-1, 0, -1 carry the Heaviside
        # bond pattern of the two tips
        spec = problem_for(
            MatrixKernelSpec("opposing_cracks", OMEGA, sep=3, offsets=(3,)), inc_square)
        system = assemble(spec, 40)
        # at y = N, x <= M-1 the bond down is intact; x >= M broken
        row = system.row_entries(1, 3)
        assert row[system.site_id(1, 2)] == 1.0
        assert abs(row[system.site_id(1, 3)] - (W2 - 4)) < 1e-14
        row = system.row_entries(6, 3)
        assert system.site_id(6, 2) not in row
        assert abs(row[system.site_id(6, 3)] - (W2 - 3)) < 1e-14
        # at y = 0 the crack points left
        row = system.row_entries(-6, 0)
        assert system.site_id(-6, -1) not in row
        row = system.row_entries(6, 0)
        assert row[system.site_id(6, -1)] == 1.0

    def test_right_pointing_crack_stencils(self, inc_square):
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "right", 3),), inc_square)
        system = assemble(spec, 20)
        # broken for x >= 3, from both faces of the crack
        for y, other in ((0, -1), (-1, 0)):
            row = system.row_entries(5, y)
            assert system.site_id(5, other) not in row
            assert abs(row[system.site_id(5, y)] - (W2 - 3)) < 1e-14
            row = system.row_entries(2, y)
            assert row[system.site_id(2, other)] == 1.0
            assert abs(row[system.site_id(2, y)] - (W2 - 4)) < 1e-14

    def test_triangular_slant_bonds_at_crack(self, inc_triangular):
        spec = LatticeProblemSpec("triangular", (Defect("crack", 0, "left", 0),),
                                  inc_triangular)
        system = assemble(spec, 20)
        base = 1.5 * W2 - 6
        # below the crack face (x < 0): the vertical and the (1,-1) slant
        # bond break together, coordination drops by 2
        row = system.row_entries(-5, 0)
        assert len(row) == 5
        assert system.site_id(-5, -1) not in row and system.site_id(-4, -1) not in row
        assert row[system.site_id(-6, 1)] == 1.0
        assert abs(row[system.site_id(-5, 0)] - (base + 2)) < 1e-14
        # above it the (-1,1) slant bond reads the crack cell of x - 1
        row = system.row_entries(-5, -1)
        assert len(row) == 5
        assert system.site_id(-5, 0) not in row and system.site_id(-6, 0) not in row
        assert row[system.site_id(-4, -2)] == 1.0
        assert abs(row[system.site_id(-5, -1)] - (base + 2)) < 1e-14
        # at the tip only the slant bond (-1,0)--(0,-1) is broken
        row = system.row_entries(0, -1)
        assert system.site_id(-1, 0) not in row
        assert row[system.site_id(0, 0)] == 1.0
        assert abs(row[system.site_id(0, -1)] - (base + 1)) < 1e-14
        row = system.row_entries(-1, 0)
        assert system.site_id(0, -1) not in row and system.site_id(-1, -1) not in row
        assert abs(row[system.site_id(-1, 0)] - (base + 2)) < 1e-14
        row = system.row_entries(0, 0)
        assert row[system.site_id(0, -1)] == row[system.site_id(1, -1)] == 1.0
        assert abs(row[system.site_id(0, 0)] - base) < 1e-14

    def test_honeycomb_rows_at_crack(self, inc_honeycomb):
        spec = LatticeProblemSpec("honeycomb", (Defect("crack", 0, "left", 0),),
                                  inc_honeycomb)
        system = assemble(spec, 20)
        base = 0.75 * W2 - 3
        # u(x, 0) -- v(x, -1) is the broken bond for x < 0
        row = system.row_entries(-5, 0, "u")
        assert set(row) == {system.site_id(-5, 0, "u"), system.site_id(-5, 0, "v"),
                            system.site_id(-6, 0, "v")}
        assert abs(row[system.site_id(-5, 0, "u")] - (base + 1)) < 1e-14
        row = system.row_entries(-5, -1, "v")
        assert set(row) == {system.site_id(-5, -1, "v"), system.site_id(-5, -1, "u"),
                            system.site_id(-4, -1, "u")}
        assert abs(row[system.site_id(-5, -1, "v")] - (base + 1)) < 1e-14
        # intact side
        row = system.row_entries(5, 0, "u")
        assert row[system.site_id(5, -1, "v")] == 1.0
        assert abs(row[system.site_id(5, 0, "u")] - base) < 1e-14
        row = system.row_entries(5, -1, "v")
        assert row[system.site_id(5, 0, "u")] == 1.0
        assert abs(row[system.site_id(5, -1, "v")] - base) < 1e-14

    def test_honeycomb_pinned_neighbours(self, inc_honeycomb):
        spec = LatticeProblemSpec("honeycomb", (Defect("constraint", 0, "left", 0),),
                                  inc_honeycomb)
        system = assemble(spec, 20)
        base = 0.75 * W2 - 3
        assert system.site_id(-5, 0, "u") < 0 and system.site_id(-5, 0, "v") < 0
        # a pinned neighbour drops its column and leaves the diagonal alone
        for (x, y, sub), kept in (((-5, 1, "u"), {(-5, 1, "v"), (-6, 1, "v")}),
                                  ((-5, -1, "v"), {(-5, -1, "u"), (-4, -1, "u")}),
                                  ((0, 0, "u"), {(0, 0, "v"), (0, -1, "v")})):
            row = system.row_entries(x, y, sub)
            own = system.site_id(x, y, sub)
            assert set(row) == {own} | {system.site_id(*site) for site in kept}
            assert abs(row[own] - base) < 1e-14

    def test_bloch_wrap_entries(self, inc_square):
        psi = 0.8 + 0.3j
        spec = LatticeProblemSpec("square", (Defect("crack", 0, "left", 0),), inc_square,
                                  bloch=BlochSpec(period=3, multiplier=psi))
        system = assemble(spec, 20)
        # row 0 couples down to row -1 = psi^-1 * row 2, row 2 up to row 3 = psi * row 0
        row = system.row_entries(5, 0)
        assert abs(row[system.site_id(5, 2)] - psi**-1) < 1e-15
        assert row[system.site_id(5, 1)] == 1.0
        row = system.row_entries(5, 2)
        assert abs(row[system.site_id(5, 0)] - psi) < 1e-15
        assert row[system.site_id(5, 1)] == 1.0
        # the crack at row 0 (x < 0) cuts the wrapped bond from both sides
        row = system.row_entries(-5, 0)
        assert system.site_id(-5, 2) not in row
        assert abs(row[system.site_id(-5, 0)] - (W2 - 3)) < 1e-14
        row = system.row_entries(-5, 2)
        assert system.site_id(-5, 0) not in row
        assert abs(row[system.site_id(-5, 2)] - (W2 - 3)) < 1e-14


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


# Layouts without Bloch rows, solved by the capacitance matrix method (the
# sine transform on the square lattice, the torus on the others): the
# non-Bloch entries of LAYOUTS, array_cracks with nu = 2, and hand-made
# defect sets
CAPACITANCE_KERNELS = [kernel for kernel, _, _, period in LAYOUTS if period is None]
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
CAPACITANCE_LAYOUTS = CAPACITANCE_KERNELS + list(DEFECT_SETS)


def _layout_id(layout):
    if isinstance(layout, str):
        return layout
    return layout.family + (f"_{layout.count}" if layout.family == "array_cracks" else "")


def _lattice(layout):
    if isinstance(layout, str):
        return DEFECT_SETS[layout][0]
    return family_record(layout.family).lattice.value


SQUARE_LAYOUTS = [layout for layout in CAPACITANCE_LAYOUTS if _lattice(layout) == "square"]


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
    backgrounds = oracle._straight_backgrounds(spec)
    torus = bloch is None and lattice != "square"

    def wrap(x, y):
        return ((x + L) % (2 * L + 1) - L, (y + L) % (2 * L + 1) - L) if torus else (x, y)

    def on(kind, x, y):
        return any(d.kind == kind and spec._norm_row(y) == spec._norm_row(d.row)
                   and ((x < d.tip) if d.side == "left" else (x >= d.tip)) for d in spec.defects)

    def known(x, y, sub):
        """The known field at a site and the size of its parts."""
        parts = [inc.field(x, y, sub)] + [bg.evaluate(x, y) for bg in backgrounds if sub == "u"]
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
    max(|A| |w| + |b|, |amplitude|), as defined on the CSR matrix."""
    matrix = system.matrix
    scale = np.maximum(abs(matrix) @ np.abs(w) + np.abs(system.rhs),
                       abs(system.spec.incidence.amplitude))
    return system.rhs - matrix @ w, scale


class TestReferenceAssembly:
    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS)
                             + ["period_two_strip"], ids=_layout_id)
    def test_matches_the_equations_of_motion(self, request, layout):
        """Every matrix entry exactly, the right-hand side to 1e-14 of the
        scale of each equation, and the unknown numbering, at L = 20; no
        two slots of a row of the table share a neighbour."""
        spec = _spec(request, layout)
        system = assemble(spec, 20)
        entries, rhs, scale, ids = _reference_assembly(spec, 20)
        coo = system.matrix.tocoo()
        assert dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist())) == entries
        assert np.all(np.abs(system.rhs - rhs) <= 1e-14 * scale)
        assert {site: system.site_id(*site) for site in ids} == ids
        assert system.matrix.shape[0] == len(ids)
        slots = np.sort(system.neighbours, axis=1)
        assert not np.any((slots[:, 1:] == slots[:, :-1]) & (slots[:, 1:] >= 0))


class TestTableChecks:
    @pytest.mark.parametrize("layout", [kernel for kernel, *_ in LAYOUTS] + list(DEFECT_SETS)
                             + ["period_two_strip"], ids=_layout_id)
    def test_backward_errors_match_the_csr_definition(self, request, layout):
        """The residual and backward errors read off the table equal those of
        the CSR matrix to rounding, for a random w at L = 20."""
        system = assemble(_spec(request, layout), 20)
        rng = np.random.default_rng(5)
        w = rng.normal(size=system.rhs.size) + 1j * rng.normal(size=system.rhs.size)
        residual, errors = oracle._backward_errors(system, w)
        reference, scale = _csr_residual(system, w)
        assert np.all(np.abs(residual - reference) <= 1e-15 * scale)
        assert np.allclose(errors, np.abs(residual) / scale, rtol=1e-14, atol=0)

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
        reference, scale = _csr_residual(system, w)
        assert np.all(np.abs(residual - reference) <= 1e-15 * scale)
        assert np.allclose(errors, np.abs(residual) / scale, rtol=1e-14, atol=0)


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
        for index in (system.index_u, system.index_v):
            if index is not None:
                far = index[~near]
                assert not np.any(system.rhs[far[far >= 0]])

    @pytest.mark.parametrize("kind", ["crack", "constraint"])
    @pytest.mark.parametrize("theta", [0.5, -0.5, 1e-6, -1e-6])
    def test_backgrounds_solve_the_infinite_defect(self, kind, theta):
        """incident + background solves the equations of the infinite straight
        defect on row 2, also next to grazing incidence."""
        w = 1.5 + 0.25j
        inc = dispersion_solve("square", Frequency(w), theta)
        spec = LatticeProblemSpec("square", (Defect(kind, 2, "right", 0),), inc)
        bg, = oracle._straight_backgrounds(spec)
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
        past = system.index_u[21:24, 23:]  # rows 1-3, x >= 3
        assert not np.any(system.rhs[past[past >= 0]])
        assert np.all(system.rhs[system.index_u[22, :23]] != 0)  # row 2 before the tip

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
        ways, so a slot's neighbour is -1 only where it is pinned; a square
        window keeps its zero Dirichlet edge."""
        spec = _spec(request, layout)
        outside = np.any(assemble(spec, 20).neighbours < 0)
        if spec.lattice is Lattice.SQUARE:
            assert outside
        else:
            assert outside == any(d.kind == "constraint" for d in spec.defects)
            cracks = [d for d in spec.defects if d.kind == "crack"]
            cracked = assemble(LatticeProblemSpec(spec.lattice, cracks, spec.incidence), 20)
            assert not np.any(cracked.neighbours < 0)

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
    stencils = oracle._STENCILS[lattice]
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
    @pytest.mark.parametrize("lattice,size", [
        (Lattice.SQUARE, 7), (Lattice.TRIANGULAR, 8), (Lattice.HONEYCOMB, 8),
    ], ids=["square_window", "triangular_torus", "honeycomb_torus"])
    def test_match_the_dense_inverse(self, lattice, size):
        """green, free_solve and solve_at against the inverse of the dense A0:
        the whole of G, which must be symmetric, an unsorted block of it, one
        solve, and one solve read at unsorted sites for a source on two rows."""
        diag = lattice_omega_shift(lattice, OMEGA * OMEGA)
        square = lattice is Lattice.SQUARE
        operator = oracle._sine_operator if square else oracle._torus_operator
        free_solve, green, solve_at = operator(oracle._STENCILS[lattice], diag, size)
        inverse = np.linalg.inv(_dense_free_operator(lattice, diag, size, torus=not square))
        scale = np.max(np.abs(inverse))
        sites = np.arange(inverse.shape[0])
        g = green(sites, sites)
        assert np.max(np.abs(g - inverse)) <= 1e-12 * scale
        assert np.max(np.abs(g - g.T)) <= 1e-12 * scale
        rng = np.random.default_rng(3)
        rows, cols = rng.permutation(sites)[:10], rng.permutation(sites)[:13]
        assert np.max(np.abs(green(rows, cols) - inverse[np.ix_(rows, cols)])) <= 1e-12 * scale
        b = rng.normal(size=sites.size) + 1j * rng.normal(size=sites.size)
        assert np.max(np.abs(free_solve(b) - inverse @ b)) <= 1e-12 * np.max(np.abs(inverse @ b))
        b[(sites // size) % size > 1] = 0  # rows 0 and 1 of every sublattice
        assert np.max(np.abs(solve_at(b, rows) - (inverse @ b)[rows])) <= \
            1e-12 * np.max(np.abs(inverse @ b))


def _fast(system):
    """The capacitance solve with its refinement."""
    return oracle._refined_solve(system, oracle._capacitance(system)[1])[0]


@pytest.fixture(scope="module")
def damped_hex():
    """A strongly damped honeycomb window: the incident spans 15 orders of
    magnitude across it.  With the right-hand side formed by cancellation,
    its rounding made the first free solve miss the field near the crack
    by about 1e-8."""
    w = 1.22 + 0.23j
    inc = dispersion_solve("honeycomb", Frequency(w), 0.72)
    system = assemble(problem_for(ScalarKernel("hex_crack", w), inc), 60)
    return system, spla.splu(system.matrix.tocsc()).solve(system.rhs)


@pytest.fixture(scope="module")
def far_crack():
    """A square crack on row 25 of an L = 30 window at strong damping: its
    sources reach |b| = 4e7 where the incident is largest."""
    w = 2.6 + 0.3j
    inc = dispersion_solve("square", Frequency(w), 1.0)
    system = assemble(LatticeProblemSpec("square", (Defect("crack", 25, "left", 0),), inc), 30)
    return system, spla.splu(system.matrix.tocsc()).solve(system.rhs)


class TestCapacitanceSolve:
    @pytest.mark.parametrize("half_width", [20, 40, 60])
    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_matches_sparse_lu(self, request, layout, half_width):
        system = assemble(_spec(request, layout), half_width)
        reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
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
        refuses two or more right-pointing defects, and at grazing incidence
        (ky = 0) a right-pointing defect, which has no decaying background."""
        inc = dispersion_solve(lattice, Frequency(complex(re_w, im_w)), theta)
        spec = LatticeProblemSpec(lattice, tuple(
            Defect(kind, row, "right" if right and lattice == "square" else "left", tip)
            for kind, row, right, tip in defects), inc)
        right = sum(d.side == "right" for d in spec.defects)
        if right > 1:
            with pytest.raises(InvalidSpec, match="right-pointing defects: "):
                assemble(spec, half_width)
        elif theta == 0 and right:
            with pytest.raises(InvalidSpec, match="grazing incidence"):
                assemble(spec, half_width)
        else:
            system = assemble(spec, half_width)
            reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
            fast = _fast(system)
            assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("kernel,lattice,pins,bonds", [
        (ScalarKernel("hex_crack", OMEGA), "honeycomb", 0, 20),
        (ScalarKernel("tri_dirichlet", OMEGA), "triangular", 20, 0),
        (MatrixKernelSpec("tri_crack_2x2", OMEGA), "triangular", 0, 2 * 20),
        (ScalarKernel("sq_crack", OMEGA), "square", 0, 20),
        (ScalarKernel("sq_constraint", OMEGA), "square", 20, 0),
    ], ids=["hex_crack", "tri_dirichlet", "tri_crack_2x2", "sq_crack", "sq_constraint"])
    def test_capacitance_matrix_is_symmetric_with_a_row_per_pin_and_bond(
            self, request, kernel, lattice, pins, bonds):
        """At L = 20 the torus of the slant lattices is the window itself,
        so M holds the defect's pins and bonds only, as on the square.  A
        triangular crack breaks a vertical and a slant bond per column; its
        slant bond from x = -L wraps to an intact column, where a zero
        Dirichlet window broke a 41st bond to the outside."""
        system = assemble(problem_for(kernel, request.getfixturevalue(f"inc_{lattice}")), 20)
        capacitance, _ = oracle._capacitance(system)
        assert capacitance.shape == (pins + bonds, pins + bonds)
        assert np.max(np.abs(capacitance - capacitance.T)) <= 1e-14 * np.max(np.abs(capacitance))

    @pytest.mark.parametrize("changes", [
        [("own", 0.5)],                      # a mass defect
        [("right", -0.5), ("left", -0.5)],   # a weakened bond, from both ends
        [("own", 1.0), ("right", -1.0)],     # a bond broken from one end only
    ], ids=["mass", "weak_bond", "one_sided_break"])
    def test_other_deviations_fall_back_to_sparse_lu(self, splu_calls, crack_spec, changes):
        """Equations that differ from A0 by more than pins and bonds are
        solved by the sparse LU, not by a capacitance solve of other ones."""
        system = assemble(crack_spec, 20)
        i, k = system.site_id(5, 3), system.site_id(6, 3)  # an intact bond
        for which, delta in changes:
            row, col = {"own": (i, i), "right": (i, k), "left": (k, i)}[which]
            system.weights[row, system.neighbours[row] == col] += delta
        assert oracle._capacitance(system) is None
        solve_direct(system)  # checked against the changed matrix
        assert len(splu_calls) == 1

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        splu = oracle.spla.splu

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(oracle.spla, "splu", counting)
        return calls

    @pytest.mark.parametrize("layout", SQUARE_LAYOUTS, ids=_layout_id)
    def test_square_skips_sparse_lu(self, request, splu_calls, layout):
        solve_direct(assemble(_spec(request, layout), 20))
        assert splu_calls == []

    @pytest.mark.parametrize("kernel,lattice,calls", [
        (ScalarKernel("tri_dirichlet", OMEGA), "triangular", 0),
        (ScalarKernel("hex_crack", OMEGA), "honeycomb", 0),
        (MatrixKernelSpec("mixed_array", OMEGA, sep=3, psi=0.8 + 0.3j), "square", 1),
    ], ids=["tri_dirichlet", "hex_crack", "mixed_array"])
    def test_other_layouts_use_sparse_lu(self, request, splu_calls, kernel, lattice, calls):
        """Only Bloch strips reach the sparse LU; the slant windows go to the torus."""
        inc = request.getfixturevalue(f"inc_{lattice}")
        solve_direct(assemble(problem_for(kernel, inc), 20))
        assert len(splu_calls) == calls

    @pytest.mark.parametrize("kernel,lattice,builds", [
        (ScalarKernel("sq_crack", OMEGA), "square", 0),
        (ScalarKernel("tri_dirichlet", OMEGA), "triangular", 0),
        (ScalarKernel("hex_crack", OMEGA), "honeycomb", 0),
        (MatrixKernelSpec("mixed_array", OMEGA, sep=3, psi=0.8 + 0.3j), "square", 1),
    ], ids=["sq_crack", "tri_dirichlet", "hex_crack", "mixed_array"])
    def test_only_the_sparse_lu_builds_a_csr_matrix(self, request, monkeypatch, kernel,
                                                   lattice, builds):
        """The stencil table is the only stored form of the equations:
        assembling and solving a window builds a CSR matrix only to hand it
        to the sparse LU."""
        class CountingSparse:
            builds = 0

            def csr_matrix(self, *args, **kwargs):
                self.builds += 1
                return sp.csr_matrix(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(sp, name)

        counting = CountingSparse()
        monkeypatch.setattr(oracle, "sp", counting)
        solve_direct(assemble(problem_for(kernel, request.getfixturevalue(f"inc_{lattice}")), 20))
        assert counting.builds == builds

    @staticmethod
    def _returns(monkeypatch, field):
        """Make the solve return field(system), with its own backward errors."""
        def refined(system, solve):
            w = field(system)
            return (w, *oracle._backward_errors(system, w))
        monkeypatch.setattr(oracle, "_refined_solve", refined)

    def test_residual_check_guards_the_fast_path(self, monkeypatch, crack_spec, inc_honeycomb):
        self._returns(monkeypatch,
                      lambda system: oracle._capacitance(system)[1](system.rhs) * (1 + 1e-6))
        for spec in (crack_spec, problem_for(ScalarKernel("hex_crack", OMEGA), inc_honeycomb)):
            with pytest.raises(SolveFailure):
                solve_direct(assemble(spec, 20))

    def test_one_solve_recovers_the_field_near_the_defect(self, damped_hex):
        """With the exact right-hand side no equation needs refinement, and
        the field near the crack matches the sparse LU to 1e-12."""
        system, reference = damped_hex
        near = system.index_u[40:81, 40:81].ravel()  # |x|, |y| <= 20
        fast = oracle._capacitance(system)[1](system.rhs)
        _, errors = oracle._backward_errors(system, fast)
        assert np.max(errors) <= oracle._REFINE_TOL
        assert np.linalg.norm(fast[near] - reference[near]) <= 1e-12 * np.linalg.norm(reference[near])

    def test_refinement_recovers_equations_far_below_the_largest_source(self, far_crack):
        """The crack row's sources reach 4e7, far above the field near the
        origin: the first solve misses the backward error check there,
        refinement meets it, and the field matches the sparse LU."""
        system, reference = far_crack
        solve = oracle._capacitance(system)[1]
        _, first = oracle._backward_errors(system, solve(system.rhs))
        assert np.max(first) > oracle._SOLVE_TOL
        w, _, errors = oracle._refined_solve(system, solve)
        assert np.max(errors) <= oracle._REFINE_TOL
        near = system.index_u[20:41, 20:41].ravel()  # |x|, |y| <= 10
        assert np.linalg.norm(w[near] - reference[near]) <= 1e-12 * np.linalg.norm(reference[near])

    def test_backward_error_check_guards_the_field_near_the_defect(self, monkeypatch, far_crack):
        # off by 1e-6 on the crack face at its far end, where the field is
        # 45: invisible to the relative residual, which the sources near the
        # tip dominate (norm of b about 8e7)
        system, reference = far_crack
        bumped = reference.copy()
        bumped[system.site_id(-29, 25)] += 1e-6
        self._returns(monkeypatch, lambda system: bumped)
        with pytest.raises(SolveFailure, match="backward error"):
            solve_direct(system)
