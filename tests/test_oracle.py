import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewh import oracle
from latticewh.branches import Frequency, dispersion_solve, square_branches
from latticewh.errors import InvalidSpec, SolveFailure, WindowMismatch, WindowTooSmall
from latticewh.fields import FieldGrid, compare_fields
from latticewh.kernels import FAMILIES, MatrixKernelSpec, ScalarKernel, family_record
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
        # slant-lattice incident spans e^(k2*(cos+sin)*L) across the window;
        # keep that within double precision by a smaller window
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
    inc = request.getfixturevalue(f"inc_{_lattice(layout)}")
    if isinstance(layout, str):
        return LatticeProblemSpec(*DEFECT_SETS[layout], inc)
    return problem_for(layout, inc)


@pytest.fixture(scope="module")
def damped_hex():
    """A strongly damped honeycomb window: the incident spans 15 orders of
    magnitude across it, and the first free solve misses the field near the
    crack by about 1e-8."""
    w = 1.22 + 0.23j
    inc = dispersion_solve("honeycomb", Frequency(w), 0.72)
    system = assemble(problem_for(ScalarKernel("hex_crack", w), inc), 60)
    return system, spla.splu(system.matrix).solve(system.rhs)


class TestCapacitanceSolve:
    @pytest.mark.parametrize("half_width", [20, 40, 60])
    @pytest.mark.parametrize("layout", CAPACITANCE_LAYOUTS, ids=_layout_id)
    def test_matches_sparse_lu(self, request, layout, half_width):
        system = assemble(_spec(request, layout), half_width)
        reference = spla.splu(system.matrix).solve(system.rhs)
        fast = oracle._capacitance_solve(system)
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["square", "triangular", "honeycomb"]),
           st.lists(st.tuples(st.sampled_from(["crack", "constraint"]), st.integers(-30, 30),
                              st.booleans(), st.integers(-9, 9)),
                    min_size=1, max_size=3, unique_by=lambda d: d[:2]),
           st.integers(20, 30), st.floats(0.5, 1.6), st.floats(0.05, 0.25), st.floats(-1, 1))
    def test_random_layouts_match_sparse_lu(self, lattice, defects, half_width, re_w, im_w,
                                            theta):
        """Cracks and constraints at random rows and tips, pointing right only
        on the square lattice, rows up to and past the window edge."""
        inc = dispersion_solve(lattice, Frequency(complex(re_w, im_w)), theta)
        spec = LatticeProblemSpec(lattice, tuple(
            Defect(kind, row, "right" if right and lattice == "square" else "left", tip)
            for kind, row, right, tip in defects), inc)
        system = assemble(spec, half_width)
        reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        fast = oracle._capacitance_solve(system)
        assert fast is not None
        assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("kernel,lattice,pins,bonds", [
        (ScalarKernel("hex_crack", OMEGA), "honeycomb", 2 * (42**2 - 41**2), 20),
        (ScalarKernel("tri_dirichlet", OMEGA), "triangular", 42**2 - 41**2 + 20, 0),
        (MatrixKernelSpec("tri_crack_2x2", OMEGA), "triangular", 42**2 - 41**2, 2 * 20 + 1),
        (ScalarKernel("sq_crack", OMEGA), "square", 0, 20),
        (ScalarKernel("sq_constraint", OMEGA), "square", 20, 0),
    ], ids=["hex_crack", "tri_dirichlet", "tri_crack_2x2", "sq_crack", "sq_constraint"])
    def test_capacitance_matrix_is_symmetric_with_a_row_per_pin_and_bond(
            self, request, kernel, lattice, pins, bonds):
        """At L = 20 the torus of the slant lattices has period 42, so its
        pinned ring holds 42^2 - 41^2 sites per sublattice."""
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
            system.matrix[row, col] += delta
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

    @staticmethod
    def _returns(monkeypatch, field):
        """Make the fast path return field(system), with its own backward errors."""
        def refined(system, abs_matrix):
            w = field(system)
            return (w, *oracle._backward_errors(system, w, abs_matrix))
        monkeypatch.setattr(oracle, "_refined_solve", refined)

    def test_residual_check_guards_the_fast_path(self, monkeypatch, crack_spec, inc_honeycomb):
        refined = oracle._refined_solve
        self._returns(monkeypatch,
                      lambda system: refined(system, abs(system.matrix))[0] * (1 + 1e-6))
        for spec in (crack_spec, problem_for(ScalarKernel("hex_crack", OMEGA), inc_honeycomb)):
            with pytest.raises(SolveFailure):
                solve_direct(assemble(spec, 20))

    def test_refinement_recovers_the_field_near_the_defect(self, damped_hex):
        system, reference = damped_hex
        near = system.index_u[40:81, 40:81].ravel()  # |x|, |y| <= 20
        fast = oracle._capacitance_solve(system)
        assert np.linalg.norm(fast[near] - reference[near]) <= 1e-12 * np.linalg.norm(reference[near])

    def test_backward_error_check_guards_the_field_near_the_defect(self, monkeypatch, damped_hex):
        # off by 1e-6 next to the crack: invisible to the relative residual,
        # which the far corners of the window dominate
        system, reference = damped_hex
        bumped = reference.copy()
        bumped[system.site_id(0, 1)] += 1e-6
        self._returns(monkeypatch, lambda system: bumped)
        with pytest.raises(SolveFailure, match="backward error"):
            solve_direct(system)

    def test_unconverged_refinement_falls_back_to_sparse_lu(self, monkeypatch, splu_calls,
                                                           damped_hex):
        system, reference = damped_hex
        monkeypatch.setattr(oracle, "_REFINE_STEPS", 0)
        fld = solve_direct(system)
        assert len(splu_calls) == 1
        free = system.index_u >= 0
        assert np.array_equal(fld.u[free], reference[system.index_u[free]])
