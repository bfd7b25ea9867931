import math

import numpy as np
import pytest

from latticewh import kernels
from latticewh.branches import square_branches, tri_branch
from latticewh.errors import InvalidSpec, UnsupportedFamily
from latticewh.branches import Lattice
from latticewh.kernels import (
    FAMILIES,
    MATRIX_FAMILIES,
    MatrixKernelSpec,
    ScalarKernel,
    det_closed_form,
    diag_limit_defect,
    dk_form,
    eval_matrix_kernel,
    eval_scalar_kernel,
    scalar_forcing,
    scalar_kernel_forms,
    vector_forcing,
)
from latticewh.oracle import problem_for
from latticewh.series import CircleGrid

from conftest import unit_samples

OMEGA = 1 + 0.1j
SQRT2, SQRT3, SQRT7 = math.sqrt(2), math.sqrt(3), math.sqrt(7)


class TestScalarPointValues:
    # closed forms at omega = 0, evaluable off the cuts
    def test_sq_crack(self):
        assert abs(eval_scalar_kernel(ScalarKernel("sq_crack", 0j), -1.0) - 1 / SQRT2) < 1e-12

    def test_sq_constraint(self):
        assert abs(eval_scalar_kernel(ScalarKernel("sq_constraint", 0j), 1j) - 2 / SQRT3) < 1e-12

    def test_tri_dirichlet(self):
        assert abs(eval_scalar_kernel(ScalarKernel("tri_dirichlet", 0j), 1j) - 3 / SQRT7) < 1e-12

    def test_hex_crack(self):
        assert abs(eval_scalar_kernel(ScalarKernel("hex_crack", 0j), 1j) - 1 / SQRT7) < 1e-12


class TestDualForms:
    @pytest.mark.parametrize("family", ["sq_crack", "sq_constraint",
                                        "tri_dirichlet", "hex_crack"])
    def test_agreement(self, family):
        rng = np.random.default_rng(11)
        zs = unit_samples(1000, rng)
        a, b = scalar_kernel_forms(ScalarKernel(family, OMEGA), zs)
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12

    def test_tri_removable_point(self):
        # the slant kernels have removable limits at z = -1 (a grid node)
        kern = ScalarKernel("tri_dirichlet", OMEGA)
        val = eval_scalar_kernel(kern, complex(np.exp(1j * np.pi)))
        assert abs(val - 1.0) < 1e-12

    def test_n_function_dual_form(self):
        rng = np.random.default_rng(5)
        for z in unit_samples(64, rng):
            t = tri_branch(z, OMEGA)
            direct = 4 - z - 1 / z - (1 + 1 / z) * t - 1.5 * OMEGA**2
            via_root = (1 + z) / t - 2
            assert abs(direct - via_root) < 1e-11


class TestMatrixKernels:
    def test_opposing_cracks_point(self):
        spec = MatrixKernelSpec("opposing_cracks", 0j, sep=1, offsets=(0,))
        k = eval_matrix_kernel(spec, 1j)
        lam = 2 - SQRT3
        assert abs(k[0, 0] - SQRT3) < 1e-12
        assert abs(k[0, 1] - lam) < 1e-12
        assert abs(k[1, 0] + lam) < 1e-12
        assert abs(k[1, 1] - (1 - lam) ** 2) < 1e-12
        assert abs(np.linalg.det(k) - 1.0) < 1e-12

    def test_array_cracks_matches_printed_two_by_two(self):
        spec = MatrixKernelSpec("array_cracks", OMEGA, count=2, sep=3, offsets=(1, 4))
        rng = np.random.default_rng(2)
        for z in unit_samples(16, rng):
            bv = square_branches(z, OMEGA)
            scalar = bv.h / bv.r
            lam = bv.lam
            expect = scalar * np.array([
                [1.0, lam**3 * z ** (4 - 1)],
                [lam**3 * z ** (1 - 4), 1.0],
            ])
            assert np.max(np.abs(eval_matrix_kernel(spec, z) - expect)) < 1e-13

    def test_array_constraints_matches_printed_three_by_three(self):
        offs = (1, 0, 4)
        spec = MatrixKernelSpec("array_constraints", OMEGA, count=3, sep=2, offsets=offs)
        rng = np.random.default_rng(3)
        m0, m1, m2 = offs
        for z in unit_samples(16, rng):
            bv = square_branches(z, OMEGA)
            scalar = (4 - z - 1 / z - OMEGA**2) / (bv.r * bv.h)
            lam = bv.lam
            n = 2
            expect = scalar * np.array([
                [1, lam**n * z ** (m2 - m1), lam ** (2 * n) * z ** (m2 - m0)],
                [lam**n * z ** (m1 - m2), 1, lam**n * z ** (m1 - m0)],
                [lam ** (2 * n) * z ** (m0 - m2), lam**n * z ** (m0 - m1), 1],
            ])
            assert np.max(np.abs(eval_matrix_kernel(spec, z) - expect)) < 1e-13

    def test_diagonal_equals_scalar_kernel(self):
        spec = MatrixKernelSpec("array_cracks", OMEGA, count=3, sep=2, offsets=(0, 1, 2))
        kern = ScalarKernel("sq_crack", OMEGA)
        z = complex(np.exp(0.8j))
        k = eval_matrix_kernel(spec, z)
        assert abs(k[0, 0] - eval_scalar_kernel(kern, z)) < 1e-14

    def test_tri_crack_printed_inverse(self):
        spec = MatrixKernelSpec("tri_crack_2x2", OMEGA)
        rng = np.random.default_rng(4)
        for z in unit_samples(32, rng):
            t = tri_branch(z, OMEGA)
            nz = 4 - z - 1 / z - (1 + 1 / z) * t - 1.5 * OMEGA**2
            k_inv = np.array([[nz + 2, -(1 + z)], [-(1 + 1 / z), nz + 2]]) / nz
            k = eval_matrix_kernel(spec, z)
            assert np.max(np.abs(k @ k_inv - np.eye(2))) < 1e-11

    def test_cross_products_cancel_offsets(self):
        spec = MatrixKernelSpec("array_constraints", OMEGA, count=3, sep=2,
                                offsets=(0, 3, 7))
        z = complex(0.97 * np.exp(1.3j))
        k = eval_matrix_kernel(spec, z)
        lam = square_branches(z, OMEGA).lam
        for i in range(3):
            for j in range(3):
                lhs = k[i, j] * k[j, i]
                rhs = k[i, i] * k[j, j] * lam ** (2 * 2 * abs(i - j))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_singular_n_guard(self):
        spec = MatrixKernelSpec("tri_crack_2x2", 0j)
        # N(z) = (1+z)/t - 2 vanishes where (1+z) = 2t; hunt a root by
        # bisection on the circle is overkill: check the guard triggers on
        # a synthetic near-zero by direct construction instead
        with pytest.raises(UnsupportedFamily):
            det_closed_form(spec, 0.5 + 0.5j)


class TestDeterminants:
    @pytest.mark.parametrize("family,kwargs", [
        ("array_cracks", {"count": 2, "offsets": (0, 2)}),
        ("array_cracks", {"count": 3, "offsets": (0, 2, 5)}),
        ("array_constraints", {"count": 2, "offsets": (3, 1)}),
        ("array_constraints", {"count": 5, "offsets": (0, 2, 5, 1, 8)}),
        ("pair_crack_constraint", {}),
        ("mixed_array", {"psi": 0.8 + 0.35j}),
        ("opposing_cracks", {"offsets": (3,)}),
        ("opposing_constraints", {"offsets": (3,)}),
        ("opposing_mixed", {"offsets": (3,)}),
    ])
    @pytest.mark.parametrize("sep", [1, 2, 4])
    def test_closed_form(self, family, kwargs, sep):
        spec = MatrixKernelSpec(family, OMEGA, sep=sep, **kwargs)
        rng = np.random.default_rng(hash((family, sep)) % 2**32)
        for z in unit_samples(64, rng):
            num = complex(np.linalg.det(eval_matrix_kernel(spec, z)))
            ref = det_closed_form(spec, z)
            tol = 1e-12 if family in ("opposing_cracks", "opposing_constraints") else 1e-10
            assert abs(num - ref) <= tol * max(1.0, abs(ref))

    def test_pair_point_value(self):
        lam = 2 - SQRT3
        spec = MatrixKernelSpec("pair_crack_constraint", 0j, sep=1)
        num = complex(np.linalg.det(eval_matrix_kernel(spec, 1j)))
        expect = (1 + lam**2) * (1 + lam**3) / (1 + lam) ** 2
        assert abs(num - expect) < 1e-12
        assert abs(det_closed_form(spec, 1j) - expect) < 1e-12


class TestDanieleKhrapkov:
    @pytest.mark.parametrize("family", ["tri_crack_2x2", "hex_constraint_2x2"])
    def test_reconstruction(self, family):
        spec = MatrixKernelSpec(family, OMEGA)
        form = dk_form(spec)
        rng = np.random.default_rng(8)
        for z in unit_samples(64, rng):
            k = eval_matrix_kernel(spec, z)
            assert np.max(np.abs(k - form.reconstruct(z))) < 1e-12 * max(1, np.max(np.abs(k)))
            r = form.R(z)
            assert np.max(np.abs(r @ r - z * np.eye(2))) < 1e-12
            assert abs(np.linalg.det(k) - form.det(z)) < 1e-11 * abs(form.det(z))

    @pytest.mark.parametrize("family", ["tri_crack_2x2", "hex_constraint_2x2"])
    def test_one_branch_evaluation_per_call(self, family, monkeypatch):
        """det and reconstruct read a1 and a2 off one slant root at the nodes."""
        zs = CircleGrid(1.0, 4096).nodes
        sizes = []
        root = kernels._slant_root
        monkeypatch.setattr(kernels, "_slant_root",
                            lambda z, s: sizes.append(np.size(z)) or root(z, s))
        form = dk_form(MatrixKernelSpec(family, OMEGA))
        for fn in (form.det, form.reconstruct):
            sizes.clear()
            fn(zs)
            assert sizes == [zs.size]

    def test_r_matrix_point(self):
        z = 0.7 + 0.2j
        r = dk_form(MatrixKernelSpec("tri_crack_2x2", OMEGA)).R(z)
        assert np.allclose(r @ r, z * np.eye(2))

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            dk_form(MatrixKernelSpec("pair_crack_constraint", OMEGA, sep=2))


class TestLimits:
    def test_pair_limit_entries(self):
        spec = MatrixKernelSpec("pair_crack_constraint", OMEGA, sep=5)
        z = complex(np.exp(0.6j))
        lam = square_branches(z, OMEGA).lam
        lim = diag_limit_defect(spec)(z)
        assert abs(lim[0, 0] - (1 + lam**2) / (1 - lam**2)) < 1e-14
        assert abs(lim[1, 1] - (1 - lam) / (1 + lam)) < 1e-14
        assert lim[0, 1] == 0 and lim[1, 0] == 0

    def test_array_limit(self):
        spec = MatrixKernelSpec("array_cracks", OMEGA, count=3, sep=4, offsets=(0, 1, 2))
        z = complex(np.exp(0.6j))
        bv = square_branches(z, OMEGA)
        lim = diag_limit_defect(spec)(z)
        assert np.allclose(lim, (bv.h / bv.r) * np.eye(3))

    def test_opposing_cracks_limit(self):
        spec = MatrixKernelSpec("opposing_cracks", OMEGA, sep=4, offsets=(0,))
        z = complex(np.exp(0.6j))
        lam = square_branches(z, OMEGA).lam
        lim = diag_limit_defect(spec)(z)
        assert abs(lim[0, 0] - (1 + lam) / (1 - lam)) < 1e-14
        assert abs(lim[1, 1] - (1 - lam) / (1 + lam)) < 1e-14

    @pytest.mark.parametrize("family,kwargs", [
        ("pair_crack_constraint", {}),
        ("opposing_cracks", {"offsets": (0,)}),
        ("opposing_constraints", {"offsets": (0,)}),
        ("opposing_mixed", {"offsets": (0,)}),
        ("array_cracks", {"count": 2, "offsets": (0, 2)}),
        ("array_constraints", {"count": 2, "offsets": (0, 2)}),
    ])
    def test_rate(self, family, kwargs):
        z = complex(np.exp(0.9j))
        lam = abs(square_branches(z, OMEGA).lam)
        errs = {}
        for n in (10, 15):
            spec = MatrixKernelSpec(family, OMEGA, sep=n, **kwargs)
            lim = diag_limit_defect(spec)(z)
            errs[n] = np.max(np.abs(eval_matrix_kernel(spec, z) - lim))
        ratio = errs[10] / errs[15]
        assert lam**-5 / 3 <= ratio <= lam**-5 * 3

    def test_mixed_array_limit_is_single_defect_kernel(self):
        # the mixed array tends to the full 2x2 kernel of one combined
        # crack+constraint defect, not to a diagonal matrix
        psi = 0.9 + 0.3j
        z = complex(np.exp(0.9j))
        lam_mod = abs(square_branches(z, OMEGA).lam)
        errs = {}
        for n in (20, 30):
            spec = MatrixKernelSpec("mixed_array", OMEGA, sep=n, psi=psi)
            lim = diag_limit_defect(spec)(z)
            errs[n] = np.max(np.abs(eval_matrix_kernel(spec, z) - lim))
        ratio = errs[30] / errs[20]
        assert lam_mod**10 / 3 <= ratio <= lam_mod**10 * 3
        lam = square_branches(z, OMEGA).lam
        lim = diag_limit_defect(MatrixKernelSpec("mixed_array", OMEGA, sep=30, psi=psi))(z)
        assert abs(lim[0, 1] + lam**2 / (1 + lam)) < 1e-14  # off-diagonal survives


class TestForcing:
    def test_sq_crack_row_shift_structure(self, inc_square):
        forcing = scalar_forcing("sq_crack", inc_square)
        assert forcing.constant_ids == ()
        kern = ScalarKernel("sq_crack", OMEGA)
        q = np.exp(1j * inc_square.kappa_x)
        shift = np.exp(1j * inc_square.kappa_y)
        for z in np.exp(1j * np.array([0.5, 2.0, 4.4])):
            u0m = inc_square.amplitude * q * z / (1 - q * z)
            expect = 0.5 * (1 - eval_scalar_kernel(kern, z)) * (1 - shift) * u0m
            assert abs(forcing.rows(z)[0] - expect) < 1e-13

    def test_sq_constraint_term_is_half_one_minus_k_times_z(self, inc_square):
        forcing = scalar_forcing("sq_constraint", inc_square)
        assert forcing.constant_ids == (("u", 0, 0),)
        kern = ScalarKernel("sq_constraint", OMEGA)
        for z in np.exp(1j * np.array([0.5, 2.0, 4.4])):
            expect = 0.5 * (1 - eval_scalar_kernel(kern, z)) * z
            assert abs(forcing.rows(z)[1] - expect) < 1e-13

    def test_tri_dirichlet_unknowns(self, inc_triangular):
        forcing = scalar_forcing("tri_dirichlet", inc_triangular)
        assert forcing.constant_ids == (("u", -1, 1), ("u", 0, 0))

    def test_hex_crack_no_unknowns_and_finite(self, inc_honeycomb):
        forcing = scalar_forcing("hex_crack", inc_honeycomb)
        assert forcing.constant_ids == ()
        zs = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        rows = forcing.rows(zs)
        assert rows.shape == (1, 64) and np.all(np.isfinite(rows))

    def test_hex_crack_matches_partial_sums(self, inc_honeycomb):
        # c = (u0_in_minus - v(-1)_in_minus)/(Ns + 1): check the incident
        # combination against brute-force 1e4-term sums
        forcing = scalar_forcing("hex_crack", inc_honeycomb)
        kern = ScalarKernel("hex_crack", OMEGA)
        for z in np.exp(1j * np.array([0.7, 2.9])):
            u0m = sum(inc_honeycomb.field(x, 0, "u") * z ** (-x) for x in range(-10_000, 0))
            vm1 = sum(inc_honeycomb.field(x, -1, "v") * z ** (-x) for x in range(-10_000, 0))
            expect = 0.5 * (1 - eval_scalar_kernel(kern, z)) * (u0m - vm1)
            assert abs(forcing.rows(z)[0] - expect) < 1e-10

    def test_array_cracks_fully_known(self, inc_square):
        spec = MatrixKernelSpec("array_cracks", OMEGA, count=2, sep=3, offsets=(0, 2))
        forcing = vector_forcing(spec, inc_square)
        assert forcing.constant_ids == ()
        rows = forcing.rows(complex(np.exp(0.3j)))
        assert rows.shape == (1, 2) and np.all(np.isfinite(rows))

    def test_array_constraints_unknown_list(self, inc_square):
        spec = MatrixKernelSpec("array_constraints", OMEGA, count=2, sep=3,
                                offsets=(0, 2))
        forcing = vector_forcing(spec, inc_square)
        assert set(forcing.constant_ids) == {
            ("u", -1, 0), ("u", 0, 0), ("u", 1, 3), ("u", 2, 3)}

    def test_opposing_cracks_base_structure(self, inc_square):
        spec = MatrixKernelSpec("opposing_cracks", OMEGA, sep=3, offsets=(3,))
        forcing = vector_forcing(spec, inc_square)
        assert forcing.constant_ids == ()
        z = complex(np.exp(0.7j))
        k = eval_matrix_kernel(spec, z)
        sel = np.diag([-1.0, 1.0])
        q = np.exp(1j * inc_square.kappa_x)
        shift = np.exp(1j * inc_square.kappa_y)
        amp_n = inc_square.amplitude * (1 - shift) * np.exp(
            -1j * (inc_square.kappa_y * 3 + inc_square.kappa_x * 3))
        vn_plus = amp_n * q * z / (q * z - 1)
        v0_minus = inc_square.amplitude * (1 - shift) * q * z / (1 - q * z)
        expect = (np.eye(2) - k) @ (sel @ np.array([vn_plus, v0_minus]))
        assert np.max(np.abs(forcing.rows(z)[0] - expect)) < 1e-12

    def test_lattice_mismatch_rejected(self, inc_square):
        with pytest.raises(InvalidSpec, match="incidence is for square"):
            scalar_forcing("hex_crack", inc_square)


@pytest.mark.parametrize("family,kwargs,message", [
    ("array_cracks", {"count": 1, "offsets": (0,)}, "count"),
    ("array_cracks", {"count": 2, "offsets": (0,)}, "one tip offset"),
    ("opposing_cracks", {}, "1 tip offset"),
    ("pair_crack_constraint", {"sep": 0}, "separation"),
    *(("mixed_array", {"psi": psi}, "Floquet") for psi in (None, 0, complex("nan"), complex("inf"))),
])
def test_matrix_spec_refusals(family, kwargs, message):
    """Each refusal is an InvalidSpec; all were bare ValueErrors, and a NaN or
    infinite psi was accepted, making mixed_array's K NaN at every z."""
    with pytest.raises(InvalidSpec, match=message):
        MatrixKernelSpec(family, OMEGA, **kwargs)


def test_every_matrix_family_evaluates():
    z = complex(np.exp(1.234j))
    for fam in MATRIX_FAMILIES:
        kwargs = {}
        if fam in ("array_cracks", "array_constraints"):
            kwargs = {"count": 2, "offsets": (0, 1)}
        elif fam in ("opposing_cracks", "opposing_constraints", "opposing_mixed"):
            kwargs = {"offsets": (2,)}
        elif fam == "mixed_array":
            kwargs = {"psi": 0.8 + 0.4j}
        spec = MatrixKernelSpec(fam, OMEGA, sep=2, **kwargs)
        mat = eval_matrix_kernel(spec, z)
        assert mat.shape == (spec.dim, spec.dim)
        assert np.all(np.isfinite(mat))


def _example_descriptor(name):
    rec = FAMILIES[name]
    if rec.dim == 1:
        return ScalarKernel(name, OMEGA)
    kwargs = {"sep": 2}
    if rec.count:
        kwargs.update(count=3, offsets=(0, 2, 5))
    elif rec.offsets:
        kwargs.update(offsets=(3,))
    if rec.psi:
        kwargs.update(psi=0.8 + 0.4j)
    return MatrixKernelSpec(name, OMEGA, **kwargs)


def _assert_matches_points(fn, zs, trailing):
    """fn on the array zs has shape zs.shape + trailing and equals the stacked point calls."""
    arr = np.asarray(fn(zs))
    assert arr.shape == zs.shape + trailing
    points = np.array([fn(z) for z in zs.ravel()]).reshape(arr.shape)
    assert np.max(np.abs(arr - points)) <= 1e-13 * np.max(np.abs(points))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_array_and_point_evaluation_agree(name, request):
    rec = FAMILIES[name]
    kern = _example_descriptor(name)
    inc = request.getfixturevalue(f"inc_{rec.lattice.value}")
    rng = np.random.default_rng(23)
    zs = rng.uniform(0.97, 1.03, 12) * np.exp(2j * np.pi * rng.random(12))
    if rec.lattice is not Lattice.SQUARE:
        zs[0] = -1.0  # a node of every power-of-two grid; removable for the slant roots
    zs = zs.reshape(3, 4)
    scalar = rec.dim == 1
    d = 1 if scalar else kern.dim
    matrix_shape = () if scalar else (d, d)
    vector_shape = () if scalar else (d,)

    _assert_matches_points(kern, zs, matrix_shape)
    if rec.det is not None:
        _assert_matches_points(lambda z: det_closed_form(kern, z), zs, ())
    if rec.dk is not None:
        _assert_matches_points(dk_form(kern).reconstruct, zs, matrix_shape)
    if rec.limit is not None:
        _assert_matches_points(diag_limit_defect(kern), zs, matrix_shape)
    forcing = scalar_forcing(name, inc) if scalar else vector_forcing(kern, inc)
    # the stacked rows: c_0 first, then each unknown's unit term, in constant_ids order
    assert forcing.rows(zs).shape == (1 + len(forcing.constant_ids),) + zs.shape + vector_shape
    for i in range(1 + len(forcing.constant_ids)):  # each row within 1e-13 of its own scale
        _assert_matches_points(lambda z, i=i: forcing.rows(z)[i], zs, vector_shape)
    assert len(rec.components(kern)) == d
    assert problem_for(kern, inc).lattice is rec.lattice
