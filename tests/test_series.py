import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewh.branches import Frequency, dispersion_solve, square_branches
from latticewh.errors import (
    DivergentSeries,
    LengthMismatch,
    NonzeroWinding,
    PhaseStepTooLarge,
    ZeroOnContour,
)
from latticewh.kernels import ScalarKernel, eval_scalar_kernel
from latticewh.series import (
    CircleGrid,
    LaurentSeries,
    _phase_steps,
    additive_split,
    coefficients,
    half_transform_exp,
    mult_factorize,
    plus_values,
    row_coefficients,
    row_values,
    sample,
    series_to_csv,
    winding_number,
)

GRID = CircleGrid(1.0, 256)


class TestGridTables:
    def test_tables_read_only_and_fresh(self):
        grid = CircleGrid(1.03, 64)
        n = np.arange(-32, 32)
        fresh = {
            "nodes": 1.03 * np.exp(2j * np.pi * np.arange(64) / 64),
            "orders": n,
            "radius_powers": 1.03 ** n.astype(float),
            "inverse_radius_powers": 1.03 ** (-n.astype(float)),
        }
        for name, expected in fresh.items():
            table = getattr(grid, name)
            assert table is getattr(grid, name)  # computed once per grid
            assert np.array_equal(table, expected)
            with pytest.raises(ValueError):
                table[0] = 0

    def test_equal_grids_compare_and_hash_equal(self):
        filled, empty = CircleGrid(1.03, 64), CircleGrid(1.03, 64)
        filled.nodes, filled.inverse_radius_powers  # only one grid holds its tables
        assert filled == empty and hash(filled) == hash(empty)
        assert {filled: 1}[empty] == 1
        assert filled != CircleGrid(1.0, 64)


class TestSampling:
    def test_identity_function(self):
        grid = CircleGrid(1.0, 4)
        vals = sample(lambda z: z, grid)
        assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-15)

    def test_constant(self):
        assert np.allclose(sample(lambda z: 1.0 + 0 * z, GRID), 1.0)

    def test_branch_sampling_avoids_cuts(self):
        # damping detaches the cuts from the unit circle
        grid = CircleGrid(1.0, 4096)
        vals = sample(lambda z: square_branches(z, 1 + 0.1j).lam, grid)
        assert np.all(np.isfinite(vals))

    def test_scalar_valued_callable_rejected(self):
        with pytest.raises(LengthMismatch, match="expected 8 values"):
            sample(lambda z: 5.0, CircleGrid(1.0, 8))


class TestCoefficients:
    def test_monomial(self):
        ser = coefficients(sample(lambda z: z, GRID), GRID)
        assert abs(ser.coefficient(1) - 1) < 1e-14
        others = [abs(ser.coefficient(n)) for n in ser.orders if n != 1]
        assert max(others) < 1e-14

    def test_mixed_orders(self):
        ser = coefficients(sample(lambda z: 2 + 3 * z**-2.0, GRID), GRID)
        assert abs(ser.coefficient(0) - 2) < 1e-13
        assert abs(ser.coefficient(-2) - 3) < 1e-13

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            coefficients(np.ones(16), GRID)

    def test_propagation_root_tail_decays(self):
        grid = CircleGrid(1.0, 4096)
        ser = coefficients(sample(lambda z: square_branches(z, 1 + 0.1j).lam, grid), grid)
        edge = max(abs(ser.coefficient(-2048)), abs(ser.coefficient(2047)))
        assert edge < 1e-12

    def test_coefficient_value_roundtrip(self):
        grid = CircleGrid(1.0, 512)
        kern = ScalarKernel("sq_crack", 1 + 0.1j)
        vals = sample(lambda z: eval_scalar_kernel(kern, z), grid)
        ser = coefficients(vals, grid)
        assert np.max(np.abs(ser.values_on(grid) - vals)) < 1e-13
        again = coefficients(ser.values_on(grid), grid)
        assert np.max(np.abs(again.coeff - ser.coeff)) < 1e-13

    def test_roundtrip_off_radius(self):
        grid = CircleGrid(0.9, 256)
        f = lambda z: 1.0 / (1.0 - 0.5 * z) + z**-3.0
        ser = coefficients(sample(f, grid), grid)
        z = 0.9 * np.exp(0.3j)
        assert abs(ser(z) - f(z)) < 1e-12


class TestRows:
    """The batched transforms equal the one-row ones bit for bit."""

    GRID = CircleGrid(0.97, 64)

    def _rows(self):
        rng = np.random.default_rng(5)
        return rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))

    def test_coefficients_rows(self):
        rows = self._rows()
        batched = row_coefficients(rows, self.GRID)
        orders = np.array([-32, -5, 0, 7, 31, 3])
        picked = row_coefficients(rows, self.GRID, orders)
        for r in range(3):
            single = coefficients(rows[r], self.GRID)
            assert np.array_equal(batched[r], single.coeff)
            assert np.array_equal(picked[r], single.coeff[orders + 32])

    def test_values_and_split_rows(self):
        rows = self._rows()
        values = row_values(rows, self.GRID)
        plus = plus_values(values, self.GRID)
        for r in range(3):
            series = LaurentSeries(rows[r], 0.97)
            assert np.array_equal(values[r], series.values_on(self.GRID))
            # to rounding: plus_values leaves the radius scales, which cancel, unapplied
            expected = additive_split(series).plus.values_on(self.GRID)
            assert np.max(np.abs(plus[r] - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("orders", [[-33, 0], [0, 32]])
    def test_orders_outside_grid_rejected(self, orders):
        with pytest.raises(LengthMismatch):
            row_coefficients(self._rows(), self.GRID, orders)


class TestSplit:
    def test_convention(self):
        coeff = np.zeros(8, dtype=complex)
        ser = LaurentSeries(coeff, 1.0)
        full = ser.coeff.copy()
        full[4 - 2] = 1.0   # order -2
        full[4 + 0] = 2.0   # order 0
        full[4 + 3] = 1j    # order 3
        ser = LaurentSeries(full, 1.0)
        pair = additive_split(ser)
        assert pair.plus.coefficient(-2) == 1.0
        assert pair.plus.coefficient(0) == 2.0
        assert pair.plus.coefficient(3) == 0.0
        assert pair.minus.coefficient(3) == 1j
        assert pair.minus.coefficient(0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=8, max_size=8))
    def test_projection_pair(self, parts):
        coeff = np.array([complex(a, b) for a, b in parts])
        ser = LaurentSeries(coeff, 1.0)
        pair = additive_split(ser)
        assert np.array_equal(pair.plus.coeff + pair.minus.coeff, ser.coeff)
        again = additive_split(pair.plus)
        assert np.array_equal(again.plus.coeff, pair.plus.coeff)
        assert not np.any(again.minus.coeff)
        again_m = additive_split(pair.minus)
        assert np.array_equal(again_m.minus.coeff, pair.minus.coeff)


def _rational(zeros_inside, zeros_outside):
    def f(z):
        out = np.ones_like(np.asarray(z, dtype=complex))
        for a in zeros_inside:
            out = out * (z - a)
        for b in zeros_outside:
            out = out * (1 - z / b)
        return out

    return f


class TestWinding:
    def test_monomial(self):
        assert winding_number(sample(lambda z: z, GRID)) == 1

    def test_constant(self):
        assert winding_number(sample(lambda z: 5.0 + 0 * z, GRID)) == 0

    def test_zero_on_contour(self):
        with pytest.raises(ZeroOnContour):
            winding_number(sample(lambda z: z - 1.0, GRID))

    def test_coarse_grid_rejected(self):
        # z^20 on 64 nodes steps the phase by ~2 rad per node
        with pytest.raises(PhaseStepTooLarge):
            winding_number(sample(lambda z: z**20.0, CircleGrid(1.0, 64)))

    def test_crack_kernel_has_zero_index(self):
        grid = CircleGrid(1.0, 4096)
        kern = ScalarKernel("sq_crack", 1 + 0.1j)
        assert winding_number(sample(lambda z: eval_scalar_kernel(kern, z), grid)) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=0.6, allow_nan=False), max_size=3),
        st.lists(st.floats(1.6, 4.0), max_size=3),
    )
    def test_additivity_on_rationals(self, inner, outer_mods):
        inner = [a for a in inner if abs(a) < 0.7]
        outer = [m * np.exp(0.7j) for m in outer_mods]
        f = _rational(inner, [])
        g = _rational([], outer)
        grid = CircleGrid(1.0, 256)
        fs, gs = sample(f, grid), sample(g, grid)
        wf = winding_number(fs)
        wg = winding_number(gs)
        assert wf == len(inner)
        assert wg == 0
        assert winding_number(fs * gs) == wf + wg


class TestFactorization:
    def test_minus_type(self):
        plus, minus, rep = mult_factorize(sample(lambda z: 1 - 0.5 * z, GRID), GRID)
        assert abs(minus.coefficient(0) - 1) < 1e-12
        assert abs(minus.coefficient(1) + 0.5) < 1e-10
        assert abs(plus.coefficient(0) - 1) < 1e-10
        assert rep.reconstruction_residual < 1e-12

    def test_plus_type(self):
        plus, minus, rep = mult_factorize(sample(lambda z: 1 - 0.5 / z, GRID), GRID)
        assert abs(plus.coefficient(-1) + 0.5) < 1e-10
        assert abs(minus.coefficient(0) - 1) < 1e-12
        assert rep.reconstruction_residual < 1e-12

    def test_product(self):
        f = lambda z: (1 - 0.5 * z) * (1 - 0.3 / z)
        plus, minus, rep = mult_factorize(sample(f, GRID), GRID)
        assert abs(plus.coefficient(-1) + 0.3) < 1e-10
        assert abs(minus.coefficient(1) + 0.5) < 1e-10
        assert rep.reconstruction_residual < 1e-12

    def test_report_keeps_factor_samples(self):
        grid = CircleGrid(1.02, 256)
        plus, minus, rep = mult_factorize(sample(lambda z: (1 - 0.5 * z) * (1 - 0.3 / z), grid), grid)
        assert np.array_equal(rep.plus_samples, plus.values_on(grid))
        assert np.array_equal(rep.minus_samples, minus.values_on(grid))
        bare = dataclasses.replace(rep, plus_samples=None, minus_samples=None)
        assert bare == rep and repr(bare) == repr(rep)  # diagnostics only
        assert "plus_samples" not in rep.as_dict()

    @pytest.mark.parametrize("family", ["sq_crack", "sq_constraint", "tri_dirichlet", "hex_crack"])
    def test_fft_order_split_bit_identical_to_the_centred_split(self, family):
        """On power-of-two unit-circle grids the factors and every report field
        equal, bit for bit, a factorization through additive_split of
        coefficients() and the batched transforms in centred order, with
        K- = exp(minus part of log K) and K+ = K / K-."""
        kern = ScalarKernel(family, 1 + 0.05j)
        for count in (512, 1024, 2048, 4096, 8192):
            grid = CircleGrid(1.0, count)
            vals = sample(lambda z: eval_scalar_kernel(kern, z), grid)
            plus, minus, rep = mult_factorize(vals, grid)
            steps, _ = _phase_steps(vals, np.abs(vals))
            phase = np.angle(vals[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
            split = additive_split(coefficients(np.log(np.abs(vals)) + 1j * phase, grid))
            k_minus = np.exp(row_values(split.minus.coeff, grid))
            factor_vals = np.stack([vals / k_minus, k_minus])
            coeff = row_coefficients(factor_vals, grid)
            leaks = []
            for row, wrong in zip(coeff, (grid.orders > 0, grid.orders < 0)):
                leaks.append(float(np.max(np.abs(row[wrong]))) / float(np.max(np.abs(row))))
                row[wrong] = 0.0
            samples = row_values(coeff, grid)
            residual = float(np.max(np.abs(samples[0] * samples[1] - vals) / np.abs(vals)))
            assert np.array_equal(plus.coeff, coeff[0]) and np.array_equal(minus.coeff, coeff[1])
            assert np.array_equal(rep.plus_samples, samples[0])
            assert np.array_equal(rep.minus_samples, samples[1])
            assert (rep.leakage_plus, rep.leakage_minus) == tuple(leaks)
            assert rep.reconstruction_residual == residual and rep.winding == 0

    def test_samples_not_one_per_node_raise(self):
        """A 4096-node grid's samples on a 256-node one gave 4096-order factors
        reported as count 256; 2-D samples died in numpy broadcasting."""
        kern = ScalarKernel("sq_crack", 1 + 0.003j)
        grid = CircleGrid(1.0, 256)
        for vals in (sample(kern, CircleGrid(1.0, 4096)), np.stack(2 * [sample(kern, grid)])):
            with pytest.raises(LengthMismatch, match="expected 256 samples"):
                mult_factorize(vals, grid)

    def test_nonzero_winding_rejected(self):
        with pytest.raises(NonzeroWinding) as err:
            mult_factorize(sample(lambda z: z, GRID), GRID)
        assert err.value.index == 1

    def test_normalization_minus_at_zero(self):
        kern = ScalarKernel("sq_constraint", 1 + 0.1j)
        grid = CircleGrid(1.0, 2048)
        _, minus, _ = mult_factorize(sample(lambda z: eval_scalar_kernel(kern, z), grid), grid)
        assert abs(minus.coefficient(0) - 1.0) < 1e-12  # K_minus(0) = 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=0.75, allow_nan=False), max_size=3),
        st.lists(st.complex_numbers(max_magnitude=0.75, allow_nan=False), max_size=3),
    )
    def test_rational_kernels_factor_exactly(self, inner, outer):
        # K(z) = prod(1 - b_j/z) * prod(1 - a_i z) has the closed-form
        # factorization K+ = prod(1 - b_j/z), K- = prod(1 - a_i z)
        inner = [a for a in inner if abs(a) < 0.8]
        outer = [b for b in outer if abs(b) < 0.8]

        def kernel(z):
            out = np.ones_like(np.asarray(z, dtype=complex))
            for a in inner:
                out = out * (1 - a * z)
            for b in outer:
                out = out * (1 - b / z)
            return out

        grid = CircleGrid(1.0, 512)
        plus, minus, rep = mult_factorize(sample(kernel, grid), grid)
        assert rep.reconstruction_residual < 1e-10
        # compare against direct coefficient expansion of the products
        mono_minus = np.array([1.0 + 0j])
        for a in inner:
            mono_minus = np.convolve(mono_minus, np.array([1.0, -a]))
        mono_plus = np.array([1.0 + 0j])
        for b in outer:
            mono_plus = np.convolve(mono_plus, np.array([1.0, -b]))
        for n, coeff in enumerate(mono_minus):
            assert abs(minus.coefficient(n) - coeff) < 1e-9
        for n, coeff in enumerate(mono_plus):
            assert abs(plus.coefficient(-n) - coeff) < 1e-9

    @pytest.mark.parametrize("family", ["sq_crack", "sq_constraint",
                                        "tri_dirichlet", "hex_crack"])
    @pytest.mark.parametrize("omega", [1 + 0.05j, 1 + 0.1j])
    def test_catalog_roundtrip(self, family, omega):
        grid = CircleGrid(1.0, 4096)
        kern = ScalarKernel(family, omega)
        vals = sample(lambda z: eval_scalar_kernel(kern, z), grid)
        plus, minus, rep = mult_factorize(vals, grid)
        assert rep.winding == 0
        assert rep.reconstruction_residual < 1e-8
        assert rep.leakage_plus < 1e-9 and rep.leakage_minus < 1e-9
        # doubling the grid must not degrade the reconstruction
        grid2 = CircleGrid(1.0, 8192)
        vals2 = sample(lambda z: eval_scalar_kernel(kern, z), grid2)
        _, _, rep2 = mult_factorize(vals2, grid2)
        assert rep2.reconstruction_residual <= 3 * rep.reconstruction_residual


class TestHalfTransform:
    def test_minus_geometric(self):
        fn = half_transform_exp(1.0, 0.5, "minus")
        assert abs(fn(1.0) - 1.0) < 1e-15

    def test_plus_geometric(self):
        fn = half_transform_exp(1.0, 2.0, "plus")
        assert abs(fn(1.0) - 2.0) < 1e-15

    def test_divergence_guard(self):
        with pytest.raises(DivergentSeries):
            half_transform_exp(1.0, 2.0, "minus")(1.0)
        with pytest.raises(DivergentSeries):
            half_transform_exp(1.0, 0.5, "plus")(1.0)
        # continuation evaluates anyway when requested
        val = half_transform_exp(1.0, 2.0, "minus", strict=False)(1.0)
        assert abs(val - 2.0 / (1 - 2.0)) < 1e-15

    def test_matches_partial_sums(self):
        inc = dispersion_solve("square", Frequency(0.5 + 0.05j), np.pi / 6, amplitude=2.0)
        q = np.exp(1j * inc.kappa_x)
        fn = half_transform_exp(2.0, q, "minus")
        for z in np.exp(1j * np.array([0.4, 1.7, 3.0, 5.1])):
            brute = sum(2.0 * np.exp(-1j * inc.kappa_x * x) * z ** (-x)
                        for x in range(-10_000, 0))
            assert abs(fn(z) - brute) < 1e-10


class TestCsv(object):
    def test_series_csv(self, tmp_path):
        ser = coefficients(sample(lambda z: 2 + 1j * z, GRID), GRID)
        path = tmp_path / "series.csv"
        series_to_csv(ser, path, header_lines=["test"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "n,re,im"
        assert len(lines) == 2 + GRID.count
