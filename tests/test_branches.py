import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticewh.branches import (
    Frequency,
    annulus_bounds,
    dispersion_residual,
    dispersion_solve,
    hex_branch,
    hex_reduced_omega_sq,
    principal_sqrt,
    square_branches,
    tri_branch,
)
from latticewh.errors import (
    OnBranchCut,
    OutsidePassBand,
    PoleAtMinusOne,
    RootSelectionAmbiguous,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4.0) == 2.0

    def test_cut_from_above(self):
        assert principal_sqrt(complex(-1.0, 0.0)) == 1j

    def test_closed_form(self):
        assert abs(principal_sqrt(2j) - (1 + 1j)) < 1e-15

    def test_square_recovers(self):
        w = 0.3 - 1.7j
        assert abs(principal_sqrt(w) ** 2 - w) < 1e-15


class TestSquareBranches:
    def test_point_minus_one(self):
        bv = square_branches(-1.0, 0j)
        assert abs(bv.h - 2.0) < 1e-14
        assert abs(bv.r - 2.0 * SQRT2) < 1e-14
        assert abs(bv.lam - (3.0 - 2.0 * SQRT2)) < 1e-12

    def test_point_i(self):
        bv = square_branches(1j, 0j)
        assert abs(bv.lam - (2.0 - SQRT3)) < 1e-12

    def test_identities_at_sample_point(self):
        bv = square_branches(0.95 * np.exp(0.7j), 1 + 0.1j)
        assert abs(bv.r**2 - bv.h**2 - 4.0) < 1e-12
        w2 = (1 + 0.1j) ** 2
        z = 0.95 * np.exp(0.7j)
        assert abs(bv.lam + 1 / bv.lam + z + 1 / z - 4.0 + w2) < 1e-12

    def test_band_edge_is_flagged(self):
        with pytest.raises(OnBranchCut):
            square_branches(1.0, 0j)  # lam = 1 exactly at omega = 0


class TestSlantBranches:
    def test_tri_point_i(self):
        t = tri_branch(1j, 0j)
        assert abs(t - (3.0 - SQRT7) * (1 + 1j) / 2.0) < 1e-12
        assert abs(t * (1j / t) - 1j) < 1e-14

    def test_tri_double_root(self):
        with pytest.raises(RootSelectionAmbiguous):
            tri_branch(1.0, 0j)  # F(1) = 2: double root at 1

    def test_tri_pole_guard(self):
        with pytest.raises(PoleAtMinusOne):
            tri_branch(-1.0, 1 + 0.1j)

    def test_tri_vieta(self):
        z = 0.9 * np.exp(1.1j)
        w = 1 + 0.1j
        t = tri_branch(z, w)
        big = z / t
        f_val = (6.0 - z - 1.0 / z - 1.5 * w * w) / (1.0 + 1.0 / z)
        assert abs(t + big - f_val) < 1e-11
        assert abs(t * big - z) < 1e-11
        assert abs(t) < 1.0

    def test_hex_reduces_to_tri_at_zero(self):
        zs = np.exp(1j * np.linspace(0.1, 6.0, 50))
        assert np.array_equal(np.asarray(hex_branch(zs, 0j)),
                              np.asarray(tri_branch(zs, 0j)))

    def test_hex_reduced_frequency(self):
        assert abs(hex_reduced_omega_sq(1.0 + 0j) - 21.0 / 8.0) < 1e-15

    def test_hex_identity(self):
        z = 0.9 * np.exp(0.4j)
        w = 0.8 + 0.1j
        hh = hex_branch(z, w)
        s = hex_reduced_omega_sq(w)
        res = (1 + 1 / z) * hh * hh - (6 - z - 1 / z - 1.5 * s) * hh + (1 + z)
        assert abs(res) < 1e-12
        assert abs(hh) < 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.9, 1.1),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.3, 2.0),
    st.floats(0.02, 0.3),
)
@example(radius=1.0, angle=3.140625, w1=1.0, w2=0.25)
@example(radius=1.0, angle=3.1415, w1=1.0, w2=0.25)
def test_branch_identity_sweep(radius, angle, w1, w2):
    z = radius * np.exp(1j * angle)
    w = complex(w1, w2)
    bv = square_branches(z, w)
    assert abs(bv.r**2 - bv.h**2 - 4.0) < 1e-12
    assert abs(bv.lam + 1 / bv.lam + z + 1 / z - 4 + w * w) < 1e-11
    assert abs(bv.lam) <= 1 + 1e-12
    if abs(1 + 1 / z) > 1e-6:
        # 1 + 1/z as (1 + z)/z: near z = -1 the rounding of 1/z survives
        # the sum 1 + 1/z with relative size eps/|1 + 1/z|, which put the
        # reference F off by 4.9e-10 at the first example above; 1 + z is
        # exact.  Rounding t alone moves z/t by about eps |F|, which grows
        # toward the pole: 1944 points 1e-5 to 3e-4 from z = -1 peaked at
        # 3.3 eps |F|, and the second example reads 1.5e-11 on both lines.
        pole = (1 + z) / z
        eps = np.finfo(float).eps
        t = tri_branch(z, w)
        f_tri = (6 - z - 1 / z - 1.5 * w * w) / pole
        assert abs(t + z / t - f_tri) < 1e-11 + 8 * eps * abs(f_tri)
        hh = hex_branch(z, w)
        s = hex_reduced_omega_sq(w)
        f_hex = (6 - z - 1 / z - 1.5 * s) / pole
        assert abs(hh + z / hh - f_hex) < 1e-11 + 8 * eps * abs(f_hex)


BAND_TOP = {"square": 2 * SQRT2, "triangular": math.sqrt(6.0), "honeycomb": 2.0}


def _damped_draws(lattice, seed, count):
    """(omega, incidence) at seeded damped draws over the pass band, Im omega
    0.002 to 0.5 and |theta| <= 1.2, skipping those with no wave along theta."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = complex(rng.uniform(0.02, 0.98) * BAND_TOP[lattice], rng.uniform(0.002, 0.5))
        try:
            yield w, dispersion_solve(lattice, Frequency(w), rng.uniform(-1.2, 1.2))
        except OutsidePassBand:
            continue


def _equations(lattice, inc, w, x, y):
    """The terms of each equation of motion at site (x, y), written out by hand."""
    f = inc.field
    if lattice == "square":
        return [[f(x + 1, y), f(x - 1, y), f(x, y + 1), f(x, y - 1), (w * w - 4) * f(x, y)]]
    if lattice == "triangular":
        return [[f(x + 1, y), f(x - 1, y), f(x, y + 1), f(x, y - 1), f(x - 1, y + 1),
                 f(x + 1, y - 1), (1.5 * w * w - 6) * f(x, y)]]
    beta = 3 - 0.75 * w * w
    return [[f(x, y, "v"), f(x - 1, y, "v"), f(x, y - 1, "v"), -beta * f(x, y, "u")],
            [f(x, y, "u"), f(x + 1, y, "u"), f(x, y + 1, "u"), -beta * f(x, y, "v")]]


class TestDispersion:
    def test_square_normal_incidence(self):
        inc = dispersion_solve("square", Frequency(0.5), 0.0)
        assert abs(inc.kappa_x - math.acos(1 - 0.5**2 / 2)) < 1e-12
        assert abs(inc.kappa_y) < 1e-12

    def test_square_oblique_damped(self):
        inc = dispersion_solve("square", Frequency(0.5 + 0.05j), math.pi / 4)
        assert dispersion_residual("square", inc.kappa_x, inc.kappa_y, 0.5 + 0.05j) < 1e-12
        assert inc.kappa2 > 0

    def test_honeycomb_plane_wave(self):
        """Both difference equations at sample sites, at the real w = 0.6
        and at 100 damped draws, whose hex_ratio must hold them too; the
        draws' worst relative residual reads 1.7e-15."""
        draws = [(0.6, dispersion_solve("honeycomb", Frequency(0.6), 0.0))]
        for w, inc in draws + list(_damped_draws("honeycomb", seed=7, count=100)):
            assert dispersion_residual("honeycomb", inc.kappa_x, inc.kappa_y, w) < 1e-10
            for x, y in [(0, 0), (3, -2), (-1, 4), (2, 2), (-5, 1)]:
                for terms in _equations("honeycomb", inc, w, x, y):
                    if w == 0.6:
                        assert abs(sum(terms)) < 1e-10
                    assert abs(sum(terms)) <= 1e-14 * sum(map(abs, terms))

    @pytest.mark.parametrize("lattice", ["square", "triangular", "honeycomb"])
    def test_resubstitution_at_random_sites(self, lattice):
        """Each lattice's equations, written out by hand, at random sites: at
        1+0.1i (absolute residual below 1e-10) and at 100 damped draws, whose
        fields grow too large for an absolute bound.  The draws' worst
        relative residual reads 2.0e-15 (square), 9.8e-16 (triangular) and
        2.8e-15 (honeycomb, both equations); of 2000 draws per lattice,
        4.9e-15, 1.6e-15 and 2.6e-15."""
        w = 1 + 0.1j
        draws = [(w, dispersion_solve(lattice, Frequency(w), 0.4))]
        rng = np.random.default_rng(3)
        for w, inc in draws + list(_damped_draws(lattice, seed=5, count=100)):
            for x, y in rng.integers(-8, 8, size=(5, 2)):
                for terms in _equations(lattice, inc, w, x, y):
                    if w == 1 + 0.1j:
                        assert abs(sum(terms)) < 1e-10
                    assert abs(sum(terms)) <= 1e-14 * sum(map(abs, terms))

    def test_residual_reaches_rounding(self):
        """Newton used to stop once |symbol| < 1e-13, leaving 8.3e-14 here."""
        w = 1.22 + 0.23j
        inc = dispersion_solve("triangular", Frequency(w), 0.72)
        assert dispersion_residual("triangular", inc.kappa_x, inc.kappa_y, w) <= 1e-15

    @pytest.mark.parametrize("lattice,band_top", [("square", 2 * SQRT2),
                                                  ("triangular", math.sqrt(6.0)),
                                                  ("honeycomb", 2.0)])
    def test_residual_at_rounding_across_the_band(self, lattice, band_top):
        """50 draws per lattice over the pass band; the worst of 2000 read 3.6e-15."""
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(50):
            w = complex(rng.uniform(0.02, 0.98) * band_top, rng.uniform(0.002, 0.3))
            try:
                inc = dispersion_solve(lattice, Frequency(w), rng.uniform(-1.2, 1.2))
            except OutsidePassBand:
                continue
            worst = max(worst, dispersion_residual(lattice, inc.kappa_x, inc.kappa_y, w))
        assert worst <= 1e-14

    def test_outside_pass_band(self):
        with pytest.raises(OutsidePassBand):
            dispersion_solve("square", Frequency(2.9), 0.0)
        with pytest.raises(OutsidePassBand):
            dispersion_solve("square", Frequency(2.5), 0.0)  # directional edge at 2

    def test_damped_root_with_negative_real_part(self):
        # near the band top Newton lands on k = -3.19 + 1.08i: Im k > 0 but
        # Re k < 0, which used to escape as a plain ValueError from
        # annulus_bounds
        with pytest.raises(OutsidePassBand):
            dispersion_solve("square", Frequency(2.3237 + 0.00655j), 0.1115)


class TestAnnulus:
    def test_normal_incidence(self):
        inc = dispersion_solve("square", Frequency(1 + 0.1j), 0.0)
        lo, hi = annulus_bounds(inc)
        k2 = inc.kappa2
        assert abs(lo - math.exp(-k2)) < 1e-14
        assert abs(hi - math.exp(k2)) < 1e-14
        assert lo < 1 < hi

    def test_cos_factor(self):
        inc = dispersion_solve("square", Frequency(1 + 0.1j), math.pi / 3)
        lo, hi = annulus_bounds(inc)
        assert abs(hi - math.exp(inc.kappa2 * 0.5)) < 1e-14

    def test_collapse_with_damping(self):
        lo1, hi1 = annulus_bounds(dispersion_solve("square", Frequency(1 + 0.01j), 0.3))
        lo2, hi2 = annulus_bounds(dispersion_solve("square", Frequency(1 + 0.001j), 0.3))
        assert abs(hi2 - 1) < abs(hi1 - 1) and abs(lo2 - 1) < abs(lo1 - 1)
