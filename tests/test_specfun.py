"""Special-function checks: dual routes wherever a closed form exists."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from hetnet_handover.fixtures import fixture_value
from hetnet_handover.specfun import (
    DEFAULT_BESSEL_TABLE,
    BesselApproxTable,
    i0_exp_approx,
    i0_series,
    marcum_q1,
    marcum_q1_quadrature,
)


class TestI0Series:
    def test_matches_scipy_on_grid(self):
        z = np.linspace(0.0, 50.0, 501)
        mine = i0_series(z)
        ref = sp.i0(z)
        assert np.max(np.abs(mine - ref) / ref) < 1e-12

    def test_matches_mpmath_spot_values(self):
        for z in (0.0, 0.5, 1.0, 7.3, 25.0, 49.0):
            ref = float(mpmath.besseli(0, z))
            assert i0_series(z) == pytest.approx(ref, rel=1e-13)

    def test_pinned_value_at_1(self):
        assert i0_series(1.0) == pytest.approx(fixture_value("i0_at_1"), rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            i0_series(-0.1)

    def test_scalar_in_scalar_out(self):
        assert isinstance(i0_series(2.0), float)
        assert i0_series(np.array([2.0])).shape == (1,)


class TestI0ExpApprox:
    def test_within_tolerance_per_finite_interval(self):
        edges = DEFAULT_BESSEL_TABLE.edges
        for k in range(3):
            z = np.linspace(edges[k], edges[k + 1], 400, endpoint=False)
            rel = np.abs(i0_exp_approx(z) - i0_series(z)) / i0_series(z)
            assert np.max(rel) < 0.05, f"interval {k}: {np.max(rel):.3%}"

    def test_pinned_interval_errors(self):
        for k in range(3):
            pinned = fixture_value(f"i0_approx_max_rel_err_interval{k}")
            z = np.linspace(
                DEFAULT_BESSEL_TABLE.edges[k],
                DEFAULT_BESSEL_TABLE.edges[k + 1],
                2001,
                endpoint=False,
            )
            measured = float(
                np.max(np.abs(i0_exp_approx(z) - i0_series(z)) / i0_series(z))
            )
            assert measured == pytest.approx(pinned, rel=1e-9)

    def test_interval_selection(self):
        table = DEFAULT_BESSEL_TABLE
        assert table.interval_index(0.0) == 0
        assert table.interval_index(11.5) == 1
        assert np.array_equal(
            table.interval_index(np.array([5.0, 12.0, 25.0, 40.0])),
            np.array([0, 1, 2, 3]),
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            i0_exp_approx(-1.0)

    def test_table_shape_validated(self):
        with pytest.raises(ValueError):
            BesselApproxTable(edges=(0.0, 1.0), coefficients=(((1.0, 1.0),) * 4,))
        with pytest.raises(ValueError):
            BesselApproxTable(
                edges=(0.0,), coefficients=(((1.0, 1.0),) * 3,)
            )


class TestMarcumQ1:
    def test_pinned_value(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(
            fixture_value("marcum_q1_at_1_1"), rel=1e-9
        )

    def test_against_quadrature_grid(self):
        for a in (0.2, 1.0, 3.0):
            for b in (0.1, 1.0, 2.5, 6.0):
                assert marcum_q1(a, b) == pytest.approx(
                    marcum_q1_quadrature(a, b), abs=1e-10
                )

    def test_against_noncentral_chi2_identity(self):
        # Q1(a, b) equals the survival function of a noncentral chi-square
        # with 2 degrees of freedom and noncentrality a^2, evaluated at b^2.
        for a in (0.3, 1.2, 4.0):
            for b in (0.2, 1.0, 3.7):
                ref = stats.ncx2.sf(b * b, 2, a * a)
                assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_edge_cases(self):
        assert marcum_q1(1.3, 0.0) == pytest.approx(1.0)
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0))
        assert marcum_q1(20.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert marcum_q1(0.5, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized(self):
        a = np.array([0.5, 1.0])
        b = np.array([1.0, 2.0])
        out = marcum_q1(a, b)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(marcum_q1(0.5, 1.0))

    @given(
        a=st.floats(min_value=0.0, max_value=8.0),
        b=st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_probability(self, a, b):
        q = marcum_q1(a, b)
        assert 0.0 <= q <= 1.0

    @given(
        a=st.floats(min_value=0.0, max_value=6.0),
        b=st.floats(min_value=0.01, max_value=6.0),
        db=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_decreasing_in_b(self, a, b, db):
        assert marcum_q1(a, b + db) <= marcum_q1(a, b) + 1e-12

    @given(
        a=st.floats(min_value=0.01, max_value=6.0),
        b=st.floats(min_value=0.0, max_value=6.0),
        da=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_increasing_in_a(self, a, b, da):
        assert marcum_q1(a + da, b) >= marcum_q1(a, b) - 1e-12


class TestErf:
    # The closed forms use math.erf (f_k_exact); pin it against the stored
    # series oracle.
    def test_pinned_value(self):
        assert math.erf(1.0) == pytest.approx(fixture_value("erf_at_1"), rel=1e-12)

    def test_matches_scipy(self):
        x = np.linspace(-4.0, 4.0, 101)
        ours = np.array([math.erf(v) for v in x])
        assert np.allclose(ours, sp.erf(x), rtol=0, atol=1e-14)

    def test_odd_symmetry(self):
        assert math.erf(-1.7) == pytest.approx(-math.erf(1.7), rel=1e-15)
