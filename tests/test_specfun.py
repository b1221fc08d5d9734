"""Special-function checks: dual routes wherever a closed form exists."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from hetnet_handover import specfun
from hetnet_handover.specfun import marcum_q1

from oracles import (
    I0_EXP_COEFFICIENTS,
    I0_EXP_EDGES,
    fresh_python,
    i0_approx_max_rel_err,
    i0_exp_approx,
    marcum_q1_mpmath,
    marcum_q1_quadrature,
    pin,
)

PIN_A = (0.0, 0.3, 1.0, 2.5, 7.0, 15.0, 30.0, 37.0)
PIN_B = (0.0, 0.2, 1.0, 3.0, 10.0, 36.0, 50.0)
#: float.hex of marcum_q1(a, b), one scalar call per a in PIN_A (rows) and
#: b in PIN_B (columns).
SCALAR_PIN = (
    (
        "0x1.0000000000000p+0", "0x1.f5dc99badec5bp-1", "0x1.368b2fc6f960ap-1", "0x1.6c0504695c417p-7",
        "0x1.d257d547e083fp-73", "0x1.18d77b8a44ad7p-935", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffffbp-1", "0x1.f64db10f32e8ap-1", "0x1.3d6a0ed83630bp-1", "0x1.b7cdb25293ffbp-7",
        "0x1.16b832692d281p-70", "0x1.6e0a96f5975ddp-923", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffffcp-1", "0x1.f9d1f3ee9b784p-1", "0x1.773c058a6997fp-1", "0x1.661f0987c781bp-5",
        "0x1.ad2e8586f5beep-62", "0x1.9dd3e40ec80b6p-892", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffffap-1", "0x1.ff8a60967d705p-1", "0x1.ef02a752d9d1dp-1", "0x1.8209a10423eb8p-2",
        "0x1.22b64f163f007p-44", "0x1.572ff3a4fa4dbp-832", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffffap-1", "0x1.fffffffffebccp-1", "0x1.fffffffd01a5dp-1", "0x1.fffd5f102c3dbp-1",
        "0x1.ad9d1b6d775dcp-10", "0x1.3a5da0b1d11cep-653", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffffbp-1", "0x1.ffffffffffff8p-1", "0x1.ffffffffffffbp-1", "0x1.ffffffffffffbp-1",
        "0x1.fffff836bffa6p-1", "0x1.62e4507d0ad7bp-351", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffff7p-1", "0x1.ffffffffffff4p-1", "0x1.ffffffffffff7p-1", "0x1.ffffffffffff7p-1",
        "0x1.ffffffffffff4p-1", "0x1.29c303e021c0dp-30", "0x0.0p+0",
    ),
    (
        "0x1.ffffffffffff8p-1", "0x1.ffffffffffff8p-1", "0x1.ffffffffffff8p-1", "0x1.ffffffffffff8p-1",
        "0x1.ffffffffffff7p-1", "0x1.b0744dba06d74p-1", "0x0.0p+0",
    ),
)
#: Large-a points: the windowed route for every b in a +- 30.
LARGE_A = (40.0, 79.0, 200.0, 316.0)
#: float.hex of marcum_q1(79.0, 80.0), a windowed point.  No PIN_A row is
#: windowed: its largest x = a^2/2 is 684.5, and its b > 37 are series-routed.
WINDOWED_PIN = "0x1.480d7682748b9p-3"

#: At x = a^2/2 = 68.79598662207358 rounding stalls 1 - sum(pmf) above the
#: series tolerance: the accumulated Poisson(x) mass never passes 1 - 1e-15.
STALLED_A = math.sqrt(2.0 * 68.79598662207358)


@st.composite
def a_and_bs(draw):
    """A scalar ``a`` with one to five ``b`` that mix both routes, lanes of
    different length (``b > a``) and ``b = 0`` (a zero sojourn threshold)."""
    a = draw(st.one_of(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=36.0, max_value=120.0),
        st.just(STALLED_A),
    ))
    b = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=-12.0, max_value=12.0).map(lambda d: max(a + d, 0.0)),
        st.floats(min_value=36.0, max_value=130.0),
    )
    return a, tuple(draw(st.lists(b, min_size=1, max_size=5)))


class TestI0ExpApprox:
    def test_within_tolerance_per_finite_interval(self):
        for k in range(3):
            z = np.linspace(I0_EXP_EDGES[k], I0_EXP_EDGES[k + 1], 400, endpoint=False)
            rel = np.abs(i0_exp_approx(z) - sp.i0(z)) / sp.i0(z)
            assert np.max(rel) < 0.05, f"interval {k}: {np.max(rel):.3%}"

    def test_interval_selection(self):
        # Intervals are half-open: an edge takes the coefficients above it.
        def block_sum(k, z):
            return sum(a * math.exp(b * z) for a, b in I0_EXP_COEFFICIENTS[k])

        for z, k in ((0.0, 0), (11.4, 0), (11.5, 1), (25.0, 2), (37.25, 3), (40.0, 3)):
            assert i0_exp_approx(z) == pytest.approx(block_sum(k, z), rel=1e-14), z

    def test_pinned_interval_errors(self):
        for k in range(3):
            pinned = pin(f"i0_approx_max_rel_err_interval{k}")
            assert i0_approx_max_rel_err(k) == pytest.approx(pinned, rel=1e-9)


class TestMarcumQ1:
    def test_pinned_value(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(pin("marcum_q1_at_1_1"), rel=1e-9)

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

    def test_pinned_large_a_value(self):
        assert marcum_q1(79.0, 80.0) == pytest.approx(pin("marcum_q1_at_79_80"), rel=1e-12)

    def test_windowed_route_imports_scipy_special_cold(self):
        # scipy.special loads on the first windowed lane.  This process has
        # loaded it already (the oracles use it), so the cold import runs in
        # a fresh interpreter, and must not move a bit.
        code = (
            "import sys; from hetnet_handover.specfun import marcum_q1; "
            "cold = 'scipy.special' not in sys.modules; "
            "print(cold, marcum_q1(79.0, 80.0).hex(), 'scipy.special' in sys.modules)"
        )
        assert fresh_python(code) == f"True {WINDOWED_PIN} True\n"
        assert marcum_q1(79.0, 80.0) == float.fromhex(WINDOWED_PIN)

    def test_edge_cases(self):
        assert marcum_q1(1.3, 0.0) == pytest.approx(1.0)
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0))
        assert marcum_q1(20.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert marcum_q1(0.5, 40.0) == pytest.approx(0.0, abs=1e-12)
        assert marcum_q1(500.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        # Q1(a, a) = (1 + e^{-a^2} I0(a^2)) / 2.
        assert marcum_q1(100.0, 100.0) == pytest.approx((1.0 + sp.i0e(1e4)) / 2.0, rel=1e-12)
        # Where a^2/2 or b^2/2 overflows: the limits the Chernoff bounds fix.
        assert marcum_q1(1.0, 1e155) == 0.0
        assert marcum_q1(1e155, 1.0) == 1.0
        assert marcum_q1(1e155, 1e155) == 0.5
        assert marcum_q1(1e300, (1e300, 5.0, 1e301)) == (0.5, 1.0, 0.0)
        assert marcum_q1(1.0, sys.float_info.max) == 0.0
        # Above a = 400, b farther than ~8.3 from a: the same limits, within
        # 1e-15 of the 50-digit value, and with no O(a) window at a = 1e12.
        for a in (400.5, 1e4, 1e12):
            assert marcum_q1(a, (a - 9.0, a + 9.0, 0.0)) == (1.0, 0.0, 1.0), a
        for b, limit in ((391.5, 1.0), (409.5, 0.0)):
            assert marcum_q1(400.5, b) == limit
            assert marcum_q1_mpmath(400.5, b) == pytest.approx(limit, rel=0.0, abs=1e-15)

    def test_invalid_inputs_rejected(self):
        for a, b in ((-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                marcum_q1(a, b)
        with pytest.raises(ValueError):
            marcum_q1(1.0, (1.0, math.nan))

    def test_scalar_bits_pinned(self):
        for a, row in zip(PIN_A, SCALAR_PIN):
            for b, pinned in zip(PIN_B, row):
                q = marcum_q1(a, b)
                assert isinstance(q, float)
                assert q == float.fromhex(pinned), (a, b)
                assert marcum_q1(np.float64(a), np.array(b)) == q

    def test_large_a_matches_noncentral_chi2(self):
        for a in LARGE_A:
            for b in np.linspace(a - 30.0, a + 30.0, 61):
                q = marcum_q1(a, b)
                ref = stats.ncx2.sf(b * b, 2, a * a)
                if ref >= 1e-10:
                    assert q == pytest.approx(ref, rel=1e-11, abs=0.0), (a, b)
                else:
                    assert q == pytest.approx(ref, rel=0.0, abs=1e-15), (a, b)

    def test_large_b_near_a_matches_noncentral_chi2(self):
        # a <= ~37.4 but b^2/2 > 700 with b - a below the negligible gap:
        # e^{-b^2/2} is subnormal, so these take the windowed route too.
        for a in (29.5, 33.0, 36.0, 37.4):
            for b in np.linspace(37.5, a + 8.3, 9):
                ref = stats.ncx2.sf(b * b, 2, a * a)
                assert marcum_q1(a, b) == pytest.approx(ref, rel=1e-11, abs=1e-15), (a, b)

    def test_large_a_matches_50_digit_series(self):
        for a, b in ((40.0, 41.0), (79.0, 80.0), (200.0, 195.0), (316.0, 320.0)):
            assert marcum_q1(a, b) == pytest.approx(
                marcum_q1_mpmath(a, b), rel=1e-12
            ), (a, b)

    @given(
        a=st.floats(min_value=0.0, max_value=400.0),
        b=st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_probability(self, a, b):
        q = marcum_q1(a, b)
        assert 0.0 <= q <= 1.0

    @given(
        a=st.floats(min_value=0.0, max_value=400.0),
        b=st.floats(min_value=0.01, max_value=400.0),
        db=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_decreasing_in_b(self, a, b, db):
        assert marcum_q1(a, b + db) <= marcum_q1(a, b) + 1e-12

    @given(
        a=st.floats(min_value=0.01, max_value=400.0),
        b=st.floats(min_value=0.0, max_value=400.0),
        da=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_increasing_in_a(self, a, b, da):
        assert marcum_q1(a + da, b) >= marcum_q1(a, b) - 1e-12

    def test_tuple_bits_pinned(self):
        for a, row in zip(PIN_A, SCALAR_PIN):
            out = marcum_q1(a, PIN_B)
            assert isinstance(out, tuple)
            assert tuple(q.hex() for q in out) == row, a
            for k in range(len(PIN_B) - 2):
                triple = marcum_q1(a, PIN_B[k : k + 3])
                assert tuple(q.hex() for q in triple) == row[k : k + 3], (a, k)

    @given(case=a_and_bs())
    # Series lanes of different length, the stalled x, a zero b.
    @example(case=(STALLED_A, (0.0, 5.0, 30.0)))
    # Windowed by a, and windowed by b within the gap of a.
    @example(case=(79.0, (70.0, 80.0, 95.0)))
    @example(case=(33.0, (37.5, 40.0, 41.0)))
    # Both routes in one tuple: falls back to one b at a time.
    @example(case=(33.0, (2.0, 40.0, 60.0, 39.0)))
    # An overflowing b among series lanes.
    @example(case=(3.0, (1e200, 2.0, 4.0)))
    @settings(max_examples=200, deadline=None)
    def test_tuple_bits_equal_one_b_calls(self, case):
        a, bs = case
        assert [q.hex() for q in marcum_q1(a, bs)] == [marcum_q1(a, b).hex() for b in bs]

    def test_tuple_rejects_invalid_b(self):
        for bs in ((1.0, -0.5), (1.0, math.inf, 2.0), (math.nan,)):
            with pytest.raises(ValueError):
                marcum_q1(1.0, bs)

    def test_underflowed_pmf_ends_the_series(self, monkeypatch):
        # j_max grows like b^2/2 (4.5e6 terms at b = 3000), and at the stalled
        # x the mass test never fires: the series ends where the Poisson(x)
        # pmf has underflowed to 0, after which every term adds exactly 0.
        pmfs = []
        converged = specfun._float_converged

        def recording(pois, pois_cum):
            pmfs.append(pois)
            return converged(pois, pois_cum)

        monkeypatch.setattr(specfun, "_float_converged", recording)
        assert marcum_q1(STALLED_A, 3000.0) == 0.0
        assert marcum_q1(STALLED_A, 30.0) == float.fromhex("0x1.4c3a8ba2eba57p-246")
        assert pmfs[-1] == 0.0
        assert len(pmfs) < 2000

