"""Special-function checks: dual routes wherever a closed form exists."""

import math
import sys
import tracemalloc

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
        "0x1.0000000000000p+0", "0x1.f5dc99badec5cp-1", "0x1.368b2fc6f960ap-1", "0x1.6c0504695c416p-7",
        "0x1.d257d547e0838p-73", "0x1.18d77b8a44ad7p-935", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.f64db10f32e91p-1", "0x1.3d6a0ed83630fp-1", "0x1.b7cdb252940d9p-7",
        "0x1.16b83435fde79p-70", "0x1.8dff9442fc083p-923", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.f9d1f3ee9b789p-1", "0x1.773c058a69983p-1", "0x1.661f0987c785bp-5",
        "0x1.ad2eca432d417p-62", "0x1.65f8174b3e844p-888", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.ff8a60967d70bp-1", "0x1.ef02a752d9d20p-1", "0x1.8209a10423ec5p-2",
        "0x1.22b67a475d3a7p-44", "0x1.c55433dfa991ep-815", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.fffffffffebd1p-1", "0x1.fffffffd01a63p-1", "0x1.fffd5f102c3e2p-1",
        "0x1.ad9d1b6d7816fp-10", "0x1.749528b9b9b4ap-618", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.ffffffffffffep-1", "0x1.ffffffffffffcp-1", "0x1.ffffffffffffcp-1",
        "0x1.fffff836bffadp-1", "0x1.35e0c082a40cfp-325", "0x0.0p+0",
    ),
    (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.29c308abb8882p-30", "0x1.5e55e8d86652fp-297",
    ),
    (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.b0744dba06d67p-1", "0x1.35fc451c57937p-127",
    ),
)
#: Large-a points, whose windows start in the log domain (x - 12 sqrt(x) >= 16)
#: and hold up to ~5 400 indices, each compared for every b in a +- 30.
LARGE_A = (40.0, 79.0, 200.0, 316.0)
#: float.hex of marcum_q1(79.0, 80.0), a large-a point, 3.3e-16 from the
#: 50-digit value.
WINDOWED_PIN = "0x1.480d768274978p-3"
#: float.hex of marcum_q1(1000.0, (995.0, 1000.0, 1007.0)), whose window of
#: ~17 000 Poisson(x) indices spans three chunks of ``_WINDOW_CHUNK``.
MULTI_CHUNK_A, MULTI_CHUNK_B = 1000.0, (995.0, 1000.0, 1007.0)
MULTI_CHUNK_PIN = ("0x1.fffff6681340dp-1", "0x1.001a252442f48p-1", "0x1.6984c0773e832p-40")
#: Builds ``values``: the bits of a large-a Marcum tail and of the closed
#: forms at a large-a envelope point (lambda_S = 1e-6, sigma = 5 m, so
#: a = 100 for SpS and ~316 for SpM).
WINDOWED_VALUES = """
import dataclasses
from hetnet_handover import fixtures
from hetnet_handover.geometry import Region
from hetnet_handover.simengine import SimConfig, analytic_metrics
from hetnet_handover.specfun import marcum_q1
cfg = SimConfig.with_default_ratios(
    region=Region(0.0, 5000.0, 0.0, 5000.0), macro=fixtures.default_macro_params(),
    small=fixtures.default_small_params(), hotspot=fixtures.default_hotspot_params(),
    lambda_s=1e-6, sigma=5.0, mobility=fixtures.default_mobility(),
    thresholds=fixtures.default_thresholds(),
)
values = [marcum_q1(79.0, 80.0).hex()] + [
    v.hex() for m in analytic_metrics(cfg).values() for v in dataclasses.astuple(m)[1:]
]
"""

#: At x = a^2/2 = 68.79598662207358 rounding stalls 1 - sum(pmf): a Poisson(x)
#: sum from j = 0 never passes 1 - 1e-15, so no mass test may end a walk.
STALLED_A = math.sqrt(2.0 * 68.79598662207358)


@st.composite
def a_and_bs(draw):
    """A scalar ``a`` with one to five ``b`` that mix windows from 0 and from
    the log domain, runs of different length (``b > a``) and ``b = 0`` (a
    zero sojourn threshold)."""
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

    def test_windowed_route_runs_without_scipy(self):
        # marcum_q1 needs no scipy: in a fresh interpreter where
        # `import scipy` fails, it runs and keeps the bits it has here,
        # where the oracles have loaded scipy.
        code = (
            "import sys\nsys.modules['scipy'] = None\n" + WINDOWED_VALUES
            + "print(' '.join(values), sorted(k for k in sys.modules if k.startswith('scipy.')))"
        )
        namespace = {}
        exec(WINDOWED_VALUES, namespace)
        assert namespace["values"][0] == WINDOWED_PIN
        assert fresh_python(code) == " ".join(namespace["values"]) + " []\n"

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
        # Windowed a with b^2/2 finite but 2^53 times the window's start:
        # the log-domain pmf start stays defined.
        assert marcum_q1(50.0, (1e150, 1e10, 1.3e154)) == (0.0, 0.0, 0.0)
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
        # e^{-b^2/2} is subnormal, so each b's run starts in the log domain.
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
        case=st.floats(min_value=0.0, max_value=400.0).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.one_of(
                    st.floats(min_value=max(a - 30.0, 0.0), max_value=a + 30.0),
                    st.floats(min_value=0.0, max_value=a),
                ),
            )
        )
    )
    # Near Q1 = 1 the complement lanes round to exactly 1, as the oracle does.
    @example(case=(400.0, 391.0))
    @example(case=(316.2, 300.0))
    # The oracle's start cdf where mpmath.gammainc does not converge.
    @example(case=(372.7516261342817, 392.6430955217904))
    # A small tail (5.6e-10) of a window from 0, and the stalled x.
    @example(case=(25.0, 31.108835912246793))
    @example(case=(STALLED_A, 30.0))
    @example(case=(STALLED_A, 3000.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_50_digit_series(self, case):
        a, b = case
        q, ref = marcum_q1(a, b), marcum_q1_mpmath(a, b)
        assert type(q) is float  # not a NumPy scalar, whose repr differs
        if ref >= 1e-10:
            assert q == pytest.approx(ref, rel=1.2e-12, abs=0.0), (a, b)
        else:
            assert q == pytest.approx(ref, rel=0.0, abs=1.3e-23), (a, b)

    def test_windowed_complement_rounds_to_one(self):
        for a, b in ((400.0, 391.0), (316.2, 300.0)):
            assert marcum_q1(a, b) == marcum_q1_mpmath(a, b) == 1.0, (a, b)

    def test_windowed_memory_is_bounded(self):
        # At a = 1e5 the window holds ~1.7e6 indices, walked in chunks of
        # _WINDOW_CHUNK: the traced peak stays far below one window's array.
        tracemalloc.start()
        try:
            q = marcum_q1(1e5, 1e5 + 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert q == pytest.approx(stats.ncx2.sf((1e5 + 1.0) ** 2, 2, 1e10), rel=1e-10)

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

    def test_multi_chunk_bits_pinned(self):
        j0, j_end = specfun._span(MULTI_CHUNK_A * MULTI_CHUNK_A / 2.0)
        assert j_end - j0 > 2 * specfun._WINDOW_CHUNK
        out = marcum_q1(MULTI_CHUNK_A, MULTI_CHUNK_B)
        assert tuple(q.hex() for q in out) == MULTI_CHUNK_PIN

    @given(case=a_and_bs())
    # Runs of different length, the stalled x, a zero b.
    @example(case=(STALLED_A, (0.0, 5.0, 30.0)))
    # Runs from the log domain, by a and by b within the gap of a.
    @example(case=(79.0, (70.0, 80.0, 95.0)))
    @example(case=(33.0, (37.5, 40.0, 41.0)))
    # Runs from 0, from the log domain and past the window in one tuple.
    @example(case=(33.0, (2.0, 40.0, 60.0, 39.0)))
    # An overflowing b, which takes the limit, among summed lanes.
    @example(case=(3.0, (1e200, 2.0, 4.0)))
    # Lanes whose carries cross three chunks.
    @example(case=(MULTI_CHUNK_A, MULTI_CHUNK_B))
    @settings(max_examples=200, deadline=None)
    def test_tuple_bits_equal_one_b_calls(self, case):
        a, bs = case
        assert [q.hex() for q in marcum_q1(a, bs)] == [marcum_q1(a, b).hex() for b in bs]

    def test_tuple_rejects_invalid_b(self):
        for bs in ((1.0, -0.5), (1.0, math.inf, 2.0), (math.nan,)):
            with pytest.raises(ValueError):
                marcum_q1(1.0, bs)

    def test_far_b_walks_only_the_window(self, monkeypatch):
        # y = b^2/2 = 4.5e6 lies far above the window of the stalled x, where
        # Q1 underflows: the lane's run covers the window alone, so the walk
        # stays short however large b is.
        walks = []
        chunks = specfun._pmf_chunks

        def recording(means, firsts, lo, hi):
            walks.append(hi - lo)
            return chunks(means, firsts, lo, hi)

        monkeypatch.setattr(specfun, "_pmf_chunks", recording)
        assert marcum_q1(STALLED_A, 3000.0) == 0.0
        assert walks and max(walks) < 2000
