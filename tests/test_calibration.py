import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pairwise_reference

from dcal import calibration, core
from dcal import (
    ConvergenceError,
    DataPair,
    bf_rows,
    bf_to_posterior,
    correlation_bf,
    pcal_bickel,
    pcal_sellke,
    pearson,
)

from conftest import ANSCOMBE, seeded_pair


class TestSellke:
    def test_reference_values(self):
        # frozen from 50-digit direct evaluation of the closed form
        assert pcal_sellke(0.0022) == pytest.approx(0.035302849073907793, abs=1e-14)
        assert pcal_sellke(0.05) == pytest.approx(0.28934988546110162, abs=1e-14)

    def test_clamps_at_inverse_e(self):
        assert pcal_sellke(1 / math.e) == 0.5
        assert pcal_sellke(0.5) == 0.5
        assert pcal_sellke(1.0) == 0.5

    def test_limit_at_zero(self):
        assert pcal_sellke(0.0) == 0.0

    def test_block_widths_do_not_change_bits(self, monkeypatch):
        # 1000 active rows take blocks of 25 terms each; one row per block
        # of 8 terms and unbounded doubling give the same bits
        assert core.units_per_block(calibration._TERM_BYTES * 1000) == 25
        r = np.concatenate([1.0 - np.geomspace(1e-5, 0.5, 60), np.linspace(-0.9, 0.9, 7)])
        want = calibration._bf_series(r, 5)
        for budget in (1, 2 ** 40):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            got = calibration._bf_series(r, 5)
            assert got[0].tobytes() == want[0].tobytes(), budget
            assert [repr(e) for e in got[1]] == [repr(e) for e in want[1]]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pcal_sellke(1.2)
        with pytest.raises(ValueError):
            pcal_sellke(-0.01)

    def test_monotone_and_dominates_p(self):
        grid = np.linspace(1e-8, 1.0, 10_000)
        values = [pcal_sellke(p) for p in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        below_clamp = grid[grid <= 1 / math.e]
        assert all(pcal_sellke(p) >= p for p in below_clamp)


class TestBickel:
    def test_reference_values(self):
        assert pcal_bickel(0.0022) == pytest.approx(0.07481729228797976, abs=1e-14)
        assert pcal_bickel(0.05) == pytest.approx(0.83862652101308813, abs=1e-14)

    def test_p_one_is_identity(self):
        # ln 1 = 0 makes the correction vanish
        assert pcal_bickel(1.0) == 1.0

    def test_limit_at_zero(self):
        assert pcal_bickel(0.0) == 0.0

    def test_clamped_to_unit_interval(self):
        # the raw formula exceeds 1 for mid-range p
        assert pcal_bickel(0.2) == 1.0
        assert pcal_bickel(0.9) == 1.0

    def test_monotone(self):
        grid = np.linspace(1e-8, 1.0, 10_000)
        values = [pcal_bickel(p) for p in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def _sellke_scalar(p: float) -> float:
    """The per-element Sellke calibration the array form replaced."""
    if p == 0.0:
        return 0.0
    if p >= 1.0 / math.e:
        return 0.5
    bound = -math.e * p * math.log(p)
    return 1.0 / (1.0 + 1.0 / bound)


def _bickel_scalar(p: float) -> float:
    """The per-element Bickel calibration the array form replaced."""
    if p == 0.0:
        return 0.0
    a = abs(2.7 * p * math.log(p))
    return min(1.0, max(0.0, (1.0 - a) * p + 2.0 * a))


class TestCalibrationRows:
    """The array forms give the bits of the per-element calibrations, which
    took ``math.log`` of each p."""

    EDGES = [0.0, 1.0, 1.0 / math.e, math.nextafter(1.0 / math.e, 0.0),
             math.nextafter(1.0 / math.e, 1.0), 5e-324, 1e-300, math.nextafter(1.0, 0.0)]

    def _grid(self) -> np.ndarray:
        stream = np.random.default_rng(20221)
        return np.concatenate([
            self.EDGES, np.linspace(0.0, 1.0, 100_001), np.logspace(-323, 0, 1000),
            stream.uniform(size=50_000), stream.uniform(size=50_000) ** 40,
        ])

    @pytest.mark.parametrize("rows,scalar", [
        (calibration.pcal_sellke_rows, _sellke_scalar),
        (calibration.pcal_bickel_rows, _bickel_scalar),
    ], ids=["sellke", "bickel"])
    def test_bits_of_the_per_element_form(self, rows, scalar):
        p = self._grid()
        expected = np.array([scalar(v) for v in p.tolist()])
        got = rows(p)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(rows(p.reshape(3, -1)), got.reshape(3, -1))

    @pytest.mark.parametrize("rows,one", [
        (calibration.pcal_sellke_rows, pcal_sellke), (calibration.pcal_bickel_rows, pcal_bickel),
    ], ids=["sellke", "bickel"])
    def test_scalar_is_one_element_call(self, rows, one):
        for p in self.EDGES + [0.0022, 0.05, 0.3]:
            assert one(p) == float(rows(np.array([p]))[0])
        assert rows(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("rows", [calibration.pcal_sellke_rows, calibration.pcal_bickel_rows])
    def test_first_bad_entry_named(self, rows):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got 1.2$"):
            rows(np.array([0.5, 1.2, -0.01]))
        with pytest.raises(ValueError, match=r"got nan$"):
            rows(np.array([0.5, math.nan, 1.2]))
        with pytest.raises(ValueError, match=r"got -0.01$"):
            rows([[0.5, 0.2], [-0.01, 0.3]])


class TestBfToPosterior:
    def test_indifference(self):
        assert bf_to_posterior(1.0, 0.5) == 0.5

    def test_closed_forms(self):
        assert bf_to_posterior(3.0, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert bf_to_posterior(10.0, 0.5) == pytest.approx(10.0 / 11.0, abs=1e-15)

    def test_equals_prior_at_unit_bf(self):
        for prior in (0.1, 0.3, 0.5, 0.9):
            assert bf_to_posterior(1.0, prior) == pytest.approx(prior, abs=1e-15)

    def test_monotone_in_bf(self):
        values = [bf_to_posterior(bf) for bf in (0.1, 0.5, 1.0, 2.0, 10.0, 1e6)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert bf_to_posterior(float("inf")) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bf_to_posterior(0.0)
        with pytest.raises(ValueError):
            bf_to_posterior(1.0, prior_h1=0.0)
        with pytest.raises(ValueError):
            bf_to_posterior(1.0, prior_h1=1.0)


class TestCorrelationBf:
    def test_null_favored_at_zero_r(self):
        pair = DataPair(
            [-1.5, -0.5, 0.5, 1.5, -1.5, -0.5, 0.5, 1.5],
            [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0],
        )
        assert abs(np.corrcoef(pair.x, pair.y)[0, 1]) < 1e-12
        assert correlation_bf(pair) <= 1.0

    def test_anscombe_strong_evidence(self):
        assert correlation_bf(DataPair(*ANSCOMBE["A"])) > 10.0

    def test_self_convergence(self):
        # the Euler-transformed series equals the untransformed one,
        # 1/2 B(1/2, a + 1) 2F1((2n - 3)/4, (2n - 1)/4; a + 3/2; r^2), summed here
        # term by term in Python
        pair = seeded_pair(40, 0.5, 314)
        r, n = pearson(pair).r, pair.n
        a, b, c, z = (2 * n - 3) / 4, (2 * n - 1) / 4, (n + 2) / 2, r * r
        total, term, k = 1.0, 1.0, 0
        while term > 1e-17 * total:
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
            k += 1
        log_beta = math.lgamma(0.5) + math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1)
        direct = 0.5 * math.exp(log_beta) * total
        assert correlation_bf(pair) == pytest.approx(direct, rel=1e-12)

    def test_perfect_correlation_sentinel(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        pair = DataPair(x, [2 * v + 1 for v in x])
        assert correlation_bf(pair) == float("inf")

    def test_increases_with_strength(self):
        base = seeded_pair(30, 0.0, 2718)
        values = []
        for mix in (0.2, 0.5, 0.8):
            blended = DataPair(base.x, mix * base.x + (1 - mix) * base.y)
            values.append(correlation_bf(blended))
        assert values[0] < values[1] < values[2]

    def test_increases_with_sample_size(self):
        pair = seeded_pair(25, 0.5, 777)
        doubled = DataPair(np.tile(pair.x, 2), np.tile(pair.y, 2))
        assert correlation_bf(doubled) > correlation_bf(pair)

    def test_large_n_stays_finite_and_positive(self):
        pair = seeded_pair(5000, 0.1, 99)
        bf = correlation_bf(pair)
        assert bf > 0.0 and math.isfinite(bf)


def _near_one_pair(n: int, gap: float) -> DataPair:
    """A pair of n points whose Pearson r is about 1 - gap."""
    x = np.arange(n, dtype=np.float64)
    wiggle = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    wiggle -= wiggle.mean()
    # 1 - r is about var(noise) / (2 var(x)) for small noise
    scale = math.sqrt(2.0 * gap * float(np.var(x)) / float(np.var(wiggle)))
    return DataPair(x, x + scale * wiggle)


def _frozen_hyp2f1_rows(z: np.ndarray, c: float) -> np.ndarray:
    """``calibration._hyp2f1_rows`` before its early exit: every row that
    does not converge runs to the cap."""
    cap = calibration._SERIES_MAX_TERMS
    total, term = np.ones(z.shape), np.ones(z.shape)
    active, k, width = np.arange(z.size), 0, 8
    while active.size and k < cap:
        j = np.arange(k, k + width, dtype=np.float64)
        ratios = z[active, None] * ((j + 1.75) * (j + 1.25) / ((j + c) * (j + 1.0)))
        terms = np.cumprod(np.column_stack([term[active], ratios]), axis=1)
        term[active] = terms[:, -1]
        terms[:, 0] = total[active]
        sums = np.cumsum(terms, axis=1)
        total[active] = sums[:, -1]
        active = active[sums[:, -1] != sums[:, -2]]
        k += width
        terms = core.units_per_block(calibration._TERM_BYTES * active.size)
        width = min(max(8, min(2 * width, terms)), cap - k)
    total[active] = np.nan
    return total


class TestBfRows:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 500), r=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_the_trapezoid(self, n, r):
        try:
            expected = pairwise_reference.trapezoid_bf(r, n)
        except ConvergenceError:
            assume(False)  # the integrator's own failure near |r| = 1
        got = bf_rows(np.array([r]), n)[0]
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 50, 5000])
    def test_perfect_correlation_is_infinite(self, n):
        assert bf_rows(np.array([1.0, -1.0]), n).tolist() == [math.inf, math.inf]
        assert pairwise_reference.trapezoid_bf(1.0, n) == math.inf
        assert pairwise_reference.trapezoid_bf(-1.0, n) == math.inf

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 400),
        r=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40).map(np.array),
    )
    # the series does not converge here, by design (see bf_rows)
    @example(n=3, r=np.array([0.9999999999999999]))
    def test_each_row_as_if_alone(self, n, r):
        """The batched call raises ConvergenceError exactly when some row
        raises it alone; otherwise each row has the bytes of its own call."""
        alone, diverged = [], False
        for i in range(len(r)):
            try:
                alone.append(bf_rows(r[i : i + 1], n)[0])
            except ConvergenceError:
                diverged = True
        if diverged:
            with pytest.raises(ConvergenceError):
                bf_rows(r, n)
        else:
            assert bf_rows(r, n).tobytes() == np.array(alone).tobytes()

    def test_sign_symmetric(self):
        r = np.linspace(-0.99, 0.99, 41)
        assert bf_rows(r, 17).tobytes() == bf_rows(-r, 17).tobytes()

    def test_exact_values(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for n, r in [(4, 0.999), (10, 0.99999), (50, 0.3), (50, 0.9999999), (200, -0.99)]:
            a = mpmath.mpf(n - 1) / 2
            exact = mpmath.beta(0.5, a + 1) / 2 * mpmath.hyp2f1(
                mpmath.mpf(2 * n - 3) / 4, mpmath.mpf(2 * n - 1) / 4, a + 1.5, mpmath.mpf(r) ** 2
            )
            assert bf_rows(np.array([r]), n)[0] == pytest.approx(float(exact), rel=1e-12)

    def test_log_bf_beyond_float64_is_infinite(self):
        assert bf_rows(np.array([0.9]), 5000)[0] == math.inf

    @pytest.mark.parametrize("n", range(3, 11))
    def test_converges_wherever_the_trapezoid_does(self, n):
        gaps = [10.0 ** -k for k in range(1, 7)] + [5e-5, 3e-5, 2e-5, 1.5e-5]
        for gap in gaps:
            try:
                expected = pairwise_reference.trapezoid_bf(1.0 - gap, n)
            except ConvergenceError:
                continue
            assert bf_rows(np.array([1.0 - gap, gap - 1.0]), n) == pytest.approx(
                [expected, expected], rel=1e-6
            )

    def test_cap_names_n_and_r(self):
        # the series cannot converge this close to 1 at n = 3, nor could the
        # trapezoid
        with pytest.raises(ConvergenceError, match=r"n=3, r=0\.9999999"):
            bf_rows(np.array([0.2, 0.9999999]), 3)
        with pytest.raises(ConvergenceError):
            pairwise_reference.trapezoid_bf(0.9999999, 3)

    @pytest.mark.parametrize("n, edge", [(3, 2e-6), (4, 2e-6), (5, 2e-6), (6, 6e-7), (7, 6e-8)])
    def test_early_exit_keeps_every_result(self, monkeypatch, n, edge):
        # around the module docstring's edge of convergence at each n: rows
        # that exit at once, rows that run to the cap and fail, rows that
        # converge just before it and rows far inside
        s = 1.0 - edge * np.array([0.01, 0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 100.0])
        r = np.concatenate([s, -s])
        got = calibration._bf_series(r, n)
        monkeypatch.setattr(calibration, "_hyp2f1_rows", _frozen_hyp2f1_rows)
        want = calibration._bf_series(r, n)
        assert got[0].tobytes() == want[0].tobytes()
        assert [repr(e) for e in got[1]] == [repr(e) for e in want[1]]
        assert np.isnan(want[0]).any() and not np.isnan(want[0]).all()

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_traced_peak_fits_the_budget(self, monkeypatch, n, gap):
        # 1000 rows near |r| = 1: no row converges within 1024 terms, so
        # their first blocks are the widest the budget allows, and a later
        # block of fewer rows holds no more terms; the cap stops the series
        # there (run in full, it peaks about 2% higher)
        monkeypatch.setattr(calibration, "_SERIES_MAX_TERMS", 2 ** 10)
        r = np.full(1000, 1.0 - gap)
        calibration._bf_series(r, n)
        tracemalloc.start()
        try:
            calibration._bf_series(r, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= core.CHUNK_BYTES

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bf_rows(np.array([0.5]), 2)
        for bad in (1.5, -1.01, math.nan):
            with pytest.raises(ValueError):
                bf_rows(np.array([0.1, bad]), 10)

    def test_shapes(self):
        assert bf_rows(np.array([]), 10).shape == (0,)
        grid = np.array([[0.1, -0.5], [1.0, 0.3]])
        assert bf_rows(grid, 10).tobytes() == bf_rows(grid.ravel(), 10).tobytes()
        assert bf_rows(0.3, 10) == bf_rows([0.3], 10)[0]
        with pytest.raises(ConvergenceError, match="r=0.9999999"):
            bf_rows(np.array([[0.2], [0.9999999]]), 3)


class TestNearPerfectCorrelation:
    def test_series_converges_where_the_trapezoid_failed(self):
        pair = _near_one_pair(50, 1e-7)
        r = pearson(pair).r
        assert 5e-8 < 1.0 - r < 5e-7
        with pytest.raises(ConvergenceError):
            pairwise_reference.correlation_bf(pair)
        bf = correlation_bf(pair)
        assert 1e150 < bf < math.inf
        assert bf == bf_rows(np.array([r]), 50)[0]
