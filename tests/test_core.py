import math
from fractions import Fraction

import numpy as np
import pytest

from dcal import (
    DataPair,
    DegenerateVarianceError,
    InsufficientDataError,
    NumericRangeError,
    loo_predictions,
    ols_fit,
    pearson,
    pearson_rows,
)
from dcal import core
from dcal.core import classical_rows, pair_errors, t_pvalues
from dcal.rng import Stream, derive
from dcal.special import student_t_sf_two_sided

from conftest import ANSCOMBE, naive_loo, seeded_pair
from test_work_space import assert_fits


class TestDataPair:
    def test_rejects_short_samples(self):
        with pytest.raises(InsufficientDataError):
            DataPair([1, 2, 3], [4, 5, 6])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DataPair([1, 2, 3, 4], [1, 2, 3])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DataPair([1, 2, np.nan, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            DataPair([1, 2, 3, 4], [1, np.inf, 3, 4])

    def test_rejects_constant_column(self):
        with pytest.raises(DegenerateVarianceError):
            DataPair([5, 5, 5, 5], [1, 2, 3, 4])
        with pytest.raises(DegenerateVarianceError):
            DataPair([1, 2, 3, 4], [7, 7, 7, 7])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError, match="x must be one-dimensional"):
            DataPair([[1, 2], [3, 4]], [1, 2, 3, 4])

    def test_values_immutable(self):
        pair = DataPair([1, 2, 3, 4], [4, 3, 2, 1])
        with pytest.raises(ValueError):
            pair.x[0] = 99


class TestPearson:
    def test_anscombe_a(self):
        pair = DataPair(*ANSCOMBE["A"])
        res = pearson(pair)
        # frozen from a 50-digit independent evaluation
        assert res.r == pytest.approx(0.81642051634483984, abs=1e-13)
        assert res.p == pytest.approx(0.0021696288730787969, rel=1e-11)
        assert res.n == 11 and res.df == 9

    def test_identity_pair(self):
        values = [0.3, 1.7, -2.2, 4.4, 0.9]
        res = pearson(DataPair(values, values))
        assert res.r == 1.0
        assert res.p == 0.0

    def test_seeded_pair_reference(self):
        # stream seed 20240311, rho = 0.4, n = 50; r/p frozen from the
        # high-precision textbook t-formula evaluation
        res = pearson(seeded_pair(50, 0.4, 20240311))
        assert res.r == pytest.approx(0.35606439256060979, abs=1e-14)
        assert res.p == pytest.approx(0.011153525586157288, rel=1e-12)

    def test_affine_equivariance(self):
        for k in range(40):
            pair = seeded_pair(30, 0.3, derive(901, k))
            base = pearson(pair).r
            for b, d in ((2.0, 5.0), (-1.5, 3.0), (0.25, -4.0), (-2.0, -0.5)):
                scaled = pearson(DataPair(1.0 + b * pair.x, -2.0 + d * pair.y)).r
                assert scaled == pytest.approx(np.sign(b * d) * base, abs=1e-12)

    def test_p_symmetric_under_reflection(self):
        for k in range(20):
            pair = seeded_pair(25, 0.5, derive(902, k))
            assert pearson(pair).p == pearson(DataPair(pair.x, -pair.y)).p

    def test_matches_scipy_pearsonr(self):
        from scipy import stats

        for k in range(25):
            pair = seeded_pair(35, 0.25, derive(909, k))
            res = pearson(pair)
            ref_r, ref_p = stats.pearsonr(pair.x, pair.y)
            assert res.r == pytest.approx(ref_r, abs=1e-13)
            assert res.p == pytest.approx(ref_p, rel=1e-10)


class TestPearsonRows:
    def test_rows_equal_single_pair_calls(self):
        stream = Stream(derive(913, 0))
        X = stream.normals(7 * 30).reshape(7, 30)
        y = stream.normals(30)
        r, p = pearson_rows(X, y)
        for j in range(7):
            res = pearson(DataPair(X[j], y))
            assert (r[j], p[j]) == (res.r, res.p)
        # one sample per row is the same statistic
        r_own, p_own = pearson_rows(X, np.tile(y, (7, 1)))
        assert np.array_equal(r_own, r) and np.array_equal(p_own, p)

    def test_collinear_rows_have_zero_p(self):
        y = np.arange(8.0)
        r, p = pearson_rows(np.vstack([2 * y + 1, -y]), y)
        assert list(r) == [1.0, -1.0] and list(p) == [0.0, 0.0]

    @pytest.mark.parametrize("X, y, r_want", [
        # rounding leaves 1 - r**2 above 0, which sent df = 0 to the t tail
        ([[27705.089164269993, -93373.224437154]], [[5800.532247005878, 6310.765408612602]],
         [-1.0]),
        ([[1.0, 2.0]], [3.0, 5.0], [1.0]),  # p was 0: certainty from two points
    ])
    def test_two_samples_have_nan_p(self, X, y, r_want):
        r, p = pearson_rows(X, y)
        assert list(r) == r_want and np.isnan(p).all()

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("shared", [True, False])
    def test_fewer_than_three_samples_have_nan_p(self, n, shared):
        # no t distribution below 1 degree of freedom; r is the kernel's
        X = np.arange(3.0 * n).reshape(3, n) ** 2
        y = np.arange(n, 0, -1.0) if shared else X[::-1] * 3.0 + 1.0
        r, p = pearson_rows(X, y)
        want = classical_rows(X, y, [None] * 3)[0]
        assert p.shape == (3,) and np.isnan(p).all()
        assert np.array_equal(r, want, equal_nan=True)

    def test_pair_errors_reject_a_non_finite_target(self):
        with pytest.raises(ValueError, match="y contains non-finite values"):
            pair_errors(np.ones((2, 5)), np.array([1.0, 2.0, np.nan, 4.0, 5.0]))

    @pytest.mark.parametrize("values", [
        [1.0, 2.0, -1e308, 3.0, 0.5, 2.5],  # the centred square overflows
        [1.7e308, -1e308, 0.0, 1.0, 2.0, 3.0],  # so does a centred value
        [1e-170, 3e-170, 2e-170, 5e-170, 4e-170, 0.0],  # the sums underflow to 0
    ])
    def test_out_of_range_rows_are_nan(self, values):
        y = np.array([0.3, -1.2, 0.8, 1.9, -0.4, 0.6])
        X = np.vstack([values, y[::-1]])
        with np.errstate(over="raise", invalid="raise"):  # the kernel does not warn either
            r, p = pearson_rows(X, y)
        assert np.isnan(r[0]) and np.isnan(p[0])
        assert (r[1], p[1]) == (pearson(DataPair(y[::-1], y)).r, pearson(DataPair(y[::-1], y)).p)
        with pytest.raises(NumericRangeError, match="leave the float64 range"):
            pearson(DataPair(values, y))


class TestTPvalueBlocks:
    """``t_pvalues`` runs the t tail in row blocks of ``core._TAIL_BYTES``."""

    @staticmethod
    def _correlations(rows, seed):
        stream = Stream(seed)
        r = np.tanh(stream.normals(rows) / 3.0)
        r[::7] = np.nan  # rows whose sums left the range
        r[3::11] = 1.0  # collinear rows: p = 0
        rest = (1.0 - r) * (1.0 + r)
        return r, rest

    @pytest.mark.parametrize("budget", [1, 150 * core._TAIL_BYTES, core.CHUNK_BYTES, 2 ** 40])
    def test_every_block_size_gives_each_entry_its_scalar_bits(self, monkeypatch, budget):
        # blocks of one row, of 150 (the last below the array tail's
        # ARRAY_MIN_ROWS), the default's and one block
        r, rest = self._correlations(1000, 5)
        df = 1 + np.arange(1000) % 60
        monkeypatch.setattr(core, "CHUNK_BYTES", budget)
        for k in (df, 48):
            got = t_pvalues(r, rest, k)
            dfs = np.broadcast_to(k, r.shape)
            want = [math.nan if math.isnan(q) else 0.0 if q == 0.0
                    else min(1.0, student_t_sf_two_sided(v * v * d / q, int(d)))
                    for v, q, d in zip(r.tolist(), rest.tolist(), dfs.tolist())]
            assert got.tobytes() == np.array(want).tobytes()

    def test_traced_peak_on_8000_rows(self):
        # one budget of tail work space plus 48 bytes a row of per-row
        # vectors; one tail over all rows traced 4.69 MB here
        assert_fits("t_pvalues", m=8000, n=98, per_row=False)


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit([1, 2, 3], [2, 4, 6])
        assert fit.slope == pytest.approx(2.0, abs=1e-15)
        assert fit.intercept == pytest.approx(0.0, abs=1e-15)

    def test_constant_response(self):
        fit = ols_fit([0, 1, 2, 3], [1, 1, 1, 1])
        assert fit.slope == 0.0
        assert fit.intercept == 1.0

    def test_anscombe_a_against_normal_equations(self):
        x, y = ANSCOMBE["A"]
        fit = ols_fit(x, y)
        design = np.vstack([np.asarray(x, float), np.ones(len(x))]).T
        slope, intercept = np.linalg.lstsq(design, np.asarray(y, float), rcond=None)[0]
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, abs=1e-12)
        assert fit.slope == pytest.approx(0.5001, abs=5e-4)
        assert fit.intercept == pytest.approx(3.0001, abs=5e-4)

    def test_residuals_and_leverages_invariants(self):
        for k in range(25):
            pair = seeded_pair(40, 0.6, derive(903, k))
            fit = ols_fit(pair.x, pair.y)
            scale = np.abs(pair.y).max()
            assert abs(fit.residuals.sum()) <= 1e-9 * 40 * scale
            assert fit.leverages.sum() == pytest.approx(2.0, abs=1e-9)
            assert np.all(fit.leverages > 0) and np.all(fit.leverages < 1)

    def test_zero_variance_predictor(self):
        with pytest.raises(DegenerateVarianceError):
            ols_fit([3, 3, 3, 3], [1, 2, 3, 4])

    @pytest.mark.parametrize("n", [7, 50])
    def test_predictor_constant_or_squaring_to_zero(self, n):
        # 0.1 repeated does not centre to zeros (slope 0.43 at n = 7 under
        # the sxx test alone); a spread of 1e-170 has sxx = 0
        y = Stream(3).normals(n)
        for x in (np.full(n, 0.1), 1e-170 * Stream(4).normals(n)):
            with pytest.raises(DegenerateVarianceError, match="predictor has zero variance"):
                ols_fit(x, y)

    def test_slope_exact_far_from_zero(self):
        # exact rational slope of the floats actually passed in
        stream = Stream(derive(912, 0))
        x = stream.normals(50)
        y = 0.5 * x + stream.normals(50)
        x, y = x + 1e6, y + 1e6
        fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(fx) / 50, sum(fy) / 50
        exact = sum((a - mx) * (b - my) for a, b in zip(fx, fy)) / sum((a - mx) ** 2 for a in fx)
        assert abs(Fraction(ols_fit(x, y).slope) - exact) <= Fraction(1, 10 ** 12) * abs(exact)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            ols_fit([1, 2], [3, 4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 3"):
            ols_fit([1, 2, 3, 4], [1, 2, 3])


class TestLooPredictions:
    def test_exact_line_reproduces_observations(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0, 4.0, 6.0, 8.0, 10.0]
        assert np.allclose(loo_predictions(x, y), y, atol=1e-12)

    def test_matches_naive_refit(self):
        pair = seeded_pair(30, 0.4, 555)
        fast = loo_predictions(pair.x, pair.y)
        naive = naive_loo(pair.x, pair.y)
        assert np.max(np.abs(fast - naive)) <= 1e-10 * np.abs(naive).max()

    def test_four_point_hand_case(self):
        # leaving out the last point fits (0,0),(1,1),(2,2): predicts 3 at x=3
        preds = loo_predictions([0, 1, 2, 3], [0, 1, 2, 10])
        assert preds[3] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(preds, naive_loo([0, 1, 2, 3], [0, 1, 2, 10]), atol=1e-10)

    def test_fast_naive_equivalence_property(self):
        for k in range(30):
            pair = seeded_pair(25, 0.2, derive(904, k))
            fast = loo_predictions(pair.x, pair.y)
            naive = naive_loo(pair.x, pair.y)
            bound = 1e-9 * max(1.0, np.abs(pair.y).max())
            assert np.max(np.abs(fast - naive)) <= bound

    def test_degenerate_subset_raises(self):
        x, y = ANSCOMBE["D"]
        with pytest.raises(DegenerateVarianceError):
            loo_predictions(x, y)

    def test_minimum_length(self):
        with pytest.raises(InsufficientDataError):
            loo_predictions([1, 2, 3], [4, 5, 6])

    def test_argument_errors(self):
        with pytest.raises(ValueError, match="length mismatch: 4 vs 5"):
            loo_predictions([1, 2, 3, 4], [1, 2, 3, 4, 5])
        with pytest.raises(DegenerateVarianceError, match="predictor has zero variance"):
            loo_predictions([2, 2, 2, 2], [1, 2, 3, 4])
