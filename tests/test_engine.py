from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference
from dcal import core, engine
from dcal import (
    DataPair,
    DcalError,
    DegenerateVarianceError,
    InsufficientDataError,
    NumericRangeError,
    OosScheme,
    ResampleCoverageError,
    UndefinedSignError,
    X_FROM_Y,
    Y_FROM_X,
    dcal_in_sample_check,
    dcal_matrix,
    dcal_test,
    gen_pair,
    loo_predictions,
    oos_predict,
    pearson,
    pearson_rows,
)
from dcal.core import centred_rows, units_per_block
from dcal.methods import Rows
from dcal.rng import Stream, derive, derive_array, permutation_of, raw_block

from conftest import ANSCOMBE, naive_loo, seeded_pair, steep_pair
from test_work_space import assert_fits

# golden calibrated values for the quartet, computed once with the naive
# refit-per-fold oracle and a 50-digit p evaluation, then frozen
GOLDEN_DCAL = {
    "A": (0.62640580171924605, 0.039197094465228663),
    "B": (0.58890808206856622, 0.056618299218967159),
    "C": (0.40314503925340792, 0.21891156088566261),
}


class TestOosScheme:
    def test_labels(self):
        assert OosScheme.loo().label == "loo"
        assert OosScheme.repeated_kfold().label == "cv10x10"
        assert OosScheme.repeated_kfold(5, 3).label == "cv5x3"
        assert OosScheme.boot632().label == "boot632"

    def test_validation(self):
        with pytest.raises(ValueError):
            OosScheme(kind="bogus")
        with pytest.raises(ValueError):
            OosScheme.repeated_kfold(folds=1)
        with pytest.raises(ValueError):
            OosScheme.boot632(replicates=0)
        with pytest.raises(ValueError, match="at least 1 repeat"):
            OosScheme.repeated_kfold(repeats=0)

    def test_reseeded(self):
        scheme = OosScheme.boot632(replicates=50, seed=1)
        assert scheme.reseeded(9).seed == 9
        assert scheme.reseeded(9).replicates == 50
        assert OosScheme.boot632(seed=-3).seed == 2 ** 64 - 3


class TestOosPredict:
    def test_loo_matches_core(self):
        pair = seeded_pair(40, 0.5, 77)
        via_engine = oos_predict(pair, Y_FROM_X, OosScheme.loo())
        assert np.array_equal(via_engine, loo_predictions(pair.x, pair.y))
        via_engine_x = oos_predict(pair, X_FROM_Y, OosScheme.loo())
        assert np.array_equal(via_engine_x, loo_predictions(pair.y, pair.x))

    def test_exact_line_loo(self):
        pair = DataPair([1, 2, 3, 4, 5], [3, 6, 9, 12, 15])
        assert np.allclose(oos_predict(pair, Y_FROM_X, OosScheme.loo()), pair.y, atol=1e-12)

    def test_kfold_deterministic_and_shaped(self):
        pair = seeded_pair(24, 0.3, 41)
        scheme = OosScheme.repeated_kfold(folds=4, repeats=3, seed=11)
        first = oos_predict(pair, Y_FROM_X, scheme)
        second = oos_predict(pair, Y_FROM_X, scheme)
        assert np.array_equal(first, second)
        assert first.shape == (3 * 24,)

    def test_kfold_blocks_match_per_fold_refit(self):
        pair = seeded_pair(12, 0.4, 42)
        scheme = OosScheme.repeated_kfold(folds=3, repeats=2, seed=99)
        got = oos_predict(pair, Y_FROM_X, scheme).reshape(2, 12)
        n, k = 12, 3
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        for rep in range(2):
            order = Stream(derive(99, rep)).permutation(n)
            expected = np.empty(n)
            start = 0
            for size in sizes:
                fold = order[start : start + size]
                start += size
                mask = np.ones(n, dtype=bool)
                mask[fold] = False
                slope, intercept = np.polyfit(pair.x[mask], pair.y[mask], 1)
                expected[fold] = intercept + slope * pair.x[fold]
            assert np.max(np.abs(got[rep] - expected)) <= 1e-9

    def test_kfold_needs_enough_training_points(self):
        pair = DataPair([1, 2, 3, 4], [2, 1, 4, 3])
        with pytest.raises(Exception):
            oos_predict(pair, Y_FROM_X, OosScheme.repeated_kfold(folds=2, repeats=1))

    def test_boot632_deterministic(self):
        pair = seeded_pair(30, 0.5, 58)
        scheme = OosScheme.boot632(replicates=40, seed=3)
        assert np.array_equal(
            oos_predict(pair, Y_FROM_X, scheme), oos_predict(pair, Y_FROM_X, scheme)
        )

    def test_boot632_matches_brute_force(self):
        pair = seeded_pair(15, 0.6, 91)
        scheme = OosScheme.boot632(replicates=25, seed=7)
        got = oos_predict(pair, Y_FROM_X, scheme)
        n = 15
        oob_sum = np.zeros(n)
        oob_cnt = np.zeros(n)
        for b in range(25):
            idx = Stream(derive(7, b)).integers(n, n)
            slope, intercept = np.polyfit(pair.x[idx], pair.y[idx], 1)
            out_of_bag = np.setdiff1d(np.arange(n), idx)
            oob_sum[out_of_bag] += intercept + slope * pair.x[out_of_bag]
            oob_cnt[out_of_bag] += 1
        assert np.all(oob_cnt > 0)
        slope, intercept = np.polyfit(pair.x, pair.y, 1)
        expected = 0.368 * (intercept + slope * pair.x) + 0.632 * (oob_sum / oob_cnt)
        assert np.max(np.abs(got - expected)) <= 1e-9

    def test_degenerate_training_sets_fail_as_in_the_reference(self):
        # a one-off predictor and a 0/1 one leave training sets, or bootstrap
        # bags, without spread in one direction; the error types are those
        # of the per-pair reference, whose loo and k-fold texts differ
        pairs = []
        for n in (6, 8, 12):
            one_off = np.zeros(n)
            one_off[-1] = 1.0
            binary = (Stream(n + 1).uniforms(n) < 0.5).astype(np.float64)
            binary[:2] = 0.0, 1.0
            pairs += [DataPair(one_off, Stream(n).normals(n)),
                      DataPair(binary, Stream(n + 2).normals(n))]
        schemes = [OosScheme.loo(), OosScheme.repeated_kfold(2, 3, 1),
                   OosScheme.repeated_kfold(3, 2, 5), OosScheme.boot632(2, 0),
                   OosScheme.boot632(20, 1)]

        def outcome(predict, pair, direction, scheme):
            try:
                predict(pair, direction, scheme)
            except DcalError as exc:
                return type(exc), str(exc)
            return None, None

        raised = set()
        for pair in pairs:
            for scheme in schemes:
                for direction in (Y_FROM_X, X_FROM_Y):
                    got = outcome(oos_predict, pair, direction, scheme)
                    want = outcome(pairwise_reference.oos_predict, pair, direction, scheme)
                    assert got[0] is want[0], (pair, direction, scheme)
                    if got[0] is not None:
                        raised.add((scheme.kind, got[1]))
        assert raised == {
            ("loo", "a training set has zero predictor variance"),
            ("kfold", "a training set has zero predictor variance"),
            ("boot632", "bootstrap training sample has zero predictor variance"),
        }

    def test_coverage_failure_as_in_the_reference(self):
        # with one replicate and ten retries, sample 2 is in every bag
        pair = DataPair(Stream(94).normals(4), Stream(95).normals(4))
        for predict in (oos_predict, pairwise_reference.oos_predict):
            with pytest.raises(ResampleCoverageError,
                               match="^sample 2 was never out-of-bag in 11 bootstrap replicates$"):
                predict(pair, Y_FROM_X, OosScheme.boot632(1, 39))

    def test_unknown_direction(self):
        pair = seeded_pair(10, 0.1, 2)
        with pytest.raises(ValueError):
            oos_predict(pair, "sideways", OosScheme.loo())


class TestKfoldOutlierStability:
    """One value of 1e8 among N(0, 1) values, at every position of a
    permutation: each k-fold prediction stays within ``BOUND`` of a per-fold
    refit (``pairwise_reference``), relative to its size plus the median
    absolute deviation of the predicted sample.  A training mean sits far
    from the row mean when a fold holds the outlier; expanding the square
    there cancels.  Centring the row about its mean (about 2e6) already
    costs the kernel about 1e-8 of that scale."""

    BOUND = 1e-6

    @pytest.mark.parametrize("n, folds", [(50, 10), (47, 10), (50, 2), (21, 2)])
    @pytest.mark.parametrize("per_row_y", [False, True], ids=["shared-y", "per-row-y"])
    def test_outlier_at_every_position(self, n, folds, per_row_y):
        scheme = OosScheme.repeated_kfold(folds, 2, seed=7)
        rng = np.random.default_rng(n + folds)
        y = rng.standard_normal((n, n) if per_row_y else n)
        X = np.tile(rng.standard_normal(n), (n, 1))
        # row p holds the outlier at position p of the first repeat's order
        X[np.arange(n), Stream(derive(7, 0)).permutation(n)] = 1e8
        U, v, sums = centred_rows(X, y)
        seeds = np.full(n, scheme.seed, dtype=np.uint64)
        with np.errstate(all="ignore"):
            y_hat, x_hat = engine._kfold_rows(X, U, y, v, sums, scheme, seeds, engine._Work())[:2]
        for j in range(n):
            pair = DataPair(X[j], engine._rows(y, j))
            for got, sample, direction in ((y_hat[j], pair.y, Y_FROM_X), (x_hat[j], pair.x, X_FROM_Y)):
                want = pairwise_reference.oos_predict(pair, direction, scheme)
                spread = np.median(np.abs(sample - np.median(sample)))
                gap = np.abs(got + sample.mean() - want) / (np.abs(want) + spread)
                assert gap.max() <= self.BOUND, (j, direction)


class TestDcalTest:
    def test_anscombe_golden_values(self, anscombe_pairs):
        for name, (r_expected, p_expected) in GOLDEN_DCAL.items():
            res = dcal_test(anscombe_pairs[name])
            assert res.r_dcal == pytest.approx(r_expected, abs=1e-9), name
            assert res.p_dcal == pytest.approx(p_expected, abs=1e-9), name
            assert not res.sign_flip_triggered
            assert not res.skipped_by_fast_flag

    def test_anscombe_d_flips(self, anscombe_pairs):
        res = dcal_test(anscombe_pairs["D"])
        assert res.sign_flip_triggered
        assert (res.r_dcal, res.p_dcal) == (0.0, 0.5)

    def test_fast_guard_skips_null_pair(self):
        pair = seeded_pair(50, 0.0, 12345)
        assert pearson(pair).p >= 0.05
        res = dcal_test(pair, alpha=0.05, fast=True)
        assert res.skipped_by_fast_flag
        assert (res.r_dcal, res.p_dcal) == (0.0, 0.5)
        assert not res.sign_flip_triggered

    def test_alpha_validation(self):
        pair = seeded_pair(20, 0.2, 9)
        with pytest.raises(ValueError):
            dcal_test(pair, alpha=0.0)
        with pytest.raises(ValueError):
            dcal_test(pair, alpha=1.0)

    def test_sign_contract_over_seeds(self):
        for k in range(150):
            pair = seeded_pair(30, 0.15, derive(905, k))
            res = dcal_test(pair, fast=False)
            if res.sign_flip_triggered or res.skipped_by_fast_flag:
                assert (res.r_dcal, res.p_dcal) == (0.0, 0.5)
            else:
                assert np.sign(res.r_dcal) == np.sign(res.r)

    def test_loo_determinism_bit_identical(self):
        pair = seeded_pair(40, 0.3, 31)
        first = dcal_test(pair)
        second = dcal_test(pair)
        assert (first.r, first.p, first.r_dcal, first.p_dcal) == (
            second.r, second.p, second.r_dcal, second.p_dcal,
        )

    def test_null_repulsion_phenomenon(self):
        # under the null, leave-one-out predictions anti-correlate with the
        # values they predict; the flip heuristic exists because of this
        raw = []
        flips = 0
        trials = 200
        for k in range(trials):
            pair = seeded_pair(50, 0.0, derive(906, k))
            predictions = loo_predictions(pair.x, pair.y)
            raw.append(pearson(DataPair(predictions, pair.y)).r)
            res = dcal_test(pair, fast=False)
            flips += res.sign_flip_triggered
        assert np.mean(raw) < -0.1
        fraction = flips / trials
        assert fraction > 0.5  # fires in a substantial fraction of null cases
        print(f"\nnull sign-flip fraction at n=50: {fraction:.3f}")

    def test_conservative_at_small_effect(self):
        classical, calibrated = [], []
        for k in range(200):
            res = dcal_test(seeded_pair(50, 0.2, derive(907, k)), fast=False)
            classical.append(res.p)
            calibrated.append(res.p_dcal)
        assert np.mean(calibrated) > np.mean(classical)


class TestInSampleCheck:
    def test_equals_classical_r_on_anscombe(self, anscombe_pairs):
        for name in ("A", "B", "C", "D"):
            pair = anscombe_pairs[name]
            assert dcal_in_sample_check(pair) == pytest.approx(pearson(pair).r, abs=1e-12)

    def test_identity(self):
        values = [1.0, 2.5, 3.5, 7.0, 9.0]
        assert dcal_in_sample_check(DataPair(values, values)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_noisy(self):
        pair = seeded_pair(60, -0.7, 2024)
        assert dcal_in_sample_check(pair) == pytest.approx(pearson(pair).r, abs=1e-12)

    def test_zero_correlation_rejected(self):
        pair = DataPair([-1.5, -0.5, 0.5, 1.5], [1.0, -1.0, -1.0, 1.0])
        assert pearson(pair).r == 0.0
        with pytest.raises(UndefinedSignError):
            dcal_in_sample_check(pair)

    def test_property_over_random_pairs(self):
        for k in range(100):
            pair = seeded_pair(20, 0.4, derive(908, k))
            assert abs(dcal_in_sample_check(pair) - pearson(pair).r) <= 1e-10


def _generic_battery(seed: int, m: int, n: int, binary_share: float, per_row_y: bool = False):
    """y plus m rows: 0/1 features, planted correlates and independent noise.

    Values come from seeded streams, so exact ties occur only in the 0/1
    rows; those give constant training predictors in some folds and bootstrap
    samples.  With ``per_row_y`` every row gets its own normal target,
    (m, n), and planted rows correlate with their own target.  (A 0/1 target
    against a 0/1 row can give exactly constant or exactly collinear
    predictions, where the kernel and the reference round differently; see
    ``test_binary_pairs_round_differently``.)
    """
    y = Stream(derive(seed, 0)).normals(n)
    rows, targets = [], []
    for j in range(m):
        stream = Stream(derive(seed, 1, j))
        u = stream.uniforms(2)
        target = y
        if per_row_y:
            target = Stream(derive(seed, 3, j)).normals(n)
        if u[0] < binary_share:
            rows.append((stream.uniforms(n) < 0.1 + 0.8 * u[1]).astype(float))
        elif u[0] < binary_share + (1.0 - binary_share) / 2:
            rho = 1.8 * u[1] - 0.9
            rows.append(rho * target + np.sqrt(1.0 - rho * rho) * stream.normals(n))
        else:
            rows.append(stream.normals(n))
        targets.append(target)
    return np.vstack(rows), (np.vstack(targets) if per_row_y else y)


@st.composite
def _schemes(draw, n):
    kind = draw(st.sampled_from(["loo", "kfold", "boot632"]))
    if kind == "loo":
        return OosScheme.loo()
    if kind == "kfold":
        # folds that leave every training set at least 3 points
        valid = [k for k in range(2, min(10, n) + 1) if n - -(-n // k) >= 3]
        return OosScheme.repeated_kfold(draw(st.sampled_from(valid)), draw(st.integers(1, 3)))
    return OosScheme.boot632(draw(st.integers(1, 30)))


@st.composite
def _adversarial_battery(draw):
    """(X, y): a generic battery at n = 3 to 40, y shared or one per row,
    whose rows may be constant, hold -1e308, be scaled so that their
    centred sums overflow, or be steep: noise of about 1e-150 but for one
    far sample, against a target of about 1e150 that is far at that sample
    too, so that a training set without the far sample predicts it out of
    the float64 range; one per-row target may be constant."""
    n = draw(st.one_of(st.sampled_from([3, 4]), st.integers(5, 40)))
    m = draw(st.integers(1, 12))
    per_row_y = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 64 - 1))
    X, y = _generic_battery(seed, m, n, draw(st.sampled_from([0.0, 0.5])), per_row_y)
    far = draw(st.integers(0, n - 1))
    steep = []
    for j in range(m):
        kind = draw(st.sampled_from(
            ["plain", "plain", "plain", "constant", "huge", "scaled", "steep"]
        ))
        if kind == "constant":  # 0.1 leaves a centred residue of rounding
            X[j] = draw(st.sampled_from([2.5, 0.1, -1e300]))
        elif kind == "huge":
            X[j, draw(st.integers(0, n - 1))] = -1e308
        elif kind == "scaled":
            X[j] *= 1e160
        elif kind == "steep":
            X[j] *= 1e-150
            X[j, far] = 1e140
            steep.append(j)
    for j in steep if per_row_y else steep[:1]:  # a shared target is scaled once
        target = y[j] if per_row_y else y
        target *= 1e150
        target[far] = 1e153
    if per_row_y and draw(st.booleans()):
        y[draw(st.integers(0, m - 1))] = 0.1
    return X, y


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# Correlations lie in [-1, 1], and two correct summation orders differ by a
# few units in the last place at that scale.  A calibrated r of 2.8e-5 has
# differed by 5.6e-17 between the kernel and the reference, so correlations
# get this absolute floor under their relative tolerance.
_R_ATOL = 1e-15


def _close_p(a: float, b: float, rtol: float) -> bool:
    """Relative closeness of p-values, on the log scale below 1/e.

    Near |r| = 1 the rounding of 1 - r**2 moves a tiny p by a relative amount
    that grows with |log p|: at df = 16 a p of 8.0e-24 has differed by 2e-12
    relative, 4e-14 of its logarithm.
    """
    if a == b:
        return True
    if min(a, b) <= 0.0:
        return False
    return abs(np.log(a) - np.log(b)) <= rtol * max(1.0, -np.log(min(a, b)))


def _outcome(run):
    try:
        return run(), None
    except DcalError as exc:
        return None, (type(exc), str(exc))


class TestDcalMatrix:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 40),
        n=st.integers(6, 80),
        seed=st.integers(0, 2 ** 64 - 1),
        binary_share=st.sampled_from([0.0, 0.5, 1.0]),
        alpha=st.sampled_from([0.05, 0.3]),
        fast=st.booleans(),
        per_row_y=st.booleans(),
    )
    def test_matches_per_pair_reference(
        self, data, m, n, seed, binary_share, alpha, fast, per_row_y
    ):
        scheme = data.draw(_schemes(n))
        X, y = _generic_battery(seed, m, n, binary_share, per_row_y)
        seeds = [derive(seed, 2, j) for j in range(m)]
        batch = dcal_matrix(X, y, scheme, seeds, alpha, fast)
        for j in range(m):
            want, want_error = _outcome(
                lambda: pairwise_reference.dcal_test(
                    DataPair(X[j], y[j] if per_row_y else y), alpha, fast,
                    scheme.reseeded(seeds[j]),
                )
            )
            got_error = batch.errors[j]
            assert want_error == (None if got_error is None else (type(got_error), str(got_error)))
            if want is None:
                assert np.isnan([batch.r[j], batch.p[j], batch.r_dcal[j], batch.p_dcal[j]]).all()
                continue
            assert (batch.sign_flip[j], batch.skipped[j]) == (
                want.sign_flip_triggered, want.skipped_by_fast_flag
            )
            for got, expected in ((batch.r[j], want.r), (batch.r_dcal[j], want.r_dcal)):
                assert _close(got, expected, 1e-12, _R_ATOL), (j, got, expected)
            for got, expected in ((batch.p[j], want.p), (batch.p_dcal[j], want.p_dcal)):
                assert _close_p(got, expected, 1e-12), (j, got, expected)
        # a row's result does not depend on the other rows of its call
        for j in {0, m - 1}:
            target = y[j : j + 1] if per_row_y else y
            alone = dcal_matrix(X[j : j + 1], target, scheme, seeds[j : j + 1], alpha, fast)
            assert (alone.r[0], alone.p[0], alone.r_dcal[0], alone.p_dcal[0]) == (
                batch.r[j], batch.p[j], batch.r_dcal[j], batch.p_dcal[j]
            ) or batch.errors[j] is not None

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 64 - 1),
        rho=st.floats(-0.9, 0.9),
        shift=st.integers(-(10 ** 6) * 2 ** 10, 10 ** 6 * 2 ** 10),
        n=st.integers(12, 60),
        kind=st.sampled_from(["loo", "kfold", "boot632"]),
    )
    def test_shift_invariance(self, seed, rho, shift, n, kind):
        # values on a 2**-20 grid and shifts on a 2**-10 grid, so x + c is
        # exact and only the algorithm's own rounding can move the result
        pair = gen_pair(n, rho, seed)
        x = np.round(pair.x * 2 ** 20) / 2 ** 20
        y = np.round(pair.y * 2 ** 20) / 2 ** 20
        c = shift / 2 ** 10
        scheme = {
            "loo": OosScheme.loo(),
            "kfold": OosScheme.repeated_kfold(5, 2, seed),
            "boot632": OosScheme.boot632(30, seed),
        }[kind]
        base = dcal_test(DataPair(x, y), scheme=scheme)
        moved = dcal_test(DataPair(x + c, y + c), scheme=scheme)
        assert moved.sign_flip_triggered == base.sign_flip_triggered
        assert _close(moved.r_dcal, base.r_dcal, 1e-8)

    @settings(max_examples=120, deadline=None)
    @given(
        battery=_adversarial_battery(),
        data=st.data(),
        alpha=st.sampled_from([0.05, 0.5]),
        fast=st.booleans(),
    )
    def test_phases_agree(self, battery, data, alpha, fast):
        # Rows.classical and Rows.calibrated share one classical phase:
        # they give a valid row pearson_rows' r and p bit for bit, a row in
        # error the error of the single-pair call, and together they are
        # dcal_matrix of the same rows
        X, y = battery
        m, n = X.shape
        # one or two bootstrap replicates leave some sample in every bag
        schemes = [st.builds(OosScheme.boot632, st.integers(1, 2))] + [_schemes(n)] * (n >= 4)
        scheme = data.draw(st.one_of(*schemes))
        seeds = np.array([derive(n, 4, j) for j in range(m)], dtype=np.uint64)
        rows = Rows(X, y, scheme, seeds, alpha, fast)
        score, estimate, errors = rows.classical
        batch = rows.calibrated
        whole = dcal_matrix(X, y, scheme, seeds, alpha, fast)
        for field in ("r", "p", "r_dcal", "p_dcal", "sign_flip", "skipped"):
            assert getattr(batch, field).tobytes() == getattr(whole, field).tobytes(), field
        assert [repr(e) for e in batch.errors] == [repr(e) for e in whole.errors]
        r, p = pearson_rows(X, y)
        for j in range(m):
            _, want = _outcome(lambda: pearson(DataPair(X[j], y[j] if y.ndim == 2 else y)))
            assert want == (None if errors[j] is None else (type(errors[j]), str(errors[j]))), j
            if errors[j] is not None:
                assert batch.errors[j] is errors[j], j
                assert np.isnan([score[j], estimate[j], batch.r[j], batch.p[j]]).all(), j
                continue
            expected = np.array([r[j], p[j]]).tobytes()
            assert np.array([estimate[j], score[j]]).tobytes() == expected, j
            if batch.errors[j] is None:
                assert np.array([batch.r[j], batch.p[j]]).tobytes() == expected, j
            else:  # only the out-of-sample step can fail a valid pair
                calibration_only = (ResampleCoverageError, InsufficientDataError, NumericRangeError)
                assert isinstance(batch.errors[j], calibration_only), j

    @pytest.mark.parametrize("scheme", [
        OosScheme.loo(), OosScheme.repeated_kfold(5, 3), OosScheme.boot632(30)
    ], ids=lambda scheme: scheme.label)
    def test_repeated_shared_target_as_per_row_targets(self, scheme):
        # per-row targets that all equal the shared one give the shared
        # target's results, bit for bit
        X, y = _generic_battery(23, 30, 24, 0.3)
        seeds = [derive(23, 2, j) for j in range(30)]
        shared = dcal_matrix(X, y, scheme, seeds)
        per_row = dcal_matrix(X, np.tile(y, (30, 1)), scheme, seeds)
        for got, want in zip(per_row, shared):
            if isinstance(want, tuple):
                assert [type(e) for e in got] == [type(e) for e in want]
            else:
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.xfail(strict=True, reason="known: 0/1 x against 0/1 y rounds differently")
    @pytest.mark.parametrize("x, y", [
        # LOO predictions of x from y are exactly constant in the reference
        # (sentinel); the kernel's centred arithmetic leaves r_dcal = 3e-16
        ([1, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0]),
        # r = -1 exactly: the reference's 1 - r**2 is 0 (p = 0), the
        # kernel's sums leave p = 2.3e-32
        ([0, 1, 0, 0, 1, 0], [1, 0, 1, 1, 0, 1]),
    ])
    def test_binary_pairs_round_differently(self, x, y):
        got = dcal_test(DataPair(x, y))
        want = pairwise_reference.dcal_test(DataPair(x, y))
        assert (got.r_dcal, got.p_dcal, got.p) == (want.r_dcal, want.p_dcal, want.p)

    @pytest.mark.parametrize("scheme", [
        OosScheme.loo(), OosScheme.repeated_kfold(4, 2), OosScheme.boot632(20)
    ], ids=lambda scheme: scheme.label)
    def test_out_of_range_rows_fail_alone(self, scheme):
        # row 1: its centred sums overflow; row 2: its sums fit, but a
        # high-leverage point makes a centred sum of squares of its
        # out-of-sample predictions overflow.  Both used to end the whole
        # call with ConvergenceError.
        stream = Stream(0)
        x = stream.normals(12) * 1e-3
        x[0] = 30.0
        y = stream.normals(12) + 0.5 * x
        huge = x.copy()
        huge[3] = -1e308
        scale = 10.0 ** 152
        X, Y = np.vstack([x, huge, x * scale]), np.vstack([y, y, y * scale])
        batch = dcal_matrix(X, Y, scheme, [0, 0, 0])
        assert np.isfinite(pearson_rows(X[2:], Y[2:])[0]).all()
        for j in (1, 2):
            assert isinstance(batch.errors[j], NumericRangeError)
            assert np.isnan([batch.r[j], batch.p[j], batch.r_dcal[j], batch.p_dcal[j]]).all()
        alone = dcal_matrix(X[:1], y, scheme, [0])
        assert batch.errors[0] is None
        assert (batch.r[0], batch.r_dcal[0], batch.p_dcal[0]) == (
            alone.r[0], alone.r_dcal[0], alone.p_dcal[0]
        )

    @pytest.mark.parametrize("scheme", [
        OosScheme.loo(), OosScheme.repeated_kfold(10, 10, 0), OosScheme.boot632(100, 0)
    ], ids=lambda scheme: scheme.label)
    def test_out_of_range_predictions_fail_their_row(self, scheme):
        # k-fold and the bootstrap predict the steep pair's far sample out of
        # the float64 range.  That used to raise ValueError for the whole
        # call; now the row carries NumericRangeError and the other rows keep
        # their results.  At loo the pair gets the sentinel, as before.
        x, y = steep_pair()
        plain = Stream(5).normals(12) * 1e150
        batch = dcal_matrix(np.vstack([plain, x]), y, scheme, [scheme.seed] * 2)
        alone = dcal_matrix(plain[None, :], y, scheme, [scheme.seed])
        for field in ("r", "p", "r_dcal", "p_dcal", "sign_flip", "skipped"):
            assert getattr(batch, field)[:1].tobytes() == getattr(alone, field).tobytes(), field
        assert batch.errors[0] is None
        if scheme.kind == "loo":
            assert batch.errors[1] is None and batch.sign_flip[1]
            assert dcal_test(DataPair(x, y), scheme=scheme).sign_flip_triggered
            return
        # the data's own centred sums are finite: the message names the predictions
        assert isinstance(batch.errors[1], NumericRangeError)
        assert str(batch.errors[1]) == "out-of-sample predictions or their centred sums leave the float64 range"
        assert np.isnan([batch.r[1], batch.p[1], batch.r_dcal[1], batch.p_dcal[1]]).all()
        assert not (batch.sign_flip[1] or batch.skipped[1])
        with pytest.raises(NumericRangeError, match="^out-of-sample predictions"):
            dcal_test(DataPair(x, y), scheme=scheme)

    @settings(max_examples=150, deadline=None)
    @given(
        battery=_adversarial_battery(),
        data=st.data(),
        alpha=st.sampled_from([0.05, 0.5]),
        fast=st.booleans(),
    )
    def test_valid_arguments_fail_only_rows(self, battery, data, alpha, fast):
        # on finite, well-shaped input with valid arguments dcal_matrix does
        # not raise: every failure is its row's DcalError
        X, y = battery
        m, n = X.shape
        scheme = data.draw(st.one_of(
            st.just(OosScheme.loo()),
            st.builds(OosScheme.repeated_kfold, st.integers(2, min(10, n)), st.integers(1, 3)),
            st.builds(OosScheme.boot632, st.integers(1, 30)),
        ))
        seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=m, max_size=m))
        batch = dcal_matrix(X, y, scheme, seeds, alpha, fast)
        assert all(error is None or isinstance(error, DcalError) for error in batch.errors)
        if fast:
            return
        # The one deliberate difference from the frozen reference: where its
        # out-of-sample predictions are not finite it raises ValueError, and
        # the kernel's row carries NumericRangeError.  The kernel predicts
        # from centred training sums, so some predictions that overflow in
        # the reference's refits stay finite in it; such a row is tested.
        for j in range(m):
            try:
                pair = DataPair(X[j], y[j] if y.ndim == 2 else y)
                with np.errstate(all="ignore"):
                    pairwise_reference.dcal_test(pair, alpha, fast, scheme.reseeded(seeds[j]))
            except DcalError:
                continue
            except ValueError as exc:
                assert "contains non-finite values" in str(exc)
                if isinstance(batch.errors[j], NumericRangeError):
                    continue
                assert batch.errors[j] is None, j
                for direction in (Y_FROM_X, X_FROM_Y):
                    predictions = oos_predict(pair, direction, scheme.reseeded(seeds[j]))
                    assert np.isfinite(predictions).all(), j

    @pytest.mark.parametrize("scheme", [
        OosScheme.loo(), OosScheme.repeated_kfold(), OosScheme.repeated_kfold(5, 3),
        OosScheme.boot632(2)
    ], ids=lambda scheme: scheme.label)
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("per_row_y", [False, True])
    def test_chunk_size_does_not_change_bits(self, monkeypatch, scheme, fast, per_row_y):
        # the classical phase spans every row and only the out-of-sample
        # step is chunked; one row per chunk, 7 rows per chunk (a shorter
        # last chunk) and one chunk for all rows must agree bit for bit,
        # error rows included (a constant row, a row whose sums overflow,
        # bootstrap coverage failures of two replicates at n = 12); 12
        # samples leave folds of unequal size
        X, y = _generic_battery(41, 120, 12, 0.2, per_row_y)
        X[3] = 2.0
        X[5, 4] = -1e308
        if per_row_y:
            y[7] = 1.0
        batches = []
        for budget in (1, 7 * engine._row_bytes(scheme, 12), 2 ** 40):
            monkeypatch.setattr(core, "CHUNK_BYTES", budget)
            batches.append(dcal_matrix(X, y, scheme, np.arange(120), 0.05, fast))
        one, seven, all_rows = batches
        for field in ("r", "p", "r_dcal", "p_dcal", "sign_flip", "skipped"):
            want = getattr(all_rows, field).tobytes()
            assert getattr(one, field).tobytes() == getattr(seven, field).tobytes() == want, field
        assert [repr(e) for e in one.errors] == [repr(e) for e in all_rows.errors]
        assert [repr(e) for e in seven.errors] == [repr(e) for e in all_rows.errors]
        assert isinstance(one.errors[3], DegenerateVarianceError)
        assert isinstance(one.errors[5], NumericRangeError)
        assert not fast or one.skipped.any()
        if scheme.kind == "boot632" and not fast:
            assert any(isinstance(e, ResampleCoverageError) for e in one.errors)

    def test_far_scaled_pair_keeps_its_r(self):
        # sums of squares above 1e160, whose product leaves float64
        x, y = ANSCOMBE["A"]
        near = DataPair(x, y)
        far = DataPair(np.array(x) * 1e80, np.array(y) * 1e80)
        assert pearson(far).r == pytest.approx(pearson(near).r, rel=1e-14)
        for scheme in (OosScheme.loo(), OosScheme.repeated_kfold(), OosScheme.boot632(20)):
            got, want = dcal_test(far, scheme=scheme), dcal_test(near, scheme=scheme)
            assert got.r == pytest.approx(want.r, rel=1e-14)
            assert got.r_dcal == pytest.approx(want.r_dcal, rel=1e-14)
            assert got.p_dcal == pytest.approx(want.p_dcal, rel=1e-12)

    def test_per_row_target_errors(self):
        X, y = _generic_battery(29, 3, 12, 0.0)
        Y = np.vstack([y, np.ones(12), y])
        batch = dcal_matrix(X, Y, OosScheme.loo(), [0, 0, 0])
        assert batch.errors[0] is None and batch.errors[2] is None
        assert str(batch.errors[1]) == "y has zero variance"
        with pytest.raises(ValueError, match="of the shape of X"):
            dcal_matrix(X, Y[:2], OosScheme.loo(), [0, 0, 0])

    def test_one_row_call_is_dcal_test(self):
        X, y = _generic_battery(17, 6, 30, 0.3)
        for scheme in (OosScheme.boot632(20, 4), OosScheme.repeated_kfold(10, 10, 4)):
            batch = dcal_matrix(X, y, scheme, [4] * 6)
            for j in range(6):
                res = dcal_test(DataPair(X[j], y), scheme=scheme)
                assert (res.r, res.p, res.r_dcal, res.p_dcal) == (
                    batch.r[j], batch.p[j], batch.r_dcal[j], batch.p_dcal[j]
                ), (scheme.label, j)

    def test_invalid_rows_carry_their_errors(self):
        y = Stream(3).normals(12)
        X = np.vstack([Stream(4).normals(12), np.full(12, 2.0)])
        batch = dcal_matrix(X, y, OosScheme.loo(), [0, 0])
        assert batch.errors[0] is None
        assert isinstance(batch.errors[1], DegenerateVarianceError)
        assert str(batch.errors[1]) == "x has zero variance"
        assert np.isnan(batch.r[1]) and not batch.sign_flip[1]
        flat = dcal_matrix(X[:1], np.ones(12), OosScheme.loo(), [0])
        assert str(flat.errors[0]) == "y has zero variance"
        short = dcal_matrix(X[:, :3], y[:3], OosScheme.loo(), [0, 0])
        assert all(isinstance(e, InsufficientDataError) for e in short.errors)
        for scheme in (OosScheme.loo(), OosScheme.repeated_kfold(2, 1), OosScheme.boot632(3)):
            empty = dcal_matrix(X[:, :0], y[:0], scheme, [0, 0])
            assert all(isinstance(e, InsufficientDataError) for e in empty.errors)

    def test_kfold_layout_errors(self):
        X, y = _generic_battery(5, 3, 5, 0.0)
        small = dcal_matrix(X, y, OosScheme.repeated_kfold(2, 1), [0, 1, 2])
        assert all(isinstance(e, InsufficientDataError) for e in small.errors)
        with pytest.raises(ValueError, match="exceeds sample size"):
            dcal_matrix(X, y, OosScheme.repeated_kfold(6, 1), [0, 1, 2])
        # rows the fast guard skips never reach the out-of-sample step
        skipped = dcal_matrix(X, y, OosScheme.repeated_kfold(6, 1), [0, 1, 2], 1e-9, True)
        assert skipped.skipped.all() and skipped.errors == (None, None, None)

    def test_bootstrap_coverage_error_matches_reference(self):
        # a single replicate at n = 6 leaves some sample in every bag often
        # enough that one of these seeds fails the coverage retries
        X, y = _generic_battery(8, 40, 6, 0.0)
        scheme = OosScheme.boot632(1)
        seeds = list(range(40))
        batch = dcal_matrix(X, y, scheme, seeds)
        failures = [e for e in batch.errors if e is not None]
        assert failures and all(isinstance(e, ResampleCoverageError) for e in failures)
        for j, error in enumerate(batch.errors):
            if error is not None:
                with pytest.raises(ResampleCoverageError, match=str(error)):
                    pairwise_reference.dcal_test(DataPair(X[j], y), scheme=scheme.reseeded(j))

    def test_input_validation(self):
        y = Stream(3).normals(8)
        with pytest.raises(ValueError, match="alpha"):
            dcal_matrix(np.ones((1, 8)), y, OosScheme.loo(), [0], alpha=1.0)
        with pytest.raises(ValueError, match="one seed per row"):
            dcal_matrix(Stream(4).normals(16).reshape(2, 8), y, OosScheme.loo(), [0])
        with pytest.raises(ValueError, match="non-finite"):
            dcal_matrix(np.full((1, 8), np.nan), y, OosScheme.loo(), [0])


_SAMPLE_KINDS = ("normal", "ties", "binary", "one_off")


def _sample(kind: str, stream: Stream, n: int) -> np.ndarray:
    """n values of one kind: distinct normals, normals rounded to a few
    tied values, 0/1 values, one value repeated but once, normals with one
    sample duplicated, or one value repeated but for up to half the samples."""
    z = stream.normals(n)
    if kind == "duplicate":
        z[stream.integers(1, n - 1)[0]] = z[-1]
        return z
    if kind == "few_off":
        out = np.full(n, 1.5)
        others = stream.permutation(n)[: 1 + stream.integers(1, n // 2)[0]]
        out[others] = z[others]
        return out
    if kind == "ties":
        return np.round(z)
    if kind == "binary":
        return (z > 0.0).astype(float)
    if kind == "one_off":
        out = np.full(n, 1.5)
        out[stream.integers(1, n)[0]] = -2.0
        return out
    return z


def _bootstrap_inputs(seed: int, x_kinds, y_kinds, n: int):
    """X (one row per kind in ``x_kinds``), y (shared for one kind, one per
    row for a list of kinds), their centred rows and sums, and one seed per
    row."""
    X = np.vstack([_sample(k, Stream(derive(seed, 1, j)), n) for j, k in enumerate(x_kinds)])
    if isinstance(y_kinds, str):
        y = _sample(y_kinds, Stream(derive(seed, 2)), n)
    else:
        y = np.vstack([_sample(k, Stream(derive(seed, 3, j)), n) for j, k in enumerate(y_kinds)])
    U, v, sums = centred_rows(X, y)
    seeds = np.array([derive(seed, 4, j) for j in range(len(x_kinds))], dtype=np.uint64)
    return X, y, U, v, sums, seeds


def _same_bits(got, want) -> None:
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, k
        assert a.tobytes() == b.tobytes(), k


def _assert_rows_are_one_row_tests(X, y, scheme, seeds, batch) -> None:
    """Every row of ``batch`` is its one-row ``dcal_test``: the same numbers
    and flags, or the same error."""
    for j in range(len(X)):
        want, want_error = _outcome(lambda: dcal_test(
            DataPair(X[j], engine._rows(y, j)), scheme=scheme.reseeded(seeds[j])))
        got_error = batch.errors[j]
        assert want_error == (None if got_error is None else (type(got_error), str(got_error)))
        if want is not None:
            assert (want.r, want.p, want.r_dcal, want.p_dcal) == (
                batch.r[j], batch.p[j], batch.r_dcal[j], batch.p_dcal[j])
            assert (want.sign_flip_triggered, want.skipped_by_fast_flag) == (
                batch.sign_flip[j], batch.skipped[j])


def _sub_block_rows(rows: int, replicates: int, n: int):
    """A budget whose bootstrap sub-blocks hold ``rows`` rows (patches
    ``core.CHUNK_BYTES``)."""
    budget = rows * engine._row_bytes(OosScheme.boot632(replicates), n)
    return mock.patch.object(core, "CHUNK_BYTES", budget)


class TestBootstrapKernel:
    """The bootstrap kernel against the frozen one of
    ``pairwise_reference``: the same draws, degeneracy flags, out-of-bag
    sums and counts, and predictions, bit for bit, in sub-blocks of any
    number of rows."""

    @staticmethod
    def _compare(X, y, U, v, sums, seeds, replicates, sub_rows=None):
        scheme = OosScheme.boot632(replicates)
        streams = derive_array(seeds[:, None], np.arange(replicates))
        with np.errstate(all="ignore"):
            _same_bits(
                engine._bootstrap_block(streams, X, U, y, v, engine._Work()),
                pairwise_reference.bootstrap_block(
                    pairwise_reference.bootstrap_draw(streams, X.shape[1]), X, U, y, v
                ),
            )
            with _sub_block_rows(sub_rows or len(X), replicates, X.shape[1]):
                got = engine._boot632_rows(X, U, y, v, sums, scheme, seeds, engine._Work())
            _same_bits(got, pairwise_reference.boot632_rows(X, U, y, v, sums, scheme, seeds))
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2 ** 64 - 1),
        n=st.integers(4, 60),
        replicates=st.integers(1, 3),
        per_row_y=st.booleans(),
        sub_rows=st.integers(1, 8),
    )
    def test_matches_frozen_kernel(self, data, seed, n, replicates, per_row_y, sub_rows):
        x_kinds = data.draw(st.lists(st.sampled_from(_SAMPLE_KINDS), min_size=1, max_size=20))
        y_kinds = (
            [data.draw(st.sampled_from(_SAMPLE_KINDS)) for _ in x_kinds] if per_row_y
            else data.draw(st.sampled_from(_SAMPLE_KINDS))
        )
        self._compare(*_bootstrap_inputs(seed, x_kinds, y_kinds, n), replicates, sub_rows)

    @pytest.mark.parametrize("replicates", [1, 2, 3])
    @pytest.mark.parametrize("per_row_y", [False, True])
    def test_sub_blocks_of_one_chunk(self, replicates, per_row_y):
        # 20 rows, tied ones among them, in sub-blocks of 3: six whole ones
        # and a ragged one of 2; at n = 6 so few replicates leave samples in
        # every bag, and the coverage retries run once over the whole chunk
        kinds = list(_SAMPLE_KINDS) * 5
        X, y, U, v, sums, seeds = _bootstrap_inputs(
            13, kinds, kinds if per_row_y else "ties", 6
        )
        scheme = OosScheme.boot632(replicates)
        blocks = []
        real = engine._bootstrap_block

        def spy(streams, *args):
            blocks.append(streams.shape)
            return real(streams, *args)

        with mock.patch.object(engine, "_bootstrap_block", spy):
            self._compare(X, y, U, v, sums, seeds, replicates, sub_rows=3)
        # after _compare's own call of every row: the sub-blocks, then the retries
        assert blocks[1:8] == [(3, replicates)] * 6 + [(2, replicates)]
        assert blocks[8:] and all(shape[1] == 1 for shape in blocks[8:])
        with _sub_block_rows(3, replicates, 6):
            batch = dcal_matrix(X, y, scheme, seeds)
        _assert_rows_are_one_row_tests(X, y, scheme, seeds, batch)

    @pytest.mark.parametrize("replicates", [255, 256, 300])
    def test_count_at_its_type_limit(self, replicates):
        # every replicate of a row draws the same bag, so a sample out of it
        # is out of all B bags: the count reaches B, and its one-byte sum
        # needs two bytes from B = 256 on
        X, y, U, v, _, seeds = _bootstrap_inputs(17, list(_SAMPLE_KINDS) * 2, "normal", 9)
        streams = np.repeat(derive_array(seeds[:, None], np.arange(1)), replicates, axis=1)
        with np.errstate(all="ignore"):
            got = engine._bootstrap_block(streams, X, U, y, v, engine._Work())
            _same_bits(got, pairwise_reference.bootstrap_block(
                pairwise_reference.bootstrap_draw(streams, 9), X, U, y, v))
        assert got[4].max() == replicates

    @pytest.mark.parametrize("per_row_y", [False, True])
    def test_retries_and_flags_occur(self, per_row_y):
        # the inputs the property draws do reach every path: bags of one
        # repeated value in distinct and in tied rows, coverage retries and
        # samples that stay in every bag after them
        kinds = list(_SAMPLE_KINDS) * 5
        X, y, U, v, sums, seeds = _bootstrap_inputs(
            11, kinds, kinds if per_row_y else "binary", 6
        )
        _, _, deg_x, deg_y, missing = self._compare(X, y, U, v, sums, seeds, 1)
        tied = np.array([kind != "normal" for kind in kinds])
        assert deg_x[tied].any() and deg_y.any()
        assert (missing >= 0).any() and (missing < 0).any()
        first = derive_array(seeds[:, None], np.arange(1))
        with np.errstate(all="ignore"):
            count = engine._bootstrap_block(first, X, U, y, v, engine._Work())[4]
        assert ((count == 0).any(axis=1) & (missing < 0)).any()  # covered by a retry


_TIE_KINDS = _SAMPLE_KINDS + ("duplicate", "few_off")


class TestTiedRowsOnly:
    """Only a row, or a shared target, with a tie runs the exact check for
    a bag of one repeated value (two equal values) or a constant k-fold
    training set (one value filling the smallest training set): a row whose
    values are all distinct cannot give either."""

    SCHEMES = [OosScheme.repeated_kfold(), OosScheme.boot632()]
    CHECK = {"kfold": "_constant_training", "boot632": "_bags_of_one_value"}

    @staticmethod
    def _spy(monkeypatch) -> list:
        """(check, values) of every call of either exact check."""
        seen = []
        for name in TestTiedRowsOnly.CHECK.values():
            def spy(values, *args, _name=name, _check=getattr(engine, name)):
                seen.append((_name, values.copy()))
                return _check(values, *args)
            monkeypatch.setattr(engine, name, spy)
        return seen

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.label)
    def test_tie_free_battery_runs_no_exact_check(self, monkeypatch, scheme):
        X, y = _generic_battery(7, 40, 50, 0.0)
        seen = self._spy(monkeypatch)
        batch = dcal_matrix(X, y, scheme, np.arange(40))
        assert seen == []
        assert not any(batch.errors)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda scheme: scheme.label)
    def test_one_binary_row_runs_it_alone(self, monkeypatch, scheme):
        # 47 zeros: enough for a k-fold training set of 45 samples
        X, y = _generic_battery(7, 40, 50, 0.0)
        X[4] = 0.0
        X[4, [3, 17, 30]] = 1.0
        seen = self._spy(monkeypatch)
        dcal_matrix(X, y, scheme, np.arange(40))
        assert seen  # once, or once per coverage retry of the row
        for name, values in seen:
            assert name == self.CHECK[scheme.kind]
            assert values.shape[0] == 1  # the 0/1 row, in each repeat's order for k-fold
            assert np.array_equal(np.sort(values.reshape(-1, 50), axis=-1),
                                  np.sort(np.broadcast_to(X[4], (values.size // 50, 50)), axis=-1))

    def test_sub_blocks_check_their_own_tied_rows(self, monkeypatch):
        # rows at n = 12, two of them constant, whose others make one chunk
        # of five sub-blocks (four full and a ragged 20): each sub-block
        # checks its own 0/1 rows, once
        scheme = OosScheme.boot632()
        step = units_per_block(engine._row_bytes(scheme, 12))
        m = 4 * step + 22
        assert engine._chunk_rows(scheme, 12) >= m
        X, y = _generic_battery(19, m, 12, 0.3)
        seen = self._spy(monkeypatch)
        blocks = []
        real = engine._bootstrap_block

        def spy(streams, *args):
            blocks.append(len(streams))
            return real(streams, *args)

        monkeypatch.setattr(engine, "_bootstrap_block", spy)
        batch = dcal_matrix(X, y, scheme, np.arange(m))
        run = X[~np.isnan(batch.r)]
        assert blocks == [step] * 4 + [20] and len(run) == m - 2
        checked = np.vstack([values for _, values in seen])
        tied = run[engine._tied_rows(run, len(run))]
        assert 1 < len(seen) <= 5 and checked.tobytes() == tied.tobytes()
        _assert_rows_are_one_row_tests(X, y, scheme, np.arange(m), batch)

    def test_kfold_skips_a_tie_shorter_than_a_training_set(self, monkeypatch):
        # a balanced 0/1 row has ties, but no value fills 45 of 50 samples
        X, y = _generic_battery(7, 40, 50, 0.0)
        X[4] = np.arange(50) % 2
        X[5] = 0.0
        X[5, 45:] = 1.0  # 45 zeros: just enough
        seen = self._spy(monkeypatch)
        dcal_matrix(X, y, OosScheme.repeated_kfold(), np.arange(40))
        assert len(seen) == 1 and np.array_equal(np.sort(seen[0][1], axis=None),
                                                 np.sort(np.tile(X[5], 10)))

    @staticmethod
    def _full_scan(values, scheme, seeds, n):
        """Per row: does some fold, in some repeat's order, leave a training
        set of one repeated value?  Every row, repeat and fold, one by one."""
        sizes, starts = engine._kfold_layout(n, scheme)
        keys = np.arange(scheme.repeats)
        order = permutation_of(raw_block(derive_array(seeds[:, None], keys), n))
        out = []
        for j, row_order in enumerate(order):
            row = values if values.ndim == 1 else values[j]
            out.append(any(
                np.ptp(np.delete(row[perm], np.arange(start, start + size))) == 0.0
                for perm in row_order for start, size in zip(starts, sizes)
            ))
        return np.array(out)

    def test_kfold_tie_that_just_fills_a_training_set(self):
        # 7 samples in folds of 3, 2 and 2 leave training sets of 4 or 5: a
        # value held 4 times gives a constant one when the other three
        # samples make up the fold of 3 (1 in 35 permutations)
        n, scheme = 7, OosScheme.repeated_kfold(3, 10)
        X = np.tile([1.5, -1.0, 1.5, 0.25, 1.5, 2.0, 1.5], (40, 1))
        y = Stream(3).normals(n)
        U, v, sums = centred_rows(X, y)
        seeds = np.arange(40, dtype=np.uint64)
        with np.errstate(all="ignore"):
            deg_x = engine._kfold_rows(X, U, y, v, sums, scheme, seeds, engine._Work())[2]
        assert deg_x.any() and not deg_x.all()
        assert np.array_equal(deg_x, self._full_scan(X, scheme, seeds, n))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2 ** 64 - 1),
        n=st.one_of(st.sampled_from([4, 5, 7]), st.integers(6, 40)),
        kind=st.sampled_from(["kfold", "boot632"]),
        per_row_y=st.booleans(),
    )
    def test_equals_the_scan_of_every_row(self, data, seed, n, kind, per_row_y):
        # 0/1, few-valued and one-off rows and targets, one value filling
        # from half to all but one of the samples (about as many as a
        # training set holds), and normals with one sample duplicated: a tie
        # that a bag, but no training set, can be made of
        x_kinds = data.draw(st.lists(st.sampled_from(_TIE_KINDS), min_size=1, max_size=8))
        y_kinds = (
            [data.draw(st.sampled_from(_TIE_KINDS)) for _ in x_kinds] if per_row_y
            else data.draw(st.sampled_from(_TIE_KINDS))
        )
        X, y, U, v, sums, seeds = _bootstrap_inputs(seed, x_kinds, y_kinds, n)
        with np.errstate(all="ignore"):
            if kind == "kfold":
                valid = [k for k in range(2, min(10, n) + 1) if n - -(-n // k) >= 3]
                scheme = OosScheme.repeated_kfold(data.draw(st.sampled_from(valid)),
                                                  data.draw(st.integers(1, 3)))
                deg_x, deg_y = engine._kfold_rows(X, U, y, v, sums, scheme, seeds,
                                                  engine._Work())[2:4]
                assert np.array_equal(deg_x, self._full_scan(X, scheme, seeds, n))
                assert np.array_equal(deg_y, self._full_scan(y, scheme, seeds, n))
            else:  # the frozen kernel compares every bagged value of every row
                scheme = OosScheme.boot632(data.draw(st.integers(1, 30)))
                with _sub_block_rows(data.draw(st.integers(1, 3)), scheme.replicates, n):
                    got = engine._boot632_rows(X, U, y, v, sums, scheme, seeds, engine._Work())
                _same_bits(got, pairwise_reference.boot632_rows(X, U, y, v, sums, scheme, seeds))
        # every row of the battery is its one-row test
        _assert_rows_are_one_row_tests(X, y, scheme, seeds, dcal_matrix(X, y, scheme, seeds))


class TestChunkMemory:
    """Rows ``kfold`` and ``boot632`` of ``tests/test_work_space.py`` at
    fig2's size (100 rows at n = 50, a shared y) and at the shapes where
    undercharges showed: one chunk (for boot632 one sub-block and the
    chunk's own arrays), 64 bytes a row and 16 KB, within 256 KB of the
    budget."""

    @staticmethod
    def _peak(kind, n=50, rows=100, param=None):
        param = param or {"kfold": 10, "boot632": 100}[kind]
        return assert_fits(kind, m=rows, n=n, per_row=False, kind=kind, param=param, repeats=10)

    @pytest.mark.parametrize("scheme", [OosScheme.repeated_kfold(), OosScheme.boot632()],
                             ids=lambda scheme: scheme.label)
    def test_traced_peak_fits_the_budget(self, scheme):
        # a larger budget or a kernel that holds more than it is charged
        # for shows here before it shows in peak RSS
        assert units_per_block(engine._row_bytes(scheme, 50)) > 1
        self._peak(scheme.kind)

    @pytest.mark.parametrize("n", [12, 20])
    def test_small_n_kfold_peak_fits_the_budget(self, n):
        # at small n the (folds, folds) arrays of the training sums and the
        # per-fold arrays outweigh the n-sample buffers
        self._peak("kfold", n)

    @pytest.mark.parametrize("n", [12, 100])
    def test_bootstrap_peak_fits_the_budget(self, n):
        # a chunk of several sub-blocks (6 of 26 rows at n = 12, 8 of 3 at
        # the boot632 screen's n = 100)
        scheme = OosScheme.boot632()
        assert engine._chunk_rows(scheme, n) > units_per_block(engine._row_bytes(scheme, n))
        self._peak("boot632", n)

    @pytest.mark.parametrize("replicates", [1, 3, 10])
    def test_few_replicates_peak_fits_the_budget(self, replicates):
        # a sub-block's replicate work is small here, so the chunk's own
        # arrays bound its rows: 1000 rows at n = 50 traced 6.66, 3.05 and
        # 1.47 MB when one sub-block took 790, 263 and 79 of them
        scheme = OosScheme.boot632(replicates)
        assert engine._chunk_rows(scheme, 50) < units_per_block(replicates * 50 * 33)
        self._peak("boot632", rows=1000, param=replicates)

    def test_fig2_kfold_chunks_unchanged(self):
        # sim-oos runs cv10x10 at n = 50 in chunks of 18 rows
        assert units_per_block(engine._row_bytes(OosScheme.repeated_kfold(), 50)) == 18

    def test_fig2_bootstrap_chunks_unchanged(self):
        # and boot632 in sub-blocks of 7 rows, 6 to a chunk
        scheme = OosScheme.boot632()
        assert units_per_block(engine._row_bytes(scheme, 50)) == 7
        assert engine._chunk_rows(scheme, 50) == 42

    def test_bootstrap_peak_within_kfold_peak(self):
        # the bootstrap's larger chunks take no more than the k-fold chunk,
        # the largest before them
        assert self._peak("boot632") <= self._peak("kfold")


class TestWorkSpace:
    """The out-of-sample step's large arrays are views of one work space
    per call, allocated by its first chunk and reused by the others, and by
    every bootstrap sub-block and coverage retry."""

    BUFFERS = {"kfold": {"a", "b", "flat", "samples", "per_fold"},
               "boot632": {"a", "b"}}

    @pytest.mark.parametrize("scheme", [
        OosScheme.repeated_kfold(), OosScheme.boot632(), OosScheme.boot632(2)
    ], ids=lambda scheme: f"{scheme.label}-{scheme.replicates}")
    def test_each_buffer_allocated_once(self, monkeypatch, scheme):
        spaces, allocations = [], []

        class Spy(engine._Work):
            def __init__(self):
                super().__init__()
                spaces.append(self)

            def __call__(self, name, shape, dtype=np.float64):
                before = self.get(name)
                view = super().__call__(name, shape, dtype)
                if self[name] is not before:
                    allocations.append(name)
                assert np.shares_memory(view, self[name])
                return view

        monkeypatch.setattr(engine, "_Work", Spy)
        # 50 rows at n = 12 take several chunks, and at 100 replicates each
        # chunk several sub-blocks of 7 rows; two replicates also leave
        # coverage retries, which reuse the buffers too
        X, y = _generic_battery(43, 50, 12, 0.2)
        monkeypatch.setattr(core, "CHUNK_BYTES", 7 * engine._row_bytes(scheme, 12))
        chunk = engine._chunk_rows(scheme, 12)
        assert chunk < 50 and (chunk > 7) == (scheme.kind == "boot632" and scheme.replicates > 2)
        batch = dcal_matrix(X, y, scheme, np.arange(50))
        assert len(spaces) == 1
        assert sorted(allocations) == sorted(self.BUFFERS[scheme.kind])
        if scheme.replicates == 2:
            assert any(isinstance(e, ResampleCoverageError) for e in batch.errors)
