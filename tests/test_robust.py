import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference

from dcal import (
    DataPair,
    DegenerateGeometryError,
    InsufficientDataError,
    NumericRangeError,
    OutlierKind,
    detect_bivariate_outliers,
    gen_contaminated,
    pearson,
    pearson_rows,
    skipped_correlation,
    skipped_rows,
)
import dcal
from dcal import core, robust
from dcal.robust import DEFAULT_CUTOFF
from dcal.rng import Stream, derive

KINDS = [
    OutlierKind("high_variance", sd_outlier=3.0),
    OutlierKind("univariate"),
    OutlierKind("bivariate"),
]


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@st.composite
def _pairs(draw):
    """Contaminated pairs of every kind and fraction, or grid-valued pairs
    in which many points share a location (zero MAD in some or all
    directions, or zero spread altogether)."""
    n = draw(st.integers(10, 120))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(KINDS))
        fraction = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
        return gen_contaminated(n, 0.5, kind, fraction, draw(st.integers(0, 2 ** 64 - 1)))
    spot = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    share = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9]))
    scale = draw(st.sampled_from([1.0, 0.5, 1e-3, 3e5]))
    points = [
        spot if draw(st.floats(0, 1)) < share
        else draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        for _ in range(n)
    ]
    x, y = (np.array(coord, dtype=float) * scale for coord in zip(*points))
    # mending one sample alone: mending both could make the other constant
    if x.max() == x.min():
        x[0] += scale
    if y.max() == y.min():
        y[0] -= scale
    return DataPair(x, y)


def _line_with_orthogonal_outliers():
    # 50 points on a tight line (y = 2x, residual sd 0.05) plus 5 points
    # pushed 18 units along the orthogonal direction: hundreds of residual
    # sigmas off the line and ~3 sigmas beyond the cloud's long axis
    t = np.linspace(0, 10, 50)
    noise = Stream(100).normals(50) * 0.05
    anchor_t = np.array([2.0, 4.0, 5.5, 7.0, 8.5])
    u_orth = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    x = np.concatenate([t, anchor_t + 18.0 * u_orth[0]])
    y = np.concatenate([2 * t + noise, 2 * anchor_t + 18.0 * u_orth[1]])
    return DataPair(x, y), set(range(50, 55))


class TestDetect:
    def test_displaced_points_flagged(self):
        pair, planted = _line_with_orthogonal_outliers()
        flagged = set(detect_bivariate_outliers(pair).tolist())
        assert planted <= flagged
        assert len(flagged - planted) <= 3  # tolerates a couple of edge flags

    def test_collinear_clean_data_unflagged(self):
        t = np.linspace(-4, 4, 30)
        pair = DataPair(t, 1.5 * t - 2.0)
        assert detect_bivariate_outliers(pair).size == 0

    def test_minimum_sample_size(self):
        with pytest.raises(InsufficientDataError):
            detect_bivariate_outliers(DataPair([1, 2, 3, 4], [4, 2, 1, 3]))

    def test_indices_sorted_unique(self):
        pair, _ = _line_with_orthogonal_outliers()
        flagged = detect_bivariate_outliers(pair)
        assert np.all(np.diff(flagged) > 0)

    def test_affine_equivariance_of_flags(self):
        pair, _ = _line_with_orthogonal_outliers()
        base = detect_bivariate_outliers(pair).tolist()
        scaled = DataPair(3.0 * pair.x + 11.0, 0.5 * pair.y - 4.0)
        assert detect_bivariate_outliers(scaled).tolist() == base

    def test_recall_on_planted_bivariate_outliers(self):
        kind = OutlierKind("bivariate")
        recalls = []
        for k in range(100):
            seed = derive(1301, k)
            clean = gen_contaminated(100, 0.3, kind, 0.0, seed)
            contaminated = gen_contaminated(100, 0.3, kind, 0.1, seed)
            planted = set(np.flatnonzero(contaminated.x != clean.x).tolist())
            assert len(planted) == 10
            found = set(detect_bivariate_outliers(contaminated).tolist())
            recalls.append(len(found & planted) / len(planted))
        assert np.mean(recalls) >= 0.8

    def test_degenerate_geometry(self):
        x = [0.0] * 9 + [1.0, 1.0]
        y = [0.0] * 9 + [1.0, 1.0]
        with pytest.raises(DegenerateGeometryError):
            detect_bivariate_outliers(DataPair(x, y))

    def test_mad_zero_falls_back_to_iqr(self):
        # seven duplicated center points force MAD = 0 in every direction;
        # the IQR fallback still carries spread and flags the spread points
        x = [0.0] * 7 + [1.0, 2.0, 3.0, -1.0, -2.0]
        y = [0.0] * 7 + [1.0, 2.0, 3.0, -1.0, -2.0]
        flagged = detect_bivariate_outliers(DataPair(x, y))
        assert set(flagged.tolist()) == {7, 8, 9, 10, 11}


class TestFrozenReference:
    """The sort-based detector against the ``np.median`` one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_pairs(), cutoff=st.sampled_from([DEFAULT_CUTOFF, 1.0, 3.5]))
    def test_flags_and_skipped_match(self, pair, cutoff):
        got, got_error = _outcome(lambda: detect_bivariate_outliers(pair, cutoff))
        want, want_error = _outcome(
            lambda: pairwise_reference.detect_bivariate_outliers(pair, cutoff)
        )
        assert got_error == want_error
        if want is not None:
            assert got.tolist() == want.tolist()
        got, got_error = _outcome(lambda: skipped_correlation(pair, cutoff))
        want, want_error = _outcome(lambda: pairwise_reference.skipped_correlation(pair, cutoff))
        assert got_error == want_error
        if want is not None:
            assert (got.r, got.p, got.n_used, got.outlier_indices) == want

    @pytest.mark.parametrize("x, y", [
        # zero MAD in every direction, IQR fallback
        ([0.0] * 7 + [1.0, 2.0, 3.0, -1.0, -2.0], [0.0] * 7 + [1.0, 2.0, 3.0, -1.0, -2.0]),
        # zero MAD and zero IQR
        ([0.0] * 9 + [1.0, 1.0], [0.0] * 9 + [1.0, 1.0]),
        ([0.0] * 10 + [1.0, 2.0], [0.0] * 10 + [2.0, 1.0]),
    ])
    def test_degenerate_spreads_match(self, x, y):
        pair = DataPair(x, y)
        got, got_error = _outcome(lambda: detect_bivariate_outliers(pair))
        want, want_error = _outcome(lambda: pairwise_reference.detect_bivariate_outliers(pair))
        assert got_error == want_error
        assert want is None or got.tolist() == want.tolist()


class TestSkippedRows:
    def test_rows_are_single_pair_calls(self):
        kind = OutlierKind("bivariate")
        pairs = [gen_contaminated(n, 0.4, kind, 0.25, derive(77, k)) for k, n in enumerate(
            [12] * 6 + [9, 40]
        )]
        X = np.vstack([p.x for p in pairs[:6]])
        Y = np.vstack([p.y for p in pairs[:6]])
        X[2], Y[2] = np.r_[[0.0] * 9, 1.0, 1.0, 1.0], np.r_[[0.0] * 9, 1.0, 1.0, 2.0]
        batch = skipped_rows(X, Y)
        for i in range(6):
            want, want_error = _outcome(lambda: skipped_correlation(DataPair(X[i], Y[i])))
            error = batch.errors[i]
            assert want_error == (None if error is None else (type(error), str(error)))
            if want is None:
                assert np.isnan(batch.r[i]) and np.isnan(batch.p[i])
            else:
                assert (batch.r[i], batch.p[i], batch.n_used[i]) == (want.r, want.p, want.n_used)
                assert tuple(np.flatnonzero(batch.outliers[i])) == want.outlier_indices
        assert batch.errors[2] is not None
        short = skipped_rows(pairs[6].x[None], pairs[6].y[None])
        assert isinstance(short.errors[0], InsufficientDataError)
        empty = skipped_rows(np.empty((0, 12)), np.empty((0, 12)))
        assert empty.r.shape == (0,) and empty.errors == ()


    def test_one_tail_call_for_mixed_retained_counts(self):
        # enough pairs for the array t tail, each at its own n_used - 2 df
        kind = OutlierKind("bivariate")
        pairs = [gen_contaminated(30, 0.4, kind, 0.2, derive(78, k)) for k in range(200)]
        X = np.vstack([p.x for p in pairs])
        Y = np.vstack([p.y for p in pairs])
        batch = skipped_rows(X, Y)
        assert len(set(batch.n_used.tolist())) > 3
        for i in range(200):
            keep = ~batch.outliers[i]
            r, p = pearson_rows(X[i][keep][None], Y[i][keep])
            assert (batch.r[i], batch.p[i]) == (r[0], p[0])


def _on_centre(x, y):
    """Put one point exactly on the coordinate-wise median centre: the two
    middle values of each sample are made equal, so each median is a sample
    value, and swapping two y values puts the median y at the median x."""
    for v in (x, y):
        order = np.argsort(v, kind="stable")
        v[order[len(v) // 2 - 1]] = v[order[len(v) // 2]]
    i = np.argsort(x, kind="stable")[len(x) // 2]
    j = np.argsort(y, kind="stable")[len(y) // 2]
    y[i], y[j] = y[j], y[i]
    return x, y


def _shaped(kind, n, seed):
    """(x, y) of n points of one shape; ``coincide`` is no valid pair."""
    rng = np.random.default_rng(seed)
    if kind == "contaminated":
        pair = gen_contaminated(n, 0.5, KINDS[seed % 3], (0.1, 0.25, 0.5)[seed % 3], seed)
        return pair.x.copy(), pair.y.copy()
    if kind == "centre":  # a point that spans no direction
        return _on_centre(rng.standard_normal(n), rng.standard_normal(n))
    if kind == "coincide":  # every point on the centre
        return np.full(n, 2.5), np.full(n, -1.0)
    if kind == "spot":  # over half the points on one spot: zero MAD everywhere
        x, y = rng.integers(-3, 4, (2, n)).astype(float)
        on = rng.permutation(n)[: n // 2 + 1 + seed % (n - n // 2 - 2)]
        x[on], y[on] = 1.0, -2.0
        return x, y
    if kind == "axes":  # points on the centre and on both axes: some flat directions
        c, a, b = int(0.3 * n), int(0.25 * n), max(1, int(0.1 * n))
        g = n - c - a - b
        t = rng.standard_normal(a + b + 2 * g)
        x = np.r_[np.zeros(c), t[:a], np.zeros(b), t[a + b : a + b + g]]
        y = np.r_[np.zeros(c), np.zeros(a), t[a : a + b], t[a + b + g :]]
        order = rng.permutation(n)
        return x[order], y[order]
    if kind == "ties":
        x = np.round(rng.standard_normal(n), 1)
        return x, np.round(x + rng.standard_normal(n), 1)
    if kind == "integers":
        return rng.integers(-3, 4, (2, n)).astype(float)
    if kind == "huge":  # centred coordinates overflow: projections of +-inf and NaN
        levels = [-1.7e308, -1e308, -1.0, 0.0, 1.0, 1e308, 1.7e308]
        return rng.choice(levels, (2, n)) * rng.uniform(0.5, 1.0, (2, n))
    if kind == "limit":  # along the diagonal most points project near -1.7e308
        x, y = rng.uniform(0.5, 2.0, (2, n))
        k = 45 * n // 100
        x[:k] = -1.7e308 * rng.uniform(0.9, 1.0, k)
        y[k : 2 * k] = -1.7e308 * rng.uniform(0.9, 1.0, k)
        x[2 * k : 2 * k + 2] = y[2 * k : 2 * k + 2] = -1.7e308
        order = rng.permutation(n)
        return x[order], y[order]
    assert kind == "offset"
    return rng.standard_normal(n) + 1e8, rng.standard_normal(n) * 1e-3 - 1e9


SHAPES = ("contaminated", "centre", "coincide", "spot", "axes", "ties", "integers", "offset")


def _reference_rows(X, Y, cutoff):
    """Per pair: the frozen detector's flags (or none) and the frozen
    skipped correlation's (r, p, n_used) as hex and int, or its error."""
    rows = []
    for x, y in zip(X, Y):
        pair = SimpleNamespace(x=x, y=y, n=len(x))
        flags, _ = _outcome(lambda: pairwise_reference.detect_bivariate_outliers(pair, cutoff))
        got, error = _outcome(lambda: pairwise_reference.skipped_correlation(pair, cutoff))
        if got is not None:
            r, p, n_used, _ = got
            error = (float(r).hex(), float(p).hex(), n_used)
        rows.append((error, [] if flags is None else flags.tolist()))
    return rows


def _batch_rows(batch):
    rows = []
    for i, error in enumerate(batch.errors):
        if error is None:
            result = (float(batch.r[i]).hex(), float(batch.p[i]).hex(), int(batch.n_used[i]))
        else:
            result = (type(error), str(error))
        rows.append((result, np.flatnonzero(batch.outliers[i]).tolist()))
    return rows


class TestBlockedSweep:
    """``skipped_rows`` against the frozen per-pair reference, bit for bit,
    whatever the block size: one pair, three, the default and all pairs."""

    def _check(self, X, Y, cutoff=DEFAULT_CUTOFF):
        n = X.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # the frozen reference warns
            want = _reference_rows(X, Y, cutoff)
        for budget in (1, 3 * robust._pair_bytes(n), core.CHUNK_BYTES, 2 ** 40):
            with mock.patch.object(core, "CHUNK_BYTES", budget):
                assert _batch_rows(skipped_rows(X, Y, cutoff)) == want, budget

    @pytest.mark.parametrize("n, blocks", [(100, [6, 6, 1]), (30, [62, 62, 6])])
    def test_benchmark_blocks_unchanged(self, n, blocks):
        # the outlier suite sweeps pairs at n = 100 in blocks of 6
        sizes, sweep = [], robust._sweep

        def spy(X, Y, cutoff):
            sizes.append(len(X))
            return sweep(X, Y, cutoff)

        m = sum(blocks)
        X, Y = (Stream(seed).normals(m * n).reshape(m, n) for seed in (1, 2))
        with mock.patch.object(robust, "_sweep", spy):
            skipped_rows(X, Y)
        assert sizes == blocks

    @pytest.mark.parametrize("n", [10, 11, 99, 100, 101])
    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_degenerate_pairs_at_block_edges(self, n, shift):
        # blocks of three pairs start at 0, 3, 6 and end at 2, 5, 8
        layout = ["coincide", "ties", "centre", "spot", "contaminated", "axes",
                  "centre", "offset", "spot", "integers", "coincide"]
        pairs = [_shaped(kind, n, 7 * k + shift) for k, kind in enumerate(layout[shift:])]
        X, Y = (np.array(coord) for coord in zip(*pairs))
        self._check(X, Y)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([10, 11, 99, 100, 101]),
        kinds=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=9),
        seed=st.integers(0, 2 ** 32 - 1),
        cutoff=st.sampled_from([DEFAULT_CUTOFF, 1.0, 3.5]),
    )
    def test_mixed_blocks_match_reference(self, n, kinds, seed, cutoff):
        pairs = [_shaped(kind, n, seed + k) for k, kind in enumerate(kinds)]
        X, Y = (np.array(coord) for coord in zip(*pairs))
        self._check(X, Y, cutoff)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [10, 11, 99, 100, 101])
    def test_pairs_near_the_float_limit(self, n):
        # rows of NaN beside values, and medians of +-inf (at even n, a
        # median of -inf beside -inf values), which take the deviation sort;
        # mixed with ordinary pairs in every block, and swept without a warning
        layout = ["huge", "limit", "contaminated", "huge", "centre", "limit", "huge", "ties"]
        pairs = [_shaped(kind, n, 5 * k + n) for k, kind in enumerate(layout)]
        X, Y = (np.array(coord) for coord in zip(*pairs))
        self._check(X, Y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_pair_fails_without_a_warning(self):
        # the centred points' norms and the projection product overflow
        x, y = Stream(1).normals(30), Stream(2).normals(30)
        x[3] = y[3] = 1.7e308
        x[7] = -1.7e308
        message = "a projection direction has zero MAD and zero interquartile spread"
        error = skipped_rows(x[None], y[None]).errors[0]
        assert (type(error), str(error)) == (DegenerateGeometryError, message)
        with pytest.raises(DegenerateGeometryError, match=message):
            skipped_correlation(DataPair(x, y))

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_traced_peak_fits_the_budget(self, n):
        # a warm default block of the sweep; charged 20 n**2 per pair, one
        # at n = 10 traced 1.33 budgets
        X, Y = (Stream(seed).normals(1000 * n).reshape(1000, n) for seed in (3, 4))
        block = core.units_per_block(robust._pair_bytes(n))
        robust._sweep(X[:block], Y[:block], DEFAULT_CUTOFF)
        tracemalloc.start()
        try:
            robust._sweep(X[:block], Y[:block], DEFAULT_CUTOFF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= core.CHUNK_BYTES

    def test_short_pairs_fail_every_row(self):
        X = np.arange(27.0).reshape(3, 9)
        batch = skipped_rows(X, X[::-1] ** 2)
        assert all(isinstance(error, InsufficientDataError) for error in batch.errors)
        assert len({id(error) for error in batch.errors}) == 3


@st.composite
def _sorted_rows(draw):
    """Rows sorted along the last axis: tie-heavy, 0/1, few-valued or
    continuous, at tiny or huge scales, some all NaN (an anchor on its
    pair's median centre) and some holding NaN, +-inf or values near the
    float limit beside ordinary ones (centred coordinates that overflow)."""
    n = draw(st.integers(10, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(1, 6)), n)
    kind = draw(st.sampled_from(["normal", "ties", "binary", "few", "nonfinite", "limit"]))
    if kind == "normal":
        values = rng.standard_normal(shape)
    elif kind == "ties":
        values = np.round(rng.standard_normal(shape), 1)
    elif kind == "binary":
        values = rng.integers(0, 2, shape).astype(float)
    elif kind == "few":
        values = rng.choice(rng.standard_normal(3), shape)
    elif kind == "limit":  # even-count medians that overflow to -inf beside -inf values
        levels = [-np.inf, -1.7e308, -1.2e308, 1.0, np.inf, np.nan]
        values = rng.choice(levels, shape, p=[0.1, 0.3, 0.3, 0.2, 0.05, 0.05])
    else:
        values = rng.standard_normal(shape)
        odd = rng.random(shape) < rng.random((shape[0], 1))
        values[odd] = rng.choice([np.nan, -np.inf, np.inf, -1.7e308, 1.7e308, -0.0], odd.sum())
    with np.errstate(over="ignore"):
        values = values * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    values[rng.random(shape[0]) < 0.2] = np.nan
    return np.sort(values)


class TestSortedMad:
    @settings(max_examples=200, deadline=None)
    @given(values=_sorted_rows())
    def test_equals_the_deviation_sort(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            medians = robust._sorted_median(values)
            want = robust._sorted_median(np.sort(np.abs(values - medians[:, None])))
            got = robust._sorted_mad(values, medians)
        assert got.tobytes() == want.tobytes()


class TestSkipped:
    def test_clean_data_equals_classical_exactly(self):
        t = np.linspace(-4, 4, 30)
        pair = DataPair(t, 1.5 * t - 2.0 + 0.0)
        result = skipped_correlation(pair)
        classical = pearson(pair)
        assert result.r == classical.r
        assert result.p == classical.p
        assert result.n_used == 30
        assert result.outlier_indices == ()

    def test_retained_sums_out_of_range(self):
        # x near 1e200: the retained points' centred squares overflow
        pair = DataPair(Stream(4).normals(30) * 1e200, Stream(5).normals(30))
        with pytest.raises(NumericRangeError, match="leave the float64 range"):
            skipped_correlation(pair)

    def test_counts_are_consistent(self):
        pair, _ = _line_with_orthogonal_outliers()
        result = skipped_correlation(pair)
        assert result.n_used + len(result.outlier_indices) == pair.n
        assert result.n_used >= 4

    def test_recovers_line_after_removal(self):
        pair, _ = _line_with_orthogonal_outliers()
        contaminated_r = pearson(pair).r
        result = skipped_correlation(pair)
        assert result.r > 0.999
        assert result.r > contaminated_r

    def test_univariate_contamination_estimates_near_truth(self):
        kind = OutlierKind("univariate")
        estimates = []
        for k in range(150):
            pair = gen_contaminated(100, 0.5, kind, 0.1, derive(1302, k))
            estimates.append(skipped_correlation(pair).r)
        assert abs(np.mean(estimates) - 0.5) <= 0.05

    def test_more_stable_than_pearson_under_high_variance(self):
        kind_lo = OutlierKind("high_variance", sd_outlier=2.0)
        kind_hi = OutlierKind("high_variance", sd_outlier=6.0)
        drift = {"pearson": [], "skipped": []}
        for k in range(120):
            lo = gen_contaminated(50, 0.5, kind_lo, 0.1, derive(1303, k))
            hi = gen_contaminated(50, 0.5, kind_hi, 0.1, derive(1303, k))
            drift["pearson"].append(pearson(hi).r - pearson(lo).r)
            drift["skipped"].append(skipped_correlation(hi).r - skipped_correlation(lo).r)
        assert abs(np.mean(drift["skipped"])) < abs(np.mean(drift["pearson"]))


class TestImports:
    def test_skipped_correlation_leaves_numpy_ma_unloaded(self):
        # numpy's first np.unique in a process imports numpy.ma (about 13 ms)
        code = (
            "import sys, numpy as np\n"
            "from dcal import DataPair, skipped_correlation\n"
            "rng = np.random.default_rng(1)\n"
            "x = rng.standard_normal(30)\n"
            "x[0] = 20.0\n"
            "res = skipped_correlation(DataPair(x, x + rng.standard_normal(30)))\n"
            "print(res.n_used < 30, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(dcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["True", "False"]
