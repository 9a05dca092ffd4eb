import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcal import (
    DegenerateVarianceError,
    PermutationPlan,
    bh_adjust,
    holm_adjust,
    permutation_pvalues,
)
from dcal import core, multitest
from dcal.multitest import (
    _FLOAT32_MAX_SAMPLES,
    _column_bytes,
    _column_edges,
    _float32_error,
    _scoring,
    _shuffled,
)
from dcal.rng import Stream, derive

import screen_reference
from conftest import brute_bh, brute_holm


class TestHolm:
    def test_worked_example(self):
        got = holm_adjust([0.01, 0.02, 0.03, 0.04])
        assert np.allclose(got, [0.04, 0.06, 0.06, 0.06], atol=1e-15)

    def test_single_p_unchanged(self):
        assert holm_adjust([0.37])[0] == 0.37

    def test_all_equal(self):
        assert np.allclose(holm_adjust([0.01] * 5), [0.05] * 5, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            holm_adjust([])
        with pytest.raises(ValueError):
            holm_adjust([0.5, 1.3])


class TestBh:
    def test_worked_example(self):
        got = bh_adjust([0.01, 0.02, 0.03, 0.04])
        assert np.allclose(got, [0.04, 0.04, 0.04, 0.04], atol=1e-15)

    def test_two_values(self):
        assert np.allclose(bh_adjust([0.001, 0.5]), [0.002, 0.5], atol=1e-15)

    def test_single_p_unchanged(self):
        assert bh_adjust([0.2])[0] == 0.2


class TestAgainstBruteForce:
    def test_random_vectors(self):
        for k in range(60):
            stream = Stream(derive(1201, k))
            m = 1 + int(stream.uniforms(1)[0] * 12)
            p = stream.uniforms(m)
            assert np.allclose(holm_adjust(p), brute_holm(p), atol=1e-12)
            assert np.allclose(bh_adjust(p), brute_bh(p), atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
    def test_invariants_hold_for_any_input(self, p):
        holm = holm_adjust(p)
        bh = bh_adjust(p)
        p = np.asarray(p)
        assert np.all(holm >= p - 1e-15)
        assert np.all(bh >= p - 1e-15)
        assert np.all(holm >= bh - 1e-15)
        assert np.allclose(holm, brute_holm(p), atol=1e-12)
        assert np.allclose(bh, brute_bh(p), atol=1e-12)
        # order preservation, ties allowed
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(holm[order]) >= -1e-15)
        assert np.all(np.diff(bh[order]) >= -1e-15)


def _battery(m, n, seed):
    """(m, n) null columns and their shared target."""
    y = Stream(derive(seed, 0)).normals(n)
    X = np.array([Stream(derive(seed, j + 1)).normals(n) for j in range(m)])
    return X, y


class TestPermTest:
    def test_extreme_statistic(self):
        values = Stream(4321).normals(60)
        per, mx = permutation_pvalues(values[None, :], values, PermutationPlan(999, 5))
        assert per[0] == pytest.approx(1.0 / 1000.0, abs=1e-15)
        assert mx[0] == pytest.approx(1.0 / 1000.0, abs=1e-15)

    def test_maxstat_dominates_per_test(self):
        per, mx = permutation_pvalues(*_battery(25, 40, 888), PermutationPlan(199, 17))
        assert np.all(mx >= per)

    def test_bounds_and_determinism(self):
        X, y = _battery(10, 30, 901)
        plan = PermutationPlan(299, 3)
        first = permutation_pvalues(X, y, plan)
        second = permutation_pvalues(X, y, plan)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
            assert np.all(a >= 1.0 / 300.0) and np.all(a <= 1.0)

    def test_degenerate_column_names_index(self):
        y = Stream(7).normals(20)
        X = Stream(8).normals(3 * 20).reshape(3, 20)
        X[1] = 2.5
        with pytest.raises(DegenerateVarianceError, match="column 1"):
            permutation_pvalues(X, y, PermutationPlan(199, 1))
        with pytest.raises(DegenerateVarianceError, match="target has zero variance"):
            permutation_pvalues(X[[0, 2]], np.full(20, 2.0), PermutationPlan(199, 1))

    @pytest.mark.parametrize("n", [7, 50])
    def test_constant_samples_that_do_not_centre_to_zeros(self, n):
        # 0.1 repeated has an sd of about 1e-17, which the sd test alone
        # let through; a spread of 1e-170 squares to 0, which only it sees
        y = Stream(7).normals(n)
        X = Stream(8).normals(3 * n).reshape(3, n)
        plan = PermutationPlan(199, 1)
        for column in (np.full(n, 0.1), 1e-170 * Stream(9).normals(n)):
            X[2] = column
            with pytest.raises(DegenerateVarianceError, match="column 2 has zero variance"):
                permutation_pvalues(X, y, plan)
            with pytest.raises(DegenerateVarianceError, match="column 2 has zero variance"):
                permutation_pvalues(X, column, plan)  # a column's error comes first
            with pytest.raises(DegenerateVarianceError, match="target has zero variance"):
                permutation_pvalues(X[:2], column, plan)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            PermutationPlan(99, 0)

    def test_null_battery_calibration(self):
        # under the null, per-test rejections track alpha while the
        # max-statistic correction rejects (almost) nothing
        per, mx = permutation_pvalues(*_battery(100, 50, 777), PermutationPlan(499, 11))
        rejected = int((per < 0.05).sum())
        assert rejected <= 12  # 100 tests at alpha=.05: binomial, mean 5
        assert int((mx < 0.05).sum()) <= 1


def _blocks(m, n, n_permutations):
    """Column blocks of one call at the current budget."""
    return len(_column_edges(m, n, n_permutations)) - 1


def _one_block_budget(m, n):
    """The budget at which m columns of 199 shuffles at n samples just fit one block."""
    return m * _column_bytes(n, 199)


def _assert_matches_loop(X, y, n_permutations, seed):
    got = permutation_pvalues(X, y, PermutationPlan(n_permutations, seed))
    expected = screen_reference.permutation_pvalues(X, y, n_permutations, seed)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


@st.composite
def _tie_heavy_batteries(draw):
    """Small batteries, random or tie-heavy: n = 4 (where the identity is one
    shuffle in 24), a target of few distinct values, 0/1 columns, and rows
    that repeat other rows or have two equal entries."""
    m = draw(st.integers(1, 12))
    n = draw(st.sampled_from([4, 4, 5, 8, 12, 100]))
    stream = Stream(draw(st.integers(0, 2 ** 64 - 1)))
    X = stream.normals(m * n).reshape(m, n)
    y = stream.normals(n)
    if draw(st.booleans()):
        y = np.floor(3.0 * stream.uniforms(n))
        y[:2] = 0.0, 1.0
    if draw(st.booleans()):
        X[:, 1] = X[:, 0]
    if draw(st.booleans()):
        binary = stream.uniforms(m) < 0.5
        X[binary] = np.floor(2.0 * stream.uniforms(int(binary.sum()) * n)).reshape(-1, n)
        X[binary, :2] = 0.0, 1.0
    if draw(st.booleans()):
        X[1::2] = X[:-1:2]
    return X, y, draw(st.integers(0, 2 ** 64 - 1))


class TestBatchedShuffles:
    """The column blocks give exactly the p-values of the frozen loop that
    scored one ``Stream`` shuffle at a time."""

    # Under the budget that just fits ONE_BLOCK columns of 199 shuffles in
    # one block (a multiple of four), ONE_BLOCK + 1 columns are one block too
    # (a lone last column joins the block before it) and 700 columns end on
    # a partly filled block; ONE_BLOCK + 2 columns are two blocks.
    ONE_BLOCK = 164

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [4, 50, 100])
    @pytest.mark.parametrize("m", [1, 2, ONE_BLOCK, ONE_BLOCK + 1, 700])
    def test_equals_per_shuffle_loop(self, monkeypatch, m, n, seed):
        monkeypatch.setattr(core, "CHUNK_BYTES", _one_block_budget(self.ONE_BLOCK, n))
        X, y = _battery(m, n, 31 + m)
        if n == 4:
            # at n = 4 about 1 shuffle in 24 is the identity, whose statistics
            # tie with the observed ones; rows with two equal entries tie
            # under the shuffles that swap the matching target values
            X[: m // 2, 1] = X[: m // 2, 0]
        _assert_matches_loop(X, y, 199, seed)

    def test_block_shapes_covered(self, monkeypatch):
        # the cases above include one block, one block with a lone last
        # column joined to it, and a last block that is only partly filled
        for n in (4, 50, 100):
            monkeypatch.setattr(core, "CHUNK_BYTES", _one_block_budget(self.ONE_BLOCK, n))
            assert _column_edges(self.ONE_BLOCK, n, 199) == [0, self.ONE_BLOCK]
            assert _column_edges(self.ONE_BLOCK + 1, n, 199) == [0, self.ONE_BLOCK + 1]
            assert _column_edges(self.ONE_BLOCK + 2, n, 199) == [0, self.ONE_BLOCK,
                                                                 self.ONE_BLOCK + 2]
            edges = _column_edges(700, n, 199)
            assert len(edges) == 6 and 0 < edges[-1] - edges[-2] < self.ONE_BLOCK

    @pytest.mark.parametrize("n", [8, 12])
    def test_ties_across_two_blocks(self, monkeypatch, n):
        # 0/1 columns against a three-valued target tie under many shuffles.
        # At n >= 8 BLAS rounds a column by its place in a group of four, so
        # the budget of 10 columns gives blocks of 8: the second block holds
        # the last 2, 3 or 5 columns
        monkeypatch.setattr(core, "CHUNK_BYTES", _one_block_budget(10, n))
        for m in (10, 11, 13):
            stream = Stream(1000 * n + m)
            X = np.floor(2.0 * stream.uniforms(m * n)).reshape(m, n)
            X[:, :2] = 0.0, 1.0
            y = np.floor(3.0 * stream.uniforms(n))
            y[:2] = 0.0, 1.0
            assert _column_edges(m, n, 199) == [0, 8, m]
            _assert_matches_loop(X, y, 199, m)

    @pytest.mark.parametrize("n", [4, 50])
    def test_default_budget_block_shapes(self, n):
        # the widest battery that is one column block at the default budget
        # (a full block and a lone column), one column more (two blocks), and
        # 2010 columns (a partly filled last block)
        one = next(m for m in range(10 ** 4, 0, -1) if _blocks(m, n, 199) == 1)
        assert _blocks(one + 1, n, 199) == 2
        edges = _column_edges(2010, n, 199)
        assert edges[-1] - edges[-2] < edges[1]
        for m in (one, one + 1, 2010):
            X, y = _battery(m, n, 31 + m)
            X[: m // 2, 1] = X[: m // 2, 0]
            _assert_matches_loop(X, y, 199, 7)

    @settings(max_examples=60, deadline=None)
    @given(_tie_heavy_batteries())
    def test_any_block_size_equals_per_shuffle_loop(self, battery):
        # one shuffle per block, the default budget, and every shuffle in one block
        X, y, seed = battery
        expected = screen_reference.permutation_pvalues(X, y, 100, seed)
        for budget in (1, core.CHUNK_BYTES, 2 ** 40):
            with mock.patch.object(core, "CHUNK_BYTES", budget):
                got = permutation_pvalues(X, y, PermutationPlan(100, seed))
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_over_255_shuffles_in_one_block(self, monkeypatch):
        # 1000 shuffles in one block count each column in a uint16, not a uint8
        monkeypatch.setattr(core, "CHUNK_BYTES", 2 ** 40)
        X, y = _battery(40, 6, 13)
        X[:20, 1] = X[:20, 0]
        assert _blocks(40, 6, 1000) == 1
        _assert_matches_loop(X, y, 1000, 3)

    def test_masked_rows_equal_the_gathered_battery(self):
        # the screen's row mask gives the p-values of the gathered rows
        X, y = _battery(300, 20, 17)
        rows = np.ones(300, dtype=bool)
        rows[[0, 7, 8, 150, 299]] = False
        got = permutation_pvalues(X, y, PermutationPlan(199, 4), rows)
        expected = permutation_pvalues(X[rows], y, PermutationPlan(199, 4))
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        with pytest.raises(ValueError, match="one flag per row"):
            permutation_pvalues(X, y, PermutationPlan(199, 4), rows[:-1])

    def test_tied_target_values(self):
        # shuffles that only swap equal target values reproduce the observed
        # statistics exactly
        X, _ = _battery(30, 12, 5)
        y = np.repeat([0.0, 1.0, 2.5], 4)
        got = permutation_pvalues(X, y, PermutationPlan(299, 9))
        expected = screen_reference.permutation_pvalues(X, y, 299, 9)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            permutation_pvalues(np.empty((0, 10)), np.arange(10.0), PermutationPlan())


@st.composite
def _float32_batteries(draw):
    """Columns at n up to the float32 limit, their target and a seed: normal
    columns, columns with one huge value and 0/1 columns, and a target that
    is normal, few-valued or 0/1; the first column is the target itself, so
    the identity shuffle reaches the largest statistic, n."""
    n = draw(st.integers(4, _FLOAT32_MAX_SAMPLES))
    stream = Stream(draw(st.integers(0, 2 ** 64 - 1)))
    X = stream.normals(9 * n).reshape(9, n)
    y = stream.normals(n)
    target = draw(st.sampled_from(["normal", "few", "binary"]))
    if target != "normal":
        y = np.floor((3.0 if target == "few" else 2.0) * stream.uniforms(n))
        y[:2] = 0.0, 1.0
    X[0] = y
    X[1:4, draw(st.integers(0, n - 1))] = draw(st.sampled_from([1e3, 1e12, -1e150]))
    X[4:] = np.floor(2.0 * stream.uniforms(5 * n)).reshape(5, n)
    X[4:, :2] = 0.0, 1.0
    return X, y, draw(st.integers(0, 2 ** 64 - 1))


class TestFloat32Scoring:
    """Blocks of at most ``_FLOAT32_MAX_SAMPLES`` samples are scored in
    float32 within a band of E32 around the float64 statistics."""

    def test_benchmark_shapes_sit_on_each_side_of_the_limit(self):
        # the null battery (n = 50) scores in float32, the screen (n = 100)
        # in float64; the tests above run both
        assert _scoring(4)[0] is np.float32 and _scoring(50)[0] is np.float32
        assert _scoring(_FLOAT32_MAX_SAMPLES)[0] is np.float32
        assert _scoring(_FLOAT32_MAX_SAMPLES + 1) == (np.float64, 0.0)
        assert _scoring(100) == (np.float64, 0.0)
        assert _scoring(50)[1] == _float32_error(50) == 50 * 54 * 2.0 ** -24

    def test_band_and_peak_rescoring_run_and_match_the_loop(self):
        # at n = 4 about 1 shuffle in 24 is the identity: its statistics equal
        # the observed ones, so they fall in the band, and its peak equals
        # the largest observed statistic, which duplicated columns share, so
        # the peak is rescored too
        X, y = _battery(40, 4, 5)
        X[1::2] = X[:-1:2]
        assert _scoring(4)[0] is np.float32 and _blocks(40, 4, 199) == 1
        with mock.patch.object(multitest, "_rescored", wraps=multitest._rescored) as rescored, \
                mock.patch.object(multitest, "_rescored_peaks",
                                  wraps=multitest._rescored_peaks) as peaks:
            _assert_matches_loop(X, y, 199, 3)
        # one block: one peak rescoring pass, the other calls are band rescorings
        assert peaks.call_count == 1
        assert rescored.call_count >= 2

    @settings(max_examples=200, deadline=None)
    @given(_float32_batteries())
    def test_float32_statistics_lie_within_e32_of_the_float64_ones(self, battery):
        X, y, seed = battery
        n = X.shape[1]
        Xs = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1)[:, None]
        ys = (y - y.mean()) / y.std()
        targets = np.vstack([ys, _shuffled(ys, PermutationPlan(100, seed))])
        low = np.matmul(Xs.astype(np.float32), targets.astype(np.float32).T)
        exact = np.array([Xs @ t for t in targets]).T
        assert np.abs(low - exact).max() <= _float32_error(n)
        assert abs(low[0, 0] - n) <= _float32_error(n)  # the target against itself


class TestPermutationMemory:
    """The traced peak of one call stays within the (B, n) shuffled
    targets (8 bytes per value, and 4 more for their float32 copy when the
    blocks are scored in float32), plus one budget of column-block work
    space, plus 64 bytes per column for the per-column vectors (the tested
    rows' indices, observed statistics, counts, their sorted copy and the
    max-statistic counts) and a slack of 64 KB.  It holds no copy of the
    battery: 4989 x 100 took 9.6 MB with the standardized rows and their
    transposed copy."""

    COLUMN_BYTES = 64
    SLACK_BYTES = 64 * 1024

    @pytest.mark.parametrize("m,n", [(4989, 100), (1000, 50)], ids=["screen", "sim-null"])
    def test_traced_peak(self, m, n):
        X, y = Stream(m).normals(m * n).reshape(m, n), Stream(n).normals(n)
        plan = PermutationPlan(999, 0)
        permutation_pvalues(X, y, plan)
        tracemalloc.start()
        try:
            permutation_pvalues(X, y, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_value = 12 if _scoring(n)[0] is np.float32 else 8
        targets = per_value * plan.n_permutations * n
        assert peak <= targets + core.CHUNK_BYTES + self.COLUMN_BYTES * m + self.SLACK_BYTES
