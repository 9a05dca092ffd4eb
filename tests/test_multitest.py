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
from dcal import core
from dcal.multitest import _shuffle_bytes
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
    """Blocks of one call at the current budget."""
    return -(-n_permutations // max(1, core.CHUNK_BYTES // _shuffle_bytes(m, n)))


def _one_block_budget(m, n):
    """The budget at which 199 shuffles of an (m, n) battery just fit one block."""
    return 199 * _shuffle_bytes(m, n)


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
    n = draw(st.sampled_from([4, 4, 5, 8, 12]))
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
    """The blocked shuffles give exactly the p-values of the frozen loop that
    scored one ``Stream`` shuffle at a time."""

    # Under the budget that just fits 199 shuffles of ONE_BLOCK columns in
    # one block, ONE_BLOCK + 1 columns need a second block and 700 columns
    # end on a partly filled block.
    ONE_BLOCK = 164

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [4, 50])
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
        # the cases above include one block, two blocks, and a last block
        # that is only partly filled (199 is not a multiple of the block)
        for n in (4, 50):
            monkeypatch.setattr(core, "CHUNK_BYTES", _one_block_budget(self.ONE_BLOCK, n))
            assert _blocks(self.ONE_BLOCK, n, 199) == 1
            assert _blocks(self.ONE_BLOCK + 1, n, 199) == 2
            assert 199 % (core.CHUNK_BYTES // _shuffle_bytes(700, n)) != 0

    @pytest.mark.parametrize("n", [4, 50])
    def test_default_budget_block_shapes(self, n):
        # the widest battery whose 199 shuffles fit one block at the default
        # budget, one column more (two blocks), and 2000 columns (a partly
        # filled last block)
        one = next(m for m in range(10 ** 4, 0, -1) if _blocks(m, n, 199) == 1)
        assert _blocks(one + 1, n, 199) == 2
        assert 199 % (core.CHUNK_BYTES // _shuffle_bytes(2000, n)) != 0
        for m in (one, one + 1, 2000):
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


class TestPermutationMemory:
    """The traced peak of one call stays within that of the kernel with
    blocks of 2**15 statistics, plus one budget of block work space, plus a
    slack.  The contiguous (n, m) copy of the standardized rows is charged
    to the standardization: that kernel divided into a new array, so its
    peak already held two (m, n) arrays; this one divides in place.  The
    slack holds the per-column vectors (standard deviations, observed
    statistics, their sorted copy, the counts) that the standardization's
    peak did not, 32 m bytes: 160 KB at m = 4989."""

    SLACK_BYTES = 256 * 1024
    # the traced peaks of a warm call of that kernel at 999 shuffles
    # (numpy 2.4, Python 3.11); they depend on the shape only
    BLOCKED_PEAKS = {(4989, 100): 8_088_632, (1000, 50): 981_160}

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
        assert peak <= self.BLOCKED_PEAKS[m, n] + core.CHUNK_BYTES + self.SLACK_BYTES
