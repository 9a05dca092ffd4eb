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
from dcal.multitest import PERMUTATION_BLOCK_ELEMENTS
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


def _blocks(m, n_permutations):
    return -(-n_permutations // max(1, PERMUTATION_BLOCK_ELEMENTS // m))


class TestBatchedShuffles:
    """The blocked shuffles give exactly the p-values of the frozen loop that
    scored one ``Stream`` shuffle at a time."""

    # m just fits all 199 shuffles in one block, or needs a second one
    ONE_BLOCK = PERMUTATION_BLOCK_ELEMENTS // 199

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [4, 50])
    @pytest.mark.parametrize("m", [1, 2, ONE_BLOCK, ONE_BLOCK + 1, 700])
    def test_equals_per_shuffle_loop(self, m, n, seed):
        X, y = _battery(m, n, 31 + m)
        if n == 4:
            # at n = 4 about 1 shuffle in 24 is the identity, whose statistics
            # tie with the observed ones; rows with two equal entries tie
            # under the shuffles that swap the matching target values
            X[: m // 2, 1] = X[: m // 2, 0]
        got = permutation_pvalues(X, y, PermutationPlan(199, seed))
        expected = screen_reference.permutation_pvalues(X, y, 199, seed)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_block_shapes_covered(self):
        # the cases above include one block, two blocks, and a last block
        # that is only partly filled (199 is not a multiple of the block)
        assert _blocks(self.ONE_BLOCK, 199) == 1
        assert _blocks(self.ONE_BLOCK + 1, 199) == 2
        assert 199 % max(1, PERMUTATION_BLOCK_ELEMENTS // 700) != 0

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
