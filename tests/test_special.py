import numpy as np
import pytest
from scipy import special, stats

from dcal import regularized_incomplete_beta, student_t_cdf
from dcal.special import student_t_sf_two_sided


def test_cdf_at_zero_is_half():
    assert student_t_cdf(0.0, 10) == 0.5


def test_cauchy_closed_form():
    # df = 1 is Cauchy: 1/2 + atan(1)/pi = 0.75
    assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)


def test_reference_value_t2_df9():
    # frozen from a 50-digit evaluation of the incomplete-beta identity
    assert student_t_cdf(2.0, 9) == pytest.approx(0.96172358811464948, abs=1e-13)


def test_against_scipy_grid():
    ts = [-50.0, -8.5, -3.2, -1.7, -0.4, 0.1, 0.9, 2.0, 4.4, 12.0, 80.0]
    for df in (1, 2, 3, 9, 29, 120, 5000):
        for t in ts:
            assert student_t_cdf(t, df) == pytest.approx(
                stats.t.cdf(t, df), abs=1e-12
            ), (t, df)


def test_symmetry_identity():
    for df in (1, 4, 17, 250):
        for t in (0.1, 0.5, 1.3, 2.7, 9.0):
            assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(
                1.0, abs=1e-14
            )


def test_monotone_in_t():
    grid = np.linspace(-12, 12, 97)
    values = [student_t_cdf(t, 7) for t in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_extremes():
    assert student_t_cdf(100.0, 10) > 0.999
    assert student_t_cdf(-100.0, 10) < 0.001
    assert student_t_cdf(float("inf"), 3) == 1.0


def test_df_zero_rejected():
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0)
    with pytest.raises(ValueError):
        student_t_cdf(float("nan"), 5)


def test_two_sided_tail_rejects_nan():
    # a NaN statistic used to reach the continued fraction, which then
    # raised ConvergenceError after its iteration budget
    with pytest.raises(ValueError, match="t squared must be a number"):
        student_t_sf_two_sided(float("nan"), 5)
    with pytest.raises(ValueError):
        student_t_sf_two_sided(-1.0, 5)
    assert student_t_sf_two_sided(float("inf"), 5) == 0.0


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_beta_against_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 60.0):
        for b in (0.5, 1.0, 3.5, 25.0):
            for x in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    float(special.betainc(a, b, x)), abs=1e-13
                ), (a, b, x)
