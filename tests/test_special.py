import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import dcal.special
from dcal import ConvergenceError, regularized_incomplete_beta, student_t_cdf
from dcal.special import ARRAY_MIN_ROWS, student_t_sf_two_sided, student_t_sf_two_sided_rows


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


def test_cdf_reports_df_before_t():
    with pytest.raises(ValueError, match=r"^degrees of freedom must be >= 1, got 0$"):
        student_t_cdf(float("nan"), 0)
    with pytest.raises(ValueError, match="^t must be a number$"):
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


def test_continued_fraction_clamps():
    # The clamps of the scalar continued fraction fire only when 1 + q is
    # exactly 0, which needs shape parameters near 1e16 and x at the branch
    # threshold.  The odd step's clamps (d and c) fire here, where the
    # result is still about scipy's; the first term's clamp fires in a
    # fraction that then runs to its cap.  (Random searches found no input
    # that fires the even step's clamps.)
    a, b, x = 2.4024922200476035e17, 18.772764682745624, 0.9999999999999998
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
        float(special.betainc(a, b, x)), abs=1e-6
    )
    with pytest.raises(ConvergenceError, match="did not converge in 300 iterations"):
        regularized_incomplete_beta(6922589.737520218, 1.1277432618410088e16, 6.138445661798847e-10)


@pytest.mark.parametrize("a,b,x", [
    # returned 56.7 (scipy gives 0.73)
    (2174750979020918.2, 2349542467693067.5, 0.4806829918862734),
    # the prefactor's exp overflows (a bare OverflowError in earlier versions)
    (1.3209827958698752e17, 3.8459540001307296e17, 0.2556607214407694),
])
def test_incomplete_beta_outside_unit_interval_raises(a, b, x):
    # with both shape parameters about 1e14 or more, lgamma's rounding is
    # larger than the prefactor's logarithm; a value outside [0, 1] is an
    # error naming the input
    with pytest.raises(ConvergenceError, match=re.escape(f"left [0, 1] (a={a}, b={b}, x={x})")):
        regularized_incomplete_beta(a, b, x)


@pytest.mark.parametrize("a,b,x", [
    # 2.13e-57 (scipy gives 0.584)
    pytest.param(31.06, 1.52e17, 2.1e-16, id="a31-b1.52e17"),
    # relative errors of 3e-8, 1.4e-6 and 5.5e-4 at x = a/b
    pytest.param(31.06, 1e7, 31.06e-7, id="a31-b1e7"),
    pytest.param(31.06, 1e9, 31.06e-9, id="a31-b1e9"),
    pytest.param(31.06, 1e13, 31.06e-13, id="a31-b1e13"),
    # 1.39e172 (scipy gives 0.5028), and a bare OverflowError
    pytest.param(13113.54, 1.0348e17, 1.2673e-13, id="a13113-b1.03e17"),
    pytest.param(296.08366556447294, 5.212880538095192e17, 2.9288916758322377e-17,
                 id="a296-b5.21e17"),
])
def test_large_shape_matches_scipy(a, b, x):
    # lgamma(a + b) - lgamma(b) used to lose about log2(b) bits
    want = float(special.betainc(a, b, x))
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_large_shape_grid_matches_scipy():
    # x below the mode, near it and above it (where 1 - I_{1-x}(b, a)
    # loses about log2(b/a) bits)
    for a in (0.5, 3.3, 31.06, 300.0):
        for b in np.logspace(3.0, 17.0, 29):
            if b <= a:
                continue
            for scale in (0.5, 0.97, 1.5):
                x = scale * a / (a + b)
                want = float(special.betainc(a, b, x))
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    want, rel=1e-9, abs=0.0
                ), (a, b, x)


def test_incomplete_beta_against_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 60.0):
        for b in (0.5, 1.0, 3.5, 25.0):
            for x in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    float(special.betainc(a, b, x)), abs=1e-13
                ), (a, b, x)


# batch sizes on both sides of the scalar threshold
SIZES = [1, ARRAY_MIN_ROWS - 1, ARRAY_MIN_ROWS, 3 * ARRAY_MIN_ROWS]

STATISTICS = st.one_of(
    st.floats(0.0, 1e300), st.floats(0.0, 50.0), st.just(-0.0), st.just(math.inf)
)


def _entries(size, statistic=STATISTICS, df=st.integers(1, 500)):
    return st.lists(st.tuples(statistic, df), min_size=size, max_size=size)


def _outcome(tail, entries):
    """The tail's values as float64 bytes, or the type and text of its error."""
    t2, df = [t for t, _ in entries], [k for _, k in entries]
    try:
        return np.asarray(tail(t2, df), dtype=np.float64).tobytes()
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


def _scalar_loop(t2, df):
    return [student_t_sf_two_sided(t, k) for t, k in zip(t2, df)]


def _exact_tail(t2: float, df: int):
    """I_x(df/2, 1/2) to 40 digits at the exact x = df/(df + t2); above the
    mode as 1 - I_{1-x}(1/2, df/2), where mpmath's direct form does not
    converge."""
    with mpmath.workdps(40):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t2))
        a = mpmath.mpf(df) / 2
        if x < (a + 1) / (a + 2.5):
            return mpmath.betainc(a, 0.5, 0, x, regularized=True)
        return 1 - mpmath.betainc(0.5, a, 0, 1 - x, regularized=True)


def _rows_kernel(t2, df):
    return student_t_sf_two_sided_rows(np.array(t2, dtype=np.float64), np.array(df))


class TestTailRows:
    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_equal_scalar_bitwise(self, size, data):
        entries = data.draw(_entries(size))
        want = _outcome(_scalar_loop, entries)
        assert isinstance(want, bytes)
        assert _outcome(_rows_kernel, entries) == want

    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_raise_the_scalar_error(self, size, data):
        bad = st.sampled_from([math.nan, -1.0, -1e-300])
        entries = data.draw(_entries(size, st.one_of(STATISTICS, bad), st.integers(-2, 500)))
        assert _outcome(_rows_kernel, entries) == _outcome(_scalar_loop, entries)

    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_fail_to_converge_where_scalar_does(self, size, data):
        # no t tail at df <= 500 needs 300 iterations; with a budget of 3
        # some entries converge and some do not
        entries = data.draw(_entries(size, st.floats(0.0, 1e4)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dcal.special, "_MAX_ITER", 3)
            assert _outcome(_rows_kernel, entries) == _outcome(_scalar_loop, entries)

    @settings(max_examples=200, deadline=None)
    @given(t2=st.floats(1.0, 1e12), df=st.integers(1, 20_000))
    def test_accuracy_stated_in_the_module_docstring(self, t2, df):
        # t**2 >= 1 puts the tail at or below 1/2 at every df
        want = _exact_tail(t2, df)
        got = student_t_sf_two_sided_rows([t2], df)[0]
        if want >= sys.float_info.min:
            assert abs(got - want) <= 5e-14 * df * want
        else:  # below the normal range only an absolute bound holds
            assert abs(got - want) <= sys.float_info.min

    def test_one_df_for_all_entries(self):
        t2 = np.linspace(0.0, 40.0, 2 * ARRAY_MIN_ROWS)
        got = student_t_sf_two_sided_rows(t2, 17)
        assert got.tobytes() == np.array(_scalar_loop(t2.tolist(), [17] * t2.size)).tobytes()
        assert student_t_sf_two_sided_rows(np.array([]), 5).shape == (0,)
