import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcast import (
    ConfigError,
    DomainError,
    RateMethod,
    SmoothingConfig,
    TimeSeries,
    TransformKind,
    ValidationError,
    direct_rates,
    integrate_discrete,
    rate_of_transform,
    refined_rates,
    transform_series,
)

from growthcast.rates import _BLOCK_WINDOWS, RateSeries, _local_poly_gradients, estimate_rates

from oracles import (
    exact_local_poly_gradients,
    local_poly_gradients,
    local_poly_gradients_whole,
    poly_derivative_over_value,
)


def series(times, values, **kw):
    return TimeSeries(np.asarray(times, float), np.asarray(values, float), **kw)


class TestSmoothingConfig:
    def test_defaults(self):
        cfg = SmoothingConfig()
        assert cfg.window == 7 and cfg.degree == 3

    @pytest.mark.parametrize("window", [2, 4, 1, 0])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValidationError):
            SmoothingConfig(window=window, degree=1)

    @pytest.mark.parametrize("degree", [0, 5, 7])
    def test_rejects_bad_degree(self, degree):
        with pytest.raises(ValidationError):
            SmoothingConfig(window=5, degree=degree)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(window=7.0), "window must be an odd integer >= 3, got 7.0"),
            (dict(window="7"), "window must be an odd integer >= 3, got 7"),
            (dict(degree=2.5), "degree must satisfy 1 <= degree < window, got degree=2.5 window=7"),
            (dict(degree=2.0), "degree must satisfy 1 <= degree < window, got degree=2.0 window=7"),
        ],
        ids=["float-window", "str-window", "float-degree", "whole-float-degree"],
    )
    def test_rejects_a_non_integer(self, fields, message):
        with pytest.raises(ValidationError) as exc:
            SmoothingConfig(**fields)
        assert str(exc.value) == message

    def test_takes_numpy_integers(self):
        cfg = SmoothingConfig(window=np.int64(5), degree=np.int32(2))
        rs = refined_rates(series(np.arange(9.0), np.exp(0.03 * np.arange(9.0))), cfg)
        assert rs.rates.size == 9


class TestDirectRates:
    def test_single_step(self):
        rs = direct_rates(series([0, 1], [100.0, 110.0]))
        assert len(rs) == 1
        assert rs.times[0] == 1.0
        assert rs.rates[0] == pytest.approx(0.1)
        assert rs.sizes[0] == 110.0
        assert rs.method is RateMethod.DIRECT

    def test_constant_series_rates_zero(self):
        rs = direct_rates(series([0, 1, 2], [5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(rs.rates, [0.0, 0.0])

    def test_exponential_unit_steps(self):
        # oracle: per-step rate of exp(r t) at dt=1 is e^r - 1
        t = np.arange(0, 30)
        rs = direct_rates(series(t, np.exp(0.02 * t)))
        expected = math.exp(0.02) - 1.0
        np.testing.assert_allclose(rs.rates, expected, rtol=1e-12)
        assert expected == pytest.approx(0.0202013, abs=1e-7)

    def test_zero_size_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^direct rates undefined: series value 0 at t=1\.0$"):
            direct_rates(series([0, 1, 2], [1.0, 0.0, 2.0]))

    def test_output_has_n_minus_1_points(self):
        rs = direct_rates(series(np.arange(10), np.linspace(1, 2, 10)))
        assert len(rs) == 9

    def test_scale_invariance(self):
        t = np.arange(12, dtype=float)
        values = np.cumsum(np.abs(np.sin(t)) + 0.5) + 3.0
        base = direct_rates(series(t, values))
        doubled = direct_rates(series(t, 2.0 * values))
        np.testing.assert_array_equal(base.rates, doubled.rates)  # exact for k = 2
        scaled = direct_rates(series(t, 1.7 * values))
        np.testing.assert_allclose(scaled.rates, base.rates, rtol=1e-13)

    def test_inverts_through_discrete_integration(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.5, 2.0, size=25))
        v = np.cumprod(1.0 + rng.uniform(-0.05, 0.08, size=25)) * 100.0
        ts = series(t, v)
        back = integrate_discrete(direct_rates(ts), (t[0], v[0]))
        np.testing.assert_allclose(back.values, ts.values, rtol=1e-12)
        np.testing.assert_array_equal(back.times, ts.times)

    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    def test_bits_of_the_diff_formula(self, jitter):
        # slice differences make the subtraction np.diff makes
        rng = np.random.default_rng(31)
        for n in (2, 3, 150, 4097):
            t = 1950.0 + np.arange(n) + rng.uniform(-jitter, jitter, n)
            v = 100.0 * np.cumprod(1.0 + rng.normal(0.02, 0.05, n))
            want = np.diff(v) / (v[:-1] * np.diff(t))
            assert direct_rates(series(t, v)).rates.tobytes() == want.tobytes()


class TestRefinedRates:
    def test_constant_series_rates_zero(self):
        t = np.arange(15, dtype=float)
        rs = refined_rates(series(t, np.full(15, 4.0)))
        np.testing.assert_allclose(rs.rates, 0.0, atol=1e-14)
        assert rs.method is RateMethod.REFINED
        assert len(rs) == 15  # spans the whole data range

    def test_exact_for_polynomial_data(self):
        # data exactly polynomial of the fitted degree: R = p'(t)/p(t) exactly
        coeffs = [50.0, 2.0, 0.3, 0.01]
        t = np.linspace(0.0, 8.0, 41)
        p = np.polynomial.polynomial.polyval(t, coeffs)
        rs = refined_rates(series(t, p), SmoothingConfig(window=7, degree=3))
        expected = poly_derivative_over_value(coeffs, t)
        np.testing.assert_allclose(rs.rates, expected, rtol=1e-10)

    def test_exponential_bias_bound(self):
        t = np.linspace(0.0, 100.0, 101)
        rs = refined_rates(series(t, np.exp(0.03 * t)), SmoothingConfig(window=7, degree=3))
        assert np.max(np.abs(rs.rates - 0.03)) <= 1e-4

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            refined_rates(series([0, 1, 2], [1.0, 2.0, 3.0]), SmoothingConfig(window=5, degree=2))

    def test_zero_value_is_domain_error(self):
        t = np.arange(9, dtype=float)
        v = np.ones(9)
        v[4] = 0.0
        with pytest.raises(DomainError, match=r"^refined rates undefined: series value 0 at t=4\.0$"):
            refined_rates(series(t, v))

    def test_window_is_checked_before_zero_values(self):
        with pytest.raises(ValidationError, match="need at least window=7 points, series has 3"):
            refined_rates(series([0, 1, 2], [1.0, 0.0, 3.0]))

    def test_nonuniform_spacing_polynomial(self):
        rng = np.random.default_rng(11)
        t = np.cumsum(rng.uniform(0.3, 1.7, size=30))
        coeffs = [10.0, 1.0, 0.05]
        p = np.polynomial.polynomial.polyval(t, coeffs)
        rs = refined_rates(series(t, p), SmoothingConfig(window=5, degree=2))
        expected = poly_derivative_over_value(coeffs, t)
        np.testing.assert_allclose(rs.rates, expected, rtol=1e-9)


def spaced_times(spacing, n):
    i = np.arange(n, dtype=float)
    if spacing == "uniform":
        return i
    if spacing == "jittered":
        return i + np.random.default_rng(n).uniform(-0.3, 0.3, n)
    return 1800.0 + 0.01 * i  # calendar-year offsets


def assert_within_rounding(grads, reference, floor=0.0):
    tol = 1e-10 * np.abs(reference) + 1e-13 * np.max(np.abs(reference)) + floor
    excess = np.abs(grads - reference) / tol
    assert np.all(np.isfinite(grads))
    assert excess.max() <= 1.0, f"worst point at {excess.max():.3g} x the bound"


class TestBatchedGradients:
    """The batched least-squares kernel against the per-point SVD loop.

    Bound: |g - g_loop| <= 1e-10*|g_loop| + 1e-13*max|g_loop| on
    smooth series. A 1e-12 relative bound would be tighter than the loop
    itself agrees with an independent pinv solve (about 1.4-1.6e-12 on
    smooth series of 2e4 points, window 7, degree 3).
    """

    @pytest.mark.parametrize("spacing", ["uniform", "jittered", "calendar"])
    @pytest.mark.parametrize("window", [3, 5, 7, 9, 11])
    def test_matches_loop_on_smooth_growth(self, spacing, window):
        for n in (window, window + 1, 200):
            t = spaced_times(spacing, n)
            step = (t[-1] - t[0]) / (n - 1)
            v = 100.0 * np.exp(0.03 * (t - t[0]) / step)
            for degree in range(1, window):
                cfg = SmoothingConfig(window=window, degree=degree)
                assert_within_rounding(
                    _local_poly_gradients(t, v, cfg), local_poly_gradients(t, v, cfg)
                )

    @pytest.mark.parametrize("degree", [9, 10])
    def test_near_square_windows_on_noisy_data_match_exact_solution(self, degree):
        # here the loop itself misses the exact derivative by 1.4e-10 and
        # 2.7e-10 of max|g|, so the two solvers differ by more than the
        # class bound; the batched kernel is held to the exact solution
        rng = np.random.default_rng(degree)
        t = np.arange(11.0) + rng.uniform(-0.3, 0.3, 11)
        v = 100.0 * np.exp(0.03 * np.arange(11)) * (1.0 + 0.01 * rng.standard_normal(11))
        cfg = SmoothingConfig(window=11, degree=degree)
        exact = exact_local_poly_gradients(t, v, cfg)
        grads = _local_poly_gradients(t, v, cfg)
        assert np.max(np.abs(grads - exact)) <= 1e-9 * np.max(np.abs(exact))


class TestBlockedGradients:
    """Windows solved in blocks give the bits of one solve over all windows."""

    @pytest.mark.parametrize("spacing", ["uniform", "jittered"])
    @pytest.mark.parametrize("n", [_BLOCK_WINDOWS - 1, _BLOCK_WINDOWS + 1, 2 * _BLOCK_WINDOWS + 3])
    def test_same_bits_as_one_solve(self, spacing, n):
        t = spaced_times(spacing, n)
        noise = 1.0 + 0.01 * np.random.default_rng(n).standard_normal(n)
        v = 100.0 * np.exp(0.003 * t) * noise
        for window in (3, 5, 7, 9, 11):
            for degree in range(1, window):
                cfg = SmoothingConfig(window=window, degree=degree)
                got = _local_poly_gradients(t, v, cfg)
                want = local_poly_gradients_whole(t, v, cfg)
                # the first and last windows are anchored at the series edges
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (window, degree)


@st.composite
def series_and_config(draw):
    window = draw(st.sampled_from([3, 5, 7, 9, 11]))
    degree = draw(st.integers(1, min(window - 1, 6)))
    n = draw(st.integers(window, 40))
    step = draw(st.floats(1e-3, 1e3))
    start = draw(st.floats(-1e4, 1e4))
    gaps = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    times = start + step * np.cumsum(gaps)
    assume(np.all(np.diff(times) > 0))
    return times, np.asarray(values), SmoothingConfig(window=window, degree=degree)


@settings(deadline=None, derandomize=True)
@given(series_and_config())
def test_batched_gradients_match_loop_on_random_series(case):
    """Random increasing times and positive values, windows 3..11.

    Same bound as TestBatchedGradients plus 1e-13*max|S|/min(dt): on a
    constant stretch g is 0 and both solvers return rounding noise of
    size eps*|S|/dt, which no bound relative to g covers. Degrees stop
    at 6: from degree 7 up, random values on windows 9 and 11 make the
    problem ill-conditioned enough to separate any two stable solvers
    by several times the bound (see
    test_near_square_windows_on_noisy_data_match_exact_solution).
    """
    times, values, cfg = case
    floor = 1e-13 * np.max(values) / np.min(np.diff(times))
    assert_within_rounding(
        _local_poly_gradients(times, values, cfg),
        local_poly_gradients(times, values, cfg),
        floor,
    )


class TestRateSeriesInvariants:
    @pytest.mark.parametrize("field", ["times", "rates", "sizes"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_validation_error(self, field, bad):
        arrays = {"times": [0.0, 1.0, 2.0], "rates": [0.1, 0.2, 0.3], "sizes": [1.0, 2.0, 3.0]}
        arrays[field][1] = bad
        with pytest.raises(ValidationError, match=f"{field} contain non-finite"):
            RateSeries(**arrays)

    def test_caller_float64_arrays_are_kept_read_only(self):
        # documented: the record keeps a caller's float64 arrays uncopied
        # and makes them read-only; copies passed in leave the originals writable
        arrays = {"times": np.arange(3.0), "rates": np.full(3, 0.1), "sizes": np.ones(3)}
        rs = RateSeries(**arrays)
        for name, arr in arrays.items():
            assert getattr(rs, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        mine = np.full(3, 0.1)
        RateSeries(np.arange(3.0), mine.copy(), np.ones(3))
        mine[0] = 0.5
        assert mine[0] == 0.5

    _SHAPE = "times, rates and sizes must be 1-d arrays of equal length"

    # (times, rates, sizes, message): most cases also fail a later check, which
    # pins the order of the checks
    @pytest.mark.parametrize("times, rates, sizes, message", [
        ([0.0, math.nan], [0.1, 0.2], [1.0], _SHAPE),
        ([[0.0]], [[0.1]], [[1.0]], _SHAPE),
        ([], [], [], "a rate series needs at least one point"),
        ([1.0, math.nan], [math.inf, 0.2], [math.nan, 2.0], "times contain non-finite entries"),
        ([1.0, 0.0], [0.1, -math.inf], [math.nan, 2.0], "rates contain non-finite entries"),
        ([1.0, 0.0], [0.1, 0.2], [1.0, math.inf], "sizes contain non-finite entries"),
        ([0.0, 1.0, 1.0], [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], "rate times must be strictly increasing"),
        ([1.0, 0.0], [0.1, 0.2], [1.0, 2.0], "rate times must be strictly increasing"),
    ])
    def test_first_failing_check_names_itself(self, times, rates, sizes, message):
        with pytest.raises(ValidationError) as info:
            RateSeries(times, rates, sizes)
        assert str(info.value) == message


def _rebuilt(record):
    """The record the validating constructor builds from copies of ``record``'s fields."""
    fields = {
        f.name: np.array(v) if isinstance(v, np.ndarray) else v
        for f in dataclasses.fields(record)
        for v in [getattr(record, f.name)]
    }
    return type(record)(**fields)


_DERIVED = {
    "direct_rates": direct_rates,
    "refined_rates": lambda ts: refined_rates(ts, SmoothingConfig(window=5, degree=2)),
    "rate_of_transform log": lambda ts: rate_of_transform(ts, TransformKind.LOG),
    "rate_of_transform reciprocal refined": lambda ts: rate_of_transform(
        ts, TransformKind.RECIPROCAL, RateMethod.REFINED
    ),
    "transform_series log": lambda ts: transform_series(ts, TransformKind.LOG),
    "transform_series reciprocal": lambda ts: transform_series(ts, TransformKind.RECIPROCAL),
}


class TestDerivedRecords:
    """Records derived from a validated series equal the record the
    constructor builds from copies of their fields, and are read-only."""

    @pytest.mark.parametrize("name", sorted(_DERIVED))
    def test_equals_the_validated_record_and_is_read_only(self, name):
        values = np.exp(np.linspace(1.0, 2.5, 12))
        ts = series(np.arange(1990.0, 2002.0), values, label="x", unit="u")
        got = _DERIVED[name](ts)
        want = _rebuilt(got)
        assert vars(got).keys() == vars(want).keys()
        for key, value in vars(got).items():
            if isinstance(value, np.ndarray):
                assert value.dtype == want.__dict__[key].dtype == np.float64
                assert np.array_equal(value, want.__dict__[key])
                assert not value.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    value[0] = 0.0
            else:
                assert value == want.__dict__[key]

    def test_validating_constructors_still_check(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            RateSeries([1.0, 0.0], [0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValidationError, match="strictly increasing"):
            TimeSeries([1.0, 0.0], [1.0, 2.0])


class TestDirectRefinedAgreement:
    def test_both_recover_constant_rate_on_dense_exponential(self):
        r = 0.02
        t = np.linspace(0.0, 0.02, 2001)  # dt = 1e-5
        ts = series(t, np.exp(r * t))
        d = direct_rates(ts)
        f = refined_rates(ts, SmoothingConfig(window=3, degree=1))
        assert np.max(np.abs(d.rates - r)) <= 1e-6 * r + 1e-6
        assert np.max(np.abs(f.rates - r)) <= 1e-6 * r + 1e-6


class TestRateOfTransform:
    def test_log_transform_of_double_exponential(self):
        # S = exp(exp(0.01 t)): F = ln S grows exponentially, so the
        # direct rate of F at unit steps is e^0.01 - 1 everywhere
        t = np.arange(0, 40, dtype=float)
        ts = series(t, np.exp(np.exp(0.01 * t)))
        rs = rate_of_transform(ts, TransformKind.LOG, RateMethod.DIRECT)
        np.testing.assert_allclose(rs.rates, math.exp(0.01) - 1.0, rtol=1e-10)

    def test_constant_series_log_rates_zero(self):
        ts = series([0, 1, 2], [7.0, 7.0, 7.0])
        rs = rate_of_transform(ts, TransformKind.LOG, RateMethod.DIRECT)
        np.testing.assert_array_equal(rs.rates, [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["log", "reciprocal", None])
    def test_kind_that_is_not_a_transform_kind_is_config_error(self, kind):
        ts = series([0, 1, 2], [1.0, 2.0, 3.0], label="gdp")
        with pytest.raises(ConfigError, match=f"^unknown transform {kind!r}$"):
            rate_of_transform(ts, kind)

    def test_reciprocal_with_zero_is_domain_error(self):
        ts = series([0, 1, 2], [1.0, 0.0, 3.0])
        with pytest.raises(DomainError):
            rate_of_transform(ts, TransformKind.RECIPROCAL)

    def test_size_field_carries_transformed_values(self):
        t = np.arange(0, 6, dtype=float)
        values = np.exp(np.linspace(1.0, 2.0, 6))
        ts = series(t, values)
        rs = rate_of_transform(ts, TransformKind.LOG, RateMethod.DIRECT)
        np.testing.assert_allclose(rs.sizes, np.log(values)[1:], rtol=1e-15)

    @pytest.mark.parametrize("method", list(RateMethod))
    def test_estimate_rates_uses_the_method(self, method):
        ts = series(np.arange(12.0), np.exp(np.linspace(1.0, 2.0, 12)), label="pop")
        cfg = SmoothingConfig(window=5, degree=2)
        want = direct_rates(ts) if method is RateMethod.DIRECT else refined_rates(ts, cfg)
        got = estimate_rates(ts, method, cfg)
        for field in ("times", "rates", "sizes"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.method, got.source_label) == (method, "pop")

    @pytest.mark.parametrize("label, expected", [("pop", "pop [log]"), ("", "[log]")])
    def test_label_names_the_transform(self, label, expected):
        ts = series([0, 1, 2], [2.0, 3.0, 4.0], label=label)
        assert rate_of_transform(ts, TransformKind.LOG).source_label == expected

    def test_refined_variant_matches_refined_on_transformed(self):
        t = np.linspace(0, 20, 50)
        ts = series(t, np.exp(0.05 * t) + 1.0)
        cfg = SmoothingConfig(window=5, degree=2)
        via_transform = rate_of_transform(ts, TransformKind.LOG, RateMethod.REFINED, cfg)
        direct_path = refined_rates(transform_series(ts, TransformKind.LOG), cfg)
        np.testing.assert_allclose(via_transform.rates, direct_path.rates, rtol=1e-14)
