import numpy as np
import pytest

from growthcast import (
    Model,
    ModelKind,
    Params,
    RateMethod,
    RateSeries,
    SmoothingConfig,
    StabilityStatus,
    TimeSeries,
    ValidationError,
    direct_rates,
    identify,
    normalize,
    refined_rates,
    stability_flag,
    trajectory_at,
)


def rate_series(times, rates):
    times = np.asarray(times, float)
    rates = np.asarray(rates, float)
    return RateSeries(times=times, rates=rates, sizes=np.ones_like(rates))


class TestStabilityFlag:
    def test_healthy_rates(self):
        flag = stability_flag(rate_series(np.arange(8.0), np.full(8, 0.03)))
        assert flag.status is StabilityStatus.OK
        assert flag.recent_rate == pytest.approx(0.03)
        assert flag.threshold == pytest.approx(0.014)

    def test_low_rates_flagged(self):
        flag = stability_flag(rate_series(np.arange(8.0), np.full(8, 0.010)))
        assert flag.status is StabilityStatus.LOW_RATE_UNSTABLE

    def test_zero_threshold_never_fires_on_positive_rates(self):
        flag = stability_flag(rate_series(np.arange(8.0), np.full(8, 0.001)), threshold=0.0)
        assert flag.status is StabilityStatus.OK

    def test_recent_window_is_last_five(self):
        rates = np.concatenate([np.full(10, 0.5), np.full(5, 0.01)])
        flag = stability_flag(rate_series(np.arange(15.0), rates))
        assert flag.recent_rate == pytest.approx(0.01)
        assert flag.status is StabilityStatus.LOW_RATE_UNSTABLE

    def test_short_series_uses_what_exists(self):
        flag = stability_flag(rate_series([0.0, 1.0], [0.02, 0.04]))
        assert flag.recent_rate == pytest.approx(0.03)


class TestIdentify:
    def test_hyperbolic_series_wins(self):
        t = np.linspace(0.0, 9.0, 181)
        ts = TimeSeries(t, 1.0 / (10.0 - t))
        report = identify(ts)
        assert report.winner.model_kind is ModelKind.HYPERBOLIC
        assert report.winner.r_squared >= 1.0 - 1e-10

    def test_logistic_series_wins(self):
        m = normalize(Model(ModelKind.LINEAR_S, Params(a=1.0, b=-1.0)), 0.0, 0.5)
        t = np.linspace(-4.0, 4.0, 801)
        ts = TimeSeries(t, trajectory_at(m, t))
        report = identify(ts)
        assert report.winner.model_kind is ModelKind.LINEAR_S
        assert report.winner.r_squared >= 1.0 - 1e-10

    def test_constant_rate_wins_by_tie_break(self):
        t = np.arange(40.0)
        ts = TimeSeries(t, 100.0 * 1.02**t)
        report = identify(ts)
        assert report.winner.model_kind is ModelKind.EXP_CONST
        assert report.winner.r_squared == 1.0

    def test_ranking_is_sorted(self):
        t = np.linspace(0.0, 9.0, 120)
        ts = TimeSeries(t, 1.0 / (10.0 - t))
        report = identify(ts)
        r2 = [round(c.r_squared, 10) for c in report.candidates]
        assert r2 == sorted(r2, reverse=True)

    def test_scale_invariance_of_ranking(self):
        # rates are scale-free and size-based fits only reparameterize
        # the regressor, so those candidates keep their r^2 under any
        # positive rescaling; the log-of-size candidates shift (ln S
        # moves additively) and are excluded from the comparison
        t = np.linspace(0.0, 30.0, 200)
        values = np.exp(0.02 * t + 0.3 * np.sin(t / 4.0)) * 40.0
        base = identify(TimeSeries(t, values))
        scaled = identify(TimeSeries(t, values * 137.0))
        assert scaled.winner.model_kind is base.winner.model_kind
        plain = lambda rep: [c for c in rep.candidates if c.transform is None]
        assert [c.model_kind for c in plain(base)] == [c.model_kind for c in plain(scaled)]
        for b, s in zip(plain(base), plain(scaled)):
            assert s.r_squared == pytest.approx(b.r_squared, abs=1e-9)

    def test_refined_method_accepted(self):
        t = np.linspace(0.0, 9.0, 101)
        ts = TimeSeries(t, 1.0 / (10.0 - t))
        report = identify(ts, method=RateMethod.REFINED, cfg=SmoothingConfig(5, 2))
        assert report.winner.model_kind is ModelKind.HYPERBOLIC

    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_report_carries_the_ranked_rates(self, method):
        t = np.linspace(0.0, 9.0, 40)
        ts = TimeSeries(t, np.exp(0.02 * t) + t)
        report = identify(ts, method=method)
        expected = direct_rates(ts) if method is RateMethod.DIRECT else refined_rates(ts)
        assert report.rates.method is method
        np.testing.assert_array_equal(report.rates.times, expected.times)
        np.testing.assert_array_equal(report.rates.rates, expected.rates)

    def test_shifted_exp_skipped_without_aux(self):
        t = np.linspace(0.0, 9.0, 60)
        ts = TimeSeries(t, np.exp(0.02 * t))
        report = identify(ts)
        kinds = {c.model_kind for c in report.candidates}
        assert ModelKind.RATE_SHIFTED_EXP not in kinds
        assert any("shifted" in n for n in report.notes)

    def test_shifted_exp_included_with_aux(self):
        a0, b0, r0 = 10.0, 5.0, 0.2
        t = np.linspace(0.0, 20.0, 400)
        rates = 1.0 / (a0 - b0 * np.exp(-r0 * t))
        # build a series whose direct rates approximate that law poorly
        # enough not to matter: feed rates straight through identify's
        # internals by constructing the series from cumulative products
        values = np.empty_like(t)
        values[0] = 1.0
        dt = np.diff(t)
        values[1:] = np.cumprod(1.0 + rates[1:] * dt)
        ts = TimeSeries(t, values)
        report = identify(ts, aux_a=a0)
        kinds = {c.model_kind for c in report.candidates}
        assert ModelKind.RATE_SHIFTED_EXP in kinds

    def test_negative_values_skip_log_tests(self):
        t = np.arange(12.0)
        ts = TimeSeries(t, np.linspace(-2.5, 9.0, 12))
        report = identify(ts)
        kinds = {c.model_kind for c in report.candidates}
        assert ModelKind.LOGLOG_T not in kinds
        assert any("non-positive" in n for n in report.notes)

    def test_degenerate_intercept_demoted_below_hyperbolic(self):
        # hyperbolic data also fits R = a + b S perfectly with a ~ 0;
        # the zero intercept pushes that candidate below HYPERBOLIC
        t = np.linspace(0.0, 9.0, 181)
        ts = TimeSeries(t, 1.0 / (10.0 - t))
        report = identify(ts)
        by_kind = {c.model_kind: i for i, c in enumerate(report.candidates)}
        assert by_kind[ModelKind.HYPERBOLIC] < by_kind[ModelKind.LINEAR_S]
        linear_s = report.candidates[by_kind[ModelKind.LINEAR_S]]
        assert not linear_s.valid

    def test_too_short_series_raises(self):
        ts = TimeSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValidationError):
            identify(ts, method=RateMethod.REFINED, cfg=SmoothingConfig(7, 3))

    @pytest.mark.parametrize(
        "kind,params,anchor",
        [
            (ModelKind.EXP_CONST, Params(a=0.05), (0.0, 10.0)),
            (ModelKind.LINEAR_S, Params(a=1.0, b=-0.25), (0.0, 1.0)),
            (ModelKind.HYPERBOLIC, Params(b=0.8, C=12.0), None),
            (ModelKind.RATE_LN_LINEAR, Params(a=0.3, b=-0.08), (0.0, 5.0)),
            (ModelKind.RATE_RECIP_LINEAR, Params(a=3.0, b=-0.2), (0.0, 2.0)),
        ],
    )
    def test_noise_free_generated_data_identified(self, kind, params, anchor):
        m = Model(kind, params)
        if anchor is not None:
            m = normalize(m, *anchor)
        t = np.linspace(0.0, 8.0, 8001)
        ts = TimeSeries(t, trajectory_at(m, t))
        report = identify(ts)
        assert report.winner.model_kind is kind, report.candidates[:3]
        assert report.winner.r_squared >= 1.0 - 1e-10
