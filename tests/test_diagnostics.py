from dataclasses import replace

import numpy as np
import pytest

import oracles
from growthcast import (
    EmptyLinearizationError,
    LinearizationKind,
    Model,
    ModelKind,
    NumericError,
    Params,
    RateMethod,
    RateSeries,
    SmoothingConfig,
    StabilityStatus,
    TimeSeries,
    ValidationError,
    direct_rates,
    identify,
    linearize,
    linearize_series,
    normalize,
    rate_of_transform,
    refined_rates,
    stability_flag,
    trajectory_at,
)
from growthcast import diagnostics
from growthcast.models import LOG_LIFT
from growthcast.timeseries import TransformKind


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

    def test_recent_rate_beyond_float_range_is_numeric_error(self):
        with pytest.raises(NumericError) as exc:
            stability_flag(rate_series([0.0, 1.0], [1e308, 1e308]))
        assert str(exc.value) == "recent rate (mean of the last 2) is beyond the float range"


class TestIdentify:
    # direct rates whose squared deviations overflow, and whose sum does
    SQUARE_OVERFLOW = TimeSeries(np.arange(4.0), np.array([1.0, 1e170, 1e300, 1e301]))
    MEAN_OVERFLOW = TimeSeries(
        np.array([0.0, 1e-308, 2e-308, 3e-308, 4e-308]), np.arange(1.0, 6.0)
    )

    @pytest.mark.parametrize("ts", [SQUARE_OVERFLOW, MEAN_OVERFLOW])
    def test_constant_rate_beyond_float_range_is_none(self, ts):
        assert diagnostics._constant_rate_candidate(direct_rates(ts)) is None

    def test_constant_rate_beyond_float_range_is_not_ranked(self):
        report = identify(self.SQUARE_OVERFLOW)
        assert ModelKind.EXP_CONST not in {c.model_kind for c in report.candidates}
        assert report.notes == (
            "log-of-size tests skipped (log rates undefined on this series)",
            "shifted-exponential test skipped (auxiliary parameter a not supplied)",
            "exp_const test not ranked: its rates' mean or rms is beyond the float range",
            "linear_t test not ranked: its line is degenerate",
            "linear_s test not ranked: its line is degenerate",
        )
        assert report.winner.model_kind is ModelKind.RATE_LN_LINEAR

    def test_nothing_left_to_rank_is_numeric_error(self):
        with pytest.raises(NumericError) as exc:
            identify(self.MEAN_OVERFLOW)
        assert str(exc.value) == (
            "no identification test can be ranked on this series: the rates' mean or rms "
            "is beyond the float range and no line test fits"
        )

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


def _rate_law(family, rng):
    """A random rate law R(t, F) of one catalog family, and its start F0.

    The log-of-size families step F = ln S; the others step S itself.
    """
    u = rng.uniform
    if family == "exp_const":
        a = u(0.005, 0.05)
        return (lambda t, f: a + 0 * t), u(1.0, 100.0)
    if family == "linear_t":
        a, b = u(0.01, 0.05), u(-5e-4, 5e-4)
        return (lambda t, f: a + b * t), u(1.0, 100.0)
    if family == "hyperbolic":
        s0 = u(1.0, 10.0)
        b = 1.0 / (s0 * u(150.0, 400.0))
        return (lambda t, f: b * f), s0
    if family == "linear_s":
        a, k = u(0.02, 0.1), u(50.0, 500.0)
        return (lambda t, f: a - a / k * f), k * u(0.02, 0.3)
    if family == "loglog_t":
        a, b = u(0.002, 0.01), u(-5e-5, 5e-5)
        return (lambda t, f: a + b * t), u(2.0, 6.0)
    if family == "loglog_s":
        a, k = u(0.01, 0.04), u(8.0, 15.0)
        return (lambda t, f: a - a / k * f), u(2.0, 6.0)
    if family == "rate_recip_linear":
        a, b = u(10.0, 40.0), u(0.1, 0.5)
        return (lambda t, f: 1.0 / (a + b * t)), u(1.0, 100.0)
    if family == "rate_ln_linear":
        a, b = u(0.02, 0.08), -u(0.005, 0.05)
        return (lambda t, f: a * np.exp(b * t)), u(1.0, 100.0)
    a = u(20.0, 80.0)
    b, r = a * u(0.2, 0.8), u(0.01, 0.1)
    return (lambda t, f: 1.0 / (a - b * np.exp(-r * t))), u(1.0, 100.0)


FAMILIES = [kind.value for kind in ModelKind]


def _random_series(rng, family, calendar):
    """A noisy series stepped through the family's law: F[i+1] = F[i](1 + R dt)."""
    n = int(rng.integers(8, 121))
    dt = float(rng.choice([0.25, 0.5, 1.0]))
    law, f0 = _rate_law(family, rng)
    tp = dt * np.arange(n)
    f = np.empty(n)
    f[0] = f0
    for i in range(n - 1):
        f[i + 1] = f[i] * (1.0 + law(tp[i + 1], f[i]) * dt)
    values = np.exp(f) if family in ("loglog_t", "loglog_s") else f
    values = values * (1.0 + 10.0 ** rng.uniform(-6, -2) * rng.standard_normal(n))
    if rng.random() < 0.25:  # a recession: a persistent drop, a negative rate
        values[int(rng.integers(1, n)):] *= 1.0 - rng.uniform(0.01, 0.04)
    return TimeSeries(tp + (1950.0 if calendar else 0.0), values)


#: identify's line tests in its table order: family, linearization, and
#: the transform whose rates the test reads
LINE_TESTS = [
    (ModelKind.LINEAR_T, LinearizationKind.R_VS_T, None),
    (ModelKind.LINEAR_S, LinearizationKind.R_VS_S, None),
    (ModelKind.HYPERBOLIC, LinearizationKind.RECIP_S_VS_T, None),
    (ModelKind.LOGLOG_T, LinearizationKind.R_VS_T, TransformKind.LOG),
    (ModelKind.LOGLOG_S, LinearizationKind.R_VS_S, TransformKind.LOG),
    (ModelKind.RATE_RECIP_LINEAR, LinearizationKind.RECIP_R_VS_T, None),
    (ModelKind.RATE_LN_LINEAR, LinearizationKind.LN_R_VS_T, None),
    (ModelKind.RATE_SHIFTED_EXP, LinearizationKind.SHIFTED_LN_VS_T, None),
]


def _ran(old, aux_a):
    """The LINE_TESTS entries run on a reference report's series: the log
    tests unless a note skips them, the shifted test when a is given."""
    log_ran = not any(n.startswith("log-of-size") for n in old.notes)
    return [(kind, lin, transform) for kind, lin, transform in LINE_TESTS
            if (log_ran or transform is None)
            and (aux_a is not None or kind is not ModelKind.RATE_SHIFTED_EXP)]


def _notes_under_one_rule(old, aux_a, short):
    """The notes identify gives for a reference report ``old``: its group
    skip notes, then one note per test that is not ranked, in table order,
    ``short[kind]`` for a test keeping fewer than 3 points and the
    degenerate-line note for any other that ``old`` does not rank."""
    notes = [n for n in old.notes if n.startswith(("log-of-size", "shifted-exponential"))]
    ranked = {c.model_kind for c in old.candidates}
    for kind, _, _ in _ran(old, aux_a):
        if kind in short:
            notes.append(short[kind])
        elif kind not in ranked:
            notes.append(f"{kind.value} test not ranked: its line is degenerate")
    return notes


def _expected_after_min_points(old, ts, method, aux_a):
    """The per-test reference report under identify's rules.

    The reference ranks every test whatever it keeps; identify does not
    rank a test that keeps fewer than 3 points, and notes every test it
    does not rank (see :func:`_notes_under_one_rule`).
    """
    ran = _ran(old, aux_a)
    rates = {None: old.rates}
    if any(transform is not None for _, _, transform in ran):
        rates[TransformKind.LOG] = rate_of_transform(ts, TransformKind.LOG, method)
    short = {}
    for kind, lin, transform in ran:
        src = ts if lin is LinearizationKind.RECIP_S_VS_T else rates[transform]
        try:
            if src is ts:
                kept = linearize_series(src)[0].size
            else:
                kept = linearize(src, lin, aux_a=aux_a)[0].size
        except EmptyLinearizationError:
            kept = 0
        if kept < 3:
            short[kind] = f"{kind.value} test not ranked: keeps {kept} of {len(src)} point(s), fewer than 3"
    candidates = [c for c in old.candidates if c.model_kind not in short]
    return candidates, _notes_under_one_rule(old, aux_a, short)


#: r^2 and rms agree with the per-test reference to rounding: the batched
#: sums differ from the compacted ones only in summation order.
R2_TOL = 1e-12
RMS_RTOL = 1e-9


def _assert_matches_reference(ts, method=RateMethod.DIRECT, aux_a=None):
    new = identify(ts, method=method, aux_a=aux_a)
    old = oracles.identify_per_test(ts, method=method, aux_a=aux_a)
    candidates, notes = _expected_after_min_points(old, ts, method, aux_a)
    assert list(new.notes) == notes
    assert [c.model_kind for c in new.candidates] == [c.model_kind for c in candidates]
    for c, e in zip(new.candidates, candidates):
        assert (c.linearization, c.transform, c.dropped_points, c.valid, c.note) == (
            e.linearization, e.transform, e.dropped_points, e.valid, e.note)
        assert abs(c.r_squared - e.r_squared) <= R2_TOL, c.model_kind
        assert c.rms_residual == pytest.approx(e.rms_residual, rel=RMS_RTOL, abs=1e-300)
    assert new.winner == new.candidates[0]
    np.testing.assert_array_equal(new.rates.rates, old.rates.rates)


DEGENERATE_VALUES = [
    np.full(12, 7.0),  # constant: zero rates, equal sizes
    np.array([1.0, 2.0, 3.0]),  # 2 direct rates: no line test keeps 3 points
    np.array([1.0, 0.5, 2.0, 1.0, 3.0]),  # ln-r keeps 2 of 4
    np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]),  # equal sizes after a step
    np.linspace(-2.5, 9.0, 12),  # non-positive values
    np.array([5.0, 4.0, 4.0, 3.0, 3.5, 2.0, 2.0, 1.0]),  # zero and negative rates
    1e-310 * (1.0 + 0.01 * np.arange(10.0)),  # reciprocals of the sizes overflow
]


class TestIdentifyMatchesPerTestReference:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_random_series(self, family, method):
        rng = np.random.default_rng([FAMILIES.index(family), method is RateMethod.REFINED])
        for case in range(12):
            ts = _random_series(rng, family, calendar=case % 2 == 1)
            aux_a = None if case % 3 == 0 else float(rng.uniform(0.5, 100.0))
            _assert_matches_reference(ts, method, aux_a)

    @pytest.mark.parametrize("values", DEGENERATE_VALUES)
    @pytest.mark.parametrize("aux_a", [None, 3.0])
    def test_degenerate_series(self, values, aux_a):
        ts = TimeSeries(np.arange(float(values.size)), values)
        _assert_matches_reference(ts, aux_a=aux_a)

    def test_rate_reciprocals_overflow(self):
        # relative steps of 1e-10 over 1e300 years: rates near 1e-310,
        # whose reciprocals leave the float range and are dropped
        ts = TimeSeries(1e300 * np.arange(8.0), 1.0 + 1e-10 * np.arange(8.0) ** 2)
        _assert_matches_reference(ts, aux_a=2.0)

    def test_two_point_line_is_not_ranked(self):
        # ln-r-vs-t keeps 2 of the 4 rates: a line through them has r^2 = 1
        ts = TimeSeries(np.arange(5.0), np.array([1.0, 0.5, 2.0, 1.0, 3.0]))
        report = identify(ts)
        assert ModelKind.RATE_LN_LINEAR not in {c.model_kind for c in report.candidates}
        assert report.winner.model_kind is ModelKind.LINEAR_S
        assert "rate_ln_linear test not ranked: keeps 2 of 4 point(s), fewer than 3" in report.notes


def _assert_matches_stacked(ts, method=RateMethod.DIRECT, aux_a=None):
    """identify gives the bits of the stacked reference: every field of the
    report, and its notes under the one note rule."""
    new = identify(ts, method=method, aux_a=aux_a)
    old = oracles.identify_stacked(ts, method=method, aux_a=aux_a)
    assert replace(new, rates=None, notes=()) == replace(old, rates=None, notes=())
    short = {ModelKind(n.partition(" test not ranked: ")[0]): n
             for n in old.notes if " test not ranked: keeps " in n}
    assert list(new.notes) == _notes_under_one_rule(old, aux_a, short)
    for name in ("times", "rates", "sizes"):
        assert np.array_equal(getattr(new.rates, name), getattr(old.rates, name))
    assert (new.rates.source_label, new.rates.method) == (old.rates.source_label, old.rates.method)


class TestIdentifyMatchesStackedReference:
    """The block filled from arrays changes no bit of the report."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_random_series(self, family, method):
        rng = np.random.default_rng([FAMILIES.index(family), method is RateMethod.REFINED])
        for case in range(12):
            ts = _random_series(rng, family, calendar=case % 2 == 1)
            aux_a = None if case % 3 == 0 else float(rng.uniform(0.5, 100.0))
            _assert_matches_stacked(ts, method, aux_a)

    @pytest.mark.parametrize("values", DEGENERATE_VALUES)
    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    @pytest.mark.parametrize("aux_a", [None, 3.0])
    def test_degenerate_series(self, values, method, aux_a):
        ts = TimeSeries(np.arange(float(values.size)), values)
        if method is RateMethod.REFINED and values.size < SmoothingConfig().window:
            with pytest.raises(ValidationError):
                identify(ts, method=method, aux_a=aux_a)
            return
        _assert_matches_stacked(ts, method, aux_a)

    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_log_rates_undefined(self, method):
        # ln S = 0 at t = 2: the rates of ln S are undefined there
        ts = TimeSeries(np.arange(9.0), 2.0 ** np.arange(-2.0, 7.0))
        report = identify(ts, method=method)
        assert "log-of-size tests skipped (log rates undefined on this series)" in report.notes
        _assert_matches_stacked(ts, method)

    def test_constant_rate_candidate_matches_mean(self):
        rng = np.random.default_rng(5)
        for rates in (rng.normal(0.02, 0.01, 40), np.full(9, 0.03), np.full(3, -1e-300),
                      np.array([1e100, -1e100, 1e-300])):
            rs = rate_series(np.arange(float(rates.size)), rates)
            want = oracles.constant_rate_candidate_mean(rs)
            assert diagnostics._constant_rate_candidate(rs) == want


def _accounted_families(report):
    """The families a report accounts for: each ranked candidate, each
    not-ranked note, two for the log-of-size skip note and one for the
    shifted skip note."""
    families = [c.model_kind.value for c in report.candidates]
    for note in report.notes:
        if note.startswith("log-of-size tests skipped"):
            families += [ModelKind.LOGLOG_T.value, ModelKind.LOGLOG_S.value]
        elif note.startswith("shifted-exponential test skipped"):
            families.append(ModelKind.RATE_SHIFTED_EXP.value)
        else:
            family, rule, _ = note.partition(" test not ranked: ")
            assert rule, note
            families.append(family)
    return sorted(families)


class TestEveryTestAccountedFor:
    """Each of the nine tests is ranked, named in a not-ranked note, or
    skipped by a group note: exactly once."""

    # hyperbolic and linear_s lines are degenerate: 1/S near 1e300 and
    # S near 1e-300 leave the float range when squared
    TINY = TimeSeries(np.arange(9.0), 1e-300 + 1.5e-300 * np.arange(9.0))

    def test_table_is_the_catalog_order(self):
        assert [kind for kind, _, _ in diagnostics._LINE_TESTS] == list(oracles._CATALOG_ORDER[1:])
        assert [(kind, lin) for kind, lin, _ in diagnostics._LINE_TESTS] == [
            (kind, lin) for kind, lin, _ in LINE_TESTS]

    def test_table_names_each_linearizations_family(self):
        for kind, lin, src in diagnostics._LINE_TESTS:
            family = oracles.model_kind_for(lin)
            assert kind is (LOG_LIFT[family] if src == "log rates" else family)

    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    @pytest.mark.parametrize("aux_a", [None, 3.0])
    def test_degenerate_series(self, method, aux_a):
        for values in [*DEGENERATE_VALUES, self.TINY.values, TestIdentify.SQUARE_OVERFLOW.values]:
            ts = TimeSeries(np.arange(float(values.size)), values)
            if method is RateMethod.REFINED and values.size < SmoothingConfig().window:
                continue
            report = identify(ts, method=method, aux_a=aux_a)
            assert _accounted_families(report) == sorted(FAMILIES)

    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_random_series(self, method):
        rng = np.random.default_rng([17, method is RateMethod.REFINED])
        for case in range(4 * len(FAMILIES)):
            ts = _random_series(rng, FAMILIES[case % len(FAMILIES)], calendar=case % 2 == 1)
            for aux_a in (None, float(rng.uniform(0.5, 100.0))):
                report = identify(ts, method=method, aux_a=aux_a)
                assert _accounted_families(report) == sorted(FAMILIES)

    @pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
    def test_degenerate_line_is_named(self, method):
        report = identify(self.TINY, method=method)
        assert report.notes == (
            "shifted-exponential test skipped (auxiliary parameter a not supplied)",
            "linear_s test not ranked: its line is degenerate",
            "hyperbolic test not ranked: its line is degenerate",
        )
        _assert_matches_stacked(self.TINY, method)

    def test_ties_keep_the_table_order(self):
        # a constant series: every test that fits has r^2 = 1 and keeps all points
        report = identify(TimeSeries(np.arange(12.0), np.full(12, 7.0)), aux_a=3.0)
        order = [ModelKind.EXP_CONST, *(kind for kind, _, _ in diagnostics._LINE_TESTS)]
        ranked = [c.model_kind for c in report.candidates if c.r_squared == 1.0]
        assert ranked == sorted(ranked, key=order.index)


#: Series per family that identify names correctly, of 20 drawn by
#: ``_random_series`` from ``np.random.default_rng([24, FAMILIES.index(family)])``,
#: as measured when these floors were set. A change that ranks the
#: families better raises them; none may lower them.
ACCURACY_FLOORS = {
    RateMethod.DIRECT: {
        "exp_const": 0, "linear_t": 4, "hyperbolic": 19, "linear_s": 10, "loglog_t": 1,
        "loglog_s": 8, "rate_recip_linear": 4, "rate_ln_linear": 12, "rate_shifted_exp": 0,
    },
    RateMethod.REFINED: {
        "exp_const": 0, "linear_t": 5, "hyperbolic": 20, "linear_s": 11, "loglog_t": 2,
        "loglog_s": 9, "rate_recip_linear": 8, "rate_ln_linear": 11, "rate_shifted_exp": 0,
    },
}


@pytest.mark.parametrize("method", [RateMethod.DIRECT, RateMethod.REFINED])
def test_identification_accuracy_floor(method):
    counts = {}
    for family in FAMILIES:
        rng = np.random.default_rng([24, FAMILIES.index(family)])
        series = [_random_series(rng, family, calendar=False) for _ in range(20)]
        counts[family] = sum(
            identify(ts, method=method).winner.model_kind.value == family for ts in series
        )
    floors = ACCURACY_FLOORS[method]
    assert {f: n for f, n in counts.items() if n < floors[f]} == {}, counts
