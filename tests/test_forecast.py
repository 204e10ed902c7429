import math

import numpy as np
import pytest

from growthcast import (
    CollapseError,
    ConfigError,
    DomainError,
    FeatureKind,
    LinearizationKind,
    Model,
    ModelKind,
    NumericError,
    Params,
    PolyFit,
    RangeRefusalError,
    RateSeries,
    TimeSeries,
    ValidationError,
    compare_scenarios,
    direct_rates,
    fit_polynomial,
    fit_rate_model,
    fit_reciprocal_series,
    integrate_discrete,
    integrate_rate_function,
    project,
    project_normalized,
    rate_at,
    trajectory_at,
)

from oracles import integrate_discrete_loop, rk4_log_integrate


def rate_series(times, rates, sizes=None, **kw):
    times = np.asarray(times, float)
    rates = np.asarray(rates, float)
    if sizes is None:
        sizes = np.ones_like(rates)
    return RateSeries(times=times, rates=rates, sizes=np.asarray(sizes, float), **kw)


class TestIntegrateDiscrete:
    def test_size_beyond_float_range_names_first_time(self):
        rs = rate_series([1.0, 2.0, 3.0], [1e200, 1e200, 1e200])
        with pytest.raises(NumericError, match=r"beyond the float range at t = 2\.0"):
            integrate_discrete(rs, (0.0, 1.0))

    def test_backward_overflow_names_the_step_nearest_the_anchor(self):
        rs = rate_series([1.0, 2.0, 3.0, 4.0], [0.0, -0.9999999999, 0.0, 0.0])
        with pytest.raises(NumericError, match=r"beyond the float range at t = 1\.0"):
            integrate_discrete(rs, (3.0, 1e300))

    def test_single_multiplicative_step(self):
        out = integrate_discrete(rate_series([1.0], [0.1]), (0.0, 100.0))
        assert out.times.tolist() == [0.0, 1.0]
        np.testing.assert_allclose(out.values, [100.0, 110.0], rtol=1e-15)

    def test_reproduces_fixture_series(self):
        rng = np.random.default_rng(17)
        t = np.cumsum(rng.uniform(0.25, 3.0, 30))
        v = 50.0 * np.cumprod(1.0 + rng.uniform(-0.04, 0.09, 30))
        ts = TimeSeries(t, v)
        back = integrate_discrete(direct_rates(ts), (t[0], v[0]))
        np.testing.assert_allclose(back.values, v, rtol=1e-12)

    def test_constant_rate_compounds(self):
        n = 12
        rs = rate_series(np.arange(1.0, n + 1), np.full(n, 0.02))
        out = integrate_discrete(rs, (0.0, 1.0))
        np.testing.assert_allclose(out.values, 1.02 ** np.arange(n + 1), rtol=1e-13)

    def test_backward_reconstruction_from_last_point(self):
        t = np.arange(8.0)
        v = 10.0 * 1.05 ** t
        ts = TimeSeries(t, v)
        rs = direct_rates(ts)
        back = integrate_discrete(rs, (t[-1], v[-1]))
        np.testing.assert_allclose(back.values, v[1:], rtol=1e-12)  # spans rate times

    def test_anchor_at_interior_rate_time(self):
        t = np.arange(6.0)
        v = np.array([3.0, 3.3, 3.9, 4.1, 4.6, 5.0])
        rs = direct_rates(TimeSeries(t, v))
        back = integrate_discrete(rs, (3.0, v[3]))
        np.testing.assert_allclose(back.values, v[1:], rtol=1e-12)

    def test_misaligned_anchor_rejected(self):
        rs = rate_series([1.0, 2.0], [0.1, 0.1])
        with pytest.raises(ValidationError):
            integrate_discrete(rs, (1.5, 1.0))

    def test_collapse_detected(self):
        rs = rate_series([1.0], [-1.5])  # 1 + R dt = -0.5
        with pytest.raises(CollapseError):
            integrate_discrete(rs, (0.0, 10.0))

    def test_non_positive_anchor_rejected(self):
        rs = rate_series([1.0], [0.1])
        with pytest.raises(DomainError):
            integrate_discrete(rs, (0.0, 0.0))

    def test_matches_step_loop(self):
        """Bit-identical to the per-step loop, forward and backward, errors included."""
        rng = np.random.default_rng(4)
        outcomes = {"values": 0, "collapse": 0}
        for case in range(200):
            n = int(rng.integers(2, 40))
            times = 1950.0 + np.cumsum(rng.uniform(0.1, 3.0, n))
            rates = rng.uniform(-0.35, 0.5, n)
            before = case % 4 == 0  # anchor before the first rate time
            grid = np.concatenate(([times[0] - 1.5], times)) if before else times
            for k in rng.integers(0 if before else 1, n, size=case % 3):
                rates[k] = -1.2 / (grid[k + before] - grid[k + before - 1])  # 1 + R dt < 0
            rs = rate_series(times, rates, sizes=np.ones(n))
            if before:
                step_rates, anchor_idx = np.concatenate(([np.nan], rates)), 0
            else:
                step_rates, anchor_idx = rates, int(rng.integers(0, n))
            s0 = float(rng.uniform(0.5, 1e6))
            try:
                expected = integrate_discrete_loop(grid, step_rates, anchor_idx, s0)
            except CollapseError as exc:
                with pytest.raises(CollapseError) as got:
                    integrate_discrete(rs, (grid[anchor_idx], s0))
                assert str(got.value) == str(exc)
                outcomes["collapse"] += 1
                continue
            out = integrate_discrete(rs, (grid[anchor_idx], s0))
            assert np.array_equal(out.times, grid)
            assert np.array_equal(out.values, expected)
            outcomes["values"] += 1
        assert min(outcomes.values()) >= 20


#: The three projection routes, each from an anchor that it takes at (1.0, 2.0).
_ROUTES = {
    "discrete": lambda anchor: integrate_discrete(rate_series([1.0, 2.0], [0.1, 0.1]), anchor),
    "polynomial": lambda anchor: integrate_rate_function(
        PolyFit(np.array([0.02]), 0, 0.0, t_min=-1.0, t_max=5.0), anchor, [1.0, 2.0]
    ),
    "closed-form": lambda anchor: project(Model(ModelKind.EXP_CONST, Params(a=0.02)), anchor, [1.0, 2.0]),
}


class TestAnchorRule:
    """Every route refuses a non-finite anchor, and a non-positive size, alike."""

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_a_finite_positive_anchor_is_taken(self, route):
        _ROUTES[route]((1.0, 2.0))

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_anchor_rejected(self, route, bad, slot):
        anchor = [1.0, 2.0]
        anchor[slot] = bad
        with pytest.raises(ValidationError) as exc:
            _ROUTES[route](tuple(anchor))
        assert str(exc.value) == f"anchor must be finite, got t0 = {anchor[0]}, s0 = {anchor[1]}"

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    @pytest.mark.parametrize("s0", [0.0, -1.0])
    def test_non_positive_anchor_size_rejected(self, route, s0):
        with pytest.raises(DomainError) as exc:
            _ROUTES[route]((1.0, s0))
        assert str(exc.value) == f"anchor size must be positive, got {s0}"


class TestIntegrateRateFunction:
    def test_constant_rate_polynomial(self):
        p = PolyFit(np.array([0.02]), 0, 0.0, t_min=-1.0, t_max=5.0)
        out = integrate_rate_function(p, (0.0, 1.0), [0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            out.values, [1.0, math.exp(0.02), math.exp(0.04)], rtol=1e-14
        )

    def test_degree_one_matches_closed_form(self):
        a, b = 0.25, -1.2e-4
        p = PolyFit(np.array([a, b]), 1, 0.0, t_min=0.0, t_max=400.0)
        m = Model(ModelKind.LINEAR_T, Params(a=a, b=b))
        grid = np.linspace(0.0, 300.0, 31)
        analytic = integrate_rate_function(p, (10.0, 5.0), grid)
        from growthcast import normalize

        closed = trajectory_at(normalize(m, 10.0, 5.0), grid)
        np.testing.assert_allclose(analytic.values, closed, rtol=1e-12)

    def test_refuses_outside_fitted_range(self):
        p = PolyFit(np.array([0.01, 1e-4]), 1, 0.0, t_min=1830.0, t_max=2008.0)
        with pytest.raises(RangeRefusalError, match="2008"):
            integrate_rate_function(p, (1830.0, 1.0), [1900.0, 2020.0])

    @pytest.mark.parametrize("t0, grid, t", [
        (1820.0, [1900.0, 2020.0], "1820.0"),  # the anchor time is checked first
        (1830.0, [1800.0, 2020.0], "1800.0"),  # then the grid, in order
        (1830.0, [1900.0, 2008.5, 1700.0], "2008.5"),
    ])
    def test_refusal_names_the_first_point_outside(self, t0, grid, t):
        p = PolyFit(np.array([0.01, 1e-4]), 1, 0.0, t_min=1830.0, t_max=2008.0)
        with pytest.raises(RangeRefusalError) as excinfo:
            integrate_rate_function(p, (t0, 1.0), grid)
        assert str(excinfo.value) == (
            f"t = {t} lies outside the fitted range [1830.0, 2008.0]; "
            "polynomial rate laws are not extrapolated"
        )

    def test_size_beyond_float_range_names_first_grid_time(self):
        # ln S = 100 t + 50 t^2: e^653.125 at t = 2.75 is a float, e^750
        # at t = 3 and every later grid time is not
        p = PolyFit(np.array([100.0, 100.0]), 1, 0.0, t_min=0.0, t_max=4.0)
        with pytest.raises(NumericError) as excinfo:
            integrate_rate_function(p, (0.0, 1.0), np.arange(0.0, 4.01, 0.25))
        assert str(excinfo.value) == "rate-law integral is beyond the float range at t = 3.0"

    def test_degree_six_matches_rk4(self):
        # synthetic rates shaped like a gently oscillating few-percent
        # growth rate over 179 calendar years
        t = np.arange(1830.0, 2009.0)
        r = 0.012 + 0.008 * np.cos(2 * np.pi * (t - 1830.0) / 140.0) + 2e-5 * (t - 1919.0)
        p = fit_polynomial(t, r, 6)
        grid = np.arange(1830.0, 2009.0, 2.0)
        analytic = integrate_rate_function(p, (1830.0, 1.0), grid)
        oracle = rk4_log_integrate(lambda x: float(p.value_at(x)), 1830.0, 1.0, grid, h=0.01)
        np.testing.assert_allclose(analytic.values, oracle, rtol=1e-8)


class TestProject:
    def test_unnormalized_model_rejected_by_project_normalized(self):
        m = Model(ModelKind.LINEAR_T, Params(a=0.25, b=-1e-4))
        with pytest.raises(DomainError) as exc:
            project_normalized(m, [0.0, 1.0, 2.0])
        assert str(exc.value) == "linear_t model is not normalized (C unset)"

    def test_world_population_linear_trajectory(self):
        m = Model(ModelKind.LINEAR_T, Params(a=2.520e-1, b=-1.197e-4), unit="persons")
        proj = project(m, (2030.0, 8.4e9), np.array([2030.0, 2050.0, 2100.0, 2105.26]))
        vals = dict(zip(proj.series.times.tolist(), proj.series.values.tolist()))
        assert vals[2030.0] == pytest.approx(8.4e9, rel=1e-12)
        assert vals[2050.0] == pytest.approx(9.8e9, rel=1.5e-2)
        assert vals[2100.0] == pytest.approx(11.8e9, rel=1.5e-2)
        assert vals[2105.26] == pytest.approx(11.9e9, rel=1.5e-2)
        assert proj.features.kind is FeatureKind.MAXIMUM
        assert proj.features.t_star == pytest.approx(2105.26, abs=0.01)

    def test_world_population_exponential_rate_trajectory(self):
        m = Model(ModelKind.RATE_LN_LINEAR, Params(a=2.179e10, b=-1.406e-2, C=15.6e9))
        proj = project_normalized(m, np.array([2030.0, 2050.0, 2100.0]))
        assert proj.series.values[0] == pytest.approx(8.4e9, rel=1.5e-2)
        assert proj.series.values[1] == pytest.approx(9.8e9, rel=1.5e-2)
        assert proj.series.values[2] == pytest.approx(12.4e9, rel=1.5e-2)
        assert proj.features.kind is FeatureKind.ASYMPTOTE
        assert proj.features.s_star == 15.6e9

    def test_japan_logistic_asymptote_feature(self):
        m = Model(
            ModelKind.LINEAR_S, Params(a=8.411e-2, b=-1.279e-2), unit="1e12 2010 US$"
        )
        proj = project(m, (2010.0, 5.5), np.arange(2010.0, 2101.0, 10.0))
        assert proj.features.kind is FeatureKind.ASYMPTOTE
        assert proj.features.s_star == pytest.approx(6.576, abs=1e-3)

    def test_grid_crossing_singularity_truncates_with_warning(self):
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.0))
        proj = project(m, (0.0, 0.1), np.linspace(0.0, 12.0, 25), label="blowup")
        assert proj.features.kind is FeatureKind.SINGULARITY
        assert proj.features.t_star == pytest.approx(10.0, rel=1e-12)
        assert proj.series.times[-1] < 10.0
        assert any("truncated" in w for w in proj.warnings)

    def test_truncation_leaving_one_point_names_the_singularity(self):
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.0))
        with pytest.raises(DomainError) as exc:
            project(m, (0.0, 0.1), np.array([0.0, 11.0, 12.0]))
        assert str(exc.value) == (
            "fewer than 2 grid points remain before the singularity; nothing to project"
        )

    @pytest.mark.parametrize("grid", [[], [0.0], 5.0])
    def test_grid_of_fewer_than_2_points_is_refused(self, grid):
        # refused before any truncation, for a model with no singularity
        m = Model(ModelKind.EXP_CONST, Params(a=0.03))
        want = f"a projection grid needs at least 2 points, got {np.size(grid)}"
        with pytest.raises(ValidationError) as exc:
            project(m, (0.0, 1.0), grid)
        assert str(exc.value) == want
        with pytest.raises(ValidationError) as exc:
            project_normalized(Model(ModelKind.EXP_CONST, Params(a=0.03, C=1.0)), grid)
        assert str(exc.value) == want

    def test_anchor_on_grid_matches_s0(self):
        m = Model(ModelKind.EXP_CONST, Params(a=0.03))
        proj = project(m, (5.0, 2.0), np.array([0.0, 5.0, 10.0]))
        idx = int(np.argmin(np.abs(proj.series.times - 5.0)))
        assert proj.series.values[idx] == pytest.approx(2.0, rel=1e-12)

    def test_non_positive_anchor(self):
        m = Model(ModelKind.EXP_CONST, Params(a=0.03))
        with pytest.raises(DomainError):
            project(m, (0.0, -1.0), np.array([0.0, 1.0]))

    def test_monotone_logistic_projection(self):
        m = Model(ModelKind.LINEAR_S, Params(a=0.6, b=-0.1))
        proj = project(m, (0.0, 1.0), np.linspace(0.0, 40.0, 120))
        s = proj.series.values
        assert np.all(np.diff(s) > 0)
        assert np.all(s < 6.0)


class TestRoundTripLaw:
    """fit(sample(project(m))) recovers m's parameters on noise-free data."""

    CASES = [
        (ModelKind.EXP_CONST, Params(a=0.12), LinearizationKind.R_VS_T,
         (0.0, 2.0), ("a",)),
        (ModelKind.LINEAR_T, Params(a=0.3, b=-0.02), LinearizationKind.R_VS_T,
         (0.0, 3.0), ("a", "b")),
        (ModelKind.LINEAR_S, Params(a=0.5, b=-0.1), LinearizationKind.R_VS_S,
         (0.0, 1.0), ("a", "b")),
        (ModelKind.RATE_RECIP_LINEAR, Params(a=4.0, b=0.5), LinearizationKind.RECIP_R_VS_T,
         (0.0, 1.0), ("a", "b")),
        (ModelKind.RATE_LN_LINEAR, Params(a=0.2, b=-0.05), LinearizationKind.LN_R_VS_T,
         (0.0, 1.0), ("a", "b")),
        (ModelKind.RATE_SHIFTED_EXP, Params(a=8.0, b=4.0, r=0.3), LinearizationKind.SHIFTED_LN_VS_T,
         (1.0, 1.0), ("b", "r")),
    ]

    @pytest.mark.parametrize("kind,params,lin,anchor,names", CASES)
    def test_rate_law_round_trip(self, kind, params, lin, anchor, names):
        # the finite-difference rate carries a (dt/2)(R^2 - R') bias, so
        # hitting 1e-6 parameter recovery needs dt = 1e-6 sampling
        m = Model(kind, params)
        grid = np.linspace(anchor[0], anchor[0] + 1.0, 1_000_001)
        proj = project(m, anchor, grid)
        rs = direct_rates(proj.series)
        report = fit_rate_model(rs, lin, aux_a=params.a if kind is ModelKind.RATE_SHIFTED_EXP else None)
        for name in names:
            want = getattr(params, name)
            got = getattr(report.model.params, name)
            assert got == pytest.approx(want, rel=1e-6), (kind, name)

    def test_hyperbolic_round_trip(self):
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.0, C=10.0))
        grid = np.linspace(0.0, 5.0, 2001)
        proj = project_normalized(m, grid)
        report = fit_reciprocal_series(proj.series)
        assert report.model.params.b == pytest.approx(1.0, rel=1e-10)
        assert report.model.params.C == pytest.approx(10.0, rel=1e-10)

    def test_loglog_round_trip(self):
        # project the S-trajectory, take rates of ln S, refit the F-law
        from growthcast import RateMethod, TransformKind, rate_of_transform

        m = Model(ModelKind.LOGLOG_T, Params(a=0.08, b=-0.001))
        grid = np.linspace(0.0, 1.0, 1_000_001)
        proj = project(m, (0.0, 20.0), grid)
        rs = rate_of_transform(proj.series, TransformKind.LOG, RateMethod.DIRECT)
        report = fit_rate_model(rs, LinearizationKind.R_VS_T)
        assert report.model.params.a == pytest.approx(0.08, rel=1e-6)
        assert report.model.params.b == pytest.approx(-0.001, rel=1e-4, abs=1e-8)


class TestAnalyticNumericAgreement:
    def test_linear_t_three_routes_agree(self):
        a, b = 0.2, -0.004
        anchor = (0.0, 3.0)
        grid = np.linspace(0.0, 30.0, 61)
        proj = project(Model(ModelKind.LINEAR_T, Params(a=a, b=b)), anchor, grid)
        p = PolyFit(np.array([a, b]), 1, 0.0, t_min=-1.0, t_max=40.0)
        poly = integrate_rate_function(p, anchor, grid)
        np.testing.assert_allclose(proj.series.values, poly.values, rtol=1e-12)
        oracle = rk4_log_integrate(lambda x: a + b * x, 0.0, 3.0, grid, h=0.01)
        np.testing.assert_allclose(proj.series.values, oracle, rtol=1e-8)


class TestCompareScenarios:
    def test_no_projection_rejected(self):
        with pytest.raises(ConfigError) as exc:
            compare_scenarios([], [2030.0])
        assert str(exc.value) == "compare_scenarios needs at least one projection"

    def world_projections(self):
        exp_m = Model(
            ModelKind.RATE_LN_LINEAR,
            Params(a=2.179e10, b=-1.406e-2, C=15.6e9),
            unit="persons",
        )
        lin_m = Model(ModelKind.LINEAR_T, Params(a=2.520e-1, b=-1.197e-4), unit="persons")
        grid = np.arange(2030.0, 2106.0, 5.0)
        return [
            project_normalized(exp_m, grid, label="asymptotic"),
            project(lin_m, (2030.0, 8.4e9), grid, label="maximum"),
        ]

    def test_world_population_scenarios_indistinguishable_midcentury(self):
        report = compare_scenarios(self.world_projections(), [2030.0, 2050.0])
        assert report.indistinguishable == (True, True)

    def test_five_percent_threshold_splits_published_2100_values(self):
        # the published end-of-century values differ by just over 5%
        lo = Model(ModelKind.EXP_CONST, Params(a=0.0, C=11.8e9), unit="persons")
        hi = Model(ModelKind.EXP_CONST, Params(a=0.0, C=12.4e9), unit="persons")
        grid = np.array([2090.0, 2100.0])
        report = compare_scenarios(
            [project_normalized(lo, grid), project_normalized(hi, grid)], [2100.0]
        )
        assert report.indistinguishable == (False,)

    def test_single_projection_no_flags(self):
        report = compare_scenarios(self.world_projections()[:1], [2050.0, 2100.0])
        assert report.indistinguishable == (None, None)
        assert len(report.rows) == 1

    def test_unit_mismatch(self):
        a, b = self.world_projections()
        b = type(b)(
            series=TimeSeries(b.series.times, b.series.values, unit="sheep"),
            model=b.model, features=b.features, anchor=b.anchor, warnings=b.warnings,
        )
        with pytest.raises(ConfigError, match="unit"):
            compare_scenarios([a, b], [2050.0])

    def test_year_beyond_float_range_is_none(self):
        m = Model(ModelKind.LOGLOG_T, Params(a=0.3, b=-0.001))
        proj = project(m, (0.0, 100.0), np.arange(0.0, 10.0))
        report = compare_scenarios([proj, proj], [5.0, 18.0, 300.0])
        assert report.rows[0].values[1:] == (None, None)
        assert report.indistinguishable == (True, None, None)

    def test_year_past_singularity_is_none(self):
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.0), unit="x")
        proj = project(m, (0.0, 0.1), np.linspace(0.0, 8.0, 10))
        report = compare_scenarios([proj], [5.0, 11.0])
        assert report.rows[0].values[0] is not None
        assert report.rows[0].values[1] is None


# one model per kind, anchored at (2000, 50) with t_ref 1990 and finite over
# 1990-2080
_ONE_PER_KIND = {
    ModelKind.EXP_CONST: Params(a=0.02),
    ModelKind.LINEAR_T: Params(a=0.03, b=-0.0004),
    ModelKind.HYPERBOLIC: Params(b=0.0002),
    ModelKind.LINEAR_S: Params(a=0.03, b=-0.001),
    ModelKind.LOGLOG_T: Params(a=0.01, b=0.0001),
    ModelKind.LOGLOG_S: Params(a=0.02, b=-0.003),
    ModelKind.RATE_RECIP_LINEAR: Params(a=20.0, b=0.5),
    ModelKind.RATE_LN_LINEAR: Params(a=0.03, b=-0.01),
    ModelKind.RATE_SHIFTED_EXP: Params(a=20.0, b=5.0, r=0.1),
}
_SCENARIOS = [kind.value for kind in _ONE_PER_KIND] + ["linear_s wide"]


def _scenario(name):
    """A projection and report years at which its model is finite."""
    if name == "linear_s wide":
        # the reciprocal forms take their big-exponent branch from t = 1200.4 on
        m = Model(ModelKind.LINEAR_S, Params(a=-0.5, b=0.1))
        return project(m, (0.0, 1.0), [0.0, 2000.0]), (0.5, 1000.0, 1300.0, 2000.0)
    m = Model(ModelKind(name), _ONE_PER_KIND[ModelKind(name)], t_ref=1990.0)
    return project(m, (2000.0, 50.0), [2000.0, 2080.0]), (1995.5, 2000.0, 2030.25, 2061.7)


class TestOneEvaluationPerScenario:
    """One array evaluation per projection gives the scalar evaluations' values."""

    @pytest.mark.parametrize("name", _SCENARIOS)
    def test_values_equal_scalar_evaluation(self, name):
        proj, years = _scenario(name)
        want = tuple(trajectory_at(proj.model, y) for y in years)
        assert all(map(math.isfinite, want))
        assert compare_scenarios([proj, proj], years).rows[1].values == want

    @pytest.mark.parametrize("n", [1, 3, 101])
    @pytest.mark.parametrize("name", _SCENARIOS)
    def test_array_evaluation_equals_scalar_calls(self, name, n):
        proj, years = _scenario(name)
        t = np.linspace(years[0], years[-1], n)
        got = trajectory_at(proj.model, t)
        assert got.shape == (n,)
        assert got.tolist() == [trajectory_at(proj.model, x) for x in t.tolist()]

    def test_year_past_the_singularity_falls_back_to_scalar_calls(self):
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.0))
        proj = project(m, (0.0, 0.1), np.linspace(0.0, 8.0, 10))  # singular at t = 10
        years = (5.0, 11.0, 9.5)
        with pytest.raises(NumericError):
            trajectory_at(proj.model, np.array(years))
        row = compare_scenarios([proj], years).rows[0]
        assert row.values == (trajectory_at(proj.model, 5.0), None, trajectory_at(proj.model, 9.5))
