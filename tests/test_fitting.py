import math
import warnings

import numpy as np
import pytest

import oracles
from growthcast import (
    ConfigError,
    DegenerateFitError,
    EmptyLinearizationError,
    GrowthcastError,
    LinearizationKind,
    Model,
    ModelKind,
    Params,
    PolyFit,
    RateMethod,
    RateSeries,
    TimeSeries,
    ValidationError,
    fit_line,
    fit_polynomial,
    fit_rate_model,
    fit_reciprocal_series,
    linearize,
    linearize_series,
    rate_at,
    scan_shifted_aux,
    trajectory_at,
)
from growthcast import fitting
from growthcast.models import LOG_LIFT


def rate_series(times, rates, sizes=None, **kw):
    times = np.asarray(times, float)
    rates = np.asarray(rates, float)
    if sizes is None:
        sizes = np.ones_like(rates)
    return RateSeries(times=times, rates=rates, sizes=np.asarray(sizes, float), **kw)


class TestFitLine:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        fit = fit_line(x, 2.0 + 3.0 * x)
        assert fit.intercept == pytest.approx(2.0, rel=1e-13)
        assert fit.slope == pytest.approx(3.0, rel=1e-13)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_constant_data(self):
        fit = fit_line([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert fit.intercept == 5.0
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0  # SStot = SSres = 0

    def test_sums_beyond_float_range_degenerate(self):
        with pytest.raises(DegenerateFitError, match="beyond the float range"):
            fit_line([0.0, 1.0, 2.0], [1e200, -1e200, 3e200])

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_line([1.0], [2.0])

    def test_identical_x_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_affine_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 50, 30)
        y = rng.normal(size=30)
        base = fit_line(x, y)
        # power-of-two scale with no shift is exact in floating point
        doubled = fit_line(x, 2.0 * y)
        assert doubled.slope == 2.0 * base.slope
        assert doubled.intercept == 2.0 * base.intercept
        alpha, beta = 1.7, -3.2
        mapped = fit_line(x, alpha * y + beta)
        assert mapped.slope == pytest.approx(alpha * base.slope, rel=1e-12)
        assert mapped.intercept == pytest.approx(alpha * base.intercept + beta, rel=1e-10, abs=1e-12)

    def test_r_squared_one_iff_zero_residual(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 10, 25)
        exact = fit_line(x, 1.0 + 0.5 * x)
        assert exact.r_squared >= 1.0 - 1e-12 and exact.rms_residual <= 1e-12
        noisy = fit_line(x, 1.0 + 0.5 * x + rng.normal(0, 0.3, 25))
        assert noisy.r_squared < 1.0 - 1e-12 and noisy.rms_residual > 1e-12

    def test_r_squared_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(0, 10, 15)
            y = rng.normal(size=15)
            fit = fit_line(x, y)
            assert 0.0 <= fit.r_squared <= 1.0


class TestFitLines:
    """The batched kernel behind fit_line and identify."""

    def test_rows_without_drops_equal_fit_line(self):
        rng = np.random.default_rng(21)
        x = 1950.0 + np.cumsum(rng.uniform(0.1, 2.0, size=(6, 150)), axis=1)
        y = 0.3 * x + rng.normal(size=x.shape)
        lines = fitting._fit_lines(x, y, np.ones(x.shape, dtype=bool))
        assert lines.distinct.all() and lines.finite.all()
        for i in range(6):
            fit = fit_line(x[i], y[i])
            got = (lines.intercept[i], lines.slope[i], lines.rms_residual[i], lines.r_squared[i])
            assert got == (fit.intercept, fit.slope, fit.rms_residual, fit.r_squared)

    def test_dropped_and_padded_cells_are_ignored(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(0.0, 50.0, size=(5, 40))
        y = 2.0 - 0.1 * x + rng.normal(size=x.shape)
        keep = rng.random(x.shape) < 0.7
        keep[:, 30:] = False  # padding
        lines = fitting._fit_lines(x, y, keep)
        for i in range(5):
            fit = fit_line(x[i][keep[i]], y[i][keep[i]])
            assert lines.n_points[i] == fit.n_points
            np.testing.assert_allclose(
                (lines.intercept[i], lines.slope[i], lines.rms_residual[i], lines.r_squared[i]),
                (fit.intercept, fit.slope, fit.rms_residual, fit.r_squared),
                rtol=1e-12,
            )

    def test_repeated_inexact_kept_x_refused(self):
        # three copies of 0.1 have a rounded mean that is not 0.1, so their
        # sxx is tiny and positive: only an exact comparison refuses them
        with pytest.raises(DegenerateFitError, match="2 distinct x values, got 1"):
            fit_line([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
        x = np.array([[0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.7, 0.1]])
        keep = np.array([[True, True, False, True], [True, True, True, True]])
        lines = fitting._fit_lines(x, np.array([[1.0, 2.0, 3.0, 4.0]] * 2), keep)
        assert lines.distinct.tolist() == [False, True]

    def test_sums_beyond_float_range_refuse_only_their_row(self):
        x = np.tile([0.0, 1.0, 2.0], (2, 1))
        y = np.array([[1e200, -1e200, 3e200], [1.0, 2.0, 4.0]])
        lines = fitting._fit_lines(x, y, np.ones(x.shape, dtype=bool))
        assert lines.finite.tolist() == [False, True]
        assert lines.slope[1] == fit_line(x[1], y[1]).slope

    def test_row_keeping_nothing_is_refused(self):
        lines = fitting._fit_lines(np.ones((1, 3)), np.ones((1, 3)), np.zeros((1, 3), dtype=bool))
        assert lines.n_points[0] == 0 and not lines.distinct[0]


class TestFitPolynomial:
    def test_exact_parabola(self):
        x = np.linspace(-3, 5, 30)
        y = 1.0 - 2.0 * x + 0.5 * x**2
        p = fit_polynomial(x, y, 2)
        np.testing.assert_allclose(p.coefficients, [1.0, -2.0, 0.5], atol=1e-10)
        assert p.rms_residual <= 1e-10
        assert (p.t_min, p.t_max) == (-3.0, 5.0)

    def test_interpolation_regime_warns(self):
        x = np.arange(4.0)
        y = np.array([1.0, 2.0, 0.5, 3.0])
        p = fit_polynomial(x, y, 3)
        assert p.warnings == (
            "interpolation regime: polynomial degree equals point count minus one",
        )
        assert p.rms_residual <= 1e-9
        assert fit_polynomial(np.arange(5.0), np.arange(5.0) ** 2, 3).warnings == ()

    def test_underdetermined(self):
        with pytest.raises(DegenerateFitError):
            fit_polynomial([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 6)

    def test_degree_zero_rejected_by_fit(self):
        with pytest.raises(ValidationError):
            fit_polynomial([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 0)

    def test_degree_six_on_calendar_years_is_conditioned(self):
        # rates of a couple percent over 179 calendar years: the scaled
        # representation must reproduce the data even though raw power
        # coefficients on years are near the conditioning cliff
        t = np.arange(1830.0, 2009.0)
        y = 0.01 + 0.01 * np.cos(2 * np.pi * (t - 1830.0) / 120.0)
        p = fit_polynomial(t, y, 6)
        assert p.rms_residual < 5e-4
        np.testing.assert_allclose(p.value_at(t), y, atol=2e-3)

    def test_direct_construction_from_raw_coefficients(self):
        p = PolyFit(
            coefficients=np.array([0.01, 1e-4]), degree=1, rms_residual=0.0,
            t_min=0.0, t_max=10.0,
        )
        assert p.value_at(5.0) == pytest.approx(0.01 + 5e-4, rel=1e-14)
        # antiderivative difference: integral of a + b t
        val = p.antiderivative_at(4.0) - p.antiderivative_at(2.0)
        assert val == pytest.approx(0.01 * 2 + 1e-4 / 2 * (16 - 4), rel=1e-13)

    def test_degree_zero_direct_construction_allowed(self):
        p = PolyFit(coefficients=np.array([0.02]), degree=0, rms_residual=0.0,
                    t_min=0.0, t_max=10.0)
        assert p.value_at(7.0) == 0.02

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coefficients", np.array([0.01, np.nan])),
            ("rms_residual", math.inf),
            ("t_min", -math.inf),
            ("t_max", math.nan),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(
            coefficients=np.array([0.01, 1e-4]), degree=1, rms_residual=0.0,
            t_min=0.0, t_max=10.0,
        )
        fields[field] = value
        with pytest.raises(ValidationError, match=f"'{field}' must be finite"):
            PolyFit(**fields)

    def test_noisy_line_degree_six_fits_but_refuses_extrapolation(self):
        # a high-degree fit is allowed as a description; using it beyond
        # the data range is refused downstream
        from growthcast import RangeRefusalError, integrate_rate_function

        rng = np.random.default_rng(31)
        x = np.linspace(1900.0, 2000.0, 60)
        y = 0.01 + 1e-4 * (x - 1950.0) + rng.normal(0.0, 5e-4, 60)
        p = fit_polynomial(x, y, 6)
        assert p.degree == 6
        with pytest.raises(RangeRefusalError):
            integrate_rate_function(p, (1950.0, 1.0), [1950.0, 2050.0])


class TestLinearize:
    def test_ln_r_vs_t(self):
        rs = rate_series([1.0, 2.0], [math.exp(-1.0), math.exp(-2.0)])
        xs, ys, dropped = linearize(rs, LinearizationKind.LN_R_VS_T)
        np.testing.assert_allclose(ys, [-1.0, -2.0], rtol=1e-15)
        assert dropped == 0

    def test_ln_r_drops_negative_rates_with_warning(self):
        rs = rate_series([1.0, 2.0, 3.0], [0.1, -0.01, 0.2])
        xs, ys, dropped = linearize(rs, LinearizationKind.LN_R_VS_T)
        assert dropped == 1
        assert xs.tolist() == [1.0, 3.0]

    def test_shifted_ln(self):
        rs = rate_series([0.0, 1.0], [1.0, 1.0])
        xs, ys, dropped = linearize(rs, LinearizationKind.SHIFTED_LN_VS_T, aux_a=2.0)
        np.testing.assert_allclose(ys, [0.0, 0.0], atol=1e-15)  # ln(2 - 1/1)

    def test_shifted_ln_requires_aux(self):
        rs = rate_series([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            linearize(rs, LinearizationKind.SHIFTED_LN_VS_T)

    def test_recip_r_drops_zero_rates(self):
        rs = rate_series([0.0, 1.0, 2.0], [0.5, 0.0, 0.25])
        xs, ys, dropped = linearize(rs, LinearizationKind.RECIP_R_VS_T)
        assert dropped == 1
        np.testing.assert_allclose(ys, [2.0, 4.0])

    def test_recip_r_drops_rates_whose_reciprocal_overflows(self):
        rs = rate_series([0.0, 1.0, 2.0], [0.5, -1e-320, 0.25])
        for kind, aux in ((LinearizationKind.RECIP_R_VS_T, None),
                          (LinearizationKind.SHIFTED_LN_VS_T, 5.0)):
            xs, ys, dropped = linearize(rs, kind, aux_a=aux)
            assert dropped == 1
            assert xs.tolist() == [0.0, 2.0] and np.isfinite(ys).all()

    def test_all_points_dropped(self):
        rs = rate_series([0.0, 1.0], [-0.1, -0.2])
        with pytest.raises(EmptyLinearizationError):
            linearize(rs, LinearizationKind.LN_R_VS_T)

    def test_r_vs_s_uses_sizes(self):
        rs = rate_series([0.0, 1.0], [0.1, 0.2], sizes=[10.0, 20.0])
        xs, ys, _ = linearize(rs, LinearizationKind.R_VS_S)
        assert xs.tolist() == [10.0, 20.0]

    def test_linearize_series_reciprocal(self):
        ts = TimeSeries(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        xs, ys, dropped = linearize_series(ts)
        np.testing.assert_allclose(ys, [0.5, 0.25])
        assert dropped == 0


class TestFitRateModel:
    def test_synthetic_logistic_recovery(self):
        m = Model(ModelKind.LINEAR_S, Params(a=1.0, b=-1.0, C=1.0))
        t = np.linspace(-3.0, 4.0, 40)
        sizes = trajectory_at(m, t)
        rates = rate_at(m, t)
        rs = rate_series(t, rates, sizes)
        report = fit_rate_model(rs, LinearizationKind.R_VS_S)
        assert report.model.kind is ModelKind.LINEAR_S
        assert report.model.params.a == pytest.approx(1.0, rel=1e-10)
        assert report.model.params.b == pytest.approx(-1.0, rel=1e-10)
        assert report.model.params.C is None  # un-normalized
        assert report.line.r_squared >= 1.0 - 1e-12

    def test_hyperbolic_series_recovery(self):
        t = np.linspace(0.0, 9.0, 50)
        ts = TimeSeries(t, 1.0 / (10.0 - t))
        report = fit_reciprocal_series(ts)
        assert report.model.kind is ModelKind.HYPERBOLIC
        assert report.model.params.C == pytest.approx(10.0, rel=1e-10)
        assert report.model.params.b == pytest.approx(1.0, rel=1e-10)
        assert report.model.is_normalized  # the line is the reciprocal trajectory

    def test_t_range_restriction(self):
        t = np.arange(1950.0, 2020.0)
        rates = 0.02 * np.ones_like(t)
        rates[t < 1963] = 0.5  # junk outside the fit window
        rs = rate_series(t, rates, np.exp(0.02 * t - 39.0))
        report = fit_rate_model(rs, LinearizationKind.R_VS_T, t_range=(1963.0, 2016.0))
        assert report.model.params.a == pytest.approx(0.02, abs=1e-12)
        assert report.line.slope == pytest.approx(0.0, abs=1e-15)

    def test_dropped_point_accounting(self):
        t = np.arange(10.0)
        rates = 0.05 * np.exp(0.02 * t)
        rates[3] = -0.01
        rs = rate_series(t, rates)
        report = fit_rate_model(rs, LinearizationKind.LN_R_VS_T)
        assert report.line.n_points + report.line.dropped_points == 10
        assert report.line.dropped_points == 1
        assert report.warnings[0] == "dropped 1 point(s) outside the transform domain"

    def test_zero_slope_degenerates_out_of_family(self):
        # constant rates: ln R fits slope exactly 0, which is outside the
        # exponential-rate family (it is the constant-rate family)
        rs = rate_series(np.arange(6.0), np.full(6, 0.05))
        with pytest.raises(DegenerateFitError, match="degenerates"):
            fit_rate_model(rs, LinearizationKind.LN_R_VS_T)

    def test_ln_r_mapping_stores_amplitude(self):
        # ln R = ln(0.03) + 0.01 t  =>  amplitude 0.03, exponent 0.01
        t = np.linspace(0.0, 50.0, 25)
        rs = rate_series(t, 0.03 * np.exp(0.01 * t))
        report = fit_rate_model(rs, LinearizationKind.LN_R_VS_T)
        assert report.model.kind is ModelKind.RATE_LN_LINEAR
        assert report.model.params.a == pytest.approx(0.03, rel=1e-12)
        assert report.model.params.b == pytest.approx(0.01, rel=1e-12)
        assert any("amplitude" in w for w in report.warnings)

    def test_shifted_exp_mapping(self):
        a0, b0, r0 = 10.0, 5.0, 0.2
        t = np.linspace(0.0, 20.0, 30)
        rates = 1.0 / (a0 - b0 * np.exp(-r0 * t))
        rs = rate_series(t, rates)
        report = fit_rate_model(rs, LinearizationKind.SHIFTED_LN_VS_T, aux_a=a0)
        p = report.model.params
        assert report.model.kind is ModelKind.RATE_SHIFTED_EXP
        assert p.a == a0
        assert p.b == pytest.approx(b0, rel=1e-10)
        assert p.r == pytest.approx(r0, rel=1e-10)

    def test_ill_conditioned_extrapolation_warning(self):
        t = np.linspace(0.0, 100.0, 40)
        rs = rate_series(t, 0.001 + 0.05 * t)  # slope * span >> intercept
        report = fit_rate_model(rs, LinearizationKind.R_VS_T)
        assert any("ill-conditioned" in w for w in report.warnings)

    def test_unit_stamped_on_model(self):
        rs = rate_series([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], sizes=[1.0, 2.0, 3.0])
        report = fit_rate_model(rs, LinearizationKind.R_VS_S, unit="persons")
        assert report.model.unit == "persons"


class TestParameterRecovery:
    """Noise-free rates from known parameters round-trip through each
    family's linearization to 1e-8 relative."""

    def check(self, m, times, lin, expect, aux_a=None):
        sizes = trajectory_at(m, times)
        rates = rate_at(m, times)
        rs = rate_series(times, rates, sizes)
        report = fit_rate_model(rs, lin, aux_a=aux_a)
        for name, want in expect.items():
            got = getattr(report.model.params, name)
            assert got == pytest.approx(want, rel=1e-8), (m.kind, name, got, want)

    def test_linear_t(self):
        m = Model(ModelKind.LINEAR_T, Params(a=0.25, b=-1.2e-4, C=1.0))
        self.check(m, np.linspace(0.0, 80.0, 60), LinearizationKind.R_VS_T,
                   {"a": 0.25, "b": -1.2e-4})

    def test_exp_const_recovers_via_r_vs_t(self):
        m = Model(ModelKind.EXP_CONST, Params(a=0.02, C=1.0))
        sizes = trajectory_at(m, np.linspace(0.0, 30.0, 20))
        rs = rate_series(np.linspace(0.0, 30.0, 20), np.full(20, 0.02), sizes)
        report = fit_rate_model(rs, LinearizationKind.R_VS_T)
        assert report.model.params.a == pytest.approx(0.02, rel=1e-12)
        assert abs(report.model.params.b) <= 1e-18

    def test_linear_s(self):
        m = Model(ModelKind.LINEAR_S, Params(a=0.8, b=-0.15, C=2.0))
        self.check(m, np.linspace(0.0, 12.0, 50), LinearizationKind.R_VS_S,
                   {"a": 0.8, "b": -0.15})

    def test_hyperbolic(self):
        t = np.linspace(0.0, 6.0, 40)
        m = Model(ModelKind.HYPERBOLIC, Params(b=1.3, C=9.0))
        ts = TimeSeries(t, trajectory_at(m, t))
        report = fit_reciprocal_series(ts)
        assert report.model.params.b == pytest.approx(1.3, rel=1e-8)
        assert report.model.params.C == pytest.approx(9.0, rel=1e-8)

    # the log-of-size families are fitted on the rates OF F = ln S, whose
    # law is the base family of the lift applied to F
    def test_loglog_t(self):
        f_law = Model(ModelKind.LINEAR_T, Params(a=0.1, b=-0.002, C=3.0))
        assert LOG_LIFT[f_law.kind] is ModelKind.LOGLOG_T
        self.check(f_law, np.linspace(0.0, 20.0, 40), LinearizationKind.R_VS_T,
                   {"a": 0.1, "b": -0.002})

    def test_loglog_s(self):
        f_law = Model(ModelKind.LINEAR_S, Params(a=0.5, b=-0.08, C=1.5))
        assert LOG_LIFT[f_law.kind] is ModelKind.LOGLOG_S
        self.check(f_law, np.linspace(0.0, 15.0, 40), LinearizationKind.R_VS_S,
                   {"a": 0.5, "b": -0.08})

    def test_rate_recip_linear(self):
        m = Model(ModelKind.RATE_RECIP_LINEAR, Params(a=5.0, b=0.7, C=1.0))
        self.check(m, np.linspace(0.0, 10.0, 40), LinearizationKind.RECIP_R_VS_T,
                   {"a": 5.0, "b": 0.7})

    def test_rate_ln_linear(self):
        m = Model(ModelKind.RATE_LN_LINEAR, Params(a=2.179e10, b=-1.406e-2, C=15.6e9))
        self.check(m, np.linspace(1963.0, 2016.0, 54), LinearizationKind.LN_R_VS_T,
                   {"a": 2.179e10, "b": -1.406e-2})

    def test_rate_shifted_exp(self):
        m = Model(ModelKind.RATE_SHIFTED_EXP, Params(a=12.0, b=8.0, r=0.15, C=1.0))
        self.check(m, np.linspace(1.0, 25.0, 40), LinearizationKind.SHIFTED_LN_VS_T,
                   {"b": 8.0, "r": 0.15}, aux_a=12.0)


class TestScanShiftedAux:
    def test_scan_finds_the_displacement(self):
        a0, b0, r0 = 10.0, 6.0, 0.25
        t = np.linspace(0.0, 30.0, 60)
        rs = rate_series(t, 1.0 / (a0 - b0 * np.exp(-r0 * t)))
        best_a, report = scan_shifted_aux(rs, 5.0, 15.0, steps=201)
        assert best_a == pytest.approx(a0, abs=0.05)
        assert report.line.r_squared > 0.9999

    def test_overflowing_amplitude_is_a_named_degenerate_fit(self):
        t = np.arange(1950.0, 2020.0)
        rs = rate_series(t, 0.05 * np.exp(-0.4 * (t - 1950.0)))
        with pytest.raises(DegenerateFitError, match="parameter 'a' must be finite"):
            fit_rate_model(rs, LinearizationKind.LN_R_VS_T)
        with pytest.raises(EmptyLinearizationError, match="no scan value of a admits a fit"):
            scan_shifted_aux(rs, 25.0, 60.0)


def _scan_case(rng):
    """A random shifted-exponential rate series and scan arguments.

    Times are uniform, jittered or calendar years; some scan ranges
    reach below 1/R so that candidates drop points, and some rates are
    zero or negative.
    """
    n = int(rng.integers(8, 60))
    steps = np.arange(n, dtype=float)
    if rng.random() < 0.5:
        steps += rng.uniform(-0.3, 0.3, n)
    t = (float(rng.integers(1800, 2000)) if rng.random() < 0.5 else 0.0) + steps
    a0 = rng.uniform(2.0, 50.0)
    b0 = a0 * rng.uniform(0.2, 0.9) * rng.choice([1.0, -1.0])
    r0 = rng.uniform(0.02, 0.4) * (30.0 / n)
    rates = 1.0 / (a0 - b0 * np.exp(-r0 * (t - t[0])))
    rates *= 1.0 + rng.uniform(1e-6, 3e-2) * rng.standard_normal(n)
    if rng.random() < 0.2:
        rates[rng.integers(0, n, 2)] = rng.choice([0.0, -0.1])
    rs = rate_series(t, rates)
    lo, hi = sorted(a0 * rng.uniform(0.3, 2.5, 2))
    t_range = None
    if rng.random() < 0.3:
        i, j = sorted(rng.choice(n, 2, replace=False))
        t_range = (float(t[i]), float(t[j]))
    kwargs = dict(
        steps=int(rng.choice([20, 50, 200])),
        t_range=t_range,
        min_keep_fraction=float(rng.choice([0.1, 0.5, 0.75, 0.9])),
    )
    return rs, lo, hi, kwargs


def _oracle_grid_r2(rs, grid, t_range, min_keep_fraction):
    """r^2 of a direct fit at each grid point, -inf where the loop skips it."""
    out = []
    for a in grid:
        try:
            rep = fit_rate_model(
                rs, LinearizationKind.SHIFTED_LN_VS_T, t_range=t_range, aux_a=float(a)
            )
        except (EmptyLinearizationError, DegenerateFitError):
            out.append(-np.inf)
            continue
        n_total = rep.line.n_points + rep.line.dropped_points
        keep = rep.line.n_points >= max(3, min_keep_fraction * n_total)
        out.append(rep.line.r_squared if keep else -np.inf)
    return np.array(out)


class TestScanMatchesLoop:
    """The batched scan against the per-candidate loop it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cases(self, seed):
        rng = np.random.default_rng([seed, 4242])
        for _ in range(25):
            rs, lo, hi, kw = _scan_case(rng)
            try:
                want_a, want = oracles.scan_shifted_aux_loop(rs, lo, hi, **kw)
            except GrowthcastError as exc:
                with pytest.raises(type(exc)) as got:
                    scan_shifted_aux(rs, lo, hi, **kw)
                assert str(got.value) == str(exc)
                continue
            got_a, got = scan_shifted_aux(rs, lo, hi, **kw)

            grid = np.linspace(lo, hi, kw["steps"])
            want_r2 = _oracle_grid_r2(rs, grid, kw["t_range"], kw["min_keep_fraction"])
            times, rates = fitting._restrict(kw["t_range"], "rate points", rs.times, rs.rates)
            score = fitting._shifted_r2_scorer(
                times, rates, max(3, kw["min_keep_fraction"] * times.size)
            )
            got_r2 = score(grid)
            np.testing.assert_array_equal(np.isinf(got_r2), np.isinf(want_r2))
            live = np.isfinite(want_r2)
            np.testing.assert_allclose(got_r2[live], want_r2[live], rtol=0, atol=1e-12)
            top2 = np.sort(want_r2)[-2:]
            if top2[1] - top2[0] > 1e-12:
                assert np.argmax(got_r2) == np.argmax(want_r2)

            assert (
                abs(got_a - want_a) <= 1e-9 * abs(want_a)
                or got.line.r_squared >= want.line.r_squared - 1e-12
            )
            direct = fit_rate_model(
                rs, LinearizationKind.SHIFTED_LN_VS_T, t_range=kw["t_range"], aux_a=got_a
            )
            assert got == direct

    def test_no_candidate_admits_a_fit(self):
        rs = rate_series(np.arange(10.0), np.full(10, 0.5))
        for f in (scan_shifted_aux, oracles.scan_shifted_aux_loop):
            with pytest.raises(EmptyLinearizationError, match="no scan value of a admits a fit"):
                f(rs, -5.0, 1.0)

    def test_range_leaving_one_point(self):
        t = np.arange(20.0)
        rs = rate_series(t, 1.0 / (10.0 - 4.0 * np.exp(-0.2 * t)))
        for f in (scan_shifted_aux, oracles.scan_shifted_aux_loop):
            with pytest.raises(EmptyLinearizationError, match="no scan value of a admits a fit"):
                f(rs, 5.0, 15.0, t_range=(3.5, 4.5))

    def test_scorer_blocks_do_not_change_scores(self, monkeypatch):
        rng = np.random.default_rng(3)
        rs, lo, hi, _ = _scan_case(rng)
        grid = np.linspace(lo, hi, 37)
        whole = fitting._shifted_r2_scorer(rs.times, rs.rates, 3)(grid)
        monkeypatch.setattr(fitting, "_SCAN_BLOCK_CELLS", 1)
        one_row = fitting._shifted_r2_scorer(rs.times, rs.rates, 3)(grid)
        np.testing.assert_allclose(one_row, whole, rtol=0, atol=1e-14)


class TestNoticesTravelInResults:
    """Fits return their notices; none is emitted as a Python warning."""

    def test_no_python_warning_and_results_carry_the_notices(self):
        t = np.arange(20.0)
        rates = 1.0 / (10.0 - 4.0 * np.exp(-0.2 * t))
        rates[[3, 11]] = [0.0, -0.05]
        rs = rate_series(t, rates)
        ts = TimeSeries(t, np.where(t == 5.0, 0.0, 1.0 / (30.0 - t)))
        drop = "dropped {} point(s) outside the transform domain".format
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linearize(rs, LinearizationKind.LN_R_VS_T)[2] == 2
            assert linearize_series(ts)[2] == 1
            ln = fit_rate_model(rs, LinearizationKind.LN_R_VS_T)
            recip = fit_reciprocal_series(ts)
            _, scan = scan_shifted_aux(rs, 5.0, 15.0)
            poly = fit_polynomial(t[:4], rates[:4], 3)
        assert (ln.line.dropped_points, ln.warnings[0]) == (2, drop(2))
        assert any("amplitude" in w for w in ln.warnings)
        assert (recip.line.dropped_points, recip.warnings[0]) == (1, drop(1))
        # the scan keeps the negative rate (a - 1/R > 0) and drops the zero
        assert (scan.line.dropped_points, scan.warnings[0]) == (1, drop(1))
        assert poly.warnings == (
            "interpolation regime: polynomial degree equals point count minus one",
        )
