import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from growthcast import (
    DegenerateFactorError,
    DomainError,
    FeatureKind,
    Model,
    ModelKind,
    Params,
    SingularIntegrandError,
    SingularityError,
    ValidationError,
    features,
    integrate_rational,
    log_trajectory_at,
    normalize,
    rate_at,
    trajectory_at,
)
from growthcast.models import _BLOCK_POINTS, LOG_LIFT


def model(kind, t_ref=0.0, unit="", **params):
    return Model(kind=kind, params=Params(**params), t_ref=t_ref, unit=unit)


# parameter draws per kind that avoid singular neighborhoods; used by the
# ODE-consistency property. Each entry returns (model_without_C, anchor_t,
# anchor_s, test_times).
def draw_case(kind, rng):
    if kind is ModelKind.EXP_CONST:
        m = model(kind, a=rng.uniform(-0.4, 0.4) + 0.05)
        return m, 0.0, rng.uniform(0.5, 20.0), np.linspace(0.5, 8.0, 7)
    if kind is ModelKind.LINEAR_T:
        a = rng.uniform(0.05, 0.4)
        b = rng.uniform(-0.04, 0.04)
        m = model(kind, a=a, b=b)
        # keep |R| away from zero on the window
        tmax = 4.0 if b >= 0 else min(4.0, 0.5 * a / -b)
        return m, 0.0, rng.uniform(0.5, 10.0), np.linspace(0.2, tmax, 7)
    if kind is ModelKind.HYPERBOLIC:
        b = rng.uniform(0.2, 1.0)
        c = rng.uniform(5.0, 15.0)
        m = model(kind, b=b, C=c)
        ts = c / b
        return m, 0.0, 1.0 / c, np.linspace(0.1, 0.7 * ts, 7)
    if kind is ModelKind.LINEAR_S:
        a = rng.uniform(0.2, 1.0)
        if rng.uniform() < 0.5:
            b = -rng.uniform(0.05, 0.5)  # logistic
            s0 = rng.uniform(0.2, 0.8) * (a / -b)
            times = np.linspace(0.2, 6.0, 7)
        else:
            b = rng.uniform(0.05, 0.5)  # pseudo-hyperbolic
            s0 = rng.uniform(0.1, 0.5)
            c = (1.0 / s0 + b / a)  # t0 = 0, so C = K
            ts = -math.log(b / (a * c)) / a
            times = np.linspace(0.05, 0.6 * ts, 7)
        return model(kind, a=a, b=b), 0.0, s0, times
    if kind is ModelKind.LOGLOG_T:
        a = rng.uniform(0.05, 0.3)
        b = rng.uniform(-0.02, 0.02)
        s0 = rng.uniform(5.0, 50.0)
        tmax = 4.0 if b >= 0 else min(4.0, 0.5 * a / -b)
        return model(kind, a=a, b=b), 0.0, s0, np.linspace(0.2, tmax, 7)
    if kind is ModelKind.LOGLOG_S:
        a = rng.uniform(0.2, 0.8)
        b = -rng.uniform(0.05, 0.3)
        f_inf = a / -b
        s0 = math.exp(rng.uniform(0.3, 0.8) * f_inf)
        return model(kind, a=a, b=b), 0.0, s0, np.linspace(0.2, 5.0, 7)
    if kind is ModelKind.RATE_RECIP_LINEAR:
        a = rng.uniform(2.0, 10.0)
        b = rng.uniform(-0.5, 0.5) + 0.6  # positive: domain opens to the right
        if rng.uniform() < 0.5:
            b = -b  # singular kind: a + b t hits zero at -a/b > 0
            tmax = 0.6 * (-a / b)
        else:
            tmax = 6.0
        return model(ModelKind.RATE_RECIP_LINEAR, a=a, b=b), 0.0, rng.uniform(0.5, 5.0), np.linspace(0.1, tmax, 7)
    if kind is ModelKind.RATE_LN_LINEAR:
        a = rng.uniform(0.02, 0.3)
        # |b| bounded away from 0: a/b enters the closed form's exponent
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
        return model(kind, a=a, b=b), 0.0, rng.uniform(0.5, 10.0), np.linspace(0.2, 5.0, 7)
    if kind is ModelKind.RATE_SHIFTED_EXP:
        a = rng.uniform(5.0, 30.0)
        b = -rng.uniform(5.0, 30.0)  # b < 0 keeps a - b e^{-rt} > 0 everywhere
        r = rng.uniform(0.05, 0.5)
        return model(kind, a=a, b=b, r=r), 0.0, rng.uniform(0.5, 10.0), np.linspace(0.2, 8.0, 7)
    raise AssertionError(kind)


class TestParamValidation:
    def test_missing_required_parameter(self):
        with pytest.raises(ValidationError):
            Model(kind=ModelKind.LINEAR_T, params=Params(a=0.1))

    def test_hyperbolic_needs_nonzero_b(self):
        with pytest.raises(ValidationError):
            model(ModelKind.HYPERBOLIC, b=0.0, C=1.0)

    def test_linear_s_needs_nonzero_a(self):
        with pytest.raises(ValidationError):
            model(ModelKind.LINEAR_S, a=0.0, b=-1.0)

    @pytest.mark.parametrize(
        "kind, used, unused",
        [
            (ModelKind.EXP_CONST, dict(a=0.02), "r"),
            (ModelKind.EXP_CONST, dict(a=0.02, C=1.0), "b"),
            (ModelKind.LINEAR_T, dict(a=0.02, b=-0.001), "r"),
            (ModelKind.HYPERBOLIC, dict(b=0.01, C=1.0), "a"),
        ],
    )
    def test_unused_field_is_refused(self, kind, used, unused):
        model(kind, **used)
        with pytest.raises(ValidationError, match=f"^{kind.value} does not use parameter '{unused}'$"):
            model(kind, **used, **{unused: 5.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "r", "C", "t_ref"])
    def test_non_finite_field_is_named(self, field, bad):
        fields = dict(a=10.0, b=5.0, r=0.2, C=1.0, t_ref=0.0)
        fields[field] = bad
        with pytest.raises(ValidationError, match=f"'{field}' must be finite"):
            model(ModelKind.RATE_SHIFTED_EXP, **fields)


class TestRateAt:
    def test_exp_const_is_constant(self):
        m = model(ModelKind.EXP_CONST, a=0.02)
        for t in (0.0, 100.0, 1e4):
            assert rate_at(m, t) == 0.02

    def test_linear_s_vanishes_at_asymptote(self):
        m = model(ModelKind.LINEAR_S, a=8.411e-2, b=-1.279e-2, unit="1e12 2010 US$")
        assert rate_at(m, 0.0, s=6.5763) == pytest.approx(0.0, abs=2e-6)
        exact = 8.411e-2 / 1.279e-2
        assert rate_at(m, 0.0, s=exact) == pytest.approx(0.0, abs=1e-17)

    def test_linear_t_uk_rate_values(self):
        m = model(ModelKind.LINEAR_T, a=-8.964e-2, b=5.459e-5)
        assert rate_at(m, 2008.0) == pytest.approx(0.01998, abs=1e-5)
        assert rate_at(m, 1830.0) == pytest.approx(0.0102, abs=1e-4)

    def test_recip_linear_singular_rate(self):
        m = model(ModelKind.RATE_RECIP_LINEAR, a=1.0, b=-0.5)
        with pytest.raises(SingularityError):
            rate_at(m, 2.0)

    def test_shifted_exp_singular_rate(self):
        m = model(ModelKind.RATE_SHIFTED_EXP, a=2.0, b=2.0, r=0.1)
        with pytest.raises(SingularityError):
            rate_at(m, 0.0)

    def test_shifted_exp_approaches_one_over_a(self):
        m = model(ModelKind.RATE_SHIFTED_EXP, a=20.0, b=10.0, r=0.3)
        assert rate_at(m, 200.0) == pytest.approx(1.0 / 20.0, rel=1e-9)

    def test_size_default_requires_normalized(self):
        m = model(ModelKind.LINEAR_S, a=1.0, b=-1.0)
        with pytest.raises(DomainError):
            rate_at(m, 1.0)

    def test_loglog_rate_uses_chain_rule(self):
        # R_S = (a + b t) * ln s
        m = model(ModelKind.LOGLOG_T, a=0.1, b=0.01)
        assert rate_at(m, 2.0, s=math.e**3) == pytest.approx((0.1 + 0.02) * 3.0, rel=1e-12)

    @pytest.mark.parametrize("kind, b, want", [
        (ModelKind.LOGLOG_T, 0.0, 37.5544513),  # 0.02 F
        (ModelKind.LOGLOG_S, -1e-5, 9.6817940),  # F (0.02 - 1e-5 F)
    ])
    def test_lifted_rate_is_finite_where_the_size_overflows(self, kind, b, want):
        m = normalize(model(kind, a=0.02, b=b), 0.0, 1e300)
        assert trajectory_at(m, 50.0) == math.inf
        f = log_trajectory_at(m, 50.0)  # the chain rule's F = ln S, on the base law's t' or F
        assert rate_at(m, 50.0) == f * (0.02 + b * (f if kind is ModelKind.LOGLOG_S else 50.0))
        assert rate_at(m, 50.0) == pytest.approx(want, rel=1e-8)
        assert np.isfinite(rate_at(m, np.array([50.0, 60.0]))).all()


class TestTrajectoryAt:
    @pytest.mark.parametrize(
        "m, t, message",
        [
            (
                model(ModelKind.RATE_RECIP_LINEAR, a=1.0, b=-0.5, C=1.0), 3.0,
                "rate_recip_linear trajectory undefined where a + b*t' <= 0 "
                "(boundary at t = 2.0)",
            ),
            (
                model(ModelKind.LINEAR_S, a=1.0, b=0.5, C=0.0), 1.0,
                "linear_s trajectory undefined where its denominator <= 0",
            ),
        ],
    )
    def test_outside_the_domain_is_named(self, m, t, message):
        with pytest.raises(DomainError) as exc:
            trajectory_at(m, t)
        assert str(exc.value) == message

    def test_unit_logistic(self):
        m = model(ModelKind.LINEAR_S, a=1.0, b=-1.0, C=1.0)
        assert trajectory_at(m, 0.0) == pytest.approx(0.5, rel=1e-15)
        for t in (1.0, 3.0):
            assert trajectory_at(m, t) == pytest.approx(1.0 / (math.exp(-t) + 1.0), rel=1e-14)
        assert trajectory_at(m, 1000.0) == pytest.approx(1.0, rel=1e-12)

    def test_hyperbolic_values_and_singularity(self):
        m = model(ModelKind.HYPERBOLIC, b=1.0, C=10.0)
        assert trajectory_at(m, 0.0) == pytest.approx(0.1, rel=1e-15)
        assert trajectory_at(m, 9.0) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(SingularityError):
            trajectory_at(m, 10.0)
        with pytest.raises(DomainError):
            trajectory_at(m, 11.0)

    def test_world_population_exponential_rate_model(self):
        m = model(ModelKind.RATE_LN_LINEAR, a=2.179e10, b=-1.406e-2, C=15.6e9)
        assert trajectory_at(m, 2030.0) == pytest.approx(8.4e9, rel=1e-2)
        # oracle recomputation with plain math
        expected = 15.6e9 * math.exp((2.179e10 / -1.406e-2) * math.exp(-1.406e-2 * 2030.0))
        assert trajectory_at(m, 2030.0) == pytest.approx(expected, rel=1e-14)

    def test_linear_t_calendar_years_no_overflow(self):
        # exponent of the closed form is ~265 at t = 2030; the log-space
        # path must survive where exp(a t) * exp(b t^2 / 2) pieces blow up
        m = normalize(
            model(ModelKind.LINEAR_T, a=2.520e-1, b=-1.197e-4), 2030.0, 8.4e9
        )
        val = trajectory_at(m, 2100.0)
        assert math.isfinite(val)
        assert val == pytest.approx(11.77e9, rel=2e-3)

    def test_log_trajectory_matches_log_of_trajectory(self):
        m = model(ModelKind.EXP_CONST, a=0.05, C=2.0)
        t = np.array([0.0, 3.0, 7.5])
        np.testing.assert_allclose(
            log_trajectory_at(m, t), np.log(trajectory_at(m, t)), rtol=1e-14
        )

    def test_pseudo_hyperbolic_past_singularity(self):
        m = model(ModelKind.LINEAR_S, a=1.0, b=1.0, C=2.0)  # singular at ln 2
        with pytest.raises(DomainError):
            trajectory_at(m, 1.0)
        with pytest.raises(SingularityError):
            trajectory_at(m, math.log(2.0))

    def test_unnormalized_evaluation_is_error(self):
        m = model(ModelKind.LINEAR_T, a=0.1, b=-0.001)
        with pytest.raises(DomainError):
            trajectory_at(m, 1.0)

    def test_logistic_log_trajectory_exact_far_in_the_past(self):
        # when the exponential term dominates beyond float range, the
        # log-space value must track ln C - a t exactly, not saturate
        m = normalize(model(ModelKind.LINEAR_S, a=8.411e-2, b=-1.279e-2), 2010.0, 5.5)
        t = -8000.0
        expected = -(math.log(m.params.C) - m.params.a * t)
        assert log_trajectory_at(m, t) == pytest.approx(expected, rel=1e-13)
        assert trajectory_at(m, t) == 0.0  # genuine underflow of S itself


def blocked_cases():
    """(model, lo, hi): each kind, normalized, over a span its closed form
    covers; two grids beyond the float range; and the logistic kinds across
    the w > 600 branch of their denominator (w = ln C - a t' passes 600
    near t' = -1200)."""
    rng = np.random.default_rng(2024)
    cases = []
    for kind in ModelKind:
        m, t0, s0, times = draw_case(kind, rng)
        m = normalize(m, t0, s0) if m.params.C is None else m
        cases.append(pytest.param(m, times[0], times[-1], id=kind.value))
    cases.append(pytest.param(model(ModelKind.EXP_CONST, a=1.0, C=1.0), -800.0, 800.0, id="exp-0-inf"))
    cases.append(pytest.param(model(ModelKind.LOGLOG_T, a=1.0, b=1.0, C=1.0), -50.0, 50.0, id="loglog_t-inf"))
    for kind in (ModelKind.LINEAR_S, ModelKind.LOGLOG_S):
        m = normalize(model(kind, a=0.5, b=-0.1), 0.0, 2.0)
        cases.append(pytest.param(m, -4000.0, 5.0, id=f"{kind.value}-w600"))
    return cases


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBlockedEvaluation:
    """Arrays longer than one block give the bits and errors of one whole-array pass."""

    @pytest.mark.parametrize("m, lo, hi", blocked_cases())
    @pytest.mark.parametrize(
        "n", [_BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1, 3 * _BLOCK_POINTS + 7]
    )
    def test_same_bits_as_one_pass(self, m, lo, hi, n):
        t = np.linspace(lo, hi, n)
        assert_same_bits(trajectory_at(m, t), oracles.trajectory_whole(m, t))
        assert_same_bits(log_trajectory_at(m, t), oracles.log_trajectory_whole(m, t))

    @pytest.mark.parametrize("m, lo, hi", blocked_cases())
    def test_two_dimensional_and_strided_grids(self, m, lo, hi):
        t = np.linspace(lo, hi, 2 * _BLOCK_POINTS + 2)
        for grid in (t.reshape(2, -1), t.reshape(-1, 2).T, t[::2], t.reshape(-1, 2)[::-1]):
            assert_same_bits(trajectory_at(m, grid), oracles.trajectory_whole(m, grid))
            assert_same_bits(log_trajectory_at(m, grid), oracles.log_trajectory_whole(m, grid))

    @pytest.mark.parametrize(
        "m, fine, guard_t, domain_t",
        [
            (model(ModelKind.HYPERBOLIC, b=1.0, C=10.0), 0.0, 10.0, 11.0),
            (model(ModelKind.LINEAR_S, a=1.0, b=1.0, C=2.0), 0.0, math.log(2.0), 1.0),
            (model(ModelKind.LOGLOG_S, a=1.0, b=1.0, C=2.0), 0.0, math.log(2.0), 1.0),
            (model(ModelKind.RATE_RECIP_LINEAR, a=1.0, b=-0.5, C=1.0), 0.0, 2.0, 3.0),
            (model(ModelKind.RATE_SHIFTED_EXP, a=1.0, b=2.0, r=1.0, C=1.0), 5.0, math.log(2.0), 0.0),
        ],
        ids=lambda v: v.kind.value if isinstance(v, Model) else None,
    )
    def test_errors_are_those_of_the_whole_grid(self, m, fine, guard_t, domain_t):
        # the first block is outside the domain, the last one within the
        # guard band: the whole grid names the singularity, its guard first
        t = np.full(3 * _BLOCK_POINTS + 7, fine)
        t[5] = domain_t
        t[-3] = guard_t
        for evaluate, whole in (
            (trajectory_at, oracles.trajectory_whole),
            (log_trajectory_at, oracles.log_trajectory_whole),
        ):
            with pytest.raises(SingularityError) as want:
                whole(m, t)
            with pytest.raises(SingularityError) as got:
                evaluate(m, t)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            with pytest.raises(DomainError) as want:
                whole(m, t[:-3])
            with pytest.raises(DomainError) as got:
                evaluate(m, t[:-3])
            assert str(got.value) == str(want.value)


class TestQuietEvaluation:
    """A value beyond the float range is inf, with no numpy warning: the
    suite turns every RuntimeWarning into an error."""

    def test_rate_at_overflow_is_inf(self):
        m = model(ModelKind.RATE_LN_LINEAR, a=1.0, b=1.0, C=1.0)
        assert rate_at(m, 1000.0) == math.inf
        assert rate_at(m, np.array([0.0, 1000.0])).tolist() == [1.0, math.inf]

    def test_log_trajectory_at_overflow_is_inf(self):
        m = model(ModelKind.LOGLOG_T, a=1.0, b=1.0, C=1.0)
        assert log_trajectory_at(m, 100.0) == math.inf
        assert log_trajectory_at(m, np.array([0.0, 100.0])).tolist() == [1.0, math.inf]
        assert trajectory_at(m, 100.0) == math.inf


class TestFeatures:
    def test_world_population_maximum(self):
        m = normalize(model(ModelKind.LINEAR_T, a=2.520e-1, b=-1.197e-4), 2030.0, 8.4e9)
        f = features(m)
        assert f.kind is FeatureKind.MAXIMUM
        assert f.t_star == pytest.approx(2105.26, abs=0.01)
        assert f.s_star == pytest.approx(11.9e9, rel=1.5e-2)

    def test_pseudo_hyperbolic_singularity(self):
        m = model(ModelKind.LINEAR_S, a=1.0, b=1.0, C=2.0)
        f = features(m)
        assert f.kind is FeatureKind.SINGULARITY
        assert f.t_star == pytest.approx(math.log(2.0), rel=1e-12)

    def test_hyperbolic_singularity(self):
        f = features(model(ModelKind.HYPERBOLIC, b=1.0, C=10.0))
        assert f.kind is FeatureKind.SINGULARITY
        assert f.t_star == pytest.approx(10.0)

    def test_logistic_asymptote(self):
        f = features(model(ModelKind.LINEAR_S, a=8.411e-2, b=-1.279e-2))
        assert f.kind is FeatureKind.ASYMPTOTE
        assert f.s_star == pytest.approx(6.576231, abs=1e-5)

    def test_exp_const_none(self):
        f = features(model(ModelKind.EXP_CONST, a=0.02))
        assert f.kind is FeatureKind.NONE
        assert f.t_star is None and f.s_star is None

    def test_linear_t_no_maximum_forward(self):
        f = features(model(ModelKind.LINEAR_T, a=0.1, b=0.001))
        assert f.kind is FeatureKind.NONE

    def test_linear_s_unreachable_singularity_is_none_with_note(self):
        # b > 0 but C < 0: the denominator never crosses zero
        m = model(ModelKind.LINEAR_S, a=1.0, b=0.5, C=-1.0)
        f = features(m)
        assert f.kind is FeatureKind.NONE
        assert "denominator" in f.note

    @pytest.mark.parametrize("a, b, c", [
        (1e-200, 1.0, 1e-200),  # a C underflows to 0
        (-1e-200, 1.0, -1e-200),
        (1e200, 1.0, 1e200),  # a C overflows, b / (a C) is 0
        (1.0, 1e300, 1e-100),  # b / (a C) overflows
        (2.0, 1e-300, 1e10),  # b / (a C) is subnormal
        (1e-160, 1e-300, 1e-160),  # a C is subnormal
    ])
    def test_linear_s_singular_time_outside_the_normal_quotient(self, a, b, c):
        f = features(model(ModelKind.LINEAR_S, a=a, b=b, C=c))
        assert f.kind is FeatureKind.SINGULARITY
        log_ratio = math.log(abs(b)) - math.log(abs(a)) - math.log(abs(c))
        assert f.t_star == -log_ratio / a
        # C e^(-a t*) = b/a, compared in log space
        assert math.log(abs(c)) - a * f.t_star == pytest.approx(math.log(abs(b / a)), rel=1e-12)

    def test_linear_s_singular_time_keeps_its_bits_for_normal_quotients(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b, c = 10.0 ** rng.uniform(-100.0, 100.0, 3)
            sign = rng.choice([-1.0, 1.0])  # b > 0 is singular when a C > 0
            a, c = sign * a, sign * c
            f = features(model(ModelKind.LINEAR_S, a=a, b=b, C=c))
            assert f.t_star == -math.log(b / (a * c)) / a

    def test_rate_ln_linear_asymptote_is_c(self):
        m = model(ModelKind.RATE_LN_LINEAR, a=2.179e10, b=-1.406e-2, C=15.6e9)
        f = features(m)
        assert f.kind is FeatureKind.ASYMPTOTE
        assert f.s_star == 15.6e9

    def test_shifted_exp_reports_asymptotic_rate(self):
        m = model(ModelKind.RATE_SHIFTED_EXP, a=25.0, b=-10.0, r=0.2)
        f = features(m)
        assert f.kind is FeatureKind.NONE
        assert "0.04" in f.note

    @pytest.mark.parametrize("m, note", [
        (model(ModelKind.HYPERBOLIC, b=-0.01, C=1.0), "b < 0: reciprocal grows"),
        (model(ModelKind.LINEAR_S, a=-0.1, b=-0.01), "a < 0 and b < 0: rate negative"),
        (model(ModelKind.RATE_LN_LINEAR, a=0.01, b=0.02), "b > 0: super-exponential"),
    ], ids=["hyperbolic", "linear_s", "rate_ln_linear"])
    def test_laws_without_a_feature_say_why(self, m, note):
        f = features(m)
        assert f.kind is FeatureKind.NONE
        assert f.t_star is None and f.s_star is None
        assert f.note.startswith(note)

    def test_rate_recip_linear_falling_rate_is_singular(self):
        # R = 1/(a + b t') blows up where a + b t' = 0, at t_ref - a/b
        f = features(model(ModelKind.RATE_RECIP_LINEAR, a=0.5, b=-0.01, t_ref=1900.0))
        assert f.kind is FeatureKind.SINGULARITY
        assert f.t_star == 1950.0 and f.s_star is None

    def test_japan_maximum_year_formula(self):
        # rate 3.452 - 1.726e-3 * t crosses zero at exactly 2000.0
        m = model(ModelKind.LINEAR_T, a=3.452, b=-1.726e-3)
        assert m.t_ref - m.params.a / m.params.b == pytest.approx(2000.0, abs=0.1)

    def test_maximum_value_requires_normalization(self):
        # the maximum's time needs no C: only its size is left out
        m = model(ModelKind.LINEAR_T, a=0.2, b=-0.01, t_ref=1950.0)
        f = features(m)
        assert f.kind is FeatureKind.MAXIMUM
        assert f.t_star == m.t_ref - m.params.a / m.params.b
        assert f.s_star is None and f.note == "maximum size requires an anchor"
        # a feature whose kind or time needs C is still refused
        for unset in (
            model(ModelKind.HYPERBOLIC, b=0.01),
            model(ModelKind.LINEAR_S, a=0.1, b=0.01),
            model(ModelKind.LOGLOG_T, a=0.1, b=-0.01),
        ):
            with pytest.raises(DomainError, match=unset.kind.value):
                features(unset)

    def test_asymptote_value_requires_normalization(self):
        # the rate_ln_linear asymptote is C itself
        f = features(model(ModelKind.RATE_LN_LINEAR, a=2.179e10, b=-1.406e-2))
        assert f.kind is FeatureKind.ASYMPTOTE
        assert f.t_star is None and f.s_star is None
        assert f.note == "asymptote size requires an anchor"

    def test_maximum_beyond_float_range_has_no_value(self):
        m = normalize(model(ModelKind.LINEAR_T, a=0.3, b=-1e-5), 0.0, 100.0)
        f = features(m)
        assert f.kind is FeatureKind.MAXIMUM
        assert f.t_star == pytest.approx(30000.0)
        assert f.s_star is None and "float range" in f.note

    def test_loglog_t_below_one_has_a_minimum_not_a_maximum(self):
        # ln s0 < 0 gives C < 0: F = C e^g is most negative where g peaks
        m = normalize(model(ModelKind.LOGLOG_T, a=0.1, b=-0.01), 0.0, 0.5)
        assert m.params.C < 0
        s = trajectory_at(m, np.array([0.0, 10.0, 20.0]))
        assert s[1] < s[0] and s[1] < s[2]
        f = features(m)
        assert f.kind is FeatureKind.NONE
        assert "minimum" in f.note and "t = 10.0" in f.note

    def test_loglog_t_below_one_rising_law_has_a_maximum(self):
        # b > 0 with C < 0: the trough of g is the peak of F = C e^g
        m = normalize(model(ModelKind.LOGLOG_T, a=0.1, b=0.01), 0.0, 0.5)
        f = features(m)
        assert f.kind is FeatureKind.MAXIMUM
        assert f.t_star == -10.0
        assert f.s_star == trajectory_at(m, -10.0)
        assert trajectory_at(m, np.array([-12.0, -8.0])).max() < f.s_star

    def test_loglog_s_asymptote_beyond_float_range_has_no_value(self):
        m = normalize(model(ModelKind.LOGLOG_S, a=10.0, b=-0.01), 0.0, 2.0)
        f = features(m)
        assert f.kind is FeatureKind.ASYMPTOTE
        assert f.s_star is None and "float range" in f.note


class TestNormalize:
    def test_unit_logistic_constant(self):
        m = normalize(model(ModelKind.LINEAR_S, a=1.0, b=-1.0), 0.0, 0.5)
        assert m.params.C == pytest.approx(1.0, rel=1e-14)

    def test_world_population_constant_matches_reported_asymptote(self):
        m = normalize(
            model(ModelKind.RATE_LN_LINEAR, a=2.179e10, b=-1.406e-2), 2030.0, 8.37e9
        )
        # oracle: invert S = C exp((a/b) e^{b t}) by hand
        expected = 8.37e9 * math.exp(-(2.179e10 / -1.406e-2) * math.exp(-1.406e-2 * 2030.0))
        assert m.params.C == pytest.approx(expected, rel=1e-13)
        assert m.params.C == pytest.approx(15.6e9, rel=2e-3)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_round_trip_every_kind(self, kind):
        rng = np.random.default_rng(1000 + list(ModelKind).index(kind))
        m, t0, s0, _ = draw_case(kind, rng)
        normalized = normalize(m, t0, s0)
        assert trajectory_at(normalized, t0) == pytest.approx(s0, rel=1e-12)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_equals_two_replaces(self, kind):
        # one Model built from a new Params: the record dataclasses.replace
        # gives when it swaps in C, with t_ref and the unit kept
        rng = np.random.default_rng(2000 + list(ModelKind).index(kind))
        m, t0, s0, _ = draw_case(kind, rng)
        m = replace(m, t_ref=-3.5, unit="persons")
        normalized = normalize(m, t0, s0)
        assert normalized == replace(m, params=replace(m.params, C=normalized.params.C))
        assert type(normalized.params.C) is float

    def test_non_positive_anchor_rejected(self):
        with pytest.raises(DomainError):
            normalize(model(ModelKind.EXP_CONST, a=0.02), 0.0, -1.0)

    def test_linear_s_anchored_at_its_asymptote(self):
        # 1/s0 + b/a is exactly 0 at s0 = -a/b = 2, so C = 0 and the
        # trajectory sits at the asymptote for all time
        m = normalize(model(ModelKind.LINEAR_S, a=1.0, b=-0.5), 10.0, 2.0)
        assert m.params.C == 0.0
        t = np.array([-50.0, 0.0, 10.0, 300.0])
        np.testing.assert_array_equal(trajectory_at(m, t), np.full(4, 2.0))
        feat = features(m)
        assert feat.kind is FeatureKind.ASYMPTOTE and feat.s_star == 2.0

    def test_loglog_s_below_one_rejected(self):
        # its closed form is evaluated through ln F, so F = ln S must be > 0
        with pytest.raises(DomainError, match=r"ln s0 = -0\.69"):
            normalize(model(ModelKind.LOGLOG_S, a=0.5, b=-0.08), 0.0, 0.5)

    @pytest.mark.parametrize("m, t0, message", [
        (model(ModelKind.RATE_RECIP_LINEAR, a=0.5, b=-0.01), 100.0, r"a \+ b\*t' = -0\.5 "),
        (model(ModelKind.RATE_SHIFTED_EXP, a=0.1, b=1.0, r=0.05), 0.0, r"a - b\*exp\(-r\*t'\) = -0\.9 "),
    ], ids=["rate_recip_linear", "rate_shifted_exp"])
    def test_anchor_time_outside_domain_rejected(self, m, t0, message):
        with pytest.raises(DomainError, match="anchor time outside domain: " + message):
            normalize(m, t0, 1.0)

    def test_unrepresentable_constant_suggests_t_ref(self):
        m = model(ModelKind.LINEAR_T, a=3.452, b=-1.726e-3)  # t_ref = 0
        with pytest.raises(DomainError, match="t_ref"):
            normalize(m, 2000.0, 5.469)

    def test_shifted_t_ref_resolves_it(self):
        # same law re-expressed about t_ref = 2000: a' = a + b * 2000 = 0
        m = model(ModelKind.LINEAR_T, a=0.0, b=-1.726e-3, t_ref=2000.0)
        normalized = normalize(m, 2000.0, 5.469)
        assert trajectory_at(normalized, 2000.0) == pytest.approx(5.469, rel=1e-13)
        assert features(normalized).t_star == pytest.approx(2000.0, abs=1e-9)


class TestOdeConsistency:
    """Numerical log-derivative of every closed form matches its rate law."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_fifty_random_draws(self, kind):
        rng = np.random.default_rng(0xC0FFEE + list(ModelKind).index(kind))
        h = 1e-4
        for _ in range(50):
            m, t0, s0, times = draw_case(kind, rng)
            m = normalize(m, t0, s0) if m.params.C is None else m
            for t in times:
                num = (
                    log_trajectory_at(m, t + h) - log_trajectory_at(m, t - h)
                ) / (2 * h)
                law = rate_at(m, t, s=trajectory_at(m, t))
                assert num == pytest.approx(law, rel=1e-6, abs=1e-10), (kind, m, t)


class TestSignatures:
    def test_hyperbolic_reciprocal_exactly_affine(self):
        m = model(ModelKind.HYPERBOLIC, b=0.7, C=12.0)
        t = np.linspace(0.0, 10.0, 40)
        recip = 1.0 / trajectory_at(m, t)
        coef = np.polynomial.polynomial.polyfit(t, recip, 1)
        resid = recip - np.polynomial.polynomial.polyval(t, coef)
        assert float(np.sqrt(np.mean(resid**2))) <= 1e-12
        assert coef[1] == pytest.approx(-0.7, rel=1e-12)

    def test_pseudo_hyperbolic_reciprocal_not_affine(self):
        # a < 0, b > 0: the trajectory rises from the floor |a|/b and
        # diverges at a finite time; its reciprocal bends toward -b/a
        # going back in time instead of following a line
        a, b = -1.0, 0.5
        m = normalize(model(ModelKind.LINEAR_S, a=a, b=b), 0.0, 3.0)
        assert m.params.C < 0
        t = np.linspace(-10.0, 1.0, 200)  # singular at ln 3 ~ 1.0986
        recip = 1.0 / trajectory_at(m, t)
        coef = np.polynomial.polynomial.polyfit(t, recip, 1)
        resid = recip - np.polynomial.polynomial.polyval(t, coef)
        assert float(np.sqrt(np.mean(resid**2))) > 1e-4
        assert 1.0 / trajectory_at(m, -40.0) == pytest.approx(-b / a, rel=1e-6)

    def test_logistic_monotone_approach_to_asymptote(self):
        a, b = 0.8, -0.2
        m = normalize(model(ModelKind.LINEAR_S, a=a, b=b), 0.0, 1.0)  # below a/|b| = 4
        t = np.linspace(0.0, 35.0, 150)  # before float saturation at the limit
        s = trajectory_at(m, t)
        assert np.all(np.diff(s) > 0)
        assert np.all(s < a / abs(b))
        assert trajectory_at(m, 1000.0) == pytest.approx(a / abs(b), rel=1e-6)

    def test_loglog_t_equivalence_with_linear_t_on_f(self):
        a, b, c = 0.12, -0.004, 2.5
        loglog = model(ModelKind.LOGLOG_T, a=a, b=b, C=c)
        inner = model(ModelKind.LINEAR_T, a=a, b=b, C=c)
        t = np.linspace(0.0, 15.0, 30)
        np.testing.assert_allclose(
            trajectory_at(loglog, t), np.exp(trajectory_at(inner, t)), rtol=1e-12
        )


class TestLogLift:
    """The log-of-size kinds are their base laws applied to F = ln S."""

    @staticmethod
    def draws(seed, n=300):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            t_ref = float(rng.choice([0.0, 3.7, 1950.0]))
            a = float(rng.uniform(0.05, 0.5))
            b = float(rng.uniform(-0.05, 0.05))
            yield rng, t_ref, a, b

    @pytest.mark.parametrize("base", list(LOG_LIFT))
    def test_rate_is_ln_s_times_base_rate_of_ln_s(self, base):
        for rng, t_ref, a, b in self.draws(1):
            t = t_ref + rng.uniform(-50.0, 50.0, 9)
            s = np.exp(rng.uniform(1e-3, 8.0, 9))  # s > 1
            f = np.log(s)
            lifted = model(LOG_LIFT[base], t_ref=t_ref, a=a, b=b)
            plain = model(base, t_ref=t_ref, a=a, b=b)
            assert np.array_equal(rate_at(lifted, t, s), f * rate_at(plain, t, f))
            assert rate_at(lifted, t[0], s[0]) == f[0] * rate_at(plain, t[0], f[0])

    @pytest.mark.parametrize("base", list(LOG_LIFT))
    def test_normalize_anchors_base_at_ln_s0(self, base):
        for rng, t_ref, a, b in self.draws(2):
            t0 = t_ref + float(rng.uniform(-5.0, 5.0))
            s0 = math.exp(float(rng.uniform(0.05, 5.0)))
            lifted = normalize(model(LOG_LIFT[base], t_ref=t_ref, a=a, b=b), t0, s0)
            plain = normalize(model(base, t_ref=t_ref, a=a, b=b), t0, math.log(s0))
            assert lifted.params.C == plain.params.C

    def test_loglog_s_log_trajectory_is_linear_s_trajectory(self):
        for rng, t_ref, a, _ in self.draws(3):
            b = -float(rng.uniform(0.01, 0.5))  # logistic in F: no singularity
            c = float(np.exp(rng.uniform(-3.0, 5.0)))
            t = t_ref + rng.uniform(-20.0, 60.0, 11)
            lifted = model(ModelKind.LOGLOG_S, t_ref=t_ref, a=a, b=b, C=c)
            plain = model(ModelKind.LINEAR_S, t_ref=t_ref, a=a, b=b, C=c)
            assert np.array_equal(log_trajectory_at(lifted, t), trajectory_at(plain, t))

    def test_errors_name_the_lifted_kind(self):
        loglog_t = model(ModelKind.LOGLOG_T, a=0.1, b=-0.01)
        loglog_s = model(ModelKind.LOGLOG_S, a=0.05, b=0.01)
        with pytest.raises(DomainError, match="loglog_t"):
            trajectory_at(loglog_t, 1.0)  # not normalized
        with pytest.raises(DomainError, match="loglog_s"):
            rate_at(loglog_s, 1.0, s=-2.0)
        with pytest.raises(DomainError, match="loglog_t"):
            normalize(loglog_t, 0.0, 1.0)
        with pytest.raises(DomainError, match="normalization constant for loglog_t"):
            normalize(model(ModelKind.LOGLOG_T, a=0.1, b=0.01), 2000.0, 5.0)
        sing = normalize(loglog_s, 0.0, 2.0)
        t_sing = features(sing).t_star
        with pytest.raises(SingularityError, match="loglog_s"):
            trajectory_at(sing, t_sing)
        with pytest.raises(DomainError, match="loglog_s"):
            trajectory_at(sing, t_sing + 1.0)


class TestIntegrateRational:
    def test_known_integral(self):
        # 1/(x (1 + x)) over [1, 2] = ln(4/3)
        val = integrate_rational(1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
        assert val == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)
        assert val == pytest.approx(0.287682, abs=1e-6)

    def test_degenerate_factors(self):
        with pytest.raises(DegenerateFactorError):
            integrate_rational(1.0, 2.0, 1.0, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("factors", [(0.0, 0.0, 1.0, 2.0), (1.0, 2.0, 0.0, 0.0)])
    def test_identically_zero_factor_is_degenerate(self, factors):
        # a zero factor is proportional to any other: D = cb - ae = 0
        with pytest.raises(DegenerateFactorError, match="proportional"):
            integrate_rational(*factors, 0.0, 1.0)

    @pytest.mark.parametrize("at", range(6))
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_argument_rejected(self, at, bad):
        args = [1.0, 1.0, 0.0, 1.0, 1.0, 2.0]  # a valid integral but for the bad argument
        args[at] = bad
        with pytest.raises(ValidationError, match="arguments must be finite"):
            integrate_rational(*args)

    def test_empty_interval_is_zero(self):
        assert integrate_rational(1.0, 1.0, 0.0, 1.0, 1.5, 1.5) == 0.0

    def test_constant_factor(self):
        # 1 / (1 (1 + x)) over [0, 1] = ln 2; the constant factor has no root
        assert integrate_rational(1.0, 0.0, 1.0, 1.0, 0.0, 1.0) == math.log(2.0)

    def test_root_inside_interval(self):
        with pytest.raises(SingularIntegrandError):
            integrate_rational(1.0, 1.0, 0.0, 1.0, -2.0, 2.0)  # x = 0 inside

    def test_root_at_endpoint(self):
        with pytest.raises(SingularIntegrandError):
            integrate_rational(1.0, 1.0, 0.0, 1.0, 0.0, 2.0)

    def test_against_adaptive_quadrature(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(42)
        done = 0
        while done < 100:
            a, b, c, e = rng.uniform(-3, 3, size=4)
            if abs(c * b - a * e) < 0.1 or abs(b) < 0.05 or abs(e) < 0.05:
                continue
            roots = sorted((-a / b, -c / e))
            # pick an interval clear of both roots
            lo = roots[1] + rng.uniform(0.3, 1.0)
            hi = lo + rng.uniform(0.5, 2.0)
            expected, err = quad(lambda x: 1.0 / ((a + b * x) * (c + e * x)), lo, hi,
                                 epsabs=1e-13, epsrel=1e-13)
            got = integrate_rational(a, b, c, e, lo, hi)
            assert got == pytest.approx(expected, abs=1e-10 + 1e-10 * abs(expected))
            done += 1
