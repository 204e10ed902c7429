"""The nine-family catalog of growth models.

Each family pairs a growth-rate law with the closed-form trajectory that
solves it and with its critical feature (maximum, asymptote, or
finite-time singularity). Writing t' = t - t_ref:

===================  ==============================  =========================================
kind                 rate law R                      trajectory
===================  ==============================  =========================================
EXP_CONST            a                               S = C exp(a t')
LINEAR_T             a + b t'                        S = C exp(a t' + b t'^2 / 2)
HYPERBOLIC           b S                             S = 1 / (C - b t')
LINEAR_S             a + b S                         S = 1 / (C exp(-a t') - b/a)
LOGLOG_T             (of F = ln S)  a + b t'         ln S = C exp(a t' + b t'^2 / 2)
LOGLOG_S             (of F = ln S)  a + b F          ln S = 1 / (C exp(-a t') - b/a)
RATE_RECIP_LINEAR    1 / (a + b t')                  S = C (a + b t')^(1/b)
RATE_LN_LINEAR       a exp(b t')                     S = C exp((a/b) exp(b t'))
RATE_SHIFTED_EXP     1 / (a - b exp(-r t'))          S = C exp(t'/a + ln(a - b e^(-r t'))/(r a))
===================  ==============================  =========================================

LOGLOG_T and LOGLOG_S are LINEAR_T and LINEAR_S applied to F = ln S
(``LOG_LIFT``): their rates, features and normalization run the base law
on F, anchored at ln s0, with the chain rule R_S = F R_F and exp of a
size-valued feature. LOGLOG_T keeps its own closed form F = C exp(a t' +
b t'^2 / 2), where C takes the sign of ln s0: an anchor below S = 1
(C < 0) turns the extremum of F at t' = -a/b upside down, so S has a
maximum there when b C < 0 and a minimum when b C > 0.

All trajectory evaluation happens on ln S internally and exponentiates
only at the output boundary, so families whose exponents reach several
hundred on raw calendar years stay evaluable.

A value beyond the float range follows one rule per kind of step:
``_exp`` (e^x, or inf) is the one exp of a derived constant; ``normalize``
refuses every kind's C that is not float-representable by one DomainError;
``trajectory_at``, ``log_trajectory_at`` and ``rate_at`` evaluate quietly,
and their callers name an inf or nan;
``features`` makes a feature time beyond the range NONE and leaves such a
size out, each with a note, as it leaves out a size that needs C when C is
unset; a feature whose kind or time needs C is a DomainError until it is set.

LINEAR_S with b < 0 is logistic growth (approaches a/|b|); with b > 0 it
is pseudo-hyperbolic (diverges at a finite time). HYPERBOLIC is kept as
its own family rather than the a = 0 limit of LINEAR_S: the LINEAR_S
closed form is undefined at a = 0 and the two laws have different
reciprocal signatures (1/S affine in t only for HYPERBOLIC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import (
    DegenerateFactorError,
    DomainError,
    SingularIntegrandError,
    SingularityError,
    ValidationError,
)

ArrayLike = Union[float, np.ndarray]

#: Evaluation this close (in years) to a finite-time singularity is refused.
SINGULARITY_GUARD_YEARS = 1e-9

#: |ln C| beyond this cannot be represented as a float C.
_LOG_FLOAT_LIMIT = 700.0

#: The smallest positive normal float; below it a float has lost precision.
_NORMAL_MIN = float.fromhex("0x1p-1022")

#: Trajectories of longer arrays are evaluated in slices of about this many points.
_BLOCK_POINTS = 1 << 14


class ModelKind(Enum):
    EXP_CONST = "exp_const"
    LINEAR_T = "linear_t"
    HYPERBOLIC = "hyperbolic"
    LINEAR_S = "linear_s"
    LOGLOG_T = "loglog_t"
    LOGLOG_S = "loglog_s"
    RATE_RECIP_LINEAR = "rate_recip_linear"
    RATE_LN_LINEAR = "rate_ln_linear"
    RATE_SHIFTED_EXP = "rate_shifted_exp"


class FeatureKind(Enum):
    MAXIMUM = "maximum"
    ASYMPTOTE = "asymptote"
    SINGULARITY = "singularity"
    NONE = "none"


@dataclass(frozen=True)
class Params:
    """Parameters of a rate law. Fields unused by a kind stay None.

    C is the normalization constant fixed by anchoring the trajectory to
    a data point; None until the model is normalized (fits other than
    the reciprocal-line hyperbolic fit leave it unset).

    These fields are the one list of parameter names: model files,
    projection headers and case data take them from here, in this order.
    """

    a: Optional[float] = None
    b: Optional[float] = None
    r: Optional[float] = None
    C: Optional[float] = None


# (required fields, fields that must be nonzero)
_PARAM_RULES: dict[ModelKind, tuple[tuple[str, ...], tuple[str, ...]]] = {
    ModelKind.EXP_CONST: (("a",), ()),
    ModelKind.LINEAR_T: (("a", "b"), ()),
    ModelKind.HYPERBOLIC: (("b",), ("b",)),
    ModelKind.LINEAR_S: (("a", "b"), ("a",)),
    ModelKind.LOGLOG_T: (("a", "b"), ()),
    ModelKind.LOGLOG_S: (("a", "b"), ("a",)),
    ModelKind.RATE_RECIP_LINEAR: (("a", "b"), ("b",)),
    ModelKind.RATE_LN_LINEAR: (("a", "b"), ("b",)),
    ModelKind.RATE_SHIFTED_EXP: (("a", "b", "r"), ("a", "r")),
}

#: Kinds whose rate law takes the current size (directly or through ln S).
SIZE_DEPENDENT_KINDS = frozenset(
    {ModelKind.HYPERBOLIC, ModelKind.LINEAR_S, ModelKind.LOGLOG_T, ModelKind.LOGLOG_S}
)

#: The log-of-size lift: base law -> that law applied to F = ln S. Rates
#: of ln S that a base law fits name the lifted family of the series.
LOG_LIFT = {ModelKind.LINEAR_T: ModelKind.LOGLOG_T, ModelKind.LINEAR_S: ModelKind.LOGLOG_S}

_LIFT_BASE = {lifted: base for base, lifted in LOG_LIFT.items()}


@dataclass(frozen=True)
class Model:
    """A catalog member: kind + parameters + time origin + size unit.

    Evaluation uses t' = t - t_ref. t_ref defaults to 0 so parameters
    quoted against raw calendar years work as-is; shifting t_ref is the
    escape hatch when a + b*t_ref style recentering is needed to keep
    the normalization constant representable.
    """

    kind: ModelKind
    params: Params
    t_ref: float = 0.0
    unit: str = ""

    def __post_init__(self) -> None:
        required, nonzero = _PARAM_RULES[self.kind]
        for name, val in (*vars(self.params).items(), ("t_ref", self.t_ref)):
            if val is None and name in required:
                raise ValidationError(f"{self.kind.value} requires parameter {name!r}")
            if val is not None and name in ("a", "b", "r") and name not in required:
                raise ValidationError(f"{self.kind.value} does not use parameter {name!r}")
            if val is not None and not math.isfinite(val):
                raise ValidationError(f"{self.kind.value} parameter {name!r} must be finite, got {val}")
            if val == 0.0 and name in nonzero:
                raise ValidationError(f"{self.kind.value} requires {name!r} != 0")

    @property
    def is_normalized(self) -> bool:
        return self.params.C is not None


@dataclass(frozen=True)
class Features:
    """Critical point of a trajectory: at most one per model.

    MAXIMUM carries both the year and the value, ASYMPTOTE the value
    only, SINGULARITY the year only; a value that needs C or is beyond
    the float range is left out. NONE is an explicit result (e.g. plain
    exponential growth), never an error. The note says why.
    """

    kind: FeatureKind
    t_star: Optional[float] = None
    s_star: Optional[float] = None
    note: str = ""


def _as_array(t: ArrayLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _require_c(m: Model, positive: bool = False) -> float:
    c = m.params.C
    if c is None:
        raise DomainError(f"{m.kind.value} model is not normalized (C unset)")
    if positive and c <= 0:
        raise DomainError(f"{m.kind.value} requires C > 0 for log-space evaluation, got {c}")
    return c


def _guard_singularity(tp: np.ndarray, t_sing_prime: float, m: Model) -> None:
    """Refuse evaluation within the guard band of a singular time."""
    t_star = m.t_ref + t_sing_prime
    if (np.abs(tp - t_sing_prime) <= SINGULARITY_GUARD_YEARS).any():
        raise SingularityError(
            f"{m.kind.value} trajectory is singular at t = {t_star}; "
            f"evaluation requested within {SINGULARITY_GUARD_YEARS} years"
        )


def _log_recip_denominator(m: Model, tp: np.ndarray) -> np.ndarray:
    """ln of the denominator C e^(-a t') - b/a of the reciprocal forms.

    Works entirely in log space: when the exponential term dominates
    beyond float range, ln D = w + log1p(-(b/a) e^-w) with w = ln|C| - a t',
    so evaluation stays exact for any finite time. Raises DomainError
    where the denominator is not positive.
    """
    a = m.params.a
    b = m.params.b
    c = _require_c(m)
    q = b / a

    def fail() -> None:
        ts_prime = _linear_s_singular_time(a, b, c)
        where = f" (singular at t = {m.t_ref + ts_prime})" if ts_prime is not None else ""
        raise DomainError(
            f"{m.kind.value} trajectory undefined where its denominator <= 0{where}"
        )

    if c == 0.0:
        if -q <= 0:
            fail()
        return np.full_like(tp, math.log(-q))

    def log_denominator(w: np.ndarray) -> np.ndarray:
        denom = math.copysign(1.0, c) * np.exp(w) - q
        if (denom <= 0).any():
            fail()
        return np.log(denom)

    w = math.log(abs(c)) - a * tp
    big = w > 600.0  # exponential term dominates any float-size b/a
    if not big.any():
        return log_denominator(w)
    if c < 0:
        fail()
    out = np.empty_like(w)
    wb = w[big]
    out[big] = wb + np.log1p(-q * np.exp(-wb))
    rest = ~big
    if rest.any():
        out[rest] = log_denominator(w[rest])
    return out


def _linear_s_singular_time(a: float, b: float, c: float) -> Optional[float]:
    """t' where C e^(-a t') = b/a, or None if there is no finite one.

    t' = -ln(b / (a C)) / a; where a C or the quotient is not a normal
    float, the log is ln|b| - ln|a| - ln|C|. Other cases keep their bits.
    """
    if a == 0.0 or b == 0.0 or c == 0.0 or (b < 0.0) != ((a < 0.0) != (c < 0.0)):
        return None  # b / (a C) is not positive
    ac = a * c
    if _NORMAL_MIN <= abs(ac) and _NORMAL_MIN <= b / ac < math.inf:
        log_ratio = math.log(b / ac)
    else:
        log_ratio = math.log(abs(b)) - math.log(abs(a)) - math.log(abs(c))
    ts = -log_ratio / a
    return ts if math.isfinite(ts) else None


def log_trajectory_at(m: Model, t: ArrayLike) -> ArrayLike:
    """ln S(t) of a normalized model; scalar in, scalar out.

    Raises SingularityError within 1e-9 years of a finite-time
    singularity and DomainError where the closed form is undefined
    (e.g. past the singular time of a pseudo-hyperbolic trajectory).
    Quiet: a value beyond the float range is inf or nan, with no numpy
    warning. Evaluated in blocks as :func:`trajectory_at` is.
    """
    with np.errstate(all="ignore"):
        tt = np.asarray(t, dtype=float)
        if tt.size > _BLOCK_POINTS:
            return _in_blocks(m, tt, exp=False)
        return _log_trajectory(m, tt)


def _log_trajectory(m: Model, t: ArrayLike) -> ArrayLike:
    """The log-space evaluation body, with no errstate of its own: each caller sets one."""
    tt, scalar = _as_array(t)
    tp = tt - m.t_ref
    p = m.params
    kind = _LIFT_BASE.get(m.kind, m.kind)

    if kind is ModelKind.EXP_CONST:
        c = _require_c(m, positive=True)
        out = math.log(c) + p.a * tp
    elif m.kind is ModelKind.LOGLOG_T:
        # F = C e^g, not exp(ln C + g): C < 0 for an anchor below S = 1
        out = _require_c(m) * np.exp(p.a * tp + 0.5 * p.b * tp * tp)
    elif kind is ModelKind.LINEAR_T:
        c = _require_c(m, positive=True)
        out = math.log(c) + p.a * tp + 0.5 * p.b * tp * tp
    elif kind is ModelKind.HYPERBOLIC:
        c = _require_c(m)
        _guard_singularity(tp, c / p.b, m)
        denom = c - p.b * tp
        if (denom <= 0).any():
            raise DomainError(
                f"hyperbolic trajectory undefined where C - b*t' <= 0 "
                f"(singular at t = {m.t_ref + c / p.b})"
            )
        out = -np.log(denom)
    elif kind is ModelKind.LINEAR_S:
        c = _require_c(m)
        ts_prime = _linear_s_singular_time(p.a, p.b, c)
        if ts_prime is not None:
            _guard_singularity(tp, ts_prime, m)
        out = -_log_recip_denominator(m, tp)
        if kind is not m.kind:
            out = np.exp(out)  # the base law gives ln F; ln S = F
    elif kind is ModelKind.RATE_RECIP_LINEAR:
        c = _require_c(m, positive=True)
        _guard_singularity(tp, -p.a / p.b, m)
        lin = p.a + p.b * tp
        if (lin <= 0).any():
            raise DomainError(
                f"rate_recip_linear trajectory undefined where a + b*t' <= 0 "
                f"(boundary at t = {m.t_ref - p.a / p.b})"
            )
        out = math.log(c) + np.log(lin) / p.b
    elif kind is ModelKind.RATE_LN_LINEAR:
        c = _require_c(m, positive=True)
        out = math.log(c) + (p.a / p.b) * np.exp(p.b * tp)
    else:  # RATE_SHIFTED_EXP
        c = _require_c(m, positive=True)
        if p.b != 0 and p.a / p.b > 0:
            _guard_singularity(tp, -math.log(p.a / p.b) / p.r, m)
        shifted = p.a - p.b * np.exp(-p.r * tp)
        if (shifted <= 0).any():
            raise DomainError(
                "rate_shifted_exp trajectory undefined where a - b*exp(-r*t') <= 0"
            )
        out = math.log(c) + tp / p.a + np.log(shifted) / (p.r * p.a)

    return float(out) if scalar else np.asarray(out, dtype=float)


def trajectory_at(m: Model, t: ArrayLike) -> ArrayLike:
    """S(t) of a normalized model, exp of the log-space evaluation. Quiet:
    a size beyond the float range is inf or nan, for the caller to name.

    An array of more than ``_BLOCK_POINTS`` points is evaluated in slices
    of about that many, so each slice's temporaries stay in cache; every
    step is elementwise, so the bits are those of one whole-array pass.
    The errors are those of the whole grid, too.
    """
    with np.errstate(all="ignore"):
        tt = np.asarray(t, dtype=float)
        if tt.size > _BLOCK_POINTS:
            return _in_blocks(m, tt, exp=True)
        out = np.exp(_log_trajectory(m, tt))
    return float(out) if out.ndim == 0 else out


def _in_blocks(m: Model, tt: np.ndarray, exp: bool) -> np.ndarray:
    """ln S, or S when ``exp``, of ``tt`` in slices into one output of its shape.

    Each slice runs the checks of ``_log_trajectory`` on its own points,
    so a slice may refuse with another error than the whole grid (whose
    singularity guard runs before its domain test). When one refuses,
    the whole grid is evaluated once more, and raises its own error.
    """
    flat = tt.ravel()
    n = flat.size
    out = np.empty(n)
    k = -(-n // _BLOCK_POINTS)
    try:
        for i in range(k):
            lo, hi = n * i // k, n * (i + 1) // k
            part = _log_trajectory(m, flat[lo:hi])
            if exp:
                np.exp(part, out=out[lo:hi])
            else:
                out[lo:hi] = part
    except (DomainError, SingularityError):
        _log_trajectory(m, tt)
        raise
    return out.reshape(tt.shape)


def rate_at(m: Model, t: ArrayLike, s: Optional[ArrayLike] = None) -> ArrayLike:
    """The rate law of the model evaluated at time t.

    Size-dependent kinds take the current size ``s``; when omitted the
    model must be normalized and s defaults to trajectory_at(m, t). For
    the lifted kinds the returned value is the growth rate of S itself,
    obtained by chain rule from the rate of F = ln S:
    (1/S) dS/dt = dF/dt = F * R_F. Without ``s`` a lifted kind takes F
    from log_trajectory_at(m, t), so its rate stays finite where S is
    beyond the float range. Quiet: a rate beyond the float range is inf
    or nan, with no numpy warning.
    """
    with np.errstate(all="ignore"):
        return _rate(m, t, s)


def _rate(m: Model, t: ArrayLike, s: Optional[ArrayLike]) -> ArrayLike:
    """The rate law body of :func:`rate_at`, which sets its errstate."""
    tt, scalar = _as_array(t)
    tp = tt - m.t_ref
    p = m.params
    kind = _LIFT_BASE.get(m.kind, m.kind)

    if m.kind in SIZE_DEPENDENT_KINDS:
        if kind is m.kind:
            s_arr = np.asarray(trajectory_at(m, tt) if s is None else s, dtype=float)
        elif s is None:  # the base law sees F = ln S, taken where S may overflow
            s_arr = np.asarray(log_trajectory_at(m, tt), dtype=float)
        else:
            s_arr = np.asarray(s, dtype=float)
            if (s_arr <= 0).any():
                raise DomainError(f"{m.kind.value} rate needs s > 0 (it scales with ln s)")
            s_arr = np.log(s_arr)
    else:
        s_arr = None

    if kind is ModelKind.EXP_CONST:
        out = np.full_like(tp, p.a)
    elif kind is ModelKind.LINEAR_T:
        out = p.a + p.b * tp
    elif kind is ModelKind.HYPERBOLIC:
        out = p.b * s_arr
    elif kind is ModelKind.LINEAR_S:
        out = p.a + p.b * s_arr
    elif kind is ModelKind.RATE_RECIP_LINEAR:
        lin = p.a + p.b * tp
        if (lin == 0).any():
            raise SingularityError(f"rate singular where a + b*t' = 0 (t = {m.t_ref - p.a / p.b})")
        out = 1.0 / lin
    elif kind is ModelKind.RATE_LN_LINEAR:
        out = p.a * np.exp(p.b * tp)
    else:  # RATE_SHIFTED_EXP
        shifted = p.a - p.b * np.exp(-p.r * tp)
        if (shifted == 0).any():
            raise SingularityError("rate singular where a - b*exp(-r*t') = 0")
        out = 1.0 / shifted

    if kind is not m.kind:
        out = s_arr * out  # R_S = F * R_F
    return float(out) if scalar else np.asarray(out, dtype=float)


def features(m: Model) -> Features:
    """The model's critical point: maximum, asymptote, singularity, or NONE.

    A feature whose kind or time depends on the normalization constant
    requires a normalized model; a size that does is left out (s_star
    None). A feature whose time is beyond the float range is NONE, and
    a size beyond it is left out; each note names the feature.
    """
    feat = _critical_point(m)
    if feat.t_star is not None and not math.isfinite(feat.t_star):
        return Features(FeatureKind.NONE, note=f"{feat.kind.value} time is beyond the float range")
    if feat.s_star is None and feat.kind in (FeatureKind.MAXIMUM, FeatureKind.ASYMPTOTE):
        return replace(feat, note=f"{feat.kind.value} size requires an anchor")
    if feat.s_star is not None and not math.isfinite(feat.s_star):
        return replace(feat, s_star=None, note=f"{feat.kind.value} size is beyond the float range")
    return feat


def _critical_point(m: Model) -> Features:
    p = m.params
    kind = _LIFT_BASE.get(m.kind, m.kind)
    lifted = kind is not m.kind

    if kind is ModelKind.EXP_CONST:
        return Features(FeatureKind.NONE, note="constant rate: pure exponential, no finite feature")

    if kind is ModelKind.LINEAR_T:
        # a lifted F = C e^g with C < 0 turns the extremum of g upside down
        flip = lifted and _require_c(m) < 0
        t_star = m.t_ref - p.a / p.b if p.b != 0 else None
        if p.b != 0 and (p.b < 0) != flip:
            s_star = trajectory_at(m, t_star) if m.is_normalized else None
            return Features(FeatureKind.MAXIMUM, t_star=t_star, s_star=s_star)
        if flip and p.b < 0:
            where = f"at t = {t_star}" if math.isfinite(t_star) else "beyond the float range"
            return Features(
                FeatureKind.NONE, note=f"C < 0: ln S is negative with a minimum of S {where}"
            )
        return Features(FeatureKind.NONE, note="rate never crosses zero from above (b >= 0)")

    if kind is ModelKind.HYPERBOLIC:
        c = _require_c(m)
        if p.b > 0:
            return Features(FeatureKind.SINGULARITY, t_star=m.t_ref + c / p.b)
        return Features(FeatureKind.NONE, note="b < 0: reciprocal grows, size decays, no feature")

    if kind is ModelKind.LINEAR_S:
        if p.b < 0:
            if p.a > 0:
                s_star = _exp(-p.a / p.b) if lifted else -p.a / p.b
                return Features(FeatureKind.ASYMPTOTE, s_star=s_star)
            return Features(FeatureKind.NONE, note="a < 0 and b < 0: rate negative, decaying size")
        ts = _linear_s_singular_time(p.a, p.b, _require_c(m))
        if ts is None:
            return Features(
                FeatureKind.NONE,
                note="b > 0 but the denominator never vanishes for these parameters",
            )
        return Features(FeatureKind.SINGULARITY, t_star=m.t_ref + ts)

    if kind is ModelKind.RATE_RECIP_LINEAR:
        if p.b < 0:
            return Features(FeatureKind.SINGULARITY, t_star=m.t_ref - p.a / p.b)
        return Features(FeatureKind.NONE, note="b > 0: polynomial-like growth, no finite feature")

    if kind is ModelKind.RATE_LN_LINEAR:
        if p.b < 0:
            return Features(FeatureKind.ASYMPTOTE, s_star=p.C)
        return Features(FeatureKind.NONE, note="b > 0: super-exponential but finite at all times")

    # RATE_SHIFTED_EXP
    return Features(
        FeatureKind.NONE,
        note=f"asymptotically exponential with rate {1.0 / p.a:.6g} per year",
    )


def _check_anchor(t0: float, s0: float) -> None:
    """Refuse an anchor (t0, s0) that is not finite or whose size is not positive."""
    if not (math.isfinite(t0) and math.isfinite(s0)):
        raise ValidationError(f"anchor must be finite, got t0 = {t0}, s0 = {s0}")
    if s0 <= 0:
        raise DomainError(f"anchor size must be positive, got {s0}")


def normalize(m: Model, t0: float, s0: float) -> Model:
    """Fix the normalization constant so the trajectory passes (t0, s0).

    Solves the closed form for C in log-space, so anchoring at calendar
    years with large exponents stays exact. Raises ValidationError for a
    non-finite anchor, DomainError when s0 violates the kind's positivity
    needs or when C falls outside float range (re-express the model with
    t_ref near t0 in that case). A lifted kind anchors its base law at
    F0 = ln s0.
    """
    _check_anchor(t0, s0)
    tp = t0 - m.t_ref
    p = m.params
    kind = _LIFT_BASE.get(m.kind, m.kind)
    if kind is not m.kind:
        s0 = math.log(s0)
        if s0 == 0.0:
            raise DomainError(f"{m.kind.value} cannot anchor at s0 = 1 (ln s0 = 0)")

    # C = 1/s0 + b t0' for hyperbolic, else C = K e^(-g(t0')): K = s0 (only
    # a lifted anchor, ln s0, can be negative, and C takes its sign), or
    # K = 1/s0 + b/a for linear_s. Where math raises on a step (an exp
    # overflows, r a underflows to 0), the trajectory at t0 leaves the
    # float range, and the refusal names that.
    k, why = s0, ""
    try:
        if kind is ModelKind.HYPERBOLIC:
            c = 1.0 / s0 + p.b * tp
        elif kind is ModelKind.LINEAR_S:
            if s0 < 0:
                raise DomainError(f"{m.kind.value} closed form needs ln s0 > 0, got ln s0 = {s0}")
            k, g = 1.0 / s0 + p.b / p.a, -p.a * tp  # C = 0 where K = 0
        elif kind is ModelKind.EXP_CONST:
            g = p.a * tp
        elif kind is ModelKind.LINEAR_T:
            g = p.a * tp + 0.5 * p.b * tp * tp
        elif kind is ModelKind.RATE_RECIP_LINEAR:
            lin = p.a + p.b * tp
            if lin <= 0:
                raise DomainError(f"anchor time outside domain: a + b*t' = {lin} <= 0")
            g = math.log(lin) / p.b
        elif kind is ModelKind.RATE_LN_LINEAR:
            g = (p.a / p.b) * math.exp(p.b * tp)
        else:  # RATE_SHIFTED_EXP
            shifted = p.a - p.b * math.exp(-p.r * tp)
            if shifted <= 0:
                raise DomainError(f"anchor time outside domain: a - b*exp(-r*t') = {shifted} <= 0")
            g = tp / p.a + math.log(shifted) / (p.r * p.a)
        if kind is not ModelKind.HYPERBOLIC:
            log_c = math.log(abs(k)) - g if k else 0.0  # a NaN ln C fails the bound below
            c = k and math.copysign(_exp(log_c), k) if abs(log_c) <= _LOG_FLOAT_LIMIT else math.nan
    except (OverflowError, ZeroDivisionError):
        c, why = math.nan, f"the trajectory leaves the float range at t0 = {t0}"
    if not math.isfinite(c):
        why = why or (f"C = {c}" if kind is ModelKind.HYPERBOLIC else f"ln C = {log_c:.1f}")
        raise DomainError(
            f"normalization constant for {m.kind.value} is not float-representable "
            f"({why}); re-express the model with t_ref near the anchor time"
        )
    return Model(m.kind, Params(p.a, p.b, p.r, c), m.t_ref, m.unit)


def _exp(x: float) -> float:
    """e^x, or inf beyond the float range: the one exp of a derived constant."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def integrate_rational(a: float, b: float, c: float, e: float, x1: float, x2: float) -> float:
    """Integral of dx / ((a + b x)(c + e x)) from x1 to x2.

    Evaluates (1/D) * ln|(a + b x)/(c + e x)| between the endpoints,
    with D = c*b - a*e. The arguments must be finite, the factors must
    not be proportional (D != 0) and neither may vanish anywhere on [x1, x2].
    """
    if not all(map(math.isfinite, (a, b, c, e, x1, x2))):
        raise ValidationError(f"arguments must be finite, got {(a, b, c, e, x1, x2)}")
    delta = c * b - a * e
    if delta == 0.0:
        raise DegenerateFactorError(
            f"factors ({a} + {b} x) and ({c} + {e} x) are proportional (cb - ae = 0)"
        )
    lo, hi = min(x1, x2), max(x1, x2)
    for coef0, coef1, name in ((a, b, "a + b x"), (c, e, "c + e x")):
        if coef1 == 0.0:  # a constant, nonzero since D != 0
            continue
        root = -coef0 / coef1
        if lo <= root <= hi:
            raise SingularIntegrandError(
                f"factor {name} vanishes at x = {root} inside [{lo}, {hi}]"
            )

    def log_ratio(x: float) -> float:
        return math.log(abs((a + b * x) / (c + e * x)))

    return (log_ratio(x2) - log_ratio(x1)) / delta
