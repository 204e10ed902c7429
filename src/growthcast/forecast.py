"""Turning rates or fitted models into trajectories.

Three routes to a trajectory:

* discrete: step the multiplicative inverse of the finite-difference
  rate definition through the rate points, so data -> rates -> data is
  exact to rounding;
* analytic polynomial: S(t) = s0 * exp(P(t) - P(t0)) with P the exact
  antiderivative of a fitted polynomial rate law, valid only inside the
  fitted range (polynomial shapes outside their data range are
  meaningless, so leaving it is refused, not warned about);
* closed form: normalize a catalog model at an anchor and evaluate it
  over a grid, attaching its critical feature.

Each route names the first offending point by ``timeseries._first_at``,
the one rule, and ends in ``_trajectory``, which refuses the first size
beyond the float range (walking out from a discrete anchor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (
    CollapseError,
    ConfigError,
    DomainError,
    NumericError,
    RangeRefusalError,
    ValidationError,
)
from .models import (
    FeatureKind,
    Features,
    Model,
    _check_anchor,
    features as model_features,
    normalize,
    trajectory_at,
)
from .models import SINGULARITY_GUARD_YEARS
from .timeseries import TimeSeries, _first_at

if TYPE_CHECKING:
    from .fitting import PolyFit
    from .rates import RateSeries

Anchor = tuple[float, float]

#: Scenarios closer than this (relative to the smaller value) at a
#: report year are flagged indistinguishable.
INDISTINGUISHABLE_DEFAULT = 0.05

_ANCHOR_ALIGN_YEARS = 1e-9


@dataclass(frozen=True)
class Projection:
    """A projected trajectory with its model, feature, and anchor."""

    series: TimeSeries
    model: Model
    features: Features
    anchor: Anchor
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioRow:
    label: str
    values: tuple[Optional[float], ...]
    features: Features


@dataclass(frozen=True)
class ScenarioReport:
    """Side-by-side values of several projections at named report years.

    ``indistinguishable`` has one entry per report year; None when fewer
    than two scenarios produced a value there.
    """

    report_years: tuple[float, ...]
    rows: tuple[ScenarioRow, ...]
    indistinguishable: tuple[Optional[bool], ...]
    threshold: float
    unit: str = ""


def integrate_discrete(rs: RateSeries, anchor: Anchor) -> TimeSeries:
    """Reconstruct a size trajectory from discrete rates.

    The step rule is the exact algebraic inverse of the finite-difference
    rate: forward S[i+1] = S[i] * (1 + R[i+1] dt), backward by division.
    The anchor time must either coincide with a rate time or precede the
    first one (supplying the leading reference point); an anchor strictly
    between rate times has no well-defined step to bridge.
    """
    t0, s0 = anchor
    _check_anchor(t0, s0)

    times = rs.times
    anchor_idx = _first_at(np.abs(times - t0) <= _ANCHOR_ALIGN_YEARS)
    if anchor_idx is not None:
        grid = times
        step_rates = rs.rates[1:]  # rate 0 has no left neighbor
    elif t0 < times[0] - _ANCHOR_ALIGN_YEARS:
        grid = np.concatenate(([t0], times))
        anchor_idx = 0
        step_rates = rs.rates
    else:
        raise ValidationError(
            f"anchor time {t0} neither matches a rate time nor precedes the first "
            f"rate time {times[0]}"
        )

    # factors[i] = 1 + R dt of the step between grid[i] and grid[i + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        factors = 1.0 + step_rates * (grid[1:] - grid[:-1])
    # the first collapsing step forward, else the backward one nearest the anchor
    i = _first_at(factors <= 0, anchor_idx)
    if i is not None:
        forward = i >= anchor_idx
        raise CollapseError(
            f"{'step' if forward else 'backward step'} into t = {grid[i + forward]} "
            f"would drive the size non-positive (1 + R*dt = {factors[i]})"
        )
    # accumulate is strictly sequential, so each value is the running
    # product (quotient) the step rule defines, rounded step by step; a
    # size beyond the float range becomes inf or nan and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate((
            np.divide.accumulate(np.concatenate(([s0], factors[:anchor_idx][::-1])))[:0:-1],
            np.multiply.accumulate(np.concatenate(([s0], factors[anchor_idx:]))),
        ))
    return _trajectory(grid, values, "discretely integrated size", rs.source_label, anchor_idx)


def integrate_rate_function(
    p: PolyFit, anchor: Anchor, grid: Sequence[float]
) -> TimeSeries:
    """Trajectory of a polynomial rate law via its exact antiderivative.

    ln S(t) = ln s0 + P(t) - P(t0); evaluation refuses any point outside
    the polynomial's fitted range. A size beyond the float range is a
    NumericError naming the first such grid time.
    """
    t0, s0 = anchor
    _check_anchor(t0, s0)
    g = np.asarray(grid, dtype=float)
    points = np.concatenate(([t0], g))
    i = _first_at((points < p.t_min) | (points > p.t_max))
    if i is not None:
        raise RangeRefusalError(
            f"t = {points[i]} lies outside the fitted range [{p.t_min}, {p.t_max}]; "
            "polynomial rate laws are not extrapolated"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(math.log(s0) + p.antiderivative_at(g) - p.antiderivative_at(t0))
    return _trajectory(g, values, "rate-law integral", "rate-law integral")


def project(
    m: Model,
    anchor: Anchor,
    grid: Sequence[float],
    label: str = "",
) -> Projection:
    """Normalize a model at the anchor and evaluate it over the grid.

    A grid of fewer than 2 points is a ValidationError. A grid crossing a
    finite-time singularity is truncated to the points strictly before
    it, with a warning naming the singular time.
    """
    g = _grid(grid)
    t0, s0 = anchor
    normalized = normalize(m, t0, s0)
    return _project_evaluated(normalized, anchor, g, label)


def project_normalized(m: Model, grid: Sequence[float], label: str = "") -> Projection:
    """Project an already-normalized model; the anchor is implicit in C,
    the grid is as for :func:`project`."""
    g = _grid(grid)
    t0 = float(g[0])
    s0 = float(trajectory_at(m, t0))
    return _project_evaluated(m, (t0, s0), g, label)


def _grid(grid: Sequence[float]) -> np.ndarray:
    """``grid`` as a float array; a ValidationError when it has fewer than 2 points."""
    g = np.asarray(grid, dtype=float)
    if g.size < 2:
        raise ValidationError(f"a projection grid needs at least 2 points, got {g.size}")
    return g


def _project_evaluated(m: Model, anchor: Anchor, g: np.ndarray, label: str) -> Projection:
    feat = model_features(m)
    notes: list[str] = []
    if feat.kind is FeatureKind.SINGULARITY:
        cutoff = feat.t_star - SINGULARITY_GUARD_YEARS
        keep = g < cutoff
        if not np.all(keep):
            notes.append(
                f"grid truncated at the singularity t = {feat.t_star}: "
                f"{int((~keep).sum())} point(s) dropped"
            )
            g = g[keep]
    if g.size < 2:
        raise DomainError(
            "fewer than 2 grid points remain before the singularity; nothing to project"
        )
    values = trajectory_at(m, g)
    series = _trajectory(g, values, f"{m.kind.value} size", label or m.kind.value, unit=m.unit)
    return Projection(series=series, model=m, features=feat, anchor=anchor, warnings=tuple(notes))


def _trajectory(
    times: np.ndarray, values: np.ndarray, what: str, label: str, start: int = 0, unit: str = ""
) -> TimeSeries:
    """The sizes as a series; a NumericError names the first size beyond the
    float range, walking out from index ``start`` (see ``_first_at``)."""
    i = _first_at(~np.isfinite(values), start)
    if i is not None:
        raise NumericError(f"{what} is beyond the float range at t = {times[i]}")
    return TimeSeries(times=times, values=values, label=label, unit=unit)


def compare_scenarios(
    projections: Sequence[Projection],
    report_years: Sequence[float],
    threshold: float = INDISTINGUISHABLE_DEFAULT,
) -> ScenarioReport:
    """Tabulate projections at report years and flag near-agreement.

    Years where all scenarios lie within ``threshold`` of each other
    (relative to the smallest value) are marked indistinguishable: up to
    that horizon the data cannot tell the scenarios apart. Values at
    report years come from the models directly, not from grid
    interpolation: one ``trajectory_at`` call over all report years per
    projection, or, when that call raises a NumericError, one call per
    year. A year past a scenario's singularity, or where its size is
    beyond the float range, yields None, and a year where fewer than two
    scenarios have a value is flagged None.
    """
    if not projections:
        raise ConfigError("compare_scenarios needs at least one projection")
    units = {p.series.unit for p in projections}
    if len(units) > 1:
        raise ConfigError(f"projections mix units: {sorted(units)}")

    years = tuple(float(y) for y in report_years)
    rows = []
    for p in projections:
        try:
            vals = trajectory_at(p.model, np.array(years)).tolist()
        except NumericError:  # some year is refused: evaluate them one by one
            vals = [_value_or_nan(p.model, y) for y in years]
        values = tuple(v if math.isfinite(v) else None for v in vals)
        rows.append(
            ScenarioRow(label=p.series.label, values=values, features=p.features)
        )

    flags: list[Optional[bool]] = []
    for j in range(len(years)):
        present = [row.values[j] for row in rows if row.values[j] is not None]
        if len(present) < 2 or min(present) <= 0:
            flags.append(None)
            continue
        spread = (max(present) - min(present)) / min(present)
        flags.append(spread < threshold)

    return ScenarioReport(
        report_years=years,
        rows=tuple(rows),
        indistinguishable=tuple(flags),
        threshold=threshold,
        unit=units.pop(),
    )


def _value_or_nan(m: Model, year: float) -> float:
    """S(year) of ``m``, or nan where the model refuses the year."""
    try:
        return float(trajectory_at(m, year))
    except NumericError:
        return math.nan
