"""Bundled case studies: embedded parameters, checks, and report emission.

The parameters live in ``data/case_studies.json`` (versioned, inspectable)
rather than as source constants. ``run_case`` evaluates each scenario,
compares computed values against the published reference numbers at the
tolerances recorded in the data file, writes plot-ready outputs, and
returns one pass/fail line per check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .fileio import (
    format_features, format_float, write_projection, write_rates, write_scenario_table, write_text,
)
from .fitting import PolyFit
from .forecast import (
    Projection,
    compare_scenarios,
    integrate_rate_function,
    project,
    project_normalized,
)
from .models import Features, Model, ModelKind, Params, features, normalize, rate_at, trajectory_at
from .rates import RateSeries

CASE_NAMES = ("uk-gdpcap", "world-pop", "japan-gdp")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    computed: Optional[float]
    expected_text: str
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        computed = "n/a" if self.computed is None else format_float(self.computed)
        return f"{verdict}  {self.check_id}: computed {computed}, expected {self.expected_text} ({self.detail})"


@dataclass(frozen=True)
class CaseResult:
    name: str
    title: str
    checks: tuple[CheckResult, ...]
    footnotes: tuple[str, ...]
    files: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def load_catalog() -> dict:
    text = resources.files("growthcast").joinpath("data/case_studies.json").read_text("utf-8")
    return json.loads(text)


def _scenario_model(spec: dict, unit: str) -> Model:
    params = Params(**{f.name: spec.get(f.name) for f in fields(Params)})
    return Model(
        kind=ModelKind(spec["kind"]), params=params, t_ref=spec.get("t_ref", 0.0), unit=unit
    )


def _scenario_poly(spec: dict) -> PolyFit:
    p = spec["poly"]
    return PolyFit(
        coefficients=np.array(p["coefficients"], dtype=float),
        degree=int(p["degree"]),
        rms_residual=0.0,
        t_min=float(p["t_min"]),
        t_max=float(p["t_max"]),
    )


def _run_check(
    check: dict, models: dict[str, Model], projections: dict[str, Projection], feats: dict[str, Features]
) -> CheckResult:
    kind = check["type"]
    scenario = check["scenario"]

    if kind == "value":
        proj = projections[scenario]
        computed = float(trajectory_at(proj.model, check["t"]))
    elif kind == "integration_consistency":
        # dual route: closed-form trajectory of the linear rate law vs
        # exact-antiderivative integration of the same law as a polynomial
        m = models[scenario]
        t0, t1 = float(check["t0"]), float(check["t1"])
        grid = np.linspace(t0, t1, 179)
        closed = trajectory_at(normalize(m, t0, 1.0), grid)
        poly = PolyFit(
            coefficients=np.array([m.params.a, m.params.b]),
            degree=1, rms_residual=0.0, t_min=t0 - 1.0, t_max=t1 + 1.0,
        )
        numeric = integrate_rate_function(poly, (t0, 1.0), grid)
        computed = float(np.max(np.abs(numeric.values / closed - 1.0)))
    elif kind == "rate":
        computed = float(rate_at(models[scenario], check["t"]))
    elif kind in ("feature_s", "feature_t_range"):
        feat = feats.get(scenario)
        computed = None if feat is None else (feat.s_star if kind == "feature_s" else feat.t_star)
    elif kind == "stationary_t":
        m = models[scenario]
        computed = m.t_ref - m.params.a / m.params.b
    else:
        raise ConfigError(f"unknown check type {kind!r} in case data")

    if kind == "feature_t_range":
        lo, hi = check["range"]
        passed = computed is not None and lo <= computed <= hi
        return CheckResult(
            check_id=check["id"],
            passed=passed,
            computed=computed,
            expected_text=f"in [{format_float(lo)}, {format_float(hi)}]",
            detail="interval check",
        )

    expected = float(check["expected"])
    if "rel_tol" in check:
        tol = float(check["rel_tol"])
        passed = computed is not None and abs(computed - expected) <= tol * abs(expected)
        diff = float("nan") if computed is None else abs(computed - expected) / abs(expected)
        detail = f"rel diff {diff:.3%} vs tol {tol:.1%}"
    else:
        tol = float(check["abs_tol"])
        passed = computed is not None and abs(computed - expected) <= tol
        diff = float("nan") if computed is None else abs(computed - expected)
        detail = f"abs diff {diff:.3g} vs tol {tol:.3g}"
    return CheckResult(
        check_id=check["id"],
        passed=passed,
        computed=computed,
        expected_text=format_float(expected),
        detail=detail,
    )


def _scenario_features(
    models: dict[str, Model], projections: dict[str, Projection]
) -> dict[str, Features]:
    """Each scenario's feature: its projection's, else its model's unless that needs C."""
    feats = {}
    for name, m in models.items():
        try:
            feats[name] = projections[name].features if name in projections else features(m)
        except DomainError:  # the feature's kind or time needs the unset C
            continue
    return feats


def run_case(name: str, out_dir: Path) -> CaseResult:
    case = load_catalog()["cases"][name]
    unit = case.get("unit", "")
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []

    models: dict[str, Model] = {}
    polys: dict[str, PolyFit] = {}
    projections: dict[str, Projection] = {}
    for spec in case["scenarios"]:
        if "poly" in spec:
            polys[spec["name"]] = _scenario_poly(spec)
            continue
        m = _scenario_model(spec, unit)
        models[spec["name"]] = m
        grid_spec = case.get("grid")
        if grid_spec is None:
            continue
        grid = np.arange(
            grid_spec["start"], grid_spec["stop"] + grid_spec["step"] / 2, grid_spec["step"]
        )
        if "anchor" in spec:
            t0, s0 = spec["anchor"]
            proj = project(m, (t0, s0), grid, label=spec["name"])
        elif m.is_normalized:
            proj = project_normalized(m, grid, label=spec["name"])
        else:
            continue
        projections[spec["name"]] = proj
        path = out_dir / f"{name}_{spec['name']}.csv"
        write_projection(path, proj)
        files.append(str(path))

    if len(projections) >= 2 and case.get("report_years"):
        table = compare_scenarios(list(projections.values()), case["report_years"])
        path = out_dir / f"{name}_scenarios.csv"
        write_scenario_table(path, table)
        files.append(str(path))

    # rate-law tables for cases that ship rate models but no data grid;
    # yearly from start to stop, both included
    spec = case.get("rate_tables")
    if spec is not None:
        t = np.arange(spec["start"], spec["stop"] + 1.0)
        for table in spec["tables"]:
            scenario = table["scenario"]
            if scenario in polys:
                rates = np.asarray(polys[scenario].value_at(t), dtype=float)
            else:
                rates = rate_at(models[scenario], t)
            rs = RateSeries(t, rates, np.ones_like(t), source_label=table["label"])
            path = out_dir / f"{name}_{table['stem']}.csv"
            write_rates(path, rs)
            files.append(str(path))

    feats = _scenario_features(models, projections)
    checks = tuple(_run_check(c, models, projections, feats) for c in case["checks"])
    report_path = out_dir / f"{name}_report.txt"
    lines = [f"# case: {name} ({case['title']})\n"]
    if unit:
        lines.append(f"# unit: {unit}\n")
    lines.extend(c.line() + "\n" for c in checks)
    for scenario, feat in feats.items():
        note = "" if not feat.note else f", ({feat.note})"
        lines.append(f"feature  {scenario}: {format_features(feat)}{note}\n")
    for note in case.get("footnotes", ()):
        lines.append(f"note: {note}\n")
    write_text(report_path, "".join(lines))
    files.append(str(report_path))

    return CaseResult(
        name=name,
        title=case["title"],
        checks=checks,
        footnotes=tuple(case.get("footnotes", ())),
        files=tuple(files),
    )
