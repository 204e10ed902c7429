"""Per-layer metrics: derived from spans, plus import-time and floor probes.

A layer metric comes from the spans of the workload's own ops when its
op calls that function, and otherwise from the probe phase of the same
traced run, which calls it on inputs generated from the same seed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import ops

TRACED = (
    "timeseries.load_series",
    "timeseries.transform_series",
    "rates.direct_rates",
    "rates.refined_rates",
    "diagnostics.identify",
    "fitting.fit_rate_model",
    "fitting.fit_reciprocal_series",
    "fitting.scan_shifted_aux",
    "models.normalize",
    "models.features",
    "models.trajectory_at",
    "forecast.project",
    "forecast.compare_scenarios",
    "forecast.integrate_discrete",
    "fileio.write_rates",
    "fileio.read_rates",
    "fileio.write_model",
    "fileio.read_model",
    "fileio.write_projection",
    "cases.run_case",
) + tuple("cli." + c for c in ops.CLI_COMMANDS)

MODULES = ("growthcast",) + tuple(
    "growthcast." + m
    for m in ("errors", "timeseries", "rates", "models", "fitting", "diagnostics",
              "forecast", "fileio", "cases", "cli")
)

# (metric, unit, better) for everything ``derive`` and the probes emit
DERIVED = (
    ("rates.refined_rates.us_per_point", "us", "lower"),
    ("rates.refined_rates.nonuniform.us_per_point", "us", "lower"),
    ("rates.direct_rates.us_per_call", "us", "lower"),
    ("diagnostics.identify.us_per_call", "us", "lower"),
    ("diagnostics.identify.winner_match_ratio", "ratio", "higher"),
    ("fitting.fit_rate_model.us_per_call", "us", "lower"),
    ("fitting.fit_rate_model.dropped_ratio", "ratio", "lower"),
    ("fitting.scan_shifted_aux.ms_per_call", "ms", "lower"),
    ("models.trajectory_at.ns_per_point", "ns", "lower"),
    ("models.normalize.us_per_call", "us", "lower"),
    ("models.features.us_per_call", "us", "lower"),
    ("forecast.project.us_per_call", "us", "lower"),
    ("forecast.project.truncated_ratio", "ratio", "lower"),
    ("forecast.compare_scenarios.us_per_call", "us", "lower"),
    ("forecast.integrate_discrete.us_per_point", "us", "lower"),
    ("fileio.write_projection.us_per_row", "us", "lower"),
    ("fileio.write_rates.us_per_row", "us", "lower"),
    ("fileio.read_rates.us_per_row", "us", "lower"),
    ("timeseries.load_series.us_per_row", "us", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("cases.run_case.ms_per_call", "ms", "lower"),
) + tuple((f"cli.{c}.p50_ms", "ms", "lower") for c in ops.CLI_COMMANDS) + (
    ("cli.import.ms", "ms", "lower"),
) + tuple((f"cli.import.{m.split('.')[-1]}.ms", "ms", "lower") for m in MODULES) + (
    ("floor.python_ms", "ms", "lower"),
    ("floor.numpy_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("as_drawn.failed_ratio", "ratio", "lower"),
)


def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name in TRACED:
        out += [(name + ".calls", "count", "higher"), (name + ".self_s", "s", "lower")]
    return out + list(DERIVED)


def _pick(spans, name: str, where=None) -> list:
    """The workload's own spans of ``name`` (filtered), else the probe's."""
    chosen = [s for s in spans if s.name == name and (where is None or where(s))]
    own = [s for s in chosen if s.phase == "own"]
    return own or chosen


def _dur(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _attr(spans, key) -> float:
    return sum(s.attr(key) for s in spans)


def _per(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def derive(spans) -> dict[str, float]:
    """Per-layer metrics from finished spans (self times filled in)."""
    m: dict[str, float] = {}
    picked = {name: _pick(spans, name) for name in TRACED}
    for name, ss in picked.items():
        m[name + ".calls"] = len(ss)
        m[name + ".self_s"] = sum(s.self_s for s in ss)

    def per_call(name, scale):
        ss = picked[name]
        return _per(_dur(ss), len(ss), scale)

    def per_attr(ss, key, scale):
        return _per(_dur(ss), _attr(ss, key), scale)

    uni = _pick(spans, "rates.refined_rates", lambda s: s.attr("nonuniform") == 0)
    non = _pick(spans, "rates.refined_rates", lambda s: s.attr("nonuniform") == 1)
    m["rates.refined_rates.us_per_point"] = per_attr(uni, "points", 1e6)
    m["rates.refined_rates.nonuniform.us_per_point"] = per_attr(non, "points", 1e6)
    m["rates.direct_rates.us_per_call"] = per_call("rates.direct_rates", 1e6)
    ident = picked["diagnostics.identify"]
    m["diagnostics.identify.us_per_call"] = per_call("diagnostics.identify", 1e6)
    m["diagnostics.identify.winner_match_ratio"] = _per(_attr(ident, "match"), len(ident), 1.0)
    fit = picked["fitting.fit_rate_model"]
    m["fitting.fit_rate_model.us_per_call"] = per_call("fitting.fit_rate_model", 1e6)
    m["fitting.fit_rate_model.dropped_ratio"] = _per(_attr(fit, "dropped"), _attr(fit, "points"), 1.0)
    m["fitting.scan_shifted_aux.ms_per_call"] = per_call("fitting.scan_shifted_aux", 1e3)
    m["models.trajectory_at.ns_per_point"] = per_attr(picked["models.trajectory_at"], "points", 1e9)
    m["models.normalize.us_per_call"] = per_call("models.normalize", 1e6)
    m["models.features.us_per_call"] = per_call("models.features", 1e6)
    proj = picked["forecast.project"]
    m["forecast.project.us_per_call"] = per_call("forecast.project", 1e6)
    m["forecast.project.truncated_ratio"] = _per(_attr(proj, "truncated"), len(proj), 1.0)
    m["forecast.compare_scenarios.us_per_call"] = per_call("forecast.compare_scenarios", 1e6)
    m["forecast.integrate_discrete.us_per_point"] = per_attr(
        picked["forecast.integrate_discrete"], "points", 1e6
    )
    for name in ("fileio.write_projection", "fileio.write_rates", "fileio.read_rates",
                 "timeseries.load_series"):
        m[name + ".us_per_row"] = per_attr(picked[name], "rows", 1e6)
    m["fileio.bytes_written"] = sum(
        _attr(picked[n], "bytes")
        for n in ("fileio.write_rates", "fileio.write_model", "fileio.write_projection")
    )
    m["cases.run_case.ms_per_call"] = per_call("cases.run_case", 1e3)
    for c in ops.CLI_COMMANDS:
        ss = picked["cli." + c]
        m[f"cli.{c}.p50_ms"] = 1e3 * statistics.median([s.end - s.start for s in ss]) if ss else 0.0
    return m


def _wall_ms(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=ops.cli_env(), check=True, capture_output=True, timeout=120)
    return 1e3 * (time.perf_counter() - t0)


def _importtime() -> dict[str, float]:
    """Cumulative import time (us) of each growthcast module and in total."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import growthcast.cli"],
        env=ops.cli_env(), check=True, capture_output=True, text=True, timeout=120,
    )
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), float(cumulative)))
    top = min(depth for depth, _n, _c in rows)
    out = {name: cum for _d, name, cum in rows if name in MODULES}
    out["total"] = sum(cum for d, name, cum in rows if d == top and name.startswith("growthcast"))
    return out


def import_and_floor_metrics(reps: int = 5) -> dict[str, float]:
    py = sys.executable
    m = {
        "floor.python_ms": statistics.median(_wall_ms([py, "-c", "pass"]) for _ in range(reps)),
        "floor.numpy_ms": statistics.median(_wall_ms([py, "-c", "import numpy"]) for _ in range(reps)),
    }
    runs = [_importtime() for _ in range(reps)]
    m["cli.import.ms"] = statistics.median(r["total"] for r in runs) / 1e3
    for mod in MODULES:
        m[f"cli.import.{mod.split('.')[-1]}.ms"] = statistics.median(r.get(mod, 0.0) for r in runs) / 1e3
    return m
