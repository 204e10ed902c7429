"""Run a fixed CLI pipeline and record everything it produces.

    python tools/cli_outputs.py OUT_DIR

Runs ``python -m growthcast.cli`` on this checkout's ``src`` against the
two fixtures in ``tests/data``: rates (direct and refined, untransformed,
log and reciprocal), fit with every linearization (each with and without
``--range``; shifted-ln-vs-t with ``--aux-a 60`` and with
``--scan-aux``), forecast of every fitted model (anchored, and
unanchored when the fit is normalized), integrate (discrete and
``--poly-degree``), diagnose, ``reproduce all``, one anchored forecast
on a 10 001-point grid, longer than one write chunk of the data-file
formatter, forecasts of four hand-written models at the edge of the
float range (three anchored, whose feature time or size is beyond it;
one normalized ``linear_s`` whose a*C underflows), and a few invalid
inputs: edge series (constant, zero values, a duplicate time), each
through ``fit --linearization recip-s-vs-t`` and both rate methods, a
``--poly-degree`` integral beyond the float range, and invalid flag
values. Appended after those: ``diagnose`` by both rate methods on
every edge series and on three more (one through S = 1, one with a
non-positive value, one whose ln-r test keeps 2 points), and a
``--poly-degree`` fit beyond the float range. Appended after those:
discrete integrals that collapse (forward, backward, both ways) or
leave the float range on a backward step, ``rates`` of a reciprocal
beyond the float range and of the log of a non-positive value, and
``diagnose`` on two series whose rates' mean or rms is beyond the float
range. Appended after those: ``diagnose`` on a series of values near
1e-300, whose hyperbolic and ``linear_s`` lines are degenerate, and
``forecast`` and ``integrate --poly-degree 1`` on a one-point grid.
Appended after those: a ``--scan-aux`` fit and a lifted ``r-vs-s``
fit (of log rates), each with ``--unit``, a rates-file fit given
``--time-column`` (refused), and ``diagnose`` on a series whose header
line holds an unclosed quote; 364 runs in all. Every
invocation gets its own directory under OUT_DIR holding the files it
wrote, its stdout, its stderr and its exit code; inputs are copied into
OUT_DIR and named by relative paths, so the tree does not depend on
where the checkout lives.

Two trees compare with ``diff -r``: the same checkout run twice must
give identical trees (determinism), and a refactor must give the tree
of its parent commit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# fixture stem -> (--range for fits, forecast anchor, forecast grid)
FIXTURES = {
    "gdp_per_capita": ("1960:1990", "1950:6000", "1950:2050:1"),
    "logistic_population": ("1920:1980", "1900:2", "1900:2100:1"),
}
RATE_FITS = {
    "r-vs-t": [[]],
    "r-vs-s": [[]],
    "recip-r-vs-t": [[]],
    "ln-r-vs-t": [[]],
    "shifted-ln-vs-t": [["--aux-a", "60"], ["--scan-aux", "40:160"]],
}
# invalid or edge inputs: name -> series file text
EDGE_SERIES = {
    "constant": "t,value\n0,2\n1,2\n2,2\n3,2\n",
    "zero_value": "t,value\n0,1\n1,2\n2,0\n3,4\n4,5\n",
    # long enough for refined rates' default window, so they reach the zero check
    "zero_value_7": "t,value\n0,1\n1,2\n2,3\n3,0\n4,5\n5,6\n6,7\n",
    "duplicate_time": "t,value\n0,1\n1,2\n1,3\n2,4\n",
}
# more edge series for identification, run only through diagnose: name -> series file text
IDENTIFY_EDGE_SERIES = {
    # ln S = 0 at t = 1: the rates of ln S are undefined
    "through_one": "t,value\n0,0.5\n1,1\n2,2\n3,4\n4,8\n5,16\n6,32\n7,64\n",
    "non_positive": "t,value\n0,-2\n1,1\n2,3\n3,4\n4,6\n5,7\n6,9\n",
    # the ln-r test keeps 2 of its 4 direct rates
    "ln_r_keeps_two": "t,value\n0,1\n1,0.5\n2,2\n3,1\n4,3\n",
}
# a model forecast on more grid points than one write chunk holds
# (fileio._CHUNK_ROWS = 8192 rows)
LONG_MODEL = "kind = linear_t\na = 0.252\nb = -0.0001197\nunit = persons\n"
# models at the edge of the float range: name -> (model file text,
# forecast anchor or None for a normalized model's own, forecast grid)
FLOAT_RANGE_MODELS = {
    # t_star = -a/b overflows
    "maximum-time": ("kind = linear_t\na = 1\nb = -6.35e-318\n", "0:1", "0:3:1"),
    # S(t_star) = e^800
    "maximum-size": ("kind = linear_t\na = 40\nb = -1\n", "0:1", "0:3:1"),
    # S* = e^800
    "asymptote-size": ("kind = loglog_s\na = 800\nb = -1\n", "0:10", "0:0.003:0.001"),
    # a C underflows to 0, yet the singular time -9.2e202 is a float
    "singular-time": (
        "kind = linear_s\na = 1e-200\nb = 1\nC = 1e-200\n", None, "-1e203:-9e202:5e201"
    ),
}
# a rates file whose degree-1 integral leaves the float range at t = 3
OVERFLOW_RATES = "t,rate,size\n0,100,1\n1,200,1\n2,300,1\n3,400,1\n"
# a rates file whose degree-1 fit itself leaves the float range
POLY_FIT_OVERFLOW_RATES = "t,rate,size\n0,1e306,1\n500,1e306,1\n1000,1e306,1\n"
# discrete integrals refused: name -> (rates file text, --anchor)
DISCRETE_REFUSALS = {
    "collapse-forward": ("t,rate,size\n0,0.1,1\n1,-2,1\n2,-3,1\n3,0.1,1\n", "0:1"),
    # two backward steps collapse; the one nearest the anchor is named
    "collapse-backward": ("t,rate,size\n0,0.1,1\n1,-2,1\n2,-3,1\n3,0.1,1\n", "3:1"),
    # steps collapse on both sides of the anchor; the forward one is named
    "collapse-both": ("t,rate,size\n0,0.1,1\n1,-2,1\n2,0.1,1\n3,-2,1\n", "2:1"),
    # each backward step divides by 1e-6: beyond the float range at t = 1
    "overflow-backward": (
        "t,rate,size\n0,0.1,1\n1,-0.999999,1\n2,-0.999999,1\n3,-0.999999,1\n", "3:1e300"
    ),
}
# 1/S of 1e-310 is beyond the float range
RECIPROCAL_OVERFLOW = "t,value\n0,1\n1,1e-310\n2,3\n"
# series whose direct rates' squared deviations (first) or sum (second) overflow
RATE_MOMENT_OVERFLOW = {
    "square": "t,value\n0,1\n1,1e170\n2,1e300\n3,1e301\n",
    "mean": "t,value\n0,1\n1e-308,2\n2e-308,3\n3e-308,4\n4e-308,5\n",
}
# values from 1e-300 to 1.3e-299: 1/S near 1e300 and S near 1e-300
# leave the float range when squared, so the hyperbolic and linear_s
# lines are degenerate
TINY_VALUES = (
    "t,value\n0,1e-300\n1,2.5e-300\n2,4e-300\n3,5.5e-300\n4,7e-300\n5,8.5e-300\n"
    "6,1e-299\n7,1.15e-299\n8,1.3e-299\n"
)
# a --grid that gives one point
ONE_POINT_GRID = "0:1:5"
# a header line with an unclosed quote, which runs on into the body
QUOTED_HEADER = 't,"value\n0,1\n1,2\n2,4\n3,8\n4,16\n5,32\n6,64\n7,128\n'
# invalid flag values, run on the first fixture after everything else:
# name -> command and flags
INVALID_FLAGS = {
    "fit-reversed-range": ["fit", "--linearization", "recip-s-vs-t", "--range", "1990:1960",
                           "--out", "model.txt"],
    "diagnose-aux-a-nan": ["diagnose", "--aux-a", "nan"],
    "diagnose-threshold-nan": ["diagnose", "--threshold", "nan"],
}


class Recorder:
    def __init__(self, out: Path) -> None:
        self.out = out
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, name: str, *args: str) -> tuple[int, str]:
        """Run one CLI command in a fresh directory; returns (exit code, its dir)."""
        self.count += 1
        rel = f"runs/{self.count:03d}-{name}"
        work = self.out / rel
        work.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "growthcast.cli", *args],
            cwd=work,
            env=self.env,
            capture_output=True,
            text=True,
        )
        (work / "stdout").write_text(proc.stdout, encoding="utf-8")
        (work / "stderr").write_text(proc.stderr, encoding="utf-8")
        (work / "exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
        return proc.returncode, f"../../{rel}"


def run_pipeline(out: Path) -> int:
    rec = Recorder(out)
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    for stem in FIXTURES:
        shutil.copy(ROOT / "tests" / "data" / f"{stem}.csv", inputs / f"{stem}.csv")
    for stem, text in {**EDGE_SERIES, **IDENTIFY_EDGE_SERIES}.items():
        (inputs / f"{stem}.csv").write_text(text, encoding="utf-8")
    (inputs / "long_model.txt").write_text(LONG_MODEL, encoding="utf-8")
    for name, (text, _, _) in FLOAT_RANGE_MODELS.items():
        (inputs / f"{name}.txt").write_text(text, encoding="utf-8")
    (inputs / "overflow_rates.csv").write_text(OVERFLOW_RATES, encoding="utf-8")
    (inputs / "poly_fit_overflow_rates.csv").write_text(POLY_FIT_OVERFLOW_RATES, encoding="utf-8")
    for name, (text, _) in DISCRETE_REFUSALS.items():
        (inputs / f"{name}.csv").write_text(text, encoding="utf-8")
    (inputs / "reciprocal_overflow.csv").write_text(RECIPROCAL_OVERFLOW, encoding="utf-8")
    for name, text in RATE_MOMENT_OVERFLOW.items():
        (inputs / f"rate_{name}_overflow.csv").write_text(text, encoding="utf-8")
    (inputs / "tiny_values.csv").write_text(TINY_VALUES, encoding="utf-8")
    (inputs / "quoted_header.csv").write_text(QUOTED_HEADER, encoding="utf-8")
    rates_files = {}  # (stem, method, transform) -> rates file

    for stem, (t_range, anchor, grid) in FIXTURES.items():
        series = f"../../inputs/{stem}.csv"
        models = []  # (model file, whether it is normalized)
        for extra in ([], ["--range", t_range]):
            tag = "-range" if extra else ""
            code, d = rec.run(
                f"{stem}-fit-recip-s-vs-t{tag}", "fit", series,
                "--linearization", "recip-s-vs-t", *extra, "--out", "model.txt",
            )
            if code == 0:
                models.append((f"{d}/model.txt", True))
        for method in ("direct", "refined"):
            for transform in ("none", "log", "reciprocal"):
                code, d = rec.run(
                    f"{stem}-rates-{method}-{transform}", "rates", series,
                    "--method", method, "--transform", transform, "--out", "rates.csv",
                )
                if code != 0:
                    continue
                rates = rates_files[stem, method, transform] = f"{d}/rates.csv"
                for lin, variants in RATE_FITS.items():
                    for variant in variants:
                        for extra in ([], ["--range", t_range]):
                            tag = "".join("-" + a.strip("-") for a in variant[:1] + extra[:1])
                            code, d = rec.run(
                                f"{stem}-{method}-{transform}-fit-{lin}{tag}",
                                "fit", rates, "--linearization", lin, *variant, *extra,
                                "--out", "model.txt",
                            )
                            if code == 0:
                                models.append((f"{d}/model.txt", False))
                rec.run(
                    f"{stem}-{method}-{transform}-integrate", "integrate", rates,
                    "--anchor", anchor, "--out", "series.csv",
                )
                if transform == "none":
                    rec.run(
                        f"{stem}-{method}-integrate-poly", "integrate", rates,
                        "--anchor", anchor, "--poly-degree", "3", "--grid", grid,
                        "--out", "series.csv",
                    )
        for model, normalized in models:
            rec.run(
                f"{stem}-forecast-anchored", "forecast", model,
                "--anchor", anchor, "--grid", grid, "--out", "projection.csv",
            )
            if normalized:
                rec.run(
                    f"{stem}-forecast", "forecast", model, "--grid", grid, "--out", "projection.csv"
                )
        for method in ("direct", "refined"):
            for extra in ([], ["--aux-a", "60"]):
                rec.run(
                    f"{stem}-diagnose-{method}{'-aux' if extra else ''}", "diagnose", series,
                    "--method", method, *extra, "--out", "report.txt",
                )

    for stem in EDGE_SERIES:
        rec.run(
            f"{stem}-fit-recip-s-vs-t", "fit", f"../../inputs/{stem}.csv",
            "--linearization", "recip-s-vs-t", "--out", "model.txt",
        )
        for method in ("direct", "refined"):
            rec.run(
                f"{stem}-rates-{method}", "rates", f"../../inputs/{stem}.csv",
                "--method", method, "--out", "rates.csv",
            )
    rec.run("reproduce-all", "reproduce", "all", "--out", "reproduce")
    rec.run(
        "forecast-long-grid", "forecast", "../../inputs/long_model.txt",
        "--anchor", "1950:2.5e9", "--grid", "1950:2050:0.01", "--out", "projection.csv",
    )
    for name, (_, anchor, grid) in FLOAT_RANGE_MODELS.items():
        rec.run(
            f"forecast-{name}", "forecast", f"../../inputs/{name}.txt",
            # --grid=: argparse takes a lone "-1e203:..." for an option
            *(["--anchor", anchor] if anchor else []), f"--grid={grid}", "--out", "projection.csv",
        )
    rec.run(
        "integrate-poly-overflow", "integrate", "../../inputs/overflow_rates.csv",
        "--anchor", "0:1", "--poly-degree", "1", "--grid", "0:3:0.5", "--out", "series.csv",
    )
    series = f"../../inputs/{next(iter(FIXTURES))}.csv"
    for name, (command, *flags) in INVALID_FLAGS.items():
        rec.run(name, command, series, *flags)
    # appended after the runs above, so their directories keep their numbers
    for stem in [*EDGE_SERIES, *IDENTIFY_EDGE_SERIES]:
        for method in ("direct", "refined"):
            rec.run(
                f"{stem}-diagnose-{method}", "diagnose", f"../../inputs/{stem}.csv",
                "--method", method, "--out", "report.txt",
            )
    rec.run(
        "integrate-poly-fit-overflow", "integrate", "../../inputs/poly_fit_overflow_rates.csv",
        "--anchor", "0:1", "--poly-degree", "1", "--grid", "0:1000:250", "--out", "series.csv",
    )
    for name, (_, anchor) in DISCRETE_REFUSALS.items():
        rec.run(
            f"integrate-{name}", "integrate", f"../../inputs/{name}.csv",
            "--anchor", anchor, "--out", "series.csv",
        )
    for stem, transform in (("reciprocal_overflow", "reciprocal"), ("non_positive", "log")):
        rec.run(
            f"{stem}-rates-{transform}", "rates", f"../../inputs/{stem}.csv",
            "--transform", transform, "--out", "rates.csv",
        )
    for name in RATE_MOMENT_OVERFLOW:
        rec.run(
            f"diagnose-rate-{name}-overflow", "diagnose", f"../../inputs/rate_{name}_overflow.csv",
            "--out", "report.txt",
        )
    rec.run(
        "tiny_values-diagnose", "diagnose", "../../inputs/tiny_values.csv", "--out", "report.txt"
    )
    rec.run(
        "forecast-one-point-grid", "forecast", "../../inputs/long_model.txt",
        "--anchor", "0:1", "--grid", ONE_POINT_GRID, "--out", "projection.csv",
    )
    rec.run(
        "integrate-poly-one-point-grid", "integrate", "../../inputs/overflow_rates.csv",
        "--anchor", "0:1", "--poly-degree", "1", "--grid", ONE_POINT_GRID, "--out", "series.csv",
    )
    stem = next(iter(FIXTURES))
    rates, log_rates = (rates_files[stem, "direct", t] for t in ("none", "log"))
    rec.run(
        f"{stem}-direct-none-fit-shifted-ln-vs-t-scan-aux-unit", "fit", rates,
        "--linearization", "shifted-ln-vs-t", "--scan-aux", "40:160", "--unit", "foo",
        "--out", "model.txt",
    )
    rec.run(
        f"{stem}-direct-log-fit-r-vs-s-unit", "fit", log_rates,
        "--linearization", "r-vs-s", "--unit", "1990 Int. GK$", "--out", "model.txt",
    )
    rec.run(
        f"{stem}-direct-none-fit-time-column", "fit", rates,
        "--linearization", "r-vs-t", "--time-column", "zzz", "--out", "model.txt",
    )
    rec.run(
        "quoted_header-diagnose", "diagnose", "../../inputs/quoted_header.csv",
        "--out", "report.txt",
    )
    return rec.count


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} exists and is not empty", file=sys.stderr)
        return 2
    count = run_pipeline(out)
    print(f"{count} CLI runs recorded under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
