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
values; 334 runs in all. Every
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
    for stem, text in EDGE_SERIES.items():
        (inputs / f"{stem}.csv").write_text(text, encoding="utf-8")
    (inputs / "long_model.txt").write_text(LONG_MODEL, encoding="utf-8")
    for name, (text, _, _) in FLOAT_RANGE_MODELS.items():
        (inputs / f"{name}.txt").write_text(text, encoding="utf-8")
    (inputs / "overflow_rates.csv").write_text(OVERFLOW_RATES, encoding="utf-8")

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
                rates = f"{d}/rates.csv"
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
