"""Run a fixed CLI pipeline and record everything it produces.

    python tools/cli_outputs.py OUT_DIR

Runs ``python -m growthcast.cli`` on this checkout's ``src`` against the
two fixtures in ``tests/data``: rates (direct and refined, untransformed,
log and reciprocal), fit with every linearization (each with and without
``--range``; shifted-ln-vs-t with ``--aux-a 60`` and with
``--scan-aux``), forecast of every fitted model (anchored, and
unanchored when the fit is normalized), integrate (discrete and
``--poly-degree``), diagnose, ``reproduce all``, and a few invalid
inputs. Every invocation gets its own directory under OUT_DIR holding
the files it wrote, its stdout, its stderr and its exit code; inputs
are copied into OUT_DIR and named by relative paths, so the tree does
not depend on where the checkout lives.

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
    "duplicate_time": "t,value\n0,1\n1,2\n1,3\n2,4\n",
}
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
    rec.run("reproduce-all", "reproduce", "all", "--out", "reproduce")
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
