"""Time the stages ROADMAP quotes hand-measured figures for, the same way.

    python3 perfbench/crosscheck.py

Raw wall time, best of k, as the ROADMAP figures were taken; prints a
markdown table. Used once to check the benchmark's first per-layer
results against those figures (baseline/CROSSCHECK.md).
"""

from __future__ import annotations

import subprocess
import sys
import time
import warnings

import numpy as np

import gen
import ops


def best(fn, k: int = 5) -> float:
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        try:
            fn()
        except ArithmeticError:
            pass  # the calendar-year scan dies part-way; time to the failure
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    gc = ops.import_growthcast()
    warnings.simplefilter("ignore")
    rows = []
    for n, quoted in ((200, 6.5e-3), (2000, 67e-3), (20_000, 0.89)):
        s = gen.long_series(1, 0, n)
        ts = gc.timeseries.TimeSeries(s.times, s.values)
        rows.append((f"refined_rates, n = {n}", quoted, best(lambda: gc.rates.refined_rates(ts), 3)))

    shifted = gen.yearly_series(np.random.default_rng([1, 9]), "rate_shifted_exp", 71, (1e-4, 1e-4), 0.0,
                                calendar=True)
    for label, offset in (("recentred times 0..70", shifted.times[0]), ("calendar years", 0.0)):
        ts = gc.timeseries.TimeSeries(shifted.times - offset, shifted.values)
        rs = gc.rates.direct_rates(ts)
        a = shifted.params["a"]
        rows.append((f"scan_shifted_aux, n = 70, {label}", 35e-3,
                     best(lambda: gc.fitting.scan_shifted_aux(rs, 0.5 * a, 2.0 * a))))

    s = gen.long_series(1, 0, 2000)
    model = gc.models.normalize(
        gc.models.Model(gc.models.ModelKind.RATE_SHIFTED_EXP,
                        gc.models.Params(a=s.params["a"], b=s.params["b"], r=s.params["r"]),
                        t_ref=s.t0),
        float(s.times[-1]), float(s.values[-1]))
    grid = np.linspace(s.times[-1], s.times[-1] + 100.0, 1_000_000)
    rows.append(("trajectory_at, 10^6 points", 31e-3, best(lambda: gc.models.trajectory_at(model, grid))))

    out = ops.ROOT / "perfbench" / "out" / "crosscheck"
    rows.append(("run_case, all three in-process", 4e-3,
                 best(lambda: [gc.cases.run_case(c, out) for c in gc.cases.CASE_NAMES])))
    rows.append(("CLI reproduce all", 0.25, best(lambda: ops.invoke(["reproduce", "all", "--out", str(out)], out))))
    py = [sys.executable, "-c"]
    rows.append(("python -c 'import numpy'", 0.16,
                 best(lambda: subprocess.run(py + ["import numpy"], check=True))))

    print("| stage | ROADMAP | measured (best of k) | ratio |")
    print("|---|---|---|---|")
    for label, quoted, got in rows:
        print(f"| {label} | {quoted * 1e3:.4g} ms | {got * 1e3:.4g} ms | {got / quoted:.2f} |")


if __name__ == "__main__":
    main()
