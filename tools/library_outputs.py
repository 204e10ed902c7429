"""Record, bit for bit, the library's outputs on the benchmark's inputs.

    python tools/library_outputs.py OUT_DIR

Reads the benchmark's inputs and ops from ``perfbench/`` (read-only:
nothing under ``perfbench/`` is written) and runs them on this
checkout's ``src`` for seeds 7, 11 and 3, as generated and as drawn
(calendar years, no ill-posed draw replaced).

- short-batch: ``perfbench/ops.ShortBatch`` over its 900 series. Each
  (seed, draw) pair gets one file, ``seed<n>-<draw>.txt``, with one
  block per op: the identify report, the direct rates, the fit, the
  fitted model, its features, both projections (normalized model
  included), the scenario table and the scalars. Then the evaluators
  that the op does not call on these models: ``features`` of the fitted
  model before it is normalized, and ``rate_at`` and
  ``log_trajectory_at`` of the projection's model over its grid.
- long-series: the 4 series of ``gen.long_series`` (2·10⁴ points,
  uniform and jittered), built in memory, with no file read or
  written. Each (seed, draw) pair gets ``long-seed<n>-<draw>.txt``,
  with one block per series: ``identify`` on direct and on refined
  rates, both given the law's a, the shifted law's fit on refined
  rates at that a, and the aux scan over [a/2, 2a], as the long-series
  op calls them. These are the fits whose rows are 2·10⁴ points long.

Every float is written as its hex form and every array as its dtype,
shape and raw bytes in hex. An op or a call that raises is written as
its error type and text.

Two trees compare with ``diff -r``: a change that claims to keep the
bits of the library's outputs must give the tree of its parent commit.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11, 3)
# the op's outputs, in the order they are written; "s" (its input) is not one
OUTPUTS = ("ident", "rs", "fit", "model", "feat", "proj", "true_proj", "table", "scalars")


def as_hex(obj) -> str:
    """One deterministic text form of an output, every float in hex."""
    if obj is None or isinstance(obj, (bool, str)):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype}{list(obj.shape)}:{obj.tobytes().hex()}"
    if dataclasses.is_dataclass(obj):
        inner = ", ".join(
            f"{f.name}={as_hex(getattr(obj, f.name))}" for f in dataclasses.fields(obj) if f.repr
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (tuple, list)):
        return "[" + ", ".join(as_hex(v) for v in obj) + "]"
    raise TypeError(f"no hex form for {type(obj).__name__}")


def call_line(key: str, call) -> str:
    """``key`` and the hex form of ``call()``, or of the error it raises."""
    try:
        return f"  {key}: {as_hex(call())}"
    except Exception as exc:  # a call's failure is an output too
        return f"  {key} error: {type(exc).__name__}: {exc}"


def record(wl) -> str:
    """Every op of ``wl``'s pool, one block each."""
    from spans import Tracer

    models = wl.gc.models
    lines = []
    for i in range(wl.pass_size):
        lines.append(f"op {i} {wl.items[i].family}")
        try:
            out = wl.run(i, Tracer(False))
        except Exception as exc:  # an op's failure is an output too
            lines.append(f"  error: {type(exc).__name__}: {exc}")
            continue
        lines.extend(f"  {key}: {as_hex(out[key])}" for key in OUTPUTS)
        m, t = out["proj"].model, out["proj"].series.times
        lines.append(call_line("fit_feat", lambda: models.features(out["model"])))
        lines.append(call_line("rate", lambda: models.rate_at(m, t)))
        lines.append(call_line("log_traj", lambda: models.log_trajectory_at(m, t)))
    return "\n".join(lines) + "\n"


def record_long(gc, seed: int, as_drawn: bool) -> str:
    """The long-series fits of each series of the pool, one block each."""
    import gen
    import ops

    fitting, rates = gc.fitting, gc.rates
    lines = []
    for k in range(ops.LongSeries.pool):
        s = gen.long_series(seed, k, gen.LONG_N, as_drawn)
        a = s.params["a"]
        ts = gc.timeseries.TimeSeries(s.times, s.values, label="long", unit="u")
        lines.append(f"series {k} {'uniform' if s.uniform else 'jittered'} a={as_hex(a)}")
        refined = rates.RateMethod.REFINED
        shifted = fitting.LinearizationKind.SHIFTED_LN_VS_T
        calls = {
            "ident_direct": lambda: gc.diagnostics.identify(ts, aux_a=a),
            "ident_refined": lambda: gc.diagnostics.identify(ts, method=refined, aux_a=a),
            "fit": lambda: fitting.fit_rate_model(rates.refined_rates(ts), shifted, aux_a=a),
            "scan": lambda: fitting.scan_shifted_aux(rates.refined_rates(ts), 0.5 * a, 2.0 * a),
        }
        lines.extend(call_line(key, call) for key, call in calls.items())
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/library_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ops

    gc = ops.import_growthcast()
    for seed in SEEDS:
        for as_drawn in (False, True):
            draw = "as-drawn" if as_drawn else "generated"
            wl = ops.ShortBatch(seed, out_dir, as_drawn=as_drawn)
            wl.gc = gc
            (out_dir / f"seed{seed}-{draw}.txt").write_text(record(wl), encoding="utf-8")
            text = record_long(gc, seed, as_drawn)
            (out_dir / f"long-seed{seed}-{draw}.txt").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
