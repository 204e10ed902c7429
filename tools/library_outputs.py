"""Record, bit for bit, every output of the benchmark's short-batch op.

    python tools/library_outputs.py OUT_DIR

Drives ``perfbench/ops.ShortBatch`` (read-only: its inputs, its op,
nothing under ``perfbench/`` is written) on this checkout's ``src`` for
seeds 7, 11 and 3, over the 900 series as generated and the 900 as
drawn (calendar years, no ill-posed draw replaced). Each (seed, draw)
pair gets one file in OUT_DIR with one block per op: the identify
report, the direct rates, the fit, the fitted model, its features, both
projections (normalized model included), the scenario table and the
scalars, every float written as its hex form and every array as its
dtype, shape and raw bytes in hex. An op that raises is written as its
error type and text.

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


def record(wl) -> str:
    """Every op of ``wl``'s pool, one block each."""
    from spans import Tracer

    lines = []
    for i in range(wl.pass_size):
        lines.append(f"op {i} {wl.items[i].family}")
        try:
            out = wl.run(i, Tracer(False))
        except Exception as exc:  # an op's failure is an output too
            lines.append(f"  error: {type(exc).__name__}: {exc}")
            continue
        lines.extend(f"  {key}: {as_hex(out[key])}" for key in OUTPUTS)
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
            wl = ops.ShortBatch(seed, out_dir, as_drawn=as_drawn)
            wl.gc = gc
            name = f"seed{seed}-{'as-drawn' if as_drawn else 'generated'}.txt"
            (out_dir / name).write_text(record(wl), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
