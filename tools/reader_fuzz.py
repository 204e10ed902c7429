"""Compare the table reader's numbers with Python's float on random doubles.

    python tools/reader_fuzz.py --cells N --seed S

Draws N doubles as ``tools/formatter_fuzz.py`` does and writes each one
twice, as its ``repr`` and as a 25-digit decimal, into the columns of a
table, in blocks. Each block is read back by
``growthcast.timeseries.read_table``, and every cell's bits are checked
against ``float`` of its text. The block must be read by numpy's parser,
not by the csv fallback, so that the check is one of the parser. Prints
the count checked and exits 0, or prints the first mismatch and exits 1.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from formatter_fuzz import draw  # noqa: E402
from growthcast import timeseries  # noqa: E402

BLOCK = 1 << 15


def check(x: np.ndarray) -> tuple[int, str, float, float] | None:
    """The first (row, text, float, read) whose read bits differ from
    ``float`` of the text, None if there is none."""
    cells = [(repr(v), f"{v:.24e}") for v in x.tolist()]
    body = [f"{i},{a},{b}" for i, (a, b) in enumerate(cells)]
    if timeseries._numpy_table(body, ",", [1, 2]) is None:
        raise SystemExit("numpy's parser refused a block: the csv fallback read it")
    _, cols = timeseries.read_table(io.StringIO("t,a,b\n" + "\n".join(body)), "t", ("a", "b"))
    for k, name in enumerate(("a", "b")):
        texts = [c[k] for c in cells]
        want = np.array([float(s) for s in texts])
        bad = np.flatnonzero(cols[name].view(np.uint64) != want.view(np.uint64))
        if bad.size:
            i = int(bad[0])
            return i, texts[i], float(want[i]), float(cols[name][i])
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=10**6, help="doubles to check (default: 10^6)")
    ap.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    done = 0
    while done < args.cells:
        x = draw(rng, min(BLOCK, args.cells - done))
        bad = check(x)
        if bad is not None:
            i, text, want, got = bad
            print(f"mismatch at cell {done + i}: text {text!r}, float {want!r}, read {got!r}")
            return 1
        done += len(x)
    print(f"{done} cells match float")
    return 0


if __name__ == "__main__":
    sys.exit(main())
