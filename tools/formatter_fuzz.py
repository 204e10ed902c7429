"""Compare the bulk data-file formatter with Python's repr on random doubles.

    python tools/formatter_fuzz.py --cells N --seed S

Formats N doubles with ``growthcast.fileio._repr_cells``, in blocks, and
checks every cell against ``repr``. A quarter of the cells are random
bit patterns of finite doubles, a quarter are subnormals, and half are
short decimals (m 10^j and m 2^-j) with their neighbours one ulp below
and above, where the rounding interval's ends decide the digits. Every
cell is drawn with either sign. Prints the count checked and exits 0,
or prints the first mismatch and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from growthcast import fileio  # noqa: E402

BLOCK = 1 << 16


def draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """n finite doubles, either sign: a quarter bit patterns, a quarter
    subnormals, and half short decimals, two thirds of them moved one ulp."""
    q = n // 4
    m = rng.integers(1, 10**7, q).astype(float)
    j = rng.integers(0, 23, q).astype(float)
    decimals = np.where(rng.random(q) < 0.5, m / 10.0**j, m * 10.0**j)
    binary = rng.integers(1, 1 << 30, q) * 2.0 ** rng.integers(-1074, 942, q)
    short = np.concatenate((decimals, binary))
    neighbour = np.nextafter(short, rng.choice([0.0, np.inf], 2 * q))
    short = np.where(rng.random(2 * q) < 1 / 3, short, neighbour)
    x = np.concatenate((
        rng.integers(0, 0x7FF0 << 48, n - 3 * q, dtype=np.uint64).view(float),
        rng.integers(1, 1 << 52, q, dtype=np.uint64).view(float),
        short,
    ))
    return np.where(rng.random(n) < 0.5, x, -x)


def check(x: np.ndarray) -> int:
    """Index of the first cell whose text differs from its repr, or -1."""
    cells = fileio._repr_cells(x)
    ends = np.full((len(x), 1), ord("\n"), np.uint8)
    got = np.hstack((cells, ends)).tobytes().translate(None, fileio._PAD)
    want = "".join(repr(v) + "\n" for v in x.tolist()).encode("ascii")
    if got == want:
        return -1
    for i, (a, b) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
        if a != b:
            return i
    return len(x) - 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=10**6, help="doubles to check (default: 10^6)")
    ap.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    done = 0
    while done < args.cells:
        x = draw(rng, min(BLOCK, args.cells - done))
        i = check(x)
        if i >= 0:
            cell = fileio._repr_cells(x[i : i + 1]).tobytes().replace(fileio._PAD, b"")
            print(f"mismatch at cell {done + i}: bits {x[i:i + 1].view(np.uint64)[0]:#018x}, "
                  f"repr {x[i]!r}, formatter {cell.decode('ascii', 'replace')!r}")
            return 1
        done += len(x)
    print(f"{done} cells match repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
