"""One workload process: inputs, set-up, then a single-caller closed loop.

Started by ``run.py`` in a fresh interpreter, once per set-up sample and
once for the measured or traced loop. Prints one JSON object on stdout.

    --mode setup   generate the warm-up input, import, warm up, report set-up
    --mode run     as setup, then run ops for --seconds with tracing off,
                   then the untimed as-drawn probe
    --mode trace   run ops untraced then traced for --seconds / 2 each,
                   probe the layers the workload's op does not call, and
                   derive the per-layer metrics from the spans; then the
                   as-drawn probe

Op and set-up times are rescaled to the reference machine speed
(speed.py); the raw wall times are kept next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np  # noqa: F401  (its import belongs to set-up, as for growthcast)

import layers
import ops
from checks import CheckFailed, ProgramError
from spans import Tracer
from speed import SpeedMeter, speed_factor

def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def error_key(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    text = re.sub(r"-?\d[\d.e+-]*", "#", text)[:100]
    return f"{type(exc).__name__}: {text}"


def closed_loop(wl, seconds: float, tr: Tracer, record_files: bool = False,
                min_ops: int | None = None) -> dict:
    """Run ops back to back until ``seconds`` pass; one caller, no overlap.

    At least one full pass over the workload's op cycle always runs.
    """
    if min_ops is None:
        min_ops = wl.pass_size
    meter = tr.meter
    latencies: list[float] = []
    raw_latencies: list[float] = []
    attempted = failed = wrong = 0
    errors: Counter = Counter()
    files: list[list] = []
    deadline = time.monotonic() + seconds
    i = 0
    while i < min_ops or time.monotonic() < deadline:
        wl.before(i)
        if meter is not None:
            meter.start()
        t0 = time.perf_counter()
        out = error = None
        try:
            with tr.span("op." + wl.name):
                out = wl.run(i, tr)
        except Exception as exc:  # an op's failure is data, not the end of the run
            error = exc
        if meter is None:
            latencies.append(time.perf_counter() - t0)
            raw_latencies.append(latencies[-1])
        else:
            meter.checkpoint()
            latencies.append(meter.scaled)
            raw_latencies.append(meter.raw)
        attempted += 1
        if out is not None:
            error = out.pop("error", None)
            try:
                wl.check(i, out)
            except CheckFailed as exc:
                wrong += 1
                error = exc
            except ProgramError as exc:
                error = exc
            written = [[p.name, digest(p)] for p in wl.files(i) if p.is_file()] if record_files else []
            if written:
                files.append([i, written])
        if error is not None:
            failed += 1
            prefix = "wrong output: " if isinstance(error, CheckFailed) else ""
            errors[prefix + error_key(error)] += 1
        i += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": dict(errors.most_common()),
        "latencies_s": latencies,
        "raw_latencies_s": raw_latencies,
        "files": files,
    }


def probe_complement(cls, seed: int, workdir: Path, gc, tr: Tracer) -> dict:
    """Run, traced, the op kinds the workload's own op does not use.

    Every per-layer metric then has spans in every traced run; the
    workload's own spans take precedence where both exist.
    """
    report = {}
    for other, count in ((ops.ShortBatch, 18), (ops.LongSeries, 2), (ops.CliCommands, 15)):
        if other is cls:
            continue
        wl = other(seed, workdir / other.name, "probe")
        wl.gc = gc
        loop = closed_loop(wl, 0.0, tr, min_ops=count)
        report[other.name] = {k: loop[k] for k in ("attempted", "failed", "errors")}
    for name in gc.cases.CASE_NAMES:
        tr.call("cases.run_case", gc.cases.run_case, name, workdir / "cases")
    return report


def as_drawn_probe(cls, seed: int, workdir: Path, scale: str, gc) -> dict:
    """One untimed pass of the workload's op over its inputs as first drawn.

    Calendar years, and no ill-posed draw replaced (gen.py): what the
    program's known calendar-year defects do shows here, in every run,
    without failing timed ops. Short-batch runs its whole pool; the
    others run one op cycle at probe size.
    """
    if cls is not ops.ShortBatch and scale == "full":
        scale = "probe"
    wl = cls(seed, workdir / "as-drawn", scale, as_drawn=True)
    wl.gc = gc
    loop = closed_loop(wl, 0.0, Tracer(False), min_ops=wl.pass_size)
    return {k: loop[k] for k in ("attempted", "failed", "wrong", "errors")}


def summarize(loop: dict) -> dict:
    """Throughput and latency over every attempted op, failed ones included.

    Latencies are at reference speed when the loop ran with a meter;
    the raw wall-time figures are kept next to them.
    """
    lat = loop["latencies_s"]
    raw = loop["raw_latencies_s"]
    out = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "samples": len(lat),
    }
    if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
        out["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    cls = ops.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix="w-", dir=args.workdir))

    # set-up in two stretches, each rescaled by the machine's speed right
    # after it: interpreter start with numpy, then growthcast and warm-up
    first = time.monotonic() - args.spawned_at
    first_factor = speed_factor(cls.reference)

    gen_start = time.monotonic()
    warm = cls(args.seed, workdir / "warmup", args.scale, setup_only=True)
    wl = None if args.mode == "setup" else cls(args.seed, workdir, args.scale)
    gen_s = time.monotonic() - gen_start

    second_start = time.monotonic()
    gc = None if cls is ops.CliCommands else ops.import_growthcast()
    for w in (warm, wl):
        if w is not None:
            w.gc = gc
    off = Tracer(False)
    warm.before(0)
    result = {}
    try:  # untimed and unchecked: only the timed ops count
        warm.run(0, off)
    except Exception as exc:
        result["warmup_error"] = error_key(exc)
    second = time.monotonic() - second_start
    result.update(
        setup_s=first * first_factor + second * speed_factor(cls.reference),
        setup_raw_s=first + second,
        gen_s=gen_s,
    )
    children = cls is ops.CliCommands

    if args.mode == "run":
        loop = closed_loop(wl, args.seconds, Tracer(False, SpeedMeter(cls.reference)), record_files=True)
        result.update(loop=loop, summary=summarize(loop), peak_rss_mb=peak_rss_mb(children))
        result["as_drawn"] = as_drawn_probe(cls, args.seed, workdir, args.scale, gc)
    elif args.mode == "trace":
        untraced = closed_loop(wl, args.seconds / 2, Tracer(False, SpeedMeter(cls.reference)))
        tr = Tracer(True, SpeedMeter(cls.reference))
        traced = closed_loop(wl, args.seconds / 2, tr)
        tr.meter = None
        tr.phase = "probe"
        probes = probe_complement(cls, args.seed, workdir / "probe", gc or ops.import_growthcast(), tr)
        tr.finish()
        tr.write(Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = layers.derive(tr.spans)
        metrics.update(layers.import_and_floor_metrics())
        base = summarize(untraced)["ops_per_s"]
        metrics["trace.overhead_ratio"] = summarize(traced)["ops_per_s"] / base if base else 0.0
        drawn = as_drawn_probe(cls, args.seed, workdir, args.scale, gc)
        metrics["as_drawn.failed_ratio"] = drawn["failed"] / drawn["attempted"]
        result.update(loop=traced, untraced=untraced, probes=probes, metrics=metrics,
                      span_count=len(tr.spans), as_drawn=drawn)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
