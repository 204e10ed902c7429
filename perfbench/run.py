"""growthcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload short-batch --seed 1 --seconds 30 --trace 0

Workloads (see README.md): short-batch, long-series, cli-commands. Each
runs in fresh worker processes as a single-caller closed loop; every op
is checked. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 a separate traced run gives the per-layer
metrics. A full record of the run (environment, set-up samples,
failures, sha256 digests of written files) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from layers import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("short-batch", "long-series", "cli-commands")
SETUP_SAMPLES = 7          # fresh processes whose set-up time is measured
BLAS_THREADS = 1           # single caller: one BLAS thread, within nproc
WORKER_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
DETERMINISM_OPS = {"short-batch": 0, "long-series": 2, "cli-commands": 15}


def fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn_worker(args, mode: str, workdir: Path) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--scale", args.scale,
        "--workdir", str(workdir),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned_at)],
        env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "growthcast").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src_digest(),
        "seed": seed,
    }


def determinism_digest(files: list, n_ops: int) -> str | None:
    """One sha256 over the digests of the files the first ``n_ops`` ops wrote."""
    if not n_ops:
        return None
    head = [entry for entry in files if entry[0] < n_ops]
    return hashlib.sha256(json.dumps(head).encode()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's own smoke test")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", 2)
    if not (SRC / "growthcast" / "cli.py").is_file():
        return fail(f"program source not found under {SRC}", 2)
    if args.seconds <= 0:
        return fail("--seconds must be positive", 2)

    # one CPU for the whole process tree: the workers' reference-kernel
    # timings then measure the CPU their ops ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # compile the program's bytecode once, as an installed copy would have it
        prime = subprocess.run([sys.executable, "-c", "import growthcast.cli"],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        if prime.returncode != 0:
            return fail(f"cannot import growthcast:\n{prime.stderr[-2000:]}", 1)
        if args.trace:
            res = spawn_worker(args, "trace", workdir)
            setups = []
        else:
            setups = [spawn_worker(args, "setup", workdir) for _ in range(SETUP_SAMPLES - 1)]
            res = spawn_worker(args, "run", workdir)
            setups.append(res)
            setups = [{k: x[k] for k in ("setup_s", "setup_raw_s")} for x in setups]
        spans = sorted(workdir.glob("spans-*.jsonl.gz"))
        results_dir = OUT / "results"
        results_dir.mkdir(exist_ok=True)
        for s in spans:
            shutil.move(str(s), results_dir / f"{tag}-{s.name}")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = res["loop"]
    attempted, failed = loop["attempted"], loop["failed"]
    summary = {
        "failed_ratio": failed / attempted,
        "setup_samples": len(setups),
        **({} if args.trace else res["summary"]),
    }
    if args.trace:
        units = {name: unit for name, unit, _b in catalog()}
        metrics = {k: metric(v, units[k]) for k, v in res["metrics"].items()}
    else:
        s = res["summary"]
        metrics = {
            "setup_s": metric(statistics.median(x["setup_s"] for x in setups), "s"),
            "ops_per_s": metric(s["ops_per_s"], "1/s"),
            "op_p50_ms": metric(s["op_p50_ms"], "ms"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment(args.seed),
        "setup_s_samples": setups,
        "summary": summary,
        "errors": loop["errors"],
        "wrong_outputs": loop["wrong"],
        "determinism_sha256": determinism_digest(loop.get("files", []), DETERMINISM_OPS[args.workload]),
        "written_files": loop.get("files", []),
        "probes": res.get("probes"),
        "as_drawn": res["as_drawn"],
        "warmup_error": res.get("warmup_error"),
        "metrics": metrics,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# growthcast benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = record["environment"]
    print(f"# env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas_threads={env['blas_threads']} commit={env['git_commit']}")
    if not args.trace:
        s = res["summary"]
        raw_setup = statistics.median(x["setup_raw_s"] for x in setups)
        print("# times at reference speed (see speed.py); raw wall-time figures in parentheses")
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s    (median of {len(setups)} processes; raw {raw_setup:.4f} s)")
        print(f"ops_per_s    {s['ops_per_s']:.4f} 1/s  (n={s['samples']} ops; raw {s['raw_ops_per_s']:.4f})")
        print(f"op_p50_ms    {s['op_p50_ms']:.4f} ms   (n={s['samples']}; raw {s['raw_op_p50_ms']:.4f} ms)")
        if "op_p90_ms" in s:
            print(f"op_p90_ms    {s['op_p90_ms']:.4f} ms   (n={s['samples']})")
        else:
            print(f"op_p90_ms    not reported (n={s['samples']} < 100 ops)")
        print(f"peak_rss_mb  {res['peak_rss_mb']:.2f} MB   "
              f"({'largest child process' if args.workload == 'cli-commands' else 'workload process'})")
    print(f"failed_ratio {failed / attempted:.6f}      (n={attempted}; {failed} failed, "
          f"{loop['wrong']} wrong outputs)")
    for key, count in loop["errors"].items():
        print(f"#   {count} x {key}")
    drawn = res["as_drawn"]
    print(f"# as-drawn probe (calendar years, no draw replaced; untimed, not in failed): "
          f"{drawn['failed']} of {drawn['attempted']} ops failed, {drawn['wrong']} wrong outputs")
    for key, count in drawn["errors"].items():
        print(f"#   {count} x {key}")
    if record["determinism_sha256"]:
        print(f"# determinism sha256 (files of the first {DETERMINISM_OPS[args.workload]} ops): "
              f"{record['determinism_sha256']}")
    if args.trace:
        for k, v in metrics.items():
            print(f"{k:48s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": loop["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
