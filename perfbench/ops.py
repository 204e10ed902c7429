"""The three workloads: their inputs, one op each, and its checks.

An op is what one caller asks of growthcast and waits for. ``run``
makes only program calls (it is what gets timed); ``check`` verifies
the outputs afterwards and raises CheckFailed on a wrong one. Every
call into growthcast goes through ``tr.call`` so that a traced run can
record a span around it.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
from checks import (
    ProgramError,
    close,
    feature_decisive,
    finite_positive,
    line_recovery,
    linearized,
    check_refined_rates,
    require,
    scan_grid_best_r2,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_growthcast():
    """Import the program from the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import growthcast
    from growthcast import cases, cli, diagnostics, fileio, fitting, forecast, models, rates, timeseries

    return growthcast


def write_series(path: Path, times, values, label: str = "", unit: str = "u") -> None:
    """The benchmark's own writer for input files (shortest exact floats)."""
    lines = [f"# label: {label}\n", f"# unit: {unit}\n", "t,value\n"]
    lines += [f"{t!r},{v!r}\n" for t, v in zip(times.tolist(), values.tolist())]
    path.write_text("".join(lines), encoding="utf-8")


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a delimited output file."""
    header = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append([float(c) for c in cells])
    require(header is not None, f"{path.name}: no header")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def read_model_file(path: Path) -> dict:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
    out = {k: float(v) for k, v in fields.items() if k not in ("kind", "unit")}
    out["kind"] = fields.get("kind")
    return out


def fitted_kind(family: str) -> str:
    # exp_const has no linearization of its own: r-vs-t fits linear_t with b ~ 0
    return "linear_t" if family == "exp_const" else family


# --------------------------------------------------------------------------
# short-batch


class ShortBatch:
    """One yearly series through identify, rates, fit, normalize and project."""

    name = "short-batch"
    pool = 900          # 100 series of each family, cycled
    reference = "kernel"  # speed reference (speed.py)
    grid_years = 100
    report_offsets = (10.0, 30.0, 60.0)

    def __init__(self, seed: int, workdir: Path, scale: str = "full", setup_only: bool = False,
                 as_drawn: bool = False):
        count = 1 if setup_only else (18 if scale in ("tiny", "probe") else self.pool)
        self.items = gen.short_batch(seed, count, as_drawn=as_drawn)
        self.gc = None

    @property
    def pass_size(self) -> int:
        return len(self.items)

    def before(self, i: int) -> None:
        pass

    def files(self, i: int) -> list[Path]:
        return []

    def run(self, i: int, tr):
        gc = self.gc
        s = self.items[i % len(self.items)]
        fam = s.family
        lin = gc.fitting.LinearizationKind(gen.LINEARIZATION[fam])
        ts = gc.timeseries.TimeSeries(s.times, s.values, label=fam, unit="u")
        ident = tr.call("diagnostics.identify", gc.diagnostics.identify, ts)
        tr.note("diagnostics.identify", match=ident.winner.model_kind.value == fam)
        base = ts
        if fam in gen.LOG_FAMILIES:
            base = tr.call(
                "timeseries.transform_series", gc.timeseries.transform_series,
                ts, gc.timeseries.TransformKind.LOG,
            )
        rs = tr.call("rates.direct_rates", gc.rates.direct_rates, base)
        if fam == "hyperbolic":
            fit = tr.call("fitting.fit_reciprocal_series", gc.fitting.fit_reciprocal_series, ts)
        else:
            aux = s.params["a"] if fam == "rate_shifted_exp" else None
            fit = tr.call("fitting.fit_rate_model", gc.fitting.fit_rate_model, rs, lin, aux_a=aux)
            tr.note(
                "fitting.fit_rate_model",
                dropped=fit.line.dropped_points,
                points=fit.line.n_points + fit.line.dropped_points,
            )
        model = fit.model
        if fam in gen.LOG_FAMILIES:
            model = dataclasses.replace(model, kind=gc.models.ModelKind(fam))
        anchor = (float(s.times[-1]), float(s.values[-1]))
        normalized = tr.call("models.normalize", gc.models.normalize, model, *anchor)
        feat = tr.call("models.features", gc.models.features, normalized)
        grid = np.arange(anchor[0], anchor[0] + self.grid_years + 0.5, 1.0)
        proj = tr.call("forecast.project", gc.forecast.project, model, anchor, grid, label="fit")
        tr.note("forecast.project", truncated=bool(proj.warnings))
        p = s.params
        truth = gc.models.Model(
            kind=gc.models.ModelKind(fam),
            params=gc.models.Params(a=p.get("a"), b=p.get("b"), r=p.get("r")),
            t_ref=s.t0,
            unit=model.unit,
        )
        true_proj = tr.call("forecast.project", gc.forecast.project, truth, anchor, grid, label="law")
        tr.note("forecast.project", truncated=bool(true_proj.warnings))
        years = [anchor[0] + d for d in self.report_offsets]
        table = tr.call(
            "forecast.compare_scenarios", gc.forecast.compare_scenarios, [proj, true_proj], years
        )
        scalars = []
        for y in years:
            try:
                scalars.append(tr.call("models.trajectory_at", gc.models.trajectory_at, proj.model, y))
            except gc.errors.NumericError:
                scalars.append(None)
            tr.note("models.trajectory_at", points=1)
        return dict(s=s, ident=ident, rs=rs, fit=fit, model=model, feat=feat,
                    proj=proj, true_proj=true_proj, table=table, scalars=scalars)

    def check(self, i: int, out) -> None:
        s = out["s"]
        fam = s.family
        lin = gen.LINEARIZATION[fam]
        rs = out["rs"]
        v = np.log(s.values) if fam in gen.LOG_FAMILIES else s.values
        require(np.array_equal(rs.times, s.times[1:]), "direct rate times")
        close(rs.rates, np.diff(v) / (v[:-1] * np.diff(s.times)), 1e-12, "direct rates")
        if fam == "hyperbolic":
            x, y = linearized(lin, s.times, s.values, s.values)
        else:
            aux = s.params["a"] if fam == "rate_shifted_exp" else None
            x, y = linearized(lin, rs.times, rs.rates, rs.sizes, aux)
        model = out["model"]
        require(model.kind.value == fitted_kind(fam), f"fitted kind {model.kind.value}")
        params = dataclasses.asdict(model.params)
        bounds = line_recovery(s, lin, x, y, params, model.t_ref)
        if feature_decisive(s, bounds):
            got = out["feat"].kind.value
            require(got == s.expected_feature, f"feature {got}, law has {s.expected_feature}")
        for key in ("proj", "true_proj"):
            proj = out[key]
            finite_positive(proj.series.values, key)
            require(proj.series.values.size >= 2, f"{key}: fewer than 2 points")
            if proj.warnings:
                require(proj.features.kind.value == "singularity", f"{key}: truncated without singularity")
        row = out["table"].rows[0]
        for got, want in zip(row.values, out["scalars"]):
            require(got == want, "compare_scenarios disagrees with trajectory_at")


# --------------------------------------------------------------------------
# long-series


class LongSeries:
    """A 2e4-point series through file I/O, refined rates, scan and a 1e6 grid."""

    name = "long-series"
    pool = 4            # even items uniform, odd items jittered
    reference = "kernel"
    pass_size = 2       # one uniform and one jittered op
    sizes = {"full": (gen.LONG_N, gen.LONG_GRID_POINTS), "probe": (2000, 100_000),
             "warmup": (1000, 50_000), "tiny": (600, 20_000)}

    def __init__(self, seed: int, workdir: Path, scale: str = "full", setup_only: bool = False,
                 as_drawn: bool = False):
        self.dir = workdir / "long"
        self.dir.mkdir(parents=True, exist_ok=True)
        n, self.grid_points = self.sizes["warmup" if setup_only else scale]
        count = 1 if setup_only else self.pool
        self.items = [gen.long_series(seed, k, n, as_drawn) for k in range(count)]
        self.inputs = []
        for k, s in enumerate(self.items):
            path = self.dir / f"series_{k}.csv"
            write_series(path, s.times, s.values, label="long")
            self.inputs.append(path)
        self.rates_path = self.dir / "rates.csv"
        self.model_path = self.dir / "model.txt"
        self.proj_path = self.dir / "projection.csv"
        self.gc = None

    def before(self, i: int) -> None:
        pass

    def files(self, i: int) -> list[Path]:
        return [self.rates_path, self.model_path, self.proj_path]

    def run(self, i: int, tr):
        gc = self.gc
        k = i % len(self.items)
        s = self.items[k]
        n = s.times.size
        ts = tr.call("timeseries.load_series", gc.timeseries.load_series, self.inputs[k], "t", "value")
        tr.note("timeseries.load_series", rows=n)
        rs = tr.call("rates.refined_rates", gc.rates.refined_rates, ts)
        tr.note("rates.refined_rates", points=n, nonuniform=int(not s.uniform))
        tr.call("fileio.write_rates", gc.fileio.write_rates, self.rates_path, rs, unit="u")
        if tr.enabled:
            tr.note("fileio.write_rates", rows=n, bytes=self.rates_path.stat().st_size)
        rs2, _meta = tr.call("fileio.read_rates", gc.fileio.read_rates, self.rates_path)
        tr.note("fileio.read_rates", rows=n)
        a = s.params["a"]
        ident = tr.call(
            "diagnostics.identify", gc.diagnostics.identify, ts,
            method=gc.rates.RateMethod.REFINED, aux_a=a,
        )
        tr.note("diagnostics.identify", match=ident.winner.model_kind.value == s.family)
        shifted = gc.fitting.LinearizationKind.SHIFTED_LN_VS_T
        fit = tr.call("fitting.fit_rate_model", gc.fitting.fit_rate_model, rs2, shifted, aux_a=a)
        tr.note(
            "fitting.fit_rate_model",
            dropped=fit.line.dropped_points,
            points=fit.line.n_points + fit.line.dropped_points,
        )
        # the scan is checked but does not feed the later stages, so an op
        # does the same work whether or not the scan raises; a raised
        # error is reported with the op's outputs and counts it as failed
        lo, hi = 0.5 * a, 2.0 * a
        error = a_scan = scan = None
        try:
            a_scan, scan = tr.call("fitting.scan_shifted_aux", gc.fitting.scan_shifted_aux, rs2, lo, hi)
        except Exception as exc:
            error = exc
        tr.call("fileio.write_model", gc.fileio.write_model, self.model_path, fit.model)
        if tr.enabled:
            tr.note("fileio.write_model", bytes=self.model_path.stat().st_size)
        model = tr.call("fileio.read_model", gc.fileio.read_model, self.model_path)
        anchor = (float(s.times[-1]), float(s.values[-1]))
        grid = np.linspace(anchor[0], anchor[0] + gen.LONG_GRID_YEARS, self.grid_points)
        proj = tr.call("forecast.project", gc.forecast.project, model, anchor, grid)
        tr.note("forecast.project", truncated=bool(proj.warnings))
        traj = tr.call("models.trajectory_at", gc.models.trajectory_at, proj.model, proj.series.times)
        tr.note("models.trajectory_at", points=proj.series.times.size)
        tr.call("fileio.write_projection", gc.fileio.write_projection, self.proj_path, proj)
        if tr.enabled:
            tr.note("fileio.write_projection", rows=proj.series.times.size,
                    bytes=self.proj_path.stat().st_size)
        direct = tr.call("rates.direct_rates", gc.rates.direct_rates, ts)
        recon = tr.call(
            "forecast.integrate_discrete", gc.forecast.integrate_discrete,
            direct, (float(ts.times[0]), float(ts.values[0])),
        )
        tr.note("forecast.integrate_discrete", points=len(direct))
        return dict(s=s, ts=ts, rs=rs, rs2=rs2, fit=fit, a_scan=a_scan, scan=scan,
                    model=model, proj=proj, traj=traj, recon=recon, lo=lo, hi=hi, error=error)

    def check(self, i: int, out) -> None:
        s = out["s"]
        ts = out["ts"]
        require(np.array_equal(ts.times, s.times) and np.array_equal(ts.values, s.values),
                "load_series does not return the written series")
        rs, rs2 = out["rs"], out["rs2"]
        require(np.array_equal(rs.times, s.times), "refined rate times")
        check_refined_rates(s.times, s.values, rs.rates, "refined rates")
        for field in ("times", "rates", "sizes"):
            require(np.array_equal(getattr(rs, field), getattr(rs2, field)),
                    f"rates file round trip changed {field}")
        require(rs2.method.value == "refined", "rates file lost its method")
        a = s.params["a"]
        fit = out["fit"]
        x, y = linearized("shifted-ln-vs-t", rs2.times, rs2.rates, rs2.sizes, a)
        line_recovery(s, "shifted-ln-vs-t", x, y, dataclasses.asdict(fit.model.params), fit.model.t_ref)
        a_scan, scan = out["a_scan"], out["scan"]
        if scan is not None:
            lo, hi = out["lo"], out["hi"]
            step = (hi - lo) / 199
            require(lo - step <= a_scan <= hi + step, "scan left its range")
            require(scan.model.params.a == a_scan, "scan model does not carry the chosen a")
            best = scan_grid_best_r2(rs2.times, rs2.rates, lo, hi)
            require(scan.line.r_squared >= best - 1e-9, "scan r^2 below its own grid's best")
        require(out["model"] == fit.model, "model file round trip is not exact")
        proj = out["proj"]
        require(proj.series.values.size == self.grid_points, "projection truncated")
        finite_positive(proj.series.values, "projection")
        require(np.array_equal(out["traj"], proj.series.values), "trajectory_at disagrees with project")
        self._check_projection_file(proj)
        recon = out["recon"]
        require(np.array_equal(recon.times, ts.times), "integrate_discrete times")
        close(recon.values, ts.values, 1e-9, "integrate_discrete round trip")

    def _check_projection_file(self, proj) -> None:
        data = self.proj_path.read_bytes()
        body = [ln for ln in data.split(b"\n", 64)[:64] if ln and not ln.startswith(b"#")]
        require(body and body[0] == b"t,value", "projection file header")
        comment_lines = data[: data.index(b"t,value")].count(b"\n")
        rows = data.count(b"\n") - comment_lines - 1
        require(rows == proj.series.values.size, f"projection file has {rows} rows")
        t_last, v_last = data.rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")
        require(float(t_last) == proj.series.times[-1] and float(v_last) == proj.series.values[-1],
                "projection file last row")


# --------------------------------------------------------------------------
# cli-commands


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """One ``python -m growthcast.cli`` invocation with src on the path."""
    return subprocess.run(
        [sys.executable, "-m", "growthcast.cli", *argv],
        cwd=cwd, env=cli_env(), capture_output=True, text=True, timeout=120,
    )


# (command, expected exit: 0, or "error" for exit 2 or 3 with an error: line)
CLI_MIX = (
    ("rates", 0, "rates_logistic"),
    ("rates", 0, "rates_shifted_refined"),
    ("rates", 0, "rates_lint"),
    ("fit", 0, "fit_logistic"),
    ("fit", 0, "fit_shifted_scan"),
    ("fit", 0, "fit_lint"),
    ("forecast", 0, "forecast_logistic"),
    ("forecast", 0, "forecast_shifted"),
    ("forecast", 0, "forecast_lint"),
    ("integrate", 0, "integrate_logistic"),
    ("diagnose", 0, "diagnose_refined"),
    ("reproduce", 0, "reproduce_all"),
    ("rates", "error", "invalid_zero_value"),
    ("rates", "error", "invalid_duplicated_time"),
    ("forecast", "error", "invalid_grid_past_singularity"),
)
CLI_COMMANDS = ("rates", "fit", "forecast", "integrate", "diagnose", "reproduce")


class CliCommands:
    """One CLI invocation per op, in a fixed round-robin mix of 15."""

    name = "cli-commands"
    pool = 4            # distinct generated file sets, one per round, cycled
    reference = "spawn"  # its ops are mostly process start
    pass_size = len(CLI_MIX)

    def __init__(self, seed: int, workdir: Path, scale: str = "full", setup_only: bool = False,
                 as_drawn: bool = False):
        n = 60 if scale == "tiny" else gen.CLI_N
        count = 1 if setup_only or scale in ("tiny", "probe") else self.pool
        self.sets = []
        for k in range(count):
            d = workdir / "cli" / f"set{k}"
            d.mkdir(parents=True, exist_ok=True)
            fs = gen.cli_set(seed, k, n, as_drawn)
            for key in ("logistic", "lint", "shifted", "zero", "dup"):
                write_series(d / f"{key}.csv", fs[key].times, fs[key].values, label=key)
            h = fs["hyper"]
            (d / "hyper.txt").write_text(
                f"kind = hyperbolic\nb = {h['b']!r}\nC = {h['C']!r}\nt_ref = 0.0\n", encoding="utf-8"
            )
            self.sets.append((d, fs))
        self.gc = None

    def _where(self, i: int):
        d, fs = self.sets[(i // len(CLI_MIX)) % len(self.sets)]
        return d, fs, CLI_MIX[i % len(CLI_MIX)]

    def _argv(self, step: str, fs: dict) -> list[str]:
        def num(x) -> str:
            return repr(float(x))

        def anchor(s):
            return f"{num(s.times[-1])}:{num(s.values[-1])}"

        def grid(s):
            return f"{num(s.times[-1])}:{num(s.times[-1] + 100.0)}:1"

        lg, sh, lt = fs["logistic"], fs["shifted"], fs["lint"]
        a = sh.params["a"]
        return {
            "rates_logistic": ["rates", "logistic.csv", "--out", "r_logistic.csv"],
            "rates_shifted_refined": ["rates", "shifted.csv", "--method", "refined", "--out", "r_shifted.csv"],
            "rates_lint": ["rates", "lint.csv", "--out", "r_lint.csv"],
            "fit_logistic": ["fit", "r_logistic.csv", "--linearization", "r-vs-s", "--out", "m_logistic.txt"],
            "fit_shifted_scan": ["fit", "r_shifted.csv", "--linearization", "shifted-ln-vs-t",
                                 "--scan-aux", f"{num(0.5 * a)}:{num(2.0 * a)}", "--out", "m_shifted.txt"],
            "fit_lint": ["fit", "r_lint.csv", "--linearization", "r-vs-t", "--out", "m_lint.txt"],
            "forecast_logistic": ["forecast", "m_logistic.txt", "--anchor", anchor(lg), "--grid", grid(lg),
                                  "--out", "p_logistic.csv"],
            "forecast_shifted": ["forecast", "m_shifted.txt", "--anchor", anchor(sh), "--grid", grid(sh),
                                 "--out", "p_shifted.csv"],
            "forecast_lint": ["forecast", "m_lint.txt", "--anchor", anchor(lt), "--grid", grid(lt),
                              "--out", "p_lint.csv"],
            "integrate_logistic": ["integrate", "r_logistic.csv", "--anchor",
                                   f"{num(lg.times[0])}:{num(lg.values[0])}", "--out", "recon.csv"],
            "diagnose_refined": ["diagnose", "logistic.csv", "--method", "refined"],
            "reproduce_all": ["reproduce", "all", "--out", "repro"],
            "invalid_zero_value": ["rates", "zero.csv", "--out", "r_zero.csv"],
            "invalid_duplicated_time": ["rates", "dup.csv", "--out", "r_dup.csv"],
            "invalid_grid_past_singularity": ["forecast", "hyper.txt", "--grid",
                                              ":".join(num(g) for g in fs["hyper_grid"]), "--out", "p_hyper.csv"],
        }[step]

    _outputs = {
        "rates_logistic": "r_logistic.csv", "rates_shifted_refined": "r_shifted.csv",
        "rates_lint": "r_lint.csv", "fit_logistic": "m_logistic.txt",
        "fit_shifted_scan": "m_shifted.txt", "fit_lint": "m_lint.txt",
        "forecast_logistic": "p_logistic.csv", "forecast_shifted": "p_shifted.csv",
        "forecast_lint": "p_lint.csv", "integrate_logistic": "recon.csv",
    }

    def before(self, i: int) -> None:
        """Clear the previous round's outputs so no op reads a stale file."""
        if i % len(CLI_MIX):
            return
        d, _fs, _ = self._where(i)
        for name in list(self._outputs.values()):
            for p in (d / name, d / (name + ".meta")):
                p.unlink(missing_ok=True)
        shutil.rmtree(d / "repro", ignore_errors=True)

    def files(self, i: int) -> list[Path]:
        d, _fs, (_cmd, _exp, step) = self._where(i)
        if step == "reproduce_all":
            return sorted((d / "repro").glob("*"))
        name = self._outputs.get(step)
        return [d / name, d / (name + ".meta")] if name else []

    def run(self, i: int, tr):
        d, fs, (cmd, _expected, step) = self._where(i)
        proc = tr.call("cli." + cmd, invoke, self._argv(step, fs), d)
        return dict(proc=proc)

    def check(self, i: int, out) -> None:
        d, fs, (cmd, expected, step) = self._where(i)
        proc = out["proc"]
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            raise ProgramError(f"{step}: exit {proc.returncode} with a traceback: {last[:100]}")
        if expected == "error":
            # accepting the invalid input is a wrong output; any other exit a failure
            require(proc.returncode != 0, f"{step}: invalid input accepted with exit 0")
            if proc.returncode not in (2, 3):
                raise ProgramError(f"{step}: exit {proc.returncode}, expected 2 or 3")
            require(any(ln.startswith("error:") for ln in proc.stderr.splitlines()),
                    f"{step}: no error: line on stderr")
            return
        if proc.returncode != 0:
            raise ProgramError(f"{step}: exit {proc.returncode}: {proc.stderr.strip()[:100]}")
        getattr(self, "_check_" + step.split("_")[0])(d, fs, step, proc)

    def _check_rates(self, d, fs, step, proc) -> None:
        key = step.split("_")[1]
        s = fs[key]
        _h, rows = read_table(d / self._outputs[step])
        if step == "rates_shifted_refined":
            require(np.array_equal(rows[:, 0], s.times), "refined rate times")
            check_refined_rates(s.times, s.values, rows[:, 1], "refined rates")
            return
        require(np.array_equal(rows[:, 0], s.times[1:]), "direct rate times")
        close(rows[:, 1], np.diff(s.values) / (s.values[:-1] * np.diff(s.times)), 1e-12, "direct rates")
        require(np.array_equal(rows[:, 2], s.values[1:]), "direct rate sizes")

    def _check_fit(self, d, fs, step, proc) -> None:
        key = step.split("_")[1]
        s = fs[key]
        m = read_model_file(d / self._outputs[step])
        _h, rows = read_table(d / ("r_" + key + ".csv"))
        t, r, sz = rows[:, 0], rows[:, 1], rows[:, 2]
        require(m["kind"] == s.family, f"fitted kind {m['kind']}")
        if key != "shifted":
            lin = gen.LINEARIZATION[s.family]
            x, y = linearized(lin, t, r, sz)
            line_recovery(s, lin, x, y, m, m.get("t_ref", 0.0))
            return
        # the scan must score at least its own grid's best r^2, and the
        # model must carry the least-squares line at the a it chose
        lo, hi = 0.5 * s.params["a"], 2.0 * s.params["a"]
        step = (hi - lo) / 199
        require(lo - step <= m["a"] <= hi + step, "scan left its range")
        x, y = linearized("shifted-ln-vs-t", t, r, sz, m["a"])
        slope, intercept = np.polyfit(x - x.mean(), y, 1)
        resid = y - (intercept + slope * (x - x.mean()))
        r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
        require(r2 >= scan_grid_best_r2(t, r, lo, hi) - 1e-9, "scan r^2 below its own grid's best")
        close([np.log(m["b"]), -m["r"]], [intercept - slope * x.mean(), slope], 1e-6, "scan model line")

    def _check_forecast(self, d, fs, step, proc) -> None:
        s = fs[step.split("_")[1]]
        _h, rows = read_table(d / self._outputs[step])
        require(rows.shape[0] == 101, f"forecast has {rows.shape[0]} rows")
        finite_positive(rows[:, 1], "forecast")
        close(rows[0, 1], s.values[-1], 1e-9, "forecast at the anchor")

    def _check_integrate(self, d, fs, step, proc) -> None:
        s = fs["logistic"]
        _h, rows = read_table(d / "recon.csv")
        require(np.array_equal(rows[:, 0], s.times), "integrate times")
        close(rows[:, 1], s.values, 1e-9, "integrate round trip")

    def _check_diagnose(self, d, fs, step, proc) -> None:
        require("winner: " in proc.stdout and "stability: " in proc.stdout, "diagnose report incomplete")

    def _check_reproduce(self, d, fs, step, proc) -> None:
        verdicts = [ln.split()[0] for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
        require(bool(verdicts) and all(v == "PASS" for v in verdicts), "reproduce all has a failing check")


WORKLOADS = {w.name: w for w in (ShortBatch, LongSeries, CliCommands)}
