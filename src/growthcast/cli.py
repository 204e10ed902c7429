"""Command-line surface.

Subcommands: rates, fit, forecast, integrate, diagnose, reproduce.
Outputs are plot-ready delimited text with '#' metadata headers; every
command is deterministic (identical inputs and flags give byte-identical
outputs). Exit codes: 0 success, 2 usage or input validation, 3
numeric/domain failure; reproduce exits 1 when a reference check fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, GrowthcastError, InputError, NumericError

if TYPE_CHECKING:
    from .rates import SmoothingConfig

# The parser states these itself so that building it loads neither
# fitting nor cases; tests pin them to LinearizationKind and CASE_NAMES.
_LINEARIZATIONS = ("r-vs-t", "r-vs-s", "recip-r-vs-t", "ln-r-vs-t", "shifted-ln-vs-t", "recip-s-vs-t")
_CASE_NAMES = ("uk-gdpcap", "world-pop", "japan-gdp")


def _parse_floats(text: str, flag: str, form: str) -> list[float]:
    """The finite floats of a ``form``-shaped flag value such as ``A:B``."""
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise ConfigError(f"{flag} must look like {form}, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{flag} must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    return tuple(_parse_floats(text, what, "A:B"))


def _parse_float(text: Optional[str], flag: str) -> Optional[float]:
    """The finite float of a one-number flag value, or None when it is unset."""
    return None if text is None else _parse_floats(text, flag, "a number")[0]


def _parse_grid(text: str) -> np.ndarray:
    start, stop, step = _parse_floats(text, "--grid", "start:stop:step")
    if step <= 0 or stop <= start:
        raise ConfigError("--grid needs stop > start and step > 0")
    try:
        return np.arange(start, stop + step / 2.0, step)
    except (MemoryError, ValueError):
        raise ConfigError(f"--grid {text!r} has more points than can be allocated") from None


def _smoothing(args: argparse.Namespace) -> SmoothingConfig:
    from .rates import SmoothingConfig

    return SmoothingConfig(window=args.window, degree=args.degree)


def _load_input_series(args: argparse.Namespace):
    from .timeseries import load_series

    return load_series(
        args.input,
        args.time_column,
        args.value_column,
        delimiter=args.delimiter,
        label=args.label,
        unit=args.unit,
    )


def _add_series_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-column", default="t", help="name of the time column (default: t)")
    p.add_argument("--value-column", default="value", help="name of the value column (default: value)")
    p.add_argument("--delimiter", default=",", help="field delimiter (default: ,)")
    p.add_argument("--label", default=None, help="series label override")
    p.add_argument("--unit", default=None, help="series unit override")


def cmd_rates(args: argparse.Namespace) -> int:
    from .fileio import write_rates, write_sidecar
    from .rates import RateMethod, direct_rates, rate_of_transform, refined_rates
    from .timeseries import TransformKind

    ts = _load_input_series(args)
    method = RateMethod(args.method)
    transform = args.transform
    if transform == "none":
        if method is RateMethod.DIRECT:
            rs = direct_rates(ts)
        else:
            rs = refined_rates(ts, _smoothing(args))
        unit = ts.unit
        transform_meta = ""
    else:
        kind = TransformKind(transform)
        cfg = _smoothing(args) if method is RateMethod.REFINED else None
        rs = rate_of_transform(ts, kind, method, cfg)
        if kind is TransformKind.LOG:
            unit = f"ln({ts.unit})" if ts.unit else "ln"
        else:
            unit = f"1/({ts.unit})" if ts.unit else "1/"
        transform_meta = transform
    write_rates(args.out, rs, unit=unit, transform=transform_meta)
    write_sidecar(
        args.out,
        "rates",
        [("input", str(args.input)), ("method", args.method), ("transform", transform)],
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .fileio import fit_report_comments, format_float, read_rates, write_model, write_sidecar
    from .fitting import LinearizationKind, fit_rate_model, fit_reciprocal_series, scan_shifted_aux
    from .models import LOG_LIFT

    lin = LinearizationKind(args.linearization)
    t_range = _parse_pair(args.range, "--range") if args.range else None
    aux_a = _parse_float(args.aux_a, "--aux-a")
    if lin is LinearizationKind.SHIFTED_LN_VS_T and aux_a is None and args.scan_aux is None:
        raise ConfigError(
            "the shifted-ln-vs-t linearization needs --aux-a (or --scan-aux lo:hi)"
        )

    if lin is LinearizationKind.RECIP_S_VS_T:
        ts = _load_input_series(args)
        report = fit_reciprocal_series(ts, t_range=t_range)
        comments = fit_report_comments(report)
        model = report.model
    else:
        rs, meta = read_rates(args.input, delimiter=args.delimiter)
        file_unit = meta.get("unit", "")
        unit = args.unit if args.unit is not None else file_unit
        # size-dependent parameters are tied to the size unit; a silent
        # mismatch would make the fitted a, b meaningless
        if (
            lin is LinearizationKind.R_VS_S
            and args.unit is not None
            and file_unit
            and args.unit != file_unit
        ):
            raise ConfigError(
                f"size-dependent fit refused: --unit {args.unit!r} disagrees with "
                f"the rates file unit {file_unit!r}"
            )
        if lin is LinearizationKind.SHIFTED_LN_VS_T and aux_a is None:
            lo, hi = _parse_pair(args.scan_aux, "--scan-aux")
            best_a, report = scan_shifted_aux(rs, lo, hi, t_range=t_range)
            comments = [f"aux a = {format_float(best_a)} selected by r^2 scan over [{lo}, {hi}]"]
            comments += fit_report_comments(report)
        else:
            report = fit_rate_model(rs, lin, t_range=t_range, aux_a=aux_a, unit=unit)
            comments = fit_report_comments(report)
        model = report.model
        if meta.get("transform") == "log" and model.kind in LOG_LIFT:
            model = replace(model, kind=LOG_LIFT[model.kind])
            comments.append(
                "input rates were of ln(series); kind lifted to the log-of-size family"
            )
    for w in report.warnings:
        print(f"warning: {lin.value}: {w}", file=sys.stderr)
    write_model(args.out, model, comments)
    write_sidecar(
        args.out,
        "fit",
        [
            ("input", str(args.input)),
            ("linearization", args.linearization),
            ("range", args.range or ""),
            ("aux_a", "" if aux_a is None else format_float(aux_a)),
            ("scan_aux", args.scan_aux or ""),
        ],
    )
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    from .fileio import read_model, write_projection, write_sidecar
    from .forecast import project, project_normalized

    model = read_model(args.model)
    grid = _parse_grid(args.grid)
    if args.anchor is not None:
        anchor = _parse_pair(args.anchor, "--anchor")
        proj = project(model, anchor, grid, label=args.label or "")
    else:
        if not model.is_normalized:
            raise ConfigError(
                "model file carries no normalization constant; supply --anchor t0:s0"
            )
        proj = project_normalized(model, grid, label=args.label or "")
    for w in proj.warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_projection(args.out, proj)
    write_sidecar(
        args.out,
        "forecast",
        [
            ("model", str(args.model)),
            ("anchor", args.anchor or ""),
            ("grid", args.grid),
        ],
    )
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .fileio import read_rates, write_series, write_sidecar
    from .forecast import integrate_discrete, integrate_rate_function

    rs, meta = read_rates(args.input, delimiter=args.delimiter)
    anchor = _parse_pair(args.anchor, "--anchor")
    if args.poly_degree is None:
        out_series = integrate_discrete(rs, anchor)
    else:
        if args.grid is None:
            raise ConfigError("--grid is required with --poly-degree")
        from .fitting import fit_polynomial

        poly = fit_polynomial(rs.times, rs.rates, args.poly_degree)
        for w in poly.warnings:
            print(f"warning: {w}", file=sys.stderr)
        out_series = integrate_rate_function(poly, anchor, _parse_grid(args.grid))
    out_series = replace(out_series, label=meta.get("label", out_series.label))
    write_series(args.out, out_series)
    write_sidecar(
        args.out,
        "integrate",
        [
            ("input", str(args.input)),
            ("anchor", args.anchor),
            ("poly_degree", "" if args.poly_degree is None else str(args.poly_degree)),
            ("grid", args.grid or ""),
        ],
    )
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnostics import LOW_RATE_THRESHOLD, identify, stability_flag
    from .fileio import write_sidecar
    from .rates import RateMethod

    aux_a = _parse_float(args.aux_a, "--aux-a")
    threshold = _parse_float(args.threshold, "--threshold")
    ts = _load_input_series(args)
    method = RateMethod(args.method)
    cfg = _smoothing(args) if method is RateMethod.REFINED else None
    report = identify(ts, method=method, cfg=cfg, aux_a=aux_a)
    flag = stability_flag(
        report.rates, threshold=LOW_RATE_THRESHOLD if threshold is None else threshold
    )

    lines = [f"# identification: {ts.label or args.input}"]
    lines.append("rank  model               linearization     r_squared      rms        dropped")
    for i, c in enumerate(report.candidates, start=1):
        mark = "" if c.valid else "  [degenerate]"
        name = c.model_kind.value + (" (log)" if c.transform is not None else "")
        lines.append(
            f"{i:>4}  {name:<18}  {c.linearization.value:<16}  {c.r_squared:<12.10g}  "
            f"{c.rms_residual:<9.3g}  {c.dropped_points}{mark}"
        )
    lines.append(f"winner: {report.winner.model_kind.value}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(
        f"stability: {flag.status.value} (recent rate {flag.recent_rate:.6g}, "
        f"threshold {flag.threshold:.6g})"
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        write_sidecar(args.out, "diagnose", [("input", str(args.input))])
    print(text, end="")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .cases import CASE_NAMES, run_case

    names = list(CASE_NAMES) if args.case == "all" else [args.case]
    if any(n not in CASE_NAMES for n in names):
        raise ConfigError(f"unknown case {args.case!r}; valid names: {', '.join(CASE_NAMES)} or all")
    out_dir = Path(args.out)
    all_pass = True
    for name in names:
        result = run_case(name, out_dir)
        print(f"== {result.name}: {result.title} ==")
        for check in result.checks:
            print(check.line())
        for note in result.footnotes:
            print(f"note: {note}")
        for f in result.files:
            print(f"wrote {f}")
        all_pass &= result.all_passed
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthcast",
        description="Growth-rate analysis and trajectory forecasting for time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="compute growth rates from a series file")
    p.add_argument("input", help="delimited series file")
    p.add_argument("--method", choices=["direct", "refined"], default="direct")
    p.add_argument("--window", type=int, default=7, help="refined: window point count (odd, >= 3)")
    p.add_argument("--degree", type=int, default=3, help="refined: local polynomial degree")
    p.add_argument(
        "--transform", choices=["none", "log", "reciprocal"], default="none",
        help="compute rates of a transform of the series",
    )
    _add_series_io_flags(p)
    p.add_argument("--out", required=True, help="output rates file")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("fit", help="fit a rate-law model through a linearization")
    p.add_argument("input", help="rates file (series file for recip-s-vs-t)")
    p.add_argument(
        "--linearization",
        required=True,
        choices=_LINEARIZATIONS,
    )
    p.add_argument("--range", default=None, help="restrict to times t1:t2 before fitting")
    p.add_argument("--aux-a", default=None, help="displacement a for shifted-ln-vs-t")
    p.add_argument(
        "--scan-aux", default=None, metavar="LO:HI",
        help="pick the shifted-ln-vs-t displacement by an r^2 grid scan over [LO, HI]",
    )
    _add_series_io_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="project a model file over a time grid")
    p.add_argument("model", help="model file")
    p.add_argument("--anchor", default=None, help="t0:s0 normalization point")
    p.add_argument("--grid", required=True, help="start:stop:step evaluation grid")
    p.add_argument("--label", default=None, help="projection label")
    p.add_argument("--out", required=True, help="output projection file")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("integrate", help="integrate a rates file into a trajectory")
    p.add_argument("input", help="rates file")
    p.add_argument("--anchor", required=True, help="t0:s0 anchor point")
    p.add_argument(
        "--poly-degree", type=int, default=None,
        help="fit a polynomial rate law of this degree and integrate it analytically",
    )
    p.add_argument("--grid", default=None, help="start:stop:step (polynomial route only)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", required=True, help="output series file")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("diagnose", help="rank candidate models and flag low-rate instability")
    p.add_argument("input", help="delimited series file")
    p.add_argument("--method", choices=["direct", "refined"], default="direct")
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--aux-a", default=None)
    p.add_argument("--threshold", default=None)
    _add_series_io_flags(p)
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reproduce", help="recompute a bundled case study and check it")
    p.add_argument("case", help=f"one of: {', '.join(_CASE_NAMES)}, or all")
    p.add_argument("--out", default="reproduce_out", help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GrowthcastError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
