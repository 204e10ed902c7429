"""Growth-rate analysis and trajectory forecasting.

Compute empirical growth rates of a time series, fit one of nine
linearizable rate-law families, solve the fitted law in closed form,
and report the trajectory's critical features (maximum, asymptote, or
finite-time singularity).

The public names below resolve on first access (PEP 562): ``import
growthcast`` loads no submodule, and ``growthcast.fit_rate_model`` or
``from growthcast import fit_rate_model`` imports only
``growthcast.fitting`` and what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "diagnostics": (
        "IdentificationReport",
        "StabilityFlag",
        "StabilityStatus",
        "identify",
        "stability_flag",
    ),
    "errors": (
        "CollapseError",
        "ConfigError",
        "DegenerateFactorError",
        "DegenerateFitError",
        "DomainError",
        "EmptyLinearizationError",
        "GrowthcastError",
        "InputError",
        "NumericError",
        "ParseError",
        "RangeRefusalError",
        "SingularIntegrandError",
        "SingularityError",
        "ValidationError",
    ),
    "fitting": (
        "FitReport",
        "LineFit",
        "LinearizationKind",
        "PolyFit",
        "fit_line",
        "fit_polynomial",
        "fit_rate_model",
        "fit_reciprocal_series",
        "linearize",
        "linearize_series",
        "scan_shifted_aux",
    ),
    "forecast": (
        "Projection",
        "ScenarioReport",
        "compare_scenarios",
        "integrate_discrete",
        "integrate_rate_function",
        "project",
        "project_normalized",
    ),
    "models": (
        "FeatureKind",
        "Features",
        "Model",
        "ModelKind",
        "Params",
        "features",
        "integrate_rational",
        "log_trajectory_at",
        "normalize",
        "rate_at",
        "trajectory_at",
    ),
    "rates": (
        "RateMethod",
        "RateSeries",
        "SmoothingConfig",
        "direct_rates",
        "rate_of_transform",
        "refined_rates",
    ),
    "timeseries": ("TimeSeries", "TransformKind", "load_series", "transform_series"),
}

#: Public name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:  # a submodule, e.g. growthcast.fitting
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
