"""The package's lazy exports and the modules each CLI entry point loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthcast
from growthcast import cases, cli
from growthcast.diagnostics import LOW_RATE_THRESHOLD
from growthcast.fitting import LinearizationKind

DATA = Path(__file__).parent / "data"
GDP_FIXTURE = DATA / "gdp_per_capita.csv"

#: The public names the package exported when it imported every submodule.
EXPORTS = {
    "diagnostics": [
        "IdentificationReport", "StabilityFlag", "StabilityStatus", "identify", "stability_flag",
    ],
    "errors": [
        "CollapseError", "ConfigError", "DegenerateFactorError", "DegenerateFitError",
        "DomainError", "EmptyLinearizationError", "GrowthcastError", "InputError",
        "NumericError", "ParseError", "RangeRefusalError", "SingularIntegrandError",
        "SingularityError", "ValidationError",
    ],
    "fitting": [
        "FitReport", "LineFit", "LinearizationKind", "PolyFit", "fit_line", "fit_polynomial",
        "fit_rate_model", "fit_reciprocal_series", "linearize", "linearize_series",
        "scan_shifted_aux",
    ],
    "forecast": [
        "Projection", "ScenarioReport", "compare_scenarios", "integrate_discrete",
        "integrate_rate_function", "project", "project_normalized",
    ],
    "models": [
        "FeatureKind", "Features", "Model", "ModelKind", "Params", "features",
        "integrate_rational", "log_trajectory_at", "normalize", "rate_at", "trajectory_at",
    ],
    "rates": [
        "RateMethod", "RateSeries", "SmoothingConfig", "direct_rates", "rate_of_transform",
        "refined_rates",
    ],
    "timeseries": ["TimeSeries", "TransformKind", "load_series", "transform_series"],
}


class TestExports:
    def test_all_names_the_public_api(self):
        names = [n for ns in EXPORTS.values() for n in ns]
        assert len(names) == 58
        assert sorted(growthcast.__all__) == sorted(names + ["__version__"])
        assert set(growthcast.__all__) <= set(dir(growthcast))

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_submodule_object(self, module):
        sub = importlib.import_module(f"growthcast.{module}")
        for name in EXPORTS[module]:
            assert getattr(growthcast, name) is getattr(sub, name), name

    def test_from_import_and_submodules(self):
        from growthcast import fileio, fit_rate_model

        assert fit_rate_model is growthcast.fitting.fit_rate_model
        assert fileio is sys.modules["growthcast.fileio"]
        assert growthcast.__version__ == "0.1.0"

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            growthcast.no_such_name
        with pytest.raises(ImportError):
            from growthcast import no_such_name  # noqa: F401


class TestParserStatesItsSources:
    def test_linearization_choices(self):
        assert cli._LINEARIZATIONS == tuple(k.value for k in LinearizationKind)

    def test_case_names(self):
        assert cli._CASE_NAMES == cases.CASE_NAMES

    def test_threshold_default_is_the_diagnostics_constant(self, capsys):
        assert cli.main(["diagnose", str(GDP_FIXTURE)]) == 0
        assert f"threshold {LOW_RATE_THRESHOLD:.6g})" in capsys.readouterr().out


def _loaded(code: str) -> set[str]:
    """Module names in sys.modules after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(growthcast.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _submodules(loaded: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in loaded if m.startswith("growthcast.")}


class TestImportSets:
    def test_package_import_loads_no_submodule(self):
        assert _submodules(_loaded("import growthcast")) == set()
        assert _submodules(_loaded("import growthcast\ngrowthcast.models.Model")) == {"errors", "models"}

    def test_cli_import_and_parser(self):
        loaded = _loaded("import growthcast.cli\ngrowthcast.cli.build_parser()")
        assert "json" not in loaded
        assert _submodules(loaded) == {"cli", "errors"}

    def test_rates_command(self, tmp_path):
        out = tmp_path / "r.csv"
        loaded = _loaded(
            f"from growthcast.cli import main\n"
            f"assert main(['rates', {str(GDP_FIXTURE)!r}, '--out', {str(out)!r}]) == 0"
        )
        assert _submodules(loaded) == {"cli", "errors", "fileio", "rates", "timeseries"}

    def test_forecast_command(self, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text("kind = exp_const\na = 0.02\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        loaded = _loaded(
            f"from growthcast.cli import main\n"
            f"assert main(['forecast', {str(model)!r}, '--anchor', '0:1', '--grid', '0:5:1',"
            f" '--out', {str(out)!r}]) == 0"
        )
        assert _submodules(loaded) == {"cli", "errors", "fileio", "forecast", "models", "timeseries"}
