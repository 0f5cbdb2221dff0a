"""Values check themselves when built.

``ExperimentConfig``, ``SamplingStrategy``, ``ItemPrior``,
``DistributionSpec`` and ``ResponseFamily`` raise ``InvalidParam`` naming
the bad field from their constructors, ``with_`` re-checks, and enum fields
are converted to their enums. So a library run cannot start on a value the
CLI would refuse, and malformed ``--config`` or ``--prior-spec`` content
exits 2 naming its field instead of raising a traceback.
"""

import json
import math

import numpy as np
import pytest

from raterpower import ExperimentConfig, SamplingStrategy, run_experiment
from raterpower.cli import main
from raterpower.config import Level
from raterpower.distributions import DistributionSpec, Family, uniform
from raterpower.errors import InvalidParam
from raterpower.metrics import MetricId
from raterpower.simulator import ItemPrior, ResponseFamily

TINY = {"n_items": 5, "k_responses": 2, "b_alt": 4, "b_null": 4}


@pytest.mark.parametrize("kind, kwargs, field", [
    (ExperimentConfig, {"n_items": 0}, "n_items"),
    (ExperimentConfig, {"k_responses": 2.0}, "k_responses"),
    (ExperimentConfig, {"epsilon": -0.1}, "epsilon"),
    (ExperimentConfig, {"epsilon": math.inf}, "epsilon"),
    (ExperimentConfig, {"b_alt": 0}, "b_alt"),
    (ExperimentConfig, {"b_null": "3"}, "b_null"),
    (ExperimentConfig, {"seed": -1}, "seed"),
    (ExperimentConfig, {"alpha": 1.5}, "alpha"),
    (ExperimentConfig, {"metrics": ("maee",)}, "metrics"),
    (ExperimentConfig, {"metrics": "mae"}, "metrics"),
    (ExperimentConfig, {"metrics": ()}, "metrics"),
    (ExperimentConfig, {"metrics": ("mae", MetricId.WINS, MetricId.MAE)}, "metrics"),
    (ExperimentConfig, {"phi": "all,boot"}, "phi"),
    (SamplingStrategy, {"items": "bot"}, "phi"),
    (SamplingStrategy, {"responses": "sometimes"}, "phi"),
    (ItemPrior, {"location": uniform(0, 1), "scale": uniform(-0.1, 0.3)}, "scale"),
    (DistributionSpec, {"family": Family.UNIFORM, "params": {"lo": 1, "hi": 0}}, "lo"),
    (DistributionSpec, {"family": Family.NORMAL, "params": {"mu": 0, "sigma": -1}}, "sigma"),
    (DistributionSpec, {"family": Family.NORMAL, "params": {"mu": 0}}, "sigma"),
    (DistributionSpec, {"family": Family.UNIFORM, "params": {"lo": 0, "hi": 1, "mid": 0.5}}, "mid"),
    (DistributionSpec, {"family": Family.UNIFORM, "params": {"lo": math.nan, "hi": 1}}, "lo"),
    (DistributionSpec, {"family": "bogus"}, "family"),
    (DistributionSpec, {"family": Family.NORMAL, "params": {"mu": np.array([0.1, 0.2]), "sigma": 1.0}}, "mu"),
    (DistributionSpec, {"family": Family.NORMAL, "params": {"mu": 0.1, "sigma": [1.0]}}, "sigma"),
    (DistributionSpec, {"family": Family.UNIFORM, "params": {"lo": "0", "hi": 1}}, "lo"),
    (DistributionSpec, {"family": Family.UNIFORM, "params": {"lo": 0, "hi": None}}, "hi"),
    (ResponseFamily, {"levels": 1}, "levels"),
    (ResponseFamily, {"levels": 2.5}, "levels"),
], ids=lambda x: x.__name__ if isinstance(x, type) else x if isinstance(x, str) else "")
def test_an_invalid_value_raises_when_built_naming_its_field(kind, kwargs, field):
    with pytest.raises(InvalidParam) as err:
        kind(**kwargs)
    assert err.value.name == field


@pytest.mark.parametrize("field, value", [
    ("epsilon", "0.1"), ("epsilon", None), ("epsilon", True), ("alpha", None), ("alpha", "0.05"),
    ("prior", None), ("prior", uniform(0, 1)), ("family", 5), ("family", None),
], ids=["epsilon-text", "epsilon-none", "epsilon-bool", "alpha-none", "alpha-text", "prior-none",
        "prior-spec", "family-int", "family-none"])
def test_a_config_value_of_the_wrong_type_raises_naming_its_field(field, value):
    # Used to raise TypeError, or (prior=None) AttributeError later in generate_triple.
    with pytest.raises(InvalidParam) as err:
        ExperimentConfig(**{field: value})
    assert err.value.name == field


@pytest.mark.parametrize("field, value", [("n_items", 0), ("metrics", ("maee",))])
def test_with_rechecks(field, value):
    with pytest.raises(InvalidParam) as err:
        ExperimentConfig().with_(**{field: value})
    assert err.value.name == field


def test_enum_fields_are_converted_when_built():
    config = ExperimentConfig(metrics=["mae", MetricId.WINS], phi=SamplingStrategy("all", "boot"))
    assert config.metrics == (MetricId.MAE, MetricId.WINS)
    assert (config.phi.items, config.phi.responses) == (Level.ALL, Level.BOOT)
    assert SamplingStrategy("boot", "boot").tag == "boot,boot"
    assert SamplingStrategy.parse(" ALL , boot ") == SamplingStrategy(Level.ALL, Level.BOOT)


def test_a_metric_given_as_text_runs_and_its_report_serialises():
    # Used to run every resample, then raise AttributeError writing the report.
    report = run_experiment(ExperimentConfig(metrics=("mae",), **TINY))
    obj = json.loads(json.dumps(report.to_json_dict()))
    assert obj["config"]["metrics"] == ["mae"]
    assert list(obj["results"]) == ["mae"]


# -- malformed config content through the CLI ----------------------------------------

def _no_work(monkeypatch):
    from raterpower import cli

    for name in ("run_experiment", "run_columns", "power_sweeps", "load_responses", "generate_triple"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("did work"))


SPEC = {"family": "uniform", "params": {"lo": 0.0, "hi": 0.3}}


@pytest.mark.parametrize("flag, content, field", [
    ("--config", "{not json", "config"),
    ("--config", json.dumps({"phi": 5}), "phi"),
    ("--config", json.dumps({"metrics": "mae"}), "metrics"),
    ("--config", json.dumps({"metrics": None}), "metrics"),
    ("--config", json.dumps({"metrics": ["mae", "mae"]}), "metrics"),
    ("--config", json.dumps({"mode": "x"}), "mode"),
    ("--config", json.dumps({"epsilon": "a"}), "epsilon"),
    ("--config", json.dumps({"levels": 1}), "levels"),
    ("--config", json.dumps([1, 2]), "config"),
    ("--config", json.dumps({"prior": {"location_spec": SPEC}}), "prior"),
    ("--config", json.dumps({"prior": {"location_spec": SPEC, "scale_spec": 5}}), "spec"),
    ("--prior-spec", "\x00\xff", "prior-spec"),
    ("--prior-spec", json.dumps({"location_spec": SPEC, "scale_spec": None}), "prior"),
    ("--prior-spec", json.dumps({"location_spec": SPEC, "scale_spec": {"family": "bogus"}}), "family"),
    ("--prior-spec", json.dumps({"location_spec": {"family": "uniform", "params": {"lo": math.nan, "hi": 1}},
                                 "scale_spec": SPEC}), "lo"),
    ("--prior-spec", json.dumps({"location_spec": {"family": "uniform", "params": {"lo": "a", "hi": 1}},
                                 "scale_spec": SPEC}), "params"),
    # An infinity used to pass: the run drew every resample, then blamed alt_scores.
    ("--prior-spec", json.dumps({"location_spec": {"family": "uniform", "params": {"lo": 0, "hi": math.inf}},
                                 "scale_spec": SPEC}), "hi"),
    ("--prior-spec", json.dumps({"location_spec": SPEC,
                                 "scale_spec": {"family": "normal", "params": {"mu": 0, "sigma": math.inf}}}),
     "sigma"),
], ids=lambda x: x if isinstance(x, str) and len(x) < 12 else "")
def test_malformed_config_content_exits_2_naming_its_field(flag, content, field, tmp_path, capsys,
                                                            monkeypatch):
    _no_work(monkeypatch)
    path = tmp_path / "file.json"
    path.write_text(content, encoding="latin-1")
    source = ["--config", str(path), "--default-synthetic"] if flag == "--config" else ["--prior-spec", str(path)]
    code = main(["pvalue", *source])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--config", "--prior-spec"])
def test_an_unreadable_config_file_still_exits_1(flag, tmp_path, capsys, monkeypatch):
    _no_work(monkeypatch)
    source = ["--default-synthetic"] if flag == "--config" else []
    code = main(["pvalue", *source, flag, str(tmp_path / "missing.json")])
    assert code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags, field", [
    (["--b-alt", "0"], "b_alt"),
    (["--b-null", "0"], "b_null"),
    (["--alpha", "1.5"], "alpha"),
    (["--seed", "-1"], "seed"),
    (["--levels", "1"], "levels"),
    (["--metric", "mae,mae"], "metrics"),
])
def test_a_config_error_exits_2_before_any_input_file_is_read(flags, field, tmp_path, capsys, monkeypatch):
    # The input files used to be read first, so their absence exited 1.
    _no_work(monkeypatch)
    missing = [str(tmp_path / f"{name}.jsonl") for name in "GAB"]
    code = main(["pvalue", "--input", *missing, *flags])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.out == ""
