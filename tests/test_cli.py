import json
from pathlib import Path

import pytest

from raterpower.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pvalue_default_synthetic(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        [
            "pvalue", "--default-synthetic", "--n", "30", "--k", "4",
            "--epsilon", "0.1", "--metric", "wins", "--phi", "all,boot",
            "--b-alt", "60", "--b-null", "60", "--seed", "7", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "pvalue_report"
    assert 0.0 <= payload["results"]["wins"]["p_value"] <= 1.0


def test_pvalue_usage_error_negative_epsilon(capsys):
    code, _, err = run(
        ["pvalue", "--default-synthetic", "--n", "10", "--k", "2", "--epsilon", "-1"],
        capsys,
    )
    assert code == 2
    assert "epsilon must be >= 0" in err


def test_pvalue_requires_exactly_one_source(capsys):
    code, _, err = run(["pvalue", "--n", "10", "--k", "2"], capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(
        ["pvalue", "--default-synthetic", "--input", "g", "a", "b"], capsys
    )
    assert code == 2
    assert "exactly one" in err


def test_unknown_flag_exits_2(capsys):
    assert main(["pvalue", "--bogus"]) == 2


def test_missing_input_file_exits_1(tmp_path, capsys):
    code, _, err = run(
        ["ecdf", "--input", str(tmp_path / "nope.jsonl")], capsys
    )
    assert code == 1


def byte_runs(args, tmp_path, capsys, name):
    outputs = []
    for threads in ("1", "4"):
        for attempt in range(2):
            out = tmp_path / f"{name}-{threads}-{attempt}"
            code, stdout, _ = run(args + ["--threads", threads, "--out", str(out)], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1


def test_pvalue_byte_deterministic(tmp_path, capsys):
    byte_runs(
        [
            "pvalue", "--default-synthetic", "--n", "25", "--k", "3",
            "--epsilon", "0.05", "--b-alt", "50", "--b-null", "50", "--seed", "3",
        ],
        tmp_path,
        capsys,
        "pvalue",
    )


def test_table_byte_deterministic_and_shape(tmp_path, capsys):
    args = [
        "table", "--default-synthetic", "--nk-pairs", "20:3,40:2",
        "--epsilon-values", "0.0,0.1", "--metric", "mae",
        "--b-alt", "40", "--b-null", "40", "--seed", "5",
    ]
    byte_runs(args, tmp_path, capsys, "table")
    out = tmp_path / "table.csv"
    code, _, _ = run(args + ["--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,K,epsilon,metric,p_value"
    assert len(lines) == 1 + 2 * 2  # pairs x epsilon values


def test_table_pivot_layout(tmp_path, capsys):
    out = tmp_path / "pivot.csv"
    code, _, _ = run(
        [
            "table", "--default-synthetic", "--nk-pairs", "20:3",
            "--epsilon-values", "0.0,0.1", "--metric", "wins",
            "--b-alt", "30", "--b-null", "30", "--seed", "5",
            "--pivot", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,K,0,0.1"
    assert len(lines) == 2


def test_table_pivot_rejects_several_metrics_before_running(tmp_path, capsys, monkeypatch):
    from raterpower import cli

    for name in ("run_experiment", "run_columns"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("ran a cell"))
    out = tmp_path / "pivot.csv"
    code, _, err = run(
        [
            "table", "--default-synthetic", "--nk-pairs", "20:3,40:2",
            "--epsilon-values", "0.0,0.1", "--metric", "wins,mae", "--pivot",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert "--pivot" in err
    assert not out.exists()


def test_table_group_by_nk(tmp_path, capsys):
    out = tmp_path / "grouped.csv"
    code, _, _ = run(
        [
            "table", "--default-synthetic", "--nk-pairs", "40:2,20:3",
            "--epsilon-values", "0.1", "--metric", "mae",
            "--b-alt", "30", "--b-null", "30", "--seed", "5",
            "--group-by-nk", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",nk")
    groups = [int(line.split(",")[-1]) for line in lines[1:]]
    assert groups == sorted(groups)


def test_simulate_writes_triple(tmp_path, capsys):
    prefix = tmp_path / "sim"
    code, stdout, _ = run(
        [
            "simulate", "--default-synthetic", "--n", "3", "--k", "2",
            "--epsilon", "0", "--seed", "1", "--out", str(prefix),
        ],
        capsys,
    )
    assert code == 0
    for name in ("G", "A", "B"):
        path = Path(f"{prefix}.{name}.jsonl")
        assert path.exists()
        assert len(path.read_text().splitlines()) == 3
    # Same flags twice give byte-identical files.
    first = Path(f"{prefix}.G.jsonl").read_bytes()
    run(
        [
            "simulate", "--default-synthetic", "--n", "3", "--k", "2",
            "--epsilon", "0", "--seed", "1", "--out", str(prefix),
        ],
        capsys,
    )
    assert Path(f"{prefix}.G.jsonl").read_bytes() == first


def test_pvalue_input_mode(tmp_path, capsys):
    prefix = tmp_path / "sim"
    run(
        [
            "simulate", "--default-synthetic", "--n", "12", "--k", "3",
            "--epsilon", "0.2", "--seed", "2", "--out", str(prefix),
        ],
        capsys,
    )
    out = tmp_path / "given.json"
    code, _, _ = run(
        [
            "pvalue", "--input", f"{prefix}.G.jsonl", f"{prefix}.A.jsonl", f"{prefix}.B.jsonl",
            "--phi", "boot,boot", "--b-alt", "50", "--b-null", "50", "--seed", "3",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["mode"] == "bootstrap-of-given"


def test_pvalue_input_levels_maps_raw_labels(tmp_path, capsys):
    # Raw 1-5 labels: --levels 5 maps label j to (j - 1) / 4, as fit and ecdf do.
    raw = {"G": [[1, 3, 5], [2, 2]], "A": [[1, 4, 4], [2, 3]], "B": [[3, 5, 5], [4, 5]]}
    paths = {}
    for scale, convert in (("raw", lambda v: v), ("unit", lambda v: (v - 1) / 4)):
        for name, rows in raw.items():
            path = tmp_path / f"{scale}.{name}.jsonl"
            path.write_text("".join(
                json.dumps({"item_id": f"i{i}", "responses": [convert(v) for v in row]}) + "\n"
                for i, row in enumerate(rows)
            ), encoding="utf-8")
            paths[scale, name] = str(path)
    results = {}
    for scale, extra in (("raw", ["--levels", "5"]), ("unit", [])):
        out = tmp_path / f"{scale}.json"
        code, _, err = run(
            ["pvalue", "--input", *(paths[scale, m] for m in "GAB"), *extra, "--metric", "all",
             "--b-alt", "30", "--b-null", "30", "--seed", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        results[scale] = json.loads(out.read_text())["results"]
    assert results["raw"] == results["unit"]


def test_fit_command(tmp_path, capsys):
    matrix = tmp_path / "m.jsonl"
    lines = []
    import numpy as np

    rng = np.random.default_rng(0)
    for i in range(300):
        vals = np.clip(rng.normal(0.4, 0.2, 5), 0, 1)
        lines.append(json.dumps({"item_id": str(i), "responses": list(map(float, vals))}))
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    code, _, _ = run(
        [
            "fit", "--input", str(matrix),
            "--location-family", "uniform", "--grid", "lo=0:0.2:0.1,hi=0.8:1:0.1",
            "--scale-family", "uniform", "--scale-grid", "lo=0,hi=0.1:0.3:0.1",
            "--sim-count", "2000", "--seed", "4", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "fit_report"
    assert payload["location_spec"]["family"] == "uniform"
    assert payload["scale_spec"]["family"] == "uniform"
    # Fit output feeds straight back into pvalue --prior-spec.
    report_out = tmp_path / "pv.json"
    code, _, _ = run(
        [
            "pvalue", "--prior-spec", str(out), "--n", "10", "--k", "2",
            "--epsilon", "0.1", "--b-alt", "30", "--b-null", "30", "--seed", "5",
            "--out", str(report_out),
        ],
        capsys,
    )
    assert code == 0


def test_ecdf_command(tmp_path, capsys):
    matrix = tmp_path / "m.jsonl"
    matrix.write_text(
        '{"item_id": "a", "responses": [0.0, 1.0]}\n{"item_id": "b", "responses": [1.0, 1.0]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "e.csv"
    code, _, _ = run(["ecdf", "--input", str(matrix), "--stat", "means", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,cdf"
    assert len(lines) == 3


def test_config_file_with_flag_overrides(tmp_path, capsys):
    config = {
        "n_items": 20,
        "k_responses": 4,
        "epsilon": 0.3,
        "b_alt": 40,
        "b_null": 40,
        "phi": "all,boot",
        "metrics": ["mae"],
        "seed": 11,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "from-config.json"
    code, _, _ = run(
        ["pvalue", "--default-synthetic", "--config", str(path), "--out", str(out)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["n_items"] == 20
    assert payload["config"]["epsilon"] == 0.3
    # Explicit flags override the config file.
    out2 = tmp_path / "override.json"
    code, _, _ = run(
        [
            "pvalue", "--default-synthetic", "--config", str(path),
            "--epsilon", "0.0", "--out", str(out2),
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out2.read_text())["config"]["epsilon"] == 0.0


def test_power_command_csv(tmp_path, capsys):
    out = tmp_path / "power.csv"
    code, _, _ = run(
        [
            "power", "--default-synthetic", "--test", "welch", "--n-sweep", "20,60",
            "--k", "3", "--epsilon", "0.2", "--trials", "20", "--seed", "6",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,axis_value,test,power"
    assert len(lines) == 3


def test_power_test_choices_are_the_test_ids():
    # The parser lists them without importing power, so they are a literal.
    from raterpower import cli
    from raterpower.power import TestId

    assert cli._TESTS == tuple(t.value for t in TestId)


def test_power_rejects_welch_with_one_item_before_any_sweep(tmp_path, capsys, monkeypatch):
    from raterpower import power

    monkeypatch.setattr(power, "_chunk_p_values", lambda *args: pytest.fail("ran a trial"))
    out = tmp_path / "power.csv"
    code, _, err = run(
        [
            "power", "--default-synthetic", "--test", "all", "--n-sweep", "5,1", "--k", "3",
            "--epsilon", "0.1", "--trials", "4", "--b-null", "20", "--seed", "1",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert "n_items" in err
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["--n-sweep", "--k-sweep"])
def test_power_empty_sweep_exits_2_with_nothing_on_stdout(sweep, capsys, monkeypatch):
    # Used to exit 0 and print only the CSV header.
    from raterpower import power

    monkeypatch.setattr(power, "_chunk_p_values", lambda *args: pytest.fail("ran a trial"))
    code, out, err = run(["power", "--default-synthetic", sweep, ",", "--test", "permutation", "--trials", "3"],
                         capsys)
    assert code == 2
    assert out == ""
    assert "at least one value" in err


def test_power_all_tests_on_degenerate_data(tmp_path, capsys):
    # Zero-scale prior and epsilon 0: every per-item error is zero, so no
    # test has evidence. Each gets p = 1 instead of aborting the sweep.
    from raterpower.distributions import uniform
    from raterpower.simulator import ItemPrior

    prior = tmp_path / "prior.json"
    prior.write_text(
        json.dumps(ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.0)).to_json_dict()),
        encoding="utf-8",
    )
    out = tmp_path / "power.csv"
    code, _, err = run(
        [
            "power", "--prior-spec", str(prior), "--test", "all", "--n", "20", "--k", "3",
            "--epsilon", "0", "--trials", "4", "--b-null", "20", "--seed", "1",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0, err
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",0.0") for row in rows)


def test_simulate_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    from raterpower import cli

    # The usage error comes before any simulation work.
    monkeypatch.setattr(cli, "generate_triple", lambda *args: pytest.fail("simulated"))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        ["simulate", "--default-synthetic", "--n", "3", "--k", "2", "--seed", "1"], capsys
    )
    assert code == 2
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []


# -- boundary inputs through every command (each exits 0) ------------------------

def test_fit_simulate_ecdf_same_bytes_at_one_and_two_threads(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(5)
    matrix = tmp_path / "m.jsonl"
    matrix.write_text("".join(
        json.dumps({"item_id": str(i), "responses": np.clip(rng.normal(0.4, 0.2, 1 + i % 6), 0, 1).tolist()})
        + "\n" for i in range(80)
    ), encoding="utf-8")
    commands = {
        "fit": ["fit", "--input", str(matrix), "--location-family", "normal",
                "--grid", "mu=0.2:0.6:0.1,sigma=0:0.3:0.1", "--scale-family", "uniform",
                "--scale-grid", "lo=0,hi=0:0.3:0.1", "--seed", "2"],
        "simulate": ["simulate", "--default-synthetic", "--n", "20", "--k", "3", "--epsilon", "0.1",
                     "--seed", "2"],
        "ecdf": ["ecdf", "--input", str(matrix), "--stat", "stds"],
    }
    for name, args in commands.items():
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            code, _, err = run([*args, "--threads", threads, "--out", str(out)], capsys)
            assert code == 0, err
            files = sorted(tmp_path.glob(f"{out.name}*"))
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1] and outputs[0], name


def test_one_item_one_response_through_pvalue_and_power(tmp_path, capsys):
    out = tmp_path / "pvalue.json"
    code, _, err = run([
        "pvalue", "--default-synthetic", "--n", "1", "--k", "1", "--epsilon", "0.1",
        "--metric", "all", "--b-alt", "20", "--b-null", "20", "--seed", "1", "--out", str(out),
    ], capsys)
    assert code == 0, err
    results = json.loads(out.read_text())["results"]
    assert all(0.0 <= results[m]["p_value"] <= 1.0 for m in ("mae", "wins", "memd"))
    for test in ("bootstrap", "wilcoxon", "permutation"):
        out = tmp_path / f"power-{test}.csv"
        code, _, err = run([
            "power", "--default-synthetic", "--test", test, "--n", "1", "--k", "1",
            "--epsilon", "0.1", "--trials", "3", "--b-null", "20", "--seed", "1", "--out", str(out),
        ], capsys)
        assert code == 0, err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1 and 0.0 <= float(rows[0].split(",")[-1]) <= 1.0


def test_all_tied_ragged_input_through_pvalue_and_fit(tmp_path, capsys):
    # Every response is 0.5; G's counts differ from A's and B's.
    counts = {"G": [3, 1, 2], "A": [2, 4, 1], "B": [2, 4, 1]}
    paths = []
    for name, ks in counts.items():
        path = tmp_path / f"tied.{name}.jsonl"
        path.write_text("".join(
            json.dumps({"item_id": f"i{i}", "responses": [0.5] * k}) + "\n" for i, k in enumerate(ks)
        ), encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "pvalue.json"
    code, _, err = run(["pvalue", "--input", *paths, "--metric", "all", "--b-alt", "20",
                        "--b-null", "20", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0, err
    # Every alternative and null score ties at zero, so nothing is significant.
    results = json.loads(out.read_text())["results"]
    assert [results[m]["p_value"] for m in ("mae", "wins", "memd")] == [1.0, 1.0, 1.0]
    out = tmp_path / "fit.json"
    code, _, err = run([
        "fit", "--input", paths[0], "--location-family", "uniform", "--grid",
        "lo=0:0.4:0.2,hi=0.5:1:0.25", "--scale-family", "uniform", "--scale-grid", "lo=0,hi=0:0.2:0.1",
        "--seed", "1", "--out", str(out),
    ], capsys)
    assert code == 0, err
    assert json.loads(out.read_text())["kind"] == "fit_report"


# -- each input decided once -------------------------------------------------------

def test_config_file_metrics_apply_to_table_and_power(tmp_path, capsys):
    # Without --metric, the config file's metrics hold; the flag would say the same.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metrics": ["wins"]}), encoding="utf-8")
    commands = {
        "table": ["table", "--default-synthetic", "--nk-pairs", "20:3", "--epsilon-values", "0.1",
                  "--b-alt", "30", "--b-null", "30", "--seed", "5"],
        "power": ["power", "--default-synthetic", "--test", "bootstrap", "--n", "30", "--k", "3",
                  "--epsilon", "0.3", "--trials", "8", "--b-null", "40", "--seed", "1"],
    }
    for name, args in commands.items():
        outputs = []
        for source in (["--config", str(config)], ["--metric", "wins"]):
            out = tmp_path / f"{name}.csv"
            code, _, err = run([*args, *source, "--out", str(out)], capsys)
            assert code == 0, err
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1], name
    assert [row.split(",")[3] for row in (tmp_path / "table.csv").read_text().splitlines()[1:]] == ["wins"]


def test_pvalue_input_with_n_is_a_usage_error_before_reading_files(tmp_path, capsys):
    missing = [str(tmp_path / f"nope.{m}.jsonl") for m in "GAB"]
    code, _, err = run(["pvalue", "--input", *missing, "--n", "5"], capsys)
    assert code == 2
    assert "--n/--k" in err


@pytest.mark.parametrize("axes", [
    ["--n-values", "10", "--epsilon-values", "0.1"],
    ["--nk-pairs", ",", "--epsilon-values", "0.1"],
    ["--nk-pairs", "20:3", "--epsilon-values", ","],
], ids=["no-k-values", "empty-nk-pairs", "empty-epsilon-values"])
def test_table_empty_axis_exits_2_before_running(axes, tmp_path, capsys, monkeypatch):
    from raterpower import cli

    monkeypatch.setattr(cli, "run_columns", lambda *args, **kwargs: pytest.fail("ran a cell"))
    code, _, err = run(["table", "--default-synthetic", *axes, "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 2
    assert "table needs" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-2"], ids=["nan", "inf", "zero", "negative"])
def test_pvalue_memd_scale_must_be_finite_and_positive(scale, tmp_path, capsys, monkeypatch):
    from raterpower import cli

    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("ran a cell"))
    out = tmp_path / "pvalue.json"
    code, _, err = run(["pvalue", "--default-synthetic", "--n", "10", "--k", "2", "--metric", "memd",
                        "--memd-scale", scale, "--out", str(out)], capsys)
    assert code == 2
    assert "--memd-scale" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["pvalue", "--default-synthetic"],
    ["table", "--default-synthetic", "--nk-pairs", "20:3", "--epsilon-values", "0.1"],
    ["power", "--default-synthetic", "--trials", "2"],
    ["fit", "--input", "m.jsonl", "--location-family", "normal", "--grid", "mu=0.5,sigma=0.1"],
    ["simulate", "--default-synthetic"],
    ["ecdf", "--input", "m.jsonl"],
], ids=lambda command: command[0])
def test_threads_below_one_exits_2_before_any_work(command, tmp_path, capsys, monkeypatch):
    from raterpower import cli

    for name in ("run_experiment", "run_columns", "power_sweeps", "load_responses"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("did work"))
    monkeypatch.chdir(tmp_path)
    for threads in ("0", "-3"):
        code, _, err = run([*command, "--threads", threads, "--out", "out"], capsys)
        assert code == 2
        assert "--threads" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", [
    (["table", "--nk-pairs", "5:2", "--epsilon-values", "0"], ["--n", "99"]),
    (["table", "--nk-pairs", "5:2", "--epsilon-values", "0"], ["--k", "3"]),
    (["table", "--nk-pairs", "5:2", "--epsilon-values", "0"], ["--epsilon", "0.5"]),
    (["simulate"], ["--b-alt", "5"]),
    (["simulate"], ["--b-null", "5"]),
    (["simulate"], ["--alpha", "0.1"]),
    (["simulate"], ["--phi", "all,boot"]),
    (["simulate"], ["--metric", "mae"]),
    (["power", "--trials", "2"], ["--b-alt", "5"]),
    (["pvalue", "--n", "5"], ["--default-synth"]),
    (["table", "--epsilon-values", "0"], ["--nk-pair", "5:2"]),
], ids=lambda x: " ".join(x))
def test_a_flag_the_command_does_not_read_exits_2(command, flag, tmp_path, capsys, monkeypatch):
    # Each command takes only the flags it reads, and no flag matches by
    # prefix: table's --epsilon used to pass for --epsilon-values.
    from raterpower import cli

    for name in ("run_experiment", "run_columns", "power_sweeps", "generate_triple"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("did work"))
    code, _, err = run([command[0], "--default-synthetic", *command[1:], *flag,
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag[0]}" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_with_a_non_integer_count_exits_2(tmp_path, capsys, monkeypatch):
    from raterpower import cli

    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("ran a cell"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_items": 2.7}), encoding="utf-8")
    code, _, err = run(["pvalue", "--default-synthetic", "--config", str(config)], capsys)
    assert code == 2
    assert "n_items" in err


# -- the parser decides every flag -------------------------------------------------

def _no_work(monkeypatch):
    from raterpower import cli, inference, power

    for name in ("run_experiment", "run_columns", "power_sweeps", "load_responses", "fit_prior",
                 "generate_triple"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("did work"))
    monkeypatch.setattr(power, "_chunk_p_values", lambda *args, **kwargs: pytest.fail("ran a trial"))
    monkeypatch.setattr(inference, "draw_blocks", lambda *args, **kwargs: pytest.fail("drew a column"))


TABLE = ["table", "--prior-spec", "{missing}.json", "--config", "{missing}-config.json"]
POWER = ["power", "--prior-spec", "{missing}.json"]
PVALUE = ["pvalue", "--prior-spec", "{missing}.json"]
FIT = ["fit", "--input", "{missing}.jsonl"]
FIT_OK = ["--location-family", "normal", "--grid", "mu=0.5,sigma=0.1"]


@pytest.mark.parametrize("command, flag, value", [
    (TABLE + ["--k-values", "2", "--epsilon-values", "0"], "--n-values", "10,x"),
    (TABLE + ["--n-values", "10", "--epsilon-values", "0"], "--k-values", "2.5"),
    (TABLE + ["--nk-pairs", "5:2"], "--epsilon-values", "0.1,abc"),
    (TABLE + ["--epsilon-values", "0"], "--nk-pairs", "5"),
    (TABLE + ["--epsilon-values", "0"], "--nk-pairs", "5:2:1"),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0"], "--metric", "mae,bogus"),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0"], "--phi", "all"),
    (PVALUE, "--phi", "all,sometimes"),
    (PVALUE, "--metric", "all,mae"),
    # Axis values below their least used to exit 1 on the missing file.
    (TABLE + ["--epsilon-values", "0"], "--nk-pairs", "0:2"),
    (TABLE + ["--epsilon-values", "0"], "--nk-pairs", "5:2,5:0"),
    (TABLE + ["--k-values", "2", "--epsilon-values", "0"], "--n-values", "10,0"),
    (TABLE + ["--n-values", "10", "--epsilon-values", "0"], "--k-values", "-1"),
    (TABLE + ["--nk-pairs", "5:2"], "--epsilon-values", "0,-1"),
    (TABLE + ["--nk-pairs", "5:2"], "--epsilon-values", "inf"),
    (POWER, "--n-sweep", "0,5"),
    (POWER, "--k-sweep", "2,0"),
    (POWER, "--n-sweep", "x"),
    (POWER, "--k-sweep", "3;4"),
    (POWER, "--test", "bogus"),
    (FIT + ["--grid", "mu=0"], "--location-family", "bogus"),
    (FIT + FIT_OK + ["--scale-grid", "lo=0"], "--scale-family", "bogus"),
    (FIT + ["--location-family", "normal"], "--location-grid", "mu"),
    (FIT + ["--location-family", "normal"], "--grid", "mu=0:1"),
    (FIT + ["--location-family", "normal"], "--grid", "mu=0:inf:1"),
    (FIT + FIT_OK + ["--scale-family", "uniform"], "--scale-grid", "lo=1:0:0.1"),
    (FIT + FIT_OK, "--location-clip", "0"),
    (FIT + FIT_OK, "--scale-clip", "0,x"),
    # Infinities and NaN used to pass: a uniform fit on (-inf, inf) printed
    # "fit_error": Infinity, which is not JSON.
    (FIT + ["--location-family", "uniform"], "--grid", "lo=-inf,hi=inf"),
    (FIT + ["--location-family", "normal"], "--grid", "mu=0.5,sigma=inf"),
    (FIT + ["--location-family", "normal"], "--grid", "mu=nan,sigma=0.1"),
    (FIT + ["--location-family", "folded-normal", "--grid", "mu=0.5,sigma=0.1"], "--location-clip", "0,inf"),
    (FIT + FIT_OK + ["--scale-family", "folded-normal", "--scale-grid", "mu=0,sigma=0.1"], "--scale-clip",
     "none,inf"),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_a_malformed_flag_value_exits_2_naming_it_before_any_file_is_read(
        command, flag, value, tmp_path, capsys, monkeypatch):
    _no_work(monkeypatch)
    missing = str(tmp_path / "missing")
    argv = [part.format(missing=missing) for part in command]
    code, _, err = run([*argv, flag, value, "--out", str(tmp_path / "out")], capsys)
    assert code == 2, err
    assert flag in err and "missing" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("present", [["--location-family", "normal"], ["--grid", "mu=0.5,sigma=0.1"]],
                         ids=["no-grid", "no-family"])
def test_fit_needs_a_location_family_and_grid_before_reading_input(present, tmp_path, capsys, monkeypatch):
    _no_work(monkeypatch)
    code, _, err = run(["fit", "--input", str(tmp_path / "missing.jsonl"), *present], capsys)
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("flags", [["--scale-grid", "lo=0,hi=0.2"], ["--scale-clip", "0,none"],
                                   ["--scale-grid", "lo=0,hi=0.2", "--scale-clip", "0,none"]],
                         ids=["grid", "clip", "grid+clip"])
def test_fit_scale_flags_without_a_scale_family_exit_2_before_reading_input(flags, tmp_path, capsys, monkeypatch):
    # Used to fit the location only and report "scale_spec": null.
    _no_work(monkeypatch)
    argv = [part.format(missing=str(tmp_path / "missing")) for part in FIT]
    code, out, err = run([*argv, *FIT_OK, *flags], capsys)
    assert code == 2, err
    assert out == ""
    assert flags[0] in err and "--scale-family" in err


@pytest.mark.parametrize("flags, name", [
    (["--location-family", "folded-normal", "--grid", "mu=0:0.5:0.1,sgima=0.05:0.3:0.05"], "sgima"),
    (["--location-family", "folded-normal", "--grid", "mu=0:0.5:0.1"], "sigma"),
    (FIT_OK + ["--location-clip", "0,1"], "lo"),
    (FIT_OK + ["--scale-family", "triangular", "--scale-grid", "a=0,b=0.1,cc=0.2"], "cc"),
    (FIT_OK + ["--scale-family", "uniform", "--scale-grid", "lo=0"], "hi"),
    (FIT_OK + ["--scale-family", "normal", "--scale-grid", "mu=0.1,sigma=0.1", "--scale-clip", "0,none"], "lo"),
], ids=["misspelt", "missing", "clip", "scale-misspelt", "scale-missing", "scale-clip"])
def test_fit_parameter_names_exit_2_naming_them_before_reading_input(flags, name, tmp_path, capsys, monkeypatch):
    # Used to read the input, then exit 1 with "no valid ... candidate in the grid".
    _no_work(monkeypatch)
    argv = [part.format(missing=str(tmp_path / "missing")) for part in FIT]
    code, out, err = run([*argv, *flags], capsys)
    assert code == 2, err
    assert out == ""
    assert err.startswith(f"error: {name}: ") and "missing.jsonl" not in err


@pytest.mark.parametrize("flags", [
    ["--location-family", "uniform", "--grid", "lo=0:0.2:0.1,hi=0.8:1:0.1,lo=0.3"],
    FIT_OK + ["--scale-family", "uniform", "--scale-grid", "lo=0,hi=0.2, lo =0.1"],
], ids=["grid", "scale-grid"])
def test_fit_grid_repeating_a_name_exits_2_naming_it_before_reading_input(flags, tmp_path, capsys, monkeypatch):
    # Used to keep only the last axis of the name: lo = 0.3 alone, exit 0.
    _no_work(monkeypatch)
    argv = [part.format(missing=str(tmp_path / "missing")) for part in FIT]
    code, out, err = run([*argv, *flags], capsys)
    assert code == 2, err
    assert out == ""
    assert flags[-2] in err and "'lo' appears more than once" in err and "missing.jsonl" not in err


def test_fit_grid_without_a_valid_point_still_exits_1(tmp_path, capsys):
    matrix = tmp_path / "m.jsonl"
    matrix.write_text('{"item_id": "a", "responses": [0.2, 0.4]}\n', encoding="utf-8")
    code, out, err = run(["fit", "--input", str(matrix), "--location-family", "folded-normal",
                          "--grid", "mu=0:0.5:0.1,sigma=-0.3:-0.1:0.1"], capsys)
    assert code == 1
    assert out == ""
    assert "no valid folded-normal candidate" in err


@pytest.mark.parametrize("command, flags", [
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0"], ["--n-values", "5"]),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0"], ["--k-values", "2"]),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0", "--metric", "mae"], ["--pivot", "--format", "json"]),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0", "--metric", "mae"], ["--pivot", "--group-by-nk"]),
    (POWER, ["--n-sweep", "5", "--k-sweep", "2"]),
], ids=["nk-pairs+n-values", "nk-pairs+k-values", "pivot+json", "pivot+group-by-nk", "n-sweep+k-sweep"])
def test_conflicting_flags_exit_2_before_any_file_is_read(command, flags, tmp_path, capsys, monkeypatch):
    # Each pair used to run, one flag silently overriding or ignoring the other.
    _no_work(monkeypatch)
    argv = [part.format(missing=str(tmp_path / "missing")) for part in command]
    code, _, err = run([*argv, *flags, "--out", str(tmp_path / "out")], capsys)
    assert code == 2, err
    assert flags[0] in err and flags[-2] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["pvalue", "--n", "5", "--k", "2", "--b-alt", "5", "--b-null", "5", "--epsilon", "{}"],
    ["power", "--n", "5", "--k", "2", "--test", "bootstrap", "--trials", "2", "--b-null", "5", "--epsilon", "{}"],
    ["table", "--nk-pairs", "5:2", "--b-alt", "5", "--b-null", "5", "--epsilon-values", "0,{}"],
], ids=lambda command: command[0])
def test_a_non_finite_epsilon_exits_2_before_any_work(command, value, tmp_path, capsys, monkeypatch):
    from raterpower import cli, inference

    _no_work(monkeypatch)
    # run_columns validates every column before it draws one.
    monkeypatch.setattr(cli, "run_columns", inference.run_columns)
    out = tmp_path / "out"
    code, _, err = run([command[0], "--default-synthetic", *(part.format(value) for part in command[1:]),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert "epsilon must be >= 0 and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_config_file_with_a_non_finite_epsilon_exits_2(epsilon, tmp_path, capsys, monkeypatch):
    _no_work(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epsilon": epsilon}), encoding="utf-8")
    code, _, err = run(["pvalue", "--default-synthetic", "--config", str(config)], capsys)
    assert code == 2
    assert "epsilon must be >= 0 and finite" in err


def test_config_file_takes_exactly_the_keys_a_report_writes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    argv = ["pvalue", "--default-synthetic", "--n", "6", "--k", "2", "--epsilon", "0.1", "--b-alt", "8",
            "--b-null", "8", "--seed", "3"]
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 0, err
    block = json.loads(out.read_text())["config"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(block), encoding="utf-8")
    again = tmp_path / "again.json"
    code, _, err = run(["pvalue", "--default-synthetic", "--config", str(config), "--out", str(again)], capsys)
    assert code == 0, err
    assert again.read_bytes() == out.read_bytes()
    # A misspelt key used to be ignored: this ran at the default N = 100.
    _no_work(monkeypatch)
    config.write_text(json.dumps({**block, "n_item": 7}), encoding="utf-8")
    code, _, err = run(["pvalue", "--default-synthetic", "--config", str(config)], capsys)
    assert code == 2
    assert "n_item" in err


@pytest.mark.parametrize("command, name", [
    (PVALUE + ["--b-alt", "0"], "b_alt"),
    (["pvalue", "--config", "{missing}-config.json", "--default-synthetic", "--n", "0"], "n_items"),
    (TABLE + ["--nk-pairs", "5:2", "--epsilon-values", "0", "--alpha", "1"], "alpha"),
    (POWER + ["--trials", "0"], "--trials"),
    (["simulate", "--prior-spec", "{missing}.json", "--seed", "-1"], "seed"),
    (FIT + FIT_OK + ["--sim-count", "0"], "--sim-count"),
    (["fit", "--input", "{present}"] + FIT_OK + ["--sim-count", "0"], "--sim-count"),
    (["fit", "--input", "{present}"] + FIT_OK + ["--seed", "-1"], "seed"),
], ids=["pvalue-prior-spec", "pvalue-config", "table", "power", "simulate", "fit", "fit-present", "fit-seed"])
def test_a_bad_flag_value_exits_2_before_any_file_is_read(command, name, tmp_path, capsys, monkeypatch):
    # Each used to read --prior-spec, --config or --input first: a missing
    # file exited 1, and fit read a present one before it exited 2.
    from raterpower import cli

    _no_work(monkeypatch)
    monkeypatch.setattr(cli, "_read_json", lambda *args: pytest.fail("read a file"))
    present = tmp_path / "m.jsonl"
    present.write_text('{"item_id": "a", "responses": [0.2, 0.4]}\n', encoding="utf-8")
    argv = [part.format(missing=str(tmp_path / "missing"), present=present) for part in command]
    code, out, err = run([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 2, err
    assert out == ""
    assert name in err and "missing" not in err
    assert sorted(tmp_path.iterdir()) == [present]


def test_a_config_mode_key_is_treated_alike_by_table_pvalue_and_power(tmp_path, capsys):
    # A report's config block records its run's mode, and the data decide
    # the mode: a valid "mode" key is ignored by every command, an unknown
    # one exits 2 naming it. The same key used to make table exit 2,
    # pvalue override it and power ignore it.
    commands = {
        "table": ["table", "--default-synthetic", "--nk-pairs", "6:2", "--epsilon-values", "0.1",
                  "--b-alt", "8", "--b-null", "8", "--seed", "5"],
        "pvalue": ["pvalue", "--default-synthetic", "--n", "6", "--k", "2", "--epsilon", "0.1",
                   "--b-alt", "8", "--b-null", "8", "--seed", "5"],
        "power": ["power", "--default-synthetic", "--test", "bootstrap", "--n", "6", "--k", "2",
                  "--epsilon", "0.3", "--trials", "3", "--b-null", "8", "--seed", "5"],
    }
    config = tmp_path / "config.json"
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        code, _, err = run([*argv, "--out", str(out)], capsys)
        assert code == 0, err
        want = out.read_bytes()
        for mode in ("bootstrap-of-given", "parametric"):
            config.write_text(json.dumps({"mode": mode}), encoding="utf-8")
            code, _, err = run([*argv, "--config", str(config), "--out", str(out)], capsys)
            assert code == 0, (name, mode, err)
            assert out.read_bytes() == want, (name, mode)
        config.write_text(json.dumps({"mode": "given"}), encoding="utf-8")
        code, _, err = run([*argv, "--config", str(config)], capsys)
        assert code == 2, name
        assert err.startswith("error: mode: "), name
