"""Cold start: importing the package loads NumPy and the package only.

``scipy.special`` loads on the first call that needs it (the truncated
normal, Welch's t survival and the Wilcoxon normal approximation), and
``scipy.stats`` not at all. ``import raterpower`` loads no submodule, and
a command loads only the modules it runs: ``power``, ``fitting`` and
``dataio`` load on first use, and so does ``csv``; the thread pool needs
no ``concurrent.futures``. Each case runs in a fresh interpreter, since
this test session has imported all of these already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.stats", "scipy.special")


def _python(*args: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _loaded_after(code: str, names=LAZY) -> list[str]:
    """Which of ``names`` a fresh interpreter has loaded after running ``code``."""
    out = _python("-c", f"import sys\n{code}\nprint(*(m for m in {tuple(names)!r} if m in sys.modules))")
    return out.decode().split()


@pytest.mark.parametrize("module", ["raterpower", "raterpower.cli"])
def test_import_leaves_scipy_special_and_stats_unloaded(module):
    assert _loaded_after(f"import {module}") == []


def test_scipy_special_loads_on_first_use():
    assert _loaded_after("from raterpower import welch_t_test\nwelch_t_test([0, 1], [1, 3])") == [
        "scipy.special"
    ]


def test_power_all_same_bytes_at_one_and_two_threads_from_a_cold_start():
    # At N = 30 Welch and the Wilcoxon normal approximation load
    # scipy.special on their first call, here from the pool's threads.
    args = ["-m", "raterpower.cli", "power", "--default-synthetic", "--test", "all",
            "--n-sweep", "12,30", "--k", "3", "--epsilon", "0.1", "--trials", "8",
            "--b-null", "20", "--seed", "1"]
    one = _python(*args, "--threads", "1")
    assert one.startswith(b"axis,axis_value,test,power")
    assert _python(*args, "--threads", "2") == one


DEFERRED = ("raterpower.power", "raterpower.fitting", "raterpower.dataio")


def _run(*argv: str) -> str:
    return f"import raterpower.cli as cli\nassert cli.main({list(argv)!r}) == 0"


def test_import_raterpower_loads_no_submodule():
    out = _python("-c", "import sys, raterpower\nprint(*(m for m in sys.modules if m.startswith('raterpower.')))")
    assert out.split() == []


def test_import_cli_leaves_deferred_modules_unloaded():
    assert _loaded_after("import raterpower.cli", (*DEFERRED, "concurrent.futures", "csv")) == []


def test_pvalue_and_table_load_no_deferred_package_module(tmp_path):
    code = "\n".join([
        _run("pvalue", "--default-synthetic", "--n", "5", "--k", "2", "--b-alt", "5", "--b-null", "5",
             "--threads", "2", "--out", str(tmp_path / "p.json")),
        _run("table", "--default-synthetic", "--nk-pairs", "5:2", "--epsilon-values", "0,0.1",
             "--b-alt", "5", "--b-null", "5", "--threads", "2", "--out", str(tmp_path / "t.csv")),
    ])
    assert _loaded_after(code, (*DEFERRED, "concurrent.futures")) == []


def test_power_loads_power_only(tmp_path):
    code = _run("power", "--default-synthetic", "--test", "all", "--n-sweep", "10", "--k", "2",
                "--trials", "2", "--b-null", "5", "--out", str(tmp_path / "power.csv"))
    assert _loaded_after(code, DEFERRED) == ["raterpower.power"]


def test_fit_loads_fitting_and_dataio_only(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text("".join(json.dumps({"item_id": f"i{i}", "responses": [i / 10, 0.5, 1 - i / 10]}) + "\n"
                            for i in range(10)), encoding="utf-8")
    code = _run("fit", "--input", str(path), "--location-family", "uniform", "--grid", "lo=0:0.2:0.1,hi=0.8:1:0.1",
                "--sim-count", "50", "--out", str(tmp_path / "fit.json"))
    assert _loaded_after(code, DEFERRED) == ["raterpower.fitting", "raterpower.dataio"]
