"""Cold start: importing the package loads NumPy and the package only.

``scipy.special`` loads on the first call that needs it (the truncated
normal, Welch's t survival and the Wilcoxon normal approximation), and
``scipy.stats`` not at all. Each case runs in a fresh
interpreter, since this test session has imported SciPy already.
"""

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


def _loaded_after(code: str) -> list[str]:
    out = _python("-c", f"import sys\n{code}\nprint(*(m for m in {LAZY!r} if m in sys.modules))")
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
