"""The experiment scripts in ``scripts/`` run end to end at toy size, each in its own process."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_power_curves(tmp_path):
    out = tmp_path / "power.csv"
    _run("power_curves.py", "--n-sweep", "12,20", "--trials", "4", "--threads", "1",
         "--out", str(out), cwd=tmp_path)
    rows = _rows(out)
    assert rows[0] == ["n_items", "test", "power"]
    assert len(rows) == 1 + 2 * 4  # one row per (N, test)


def test_reproduce_tables(tmp_path):
    _run("reproduce_tables.py", "--seeds", "1", "--b", "20", "--pairs", "1", "--threads", "1",
         "--out-dir", str(tmp_path), cwd=tmp_path)
    for metric in ("wins", "mae"):
        rows = _rows(tmp_path / f"pvalues_{metric}_all_boot.csv")
        assert rows[0] == ["N", "K", "epsilon", "p_value", "nk"]
        assert len(rows) == 1 + 4  # the first grid row at four epsilons


def test_epsilon_effects(tmp_path):
    # The script prints one block per epsilon rather than writing a file.
    lines = _run("epsilon_effects.py", "--samples", "4", "--threads", "1", "--epsilons", "0.1",
                 cwd=tmp_path).splitlines()
    assert lines[0] == "epsilon=0.1"
    assert [line.split()[0] for line in lines[1:]] == ["mae", "wins", "memd"]
