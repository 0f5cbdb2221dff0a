"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s``. The full module takes
around ten minutes; criteria with published table targets average several
seeds at b_alt = b_null = 500.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from _oracles import (
    emd_transport_oracle,
    p_value_oracle,
    permutation_enumeration_oracle,
    wilcoxon_enumeration_oracle,
)

from raterpower import (
    ExperimentConfig,
    ItemPrior,
    ItemStats,
    ResponseFamily,
    SamplingStrategy,
    TestId,
    emd_1d,
    estimate_p_value,
    estimate_power,
    fit_prior,
    mean_metric_scores,
    permutation_test_paired,
    run_experiment,
    wilcoxon_signed_rank,
)
from raterpower.cli import main as cli_main
from raterpower.distributions import Family, folded_normal, triangular, uniform
from raterpower.metrics import MetricId
from raterpower.rngstreams import derive_rng

THREADS = 4
SEEDS = tuple(range(8))
PHI_ALL_BOOT = SamplingStrategy.parse("all,boot")

_cell_cache: dict[tuple[int, int, float], dict[str, list[float]]] = {}


def cell_pvalues(n: int, k: int, eps: float) -> dict[str, list[float]]:
    key = (n, k, eps)
    if key not in _cell_cache:
        wins, mae = [], []
        for seed in SEEDS:
            config = ExperimentConfig(
                n_items=n,
                k_responses=k,
                epsilon=eps,
                phi=PHI_ALL_BOOT,
                seed=seed,
                metrics=(MetricId.MAE, MetricId.WINS),
            )
            report = run_experiment(config, threads=THREADS)
            wins.append(report.p_value(MetricId.WINS))
            mae.append(report.p_value(MetricId.MAE))
        _cell_cache[key] = {"wins": wins, "mae": mae}
    return _cell_cache[key]


def _check(label: str, ok: bool, detail: str) -> bool:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 1: Wins table cells ------------------------------------------------

def test_c1_table_cells_wins():
    targets = [
        (100, 10, 0.1, 0.0179),
        (1000, 1, 0.1, 0.0052),
        (25, 100, 0.005, 0.4460),
    ]
    ok = True
    for n, k, eps, expected in targets:
        got = float(np.mean(cell_pvalues(n, k, eps)["wins"]))
        ok &= _check(
            f"[C1] wins p(N={n},K={k},eps={eps})",
            abs(got - expected) <= 0.05,
            f"got {got:.4f}, table {expected:.4f}, tol 0.05",
        )
    assert ok


# -- criterion 2: MAE table cells -------------------------------------------------

def test_c2_table_cells_mae():
    targets = [
        (1000, 1, 0.1, 0.1193),
        (100, 25, 0.02, 0.3561),
        (500, 100, 0.02, 0.0031),
    ]
    ok = True
    for n, k, eps, expected in targets:
        got = float(np.mean(cell_pvalues(n, k, eps)["mae"]))
        ok &= _check(
            f"[C2] mae p(N={n},K={k},eps={eps})",
            abs(got - expected) <= 0.05,
            f"got {got:.4f}, table {expected:.4f}, tol 0.05",
        )
    zero_cell = float(np.mean(cell_pvalues(100, 25, 0.1)["mae"]))
    ok &= _check(
        "[C2] mae p(N=100,K=25,eps=0.1) printed as 0.0000",
        zero_cell < 0.01,
        f"got {zero_cell:.5f} < 0.01",
    )
    assert ok


# -- criterion 3: grouped trends at eps=0.02 ---------------------------------------

# Equal-N*K groups: cells in increasing-N order with the published p-values,
# so strictness kicks in exactly where the published gap exceeds 0.05.
WINS_GROUPS = [
    [((25, 100), 0.2514), ((100, 25), 0.2481), ((500, 5), 0.2009)],
    [((50, 100), 0.1611), ((1000, 5), 0.1183)],
    [((100, 100), 0.0689), ((1000, 10), 0.0508)],
    [((250, 100), 0.0076), ((1000, 25), 0.0051)],
]
# Same groups in increasing-K order with the MAE table values.
MAE_GROUPS = [
    [((500, 5), 0.4053), ((100, 25), 0.3561), ((25, 100), 0.2713)],
    [((1000, 5), 0.3824), ((50, 100), 0.2091)],
    [((1000, 10), 0.2897), ((100, 100), 0.1186)],
    [((1000, 25), 0.1017), ((250, 100), 0.0270)],
]
LAX_ALLOWANCE = 0.025


def _trend(metric: str, groups, axis: str) -> bool:
    ok = True
    for gi, group in enumerate(groups, start=1):
        meds = [float(np.median(cell_pvalues(n, k, 0.02)[metric])) for ((n, k), _) in group]
        for (cell_a, paper_a), (cell_b, paper_b), got_a, got_b in zip(
            group, group[1:], meds, meds[1:]
        ):
            strict = paper_a - paper_b > 0.05
            holds = got_b < got_a if strict else got_b <= got_a + LAX_ALLOWANCE
            ok &= _check(
                f"[C3] {metric} group {gi} {cell_a}->{cell_b} ({'strict' if strict else 'lax'}, {axis} up)",
                holds,
                f"median {got_a:.4f} -> {got_b:.4f}",
            )
    return ok


def test_c3_grouped_trends():
    ok = _trend("wins", WINS_GROUPS, "N")
    ok &= _trend("mae", MAE_GROUPS, "K")
    assert ok


# -- criterion 4: effect sizes over the N,K grid ------------------------------------

FULL_GRID = [(n, k) for n in (25, 50, 100, 250, 500, 1000) for k in (1, 5, 10, 25, 50, 100)]


def test_c4_effect_size_monotonicity():
    eps_values = (0.005, 0.01, 0.02, 0.1)
    mae_a = {}
    mae_b = {}
    wins_b = {}
    for eps in eps_values:
        acc_a = acc_b = acc_w = 0.0
        for (n, k) in FULL_GRID:
            config = ExperimentConfig(
                n_items=n, k_responses=k, epsilon=eps, phi=PHI_ALL_BOOT, seed=42,
                metrics=(MetricId.MAE, MetricId.WINS),
            )
            scores = mean_metric_scores(config, 150, threads=THREADS)
            acc_a += scores[MetricId.MAE]["score_a"]
            acc_b += scores[MetricId.MAE]["score_b"]
            acc_w += scores[MetricId.WINS]["score_b"]
        mae_a[eps] = acc_a / len(FULL_GRID)
        mae_b[eps] = acc_b / len(FULL_GRID)
        wins_b[eps] = acc_w / len(FULL_GRID)
    deltas = [mae_b[e] - mae_a[e] for e in eps_values]
    ok = _check(
        "[C4] delta-MAE strictly increasing over eps",
        all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:])),
        " -> ".join(f"{d:.5f}" for d in deltas),
    )
    wins_series = [wins_b[e] for e in eps_values]
    ok &= _check(
        "[C4] wins(B) strictly decreasing over eps",
        all(w1 > w2 for w1, w2 in zip(wins_series, wins_series[1:])),
        " -> ".join(f"{w:.4f}" for w in wins_series),
    )
    got = mae_a[0.005]
    ok &= _check(
        "[C4] mean MAE score of A over the grid",
        abs(got - 0.0677) <= 0.01,
        f"got {got:.4f}, table 0.0677, tol 0.01",
    )
    assert ok


# -- criterion 5: null calibration ---------------------------------------------------

def test_c5_null_calibration():
    ok = True
    for phi_tag in ("all,all", "all,boot", "boot,all", "boot,boot"):
        phi = SamplingStrategy.parse(phi_tag)
        means = {m: [] for m in (MetricId.MAE, MetricId.WINS, MetricId.MEMD)}
        for seed in range(12):
            config = ExperimentConfig(
                n_items=50, k_responses=8, epsilon=0.0, phi=phi, seed=seed
            )
            report = run_experiment(config, threads=THREADS)
            for m in means:
                means[m].append(report.p_value(m))
        for m, values in means.items():
            avg = float(np.mean(values))
            ok &= _check(
                f"[C5] expected p at eps=0, phi=({phi_tag}), {m.value}",
                0.4 <= avg <= 0.6,
                f"mean over 12 seeds {avg:.3f}",
            )
    # Homogeneous-scale null config: with heterogeneous per-item scales the
    # (unpaired) Welch test is genuinely conservative on these paired error
    # samples (shared gold means correlate them), which is a property of the
    # test, not of the implementation under check.
    prior = ItemPrior(uniform(0.0, 1.0), uniform(0.15, 0.15))
    baselines = (TestId.WELCH_T, TestId.WILCOXON_SIGNED_RANK, TestId.PERMUTATION_PAIRED)
    for test in baselines:
        config = ExperimentConfig(
            n_items=100, k_responses=5, epsilon=0.0, prior=prior, seed=98
        )
        report = estimate_power(config, test, trials=400, threads=THREADS)
        rate = report.points[0].power
        ok &= _check(
            f"[C5] type-I error of {test.value} at alpha=0.05",
            0.02 <= rate <= 0.08,
            f"rate {rate:.4f} over 400 trials",
        )
    assert ok


# -- criterion 6: oracle equivalences -------------------------------------------------

def test_c6_oracle_equivalences():
    rng = derive_rng(600)
    ok = True

    worst = 0.0
    for trial in range(30):
        n_alt = int(rng.integers(1, 101))
        n_null = int(rng.integers(1, 101))
        alt = rng.normal(size=n_alt)
        null = rng.normal(size=n_null)
        if trial % 3 == 0:
            alt, null = np.round(alt, 1), np.round(null, 1)
        p, _ = estimate_p_value(alt, null)
        expected, _ = p_value_oracle(alt, null)
        worst = max(worst, abs(p - expected))
    ok &= _check("[C6] estimate_p_value vs double loop (len<=100)", worst <= 1e-12,
                 f"max |diff| {worst:.2e}")

    worst = 0.0
    for m in (1, 3, 6, 9, 12):
        for _ in range(3):
            d = np.round(rng.normal(size=m), 1)
            if not np.any(d != 0):
                continue
            worst = max(worst, abs(wilcoxon_signed_rank(d) - wilcoxon_enumeration_oracle(d)))
    ok &= _check("[C6] wilcoxon exact vs 2^m enumeration (m<=12)", worst <= 1e-12,
                 f"max |diff| {worst:.2e}")

    worst = 0.0
    for n in (1, 4, 8, 12):
        for _ in range(3):
            x = rng.integers(0, 65, n) / 64.0
            y = rng.integers(0, 65, n) / 64.0
            worst = max(worst, abs(permutation_test_paired(x, y) - permutation_enumeration_oracle(x, y)))
    ok &= _check("[C6] permutation exact vs 2^N enumeration (N<=12)", worst == 0.0,
                 f"max |diff| {worst:.2e}")

    worst = 0.0
    for _ in range(40):
        x = rng.integers(0, 65, int(rng.integers(1, 7))) / 64.0
        y = rng.integers(0, 65, int(rng.integers(1, 7))) / 64.0
        worst = max(worst, abs(emd_1d(x, y) - emd_transport_oracle(x, y)))
    ok &= _check("[C6] emd_1d vs transport LP oracle (size<=6)", worst <= 1e-12,
                 f"max |diff| {worst:.2e}")
    assert ok


# -- criterion 7: power ranking on the toxicity-fitted config --------------------------

def toxicity_config(seed: int) -> ExperimentConfig:
    prior = ItemPrior(
        folded_normal(0.19, 0.11, lo=0.0, hi=1.0),
        triangular(-0.05, 0.21, 0.45, lo=0.0),
    )
    return ExperimentConfig(
        n_items=100,
        k_responses=5,
        epsilon=0.1,
        prior=prior,
        family=ResponseFamily(levels=5),
        metrics=(MetricId.MAE,),
        phi=SamplingStrategy.parse("boot,boot"),
        seed=seed,
    )


def test_c7_power_ranking():
    sweep = (50, 100, 250, 500, 1000)
    batches = (101, 202, 303)
    trials = 200
    medians: dict[TestId, list[float]] = {}
    for test in TestId:
        per_n = []
        for n in sweep:
            powers = [
                estimate_power(
                    toxicity_config(seed).with_(n_items=n), test, trials, threads=THREADS
                ).points[0].power
                for seed in batches
            ]
            per_n.append(float(np.median(powers)))
        medians[test] = per_n
        print(f"[C7] {test.value} power over N{list(sweep)}: "
              + " ".join(f"{p:.3f}" for p in per_n))

    def threshold(powers: list[float]) -> float:
        for n, p in zip(sweep, powers):
            if p >= 0.9:
                return n
        return float("inf")

    boot_threshold = threshold(medians[TestId.MULTISTAGE_BOOTSTRAP])
    ok = _check(
        "[C7] bootstrap reaches power 0.9 within the sweep",
        boot_threshold < float("inf"),
        f"threshold N = {boot_threshold}",
    )
    for test in (TestId.WELCH_T, TestId.WILCOXON_SIGNED_RANK, TestId.PERMUTATION_PAIRED):
        ok &= _check(
            f"[C7] bootstrap threshold <= {test.value} threshold",
            boot_threshold <= threshold(medians[test]),
            f"{boot_threshold} <= {threshold(medians[test])}",
        )
    boot = medians[TestId.MULTISTAGE_BOOTSTRAP]
    ok &= _check(
        "[C7] bootstrap power nondecreasing in N (0.02 allowance)",
        all(b2 >= b1 - 0.02 for b1, b2 in zip(boot, boot[1:])),
        " -> ".join(f"{p:.3f}" for p in boot),
    )
    assert ok


# -- criterion 8: fit self-recovery -----------------------------------------------------

def test_c8_fit_self_recovery():
    rng = derive_rng(800)
    loc_truth = folded_normal(0.19, 0.11, lo=0.0, hi=1.0)
    scale_truth = uniform(0.0, 0.3)
    stats = ItemStats(loc_truth.sample(rng, 30_000), scale_truth.sample(rng, 30_000))
    step = 0.01
    around = lambda center: tuple(round(center + step * i, 10) for i in range(-2, 3))
    report = fit_prior(
        stats,
        Family.FOLDED_NORMAL,
        {"mu": around(0.19), "sigma": around(0.11)},
        scale_family=Family.UNIFORM,
        scale_grid={"lo": around(0.0), "hi": around(0.3)},
        location_fixed={"lo": 0.0, "hi": 1.0},
        sim_count=120_000,
        seed=801,
    )
    report_again = fit_prior(
        stats,
        Family.FOLDED_NORMAL,
        {"mu": around(0.19), "sigma": around(0.11)},
        scale_family=Family.UNIFORM,
        scale_grid={"lo": around(0.0), "hi": around(0.3)},
        location_fixed={"lo": 0.0, "hi": 1.0},
        sim_count=120_000,
        seed=801,
    )
    loc = report.location.best.params
    scale = report.scale.best.params
    ok = _check(
        "[C8] location recovered within one grid step",
        abs(loc["mu"] - 0.19) <= step + 1e-9 and abs(loc["sigma"] - 0.11) <= step + 1e-9,
        f"mu {loc['mu']}, sigma {loc['sigma']}",
    )
    ok &= _check(
        "[C8] scale recovered within one grid step",
        abs(scale["lo"] - 0.0) <= step + 1e-9 and abs(scale["hi"] - 0.3) <= step + 1e-9,
        f"lo {scale['lo']}, hi {scale['hi']}",
    )
    ok &= _check(
        "[C8] rerun with the same seed is identical",
        report.to_json_dict() == report_again.to_json_dict(),
        "deterministic",
    )
    assert ok


# -- criterion 9: CLI determinism ---------------------------------------------------------

def _run_twice_per_thread_count(args: list[str], tmp_path: Path, name: str, capsys) -> bool:
    outputs = []
    for threads in ("1", "4"):
        for attempt in range(2):
            out = tmp_path / f"{name}-{threads}-{attempt}"
            code = cli_main(args + ["--threads", threads, "--out", str(out)])
            capsys.readouterr()
            if code != 0:
                return False
            outputs.append(out.read_bytes())
    return len(set(outputs)) == 1


def test_c9_cli_determinism(tmp_path, capsys):
    matrix = tmp_path / "data.jsonl"
    rows = []
    rng = derive_rng(900)
    for i in range(60):
        values = np.clip(rng.normal(0.4, 0.25, 5), 0, 1)
        rows.append(json.dumps({"item_id": str(i), "responses": [float(v) for v in values]}))
    matrix.write_text("\n".join(rows) + "\n", encoding="utf-8")

    commands = {
        "pvalue": [
            "pvalue", "--default-synthetic", "--n", "40", "--k", "5",
            "--epsilon", "0.1", "--b-alt", "200", "--b-null", "200", "--seed", "9",
        ],
        "table": [
            "table", "--default-synthetic", "--nk-pairs", "30:4,60:2",
            "--epsilon-values", "0.0,0.1", "--metric", "mae",
            "--b-alt", "100", "--b-null", "100", "--seed", "9",
        ],
        "power": [
            "power", "--default-synthetic", "--test", "bootstrap", "--n-sweep", "20,40",
            "--k", "3", "--epsilon", "0.2", "--trials", "12", "--b-null", "100",
            "--seed", "9",
        ],
        "fit": [
            "fit", "--input", str(matrix),
            "--location-family", "uniform", "--grid", "lo=0:0.2:0.1,hi=0.8:1:0.1",
            "--sim-count", "2000", "--seed", "9",
        ],
        "ecdf": ["ecdf", "--input", str(matrix), "--stat", "stds"],
    }
    outcomes = {
        name: _run_twice_per_thread_count(args, tmp_path, name, capsys)
        for name, args in commands.items()
    }
    # simulate writes one file per matrix; compare the triple across reruns
    # and thread counts.
    contents = []
    for threads in ("1", "4"):
        for attempt in range(2):
            prefix = tmp_path / f"sim-{threads}-{attempt}"
            code = cli_main(
                [
                    "simulate", "--default-synthetic", "--n", "5", "--k", "3",
                    "--epsilon", "0.1", "--seed", "9", "--threads", threads,
                    "--out", str(prefix),
                ]
            )
            capsys.readouterr()
            assert code == 0
            contents.append(
                tuple(Path(f"{prefix}.{m}.jsonl").read_bytes() for m in ("G", "A", "B"))
            )
    outcomes["simulate"] = len(set(contents)) == 1
    ok = True
    for name, good in outcomes.items():
        ok &= _check(
            f"[C9] {name} byte-identical across reruns and threads 1/4",
            good,
            "4 runs compared",
        )
    assert ok
