"""Stream contract: fixed-seed outputs are pinned byte for byte.

The RNG stream order documented in ``simulator.simulate_batch`` and
``inference`` is the reproducibility contract: for a fixed seed every
command prints the same bytes. Each case below runs a small CLI journey (or
the library's ``mean_metric_scores``) and compares the SHA-256 of its
output with a digest recorded before the engine was refactored; the
``fit-*`` digests were recorded before ``fit`` scored its candidates in
blocks, and ``power-trial-p-values`` before the Wilcoxon ranks left SciPy
and the permutation test drew its signs in row blocks; ``table-grid`` and
``table-repeated-pair`` were recorded before ``table`` built its (N, K)
columns without a grid type. A
deliberate stream change must re-record these digests and say so in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from raterpower import ExperimentConfig, ResponseFamily, SamplingStrategy, TestId, mean_metric_scores
from raterpower import power
from raterpower.cli import main
from raterpower.simulator import default_synthetic_prior, toxicity_prior

DIGESTS = {
    "pvalue-boot-boot": "837d00ffd074c5c64189f0938800e46cb9fc20af07d87a09792e77b59bf3ed64",
    "pvalue-all-boot": "0d860d51a443c1b2afaa8820f59cf7689e4b0902e68df2240e3fa00251e1aa1c",
    "pvalue-toxicity-boot-all": "c745d6deaa0cfe36331d9c9af5db85c910ebb7a898aeb8b8f2a85d25c5a468b8",
    "pvalue-multichunk": "a4d689dead508c240cb56f736897c67e3e7a1390113fd6f7c3c5ffe728a76d69",
    "pvalue-input-rect": "9c23061e7ec03985446dc49f1e1137629900f0ed74b02b782b80c8a1b76b391a",
    "pvalue-input-ragged": "591caae90783b71f3163ad65b01f9153e12739bc8b905c6099c17d1f3d89caba",
    "table": "7fb1d01f4f683a7fad3bb60cc126936ce6ad3bc40631852e1291f365b6899252",
    "table-toxicity-boot-boot": "1ae754fb189ab52d210f755f664df44543e77eaf8391cf32a905f079efbeffcc",
    "table-grid": "d8f78271f9db56612f24e89b21f0c593e47e1a543a782c784658cb63d1817923",
    "table-repeated-pair": "0913e06c9ef82abe65cf20d9673f5e243547300e211a96876368fa6fad300c53",
    "power": "159fd81fc161eacb74478d7291df84828ecda4f7c17328dd8505b605ca59d0b9",
    "power-trial-p-values": "27bedc4460d1e813ebfa75f6056c459e016480437710ea7d71b6578a748b7acd",
    "simulate": "2bedd46638057133b2ac66e1da5868c391c0a29971522fb71c6697adfeaab114",
    "simulate-toxicity": "246aebcc6d25b55e385e52ba9656a034d98fee1f2b6e4cb26f25624a743bcffc",
    "mean-metric-scores": "96617ba2e8cc0e904b288813f96766685713d7f7f51838d793e41c149a53a3f1",
    "fit-ragged-clip": "e9b86ae98f35943da0aaec323cbd254e252afd5f546a9dfb21a9fde730a034cd",
    "fit-normal": "0443ec46cc653aa35bbd09997b8abfc693e89d6940d497dfbbe9a1a8fac733b0",
    "fit-censored-normal": "aed46e841e932bf33a105620b445b7d2b1822cb0f078e62cd38ca60b7d19ad45",
    "fit-truncated-normal": "f6d0787e63f6276ee2611ed98aec264174822133d7dce00dbef501ee015801c1",
    "fit-uniform": "6bda23ee960206cbeaaf98d1e80e68be33806b55bfef6586ae702f4ed8f9ac2e",
    "fit-gaussian-mixture2": "0526880f2ccea61ba27e3e9950a790ad45460451966fc029342a6764806186ba",
    "fit-skipped-candidates": "07d79f2c3cb6de8a713a488f2ff69325057a8196e32ab84865ef7cec760c3d06",
    "fit-equal-count": "f8aa33ded42eb81c2d2774988b03f8ac4733345f7ce95d86b6d942c9632c8abf",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(args, out: Path) -> bytes:
    assert main([*args, "--out", str(out)]) == 0
    return out.read_bytes()


def _write_prior(tmp_path: Path) -> Path:
    path = tmp_path / "toxicity.json"
    path.write_text(json.dumps(toxicity_prior().to_json_dict()), encoding="utf-8")
    return path


def _write_matrices(tmp_path: Path, counts) -> list[Path]:
    """Write a (G, A, B) triple of 5-level ratings with the given per-item counts."""
    rng = np.random.default_rng(11)
    paths = []
    for name, shift in (("G", 0.0), ("A", 0.0), ("B", 0.1)):
        lines = []
        for i, k in enumerate(counts):
            x = np.clip(rng.normal(0.3 + shift, 0.2, k), 0.0, 1.0)
            values = (np.floor(x * 4 + 0.5) / 4).tolist()
            lines.append(json.dumps({"item_id": f"i{i}", "responses": values}))
        path = tmp_path / f"m.{name}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# Ragged per-item counts of the fit cases' input: 3-12 responses per item.
FIT_COUNTS = [3, 7, 12, 5, 9, 4, 11, 6, 8, 10] * 6

# The real-data fit journey: folded-normal location and triangular scale,
# both censored into fixed bounds.
FIT_CLIP = ["--location-family", "folded-normal", "--grid", "mu=0:0.5:0.02,sigma=0.05:0.3:0.025",
            "--location-clip", "0,1", "--scale-family", "triangular",
            "--scale-grid", "a=-0.1:0:0.05,b=0.1:0.3:0.05,c=0.4:0.5:0.05", "--scale-clip", "0,none"]

# One location fit per other family; zero scales and lo == hi are legal
# degenerate candidates.
FIT_FAMILIES = {
    "fit-normal": ["--location-family", "normal", "--grid", "mu=0:0.6:0.05,sigma=0:0.3:0.05"],
    "fit-censored-normal": ["--location-family", "censored-normal",
                            "--grid", "mu=-0.1:0.6:0.05,sigma=0:0.4:0.1", "--location-clip", "0,1"],
    "fit-truncated-normal": ["--location-family", "truncated-normal",
                             "--grid", "mu=0:0.6:0.1,sigma=0:0.4:0.1", "--location-clip", "0,1"],
    "fit-uniform": ["--location-family", "uniform", "--grid", "lo=0:0.3:0.05,hi=0.3:0.8:0.1"],
    "fit-gaussian-mixture2": ["--location-family", "gaussian-mixture2",
                              "--grid", "mu1=0.1:0.3:0.1,sigma1=0:0.2:0.1,mu2=0.4:0.6:0.2,"
                                        "sigma2=0.1,kappa=0:1:0.25"],
}

PVALUE = ["pvalue", "--default-synthetic", "--n", "30", "--k", "4", "--epsilon", "0.1",
          "--metric", "all", "--b-alt", "60", "--b-null", "60", "--seed", "3"]


def _case_output(name: str, tmp_path: Path) -> bytes:
    out = tmp_path / "out"
    if name == "pvalue-boot-boot":
        return _run([*PVALUE, "--phi", "boot,boot"], out)
    if name == "pvalue-all-boot":
        return _run([*PVALUE, "--phi", "all,boot"], out)
    if name == "pvalue-toxicity-boot-all":
        return _run([
            "pvalue", "--prior-spec", str(_write_prior(tmp_path)), "--levels", "5",
            "--n", "25", "--k", "5", "--epsilon", "0.05", "--metric", "all",
            "--phi", "boot,all", "--b-alt", "50", "--b-null", "50", "--seed", "4",
        ], out)
    if name == "pvalue-multichunk":
        # N*K = 20000 gives 100-resample chunks: three chunks per arm.
        args = ["pvalue", "--default-synthetic", "--n", "500", "--k", "40", "--epsilon", "0.02",
                "--metric", "all", "--phi", "boot,boot", "--b-alt", "250", "--b-null", "250",
                "--seed", "5"]
        one = _run([*args, "--threads", "1"], out)
        assert _run([*args, "--threads", "2"], tmp_path / "out2") == one
        return one
    if name == "pvalue-input-rect":
        g, a, b = _write_matrices(tmp_path, [4] * 20)
        return _run(["pvalue", "--input", str(g), str(a), str(b), "--phi", "boot,boot",
                     "--metric", "all", "--b-alt", "40", "--b-null", "40", "--seed", "6"], out)
    if name == "pvalue-input-ragged":
        g, a, b = _write_matrices(tmp_path, [2, 5, 3, 7, 4, 6, 1, 3, 5, 8, 2, 4])
        args = ["pvalue", "--input", str(g), str(a), str(b), "--phi", "boot,boot",
                "--metric", "all", "--b-alt", "30", "--b-null", "30", "--seed", "7"]
        one = _run([*args, "--threads", "1"], out)
        assert _run([*args, "--threads", "2"], tmp_path / "out2") == one
        return one
    if name == "table":
        return _run(["table", "--default-synthetic", "--nk-pairs", "20:3,15:1",
                     "--epsilon-values", "0.0,0.1", "--metric", "all", "--phi", "all,boot",
                     "--b-alt", "40", "--b-null", "40", "--seed", "8"], out)
    if name == "table-grid":
        # The --n-values x --k-values product: four (N, K) columns.
        args = ["table", "--default-synthetic", "--n-values", "10,20", "--k-values", "2,3",
                "--epsilon-values", "0,0.1", "--metric", "all", "--phi", "all,boot",
                "--b-alt", "40", "--b-null", "40", "--seed", "16"]
        one = _run([*args, "--threads", "1"], out)
        assert _run([*args, "--threads", "2"], tmp_path / "out2") == one
        return one
    if name == "table-repeated-pair":
        # A pair given twice prints its rows twice, the same bytes each time.
        return _run(["table", "--default-synthetic", "--nk-pairs", "20:3,20:3,15:1",
                     "--epsilon-values", "0.0,0.1", "--metric", "all", "--phi", "all,boot",
                     "--b-alt", "40", "--b-null", "40", "--seed", "8"], out)
    if name == "table-toxicity-boot-boot":
        # Three epsilon values per (N, K) column; at 1000:20 a chunk holds
        # 100 resamples, so each arm has two chunks and --threads 2 splits them.
        args = ["table", "--prior-spec", str(_write_prior(tmp_path)), "--levels", "5",
                "--nk-pairs", "25:4,10:1,1000:20", "--epsilon-values", "0,0.02,0.1",
                "--metric", "all", "--phi", "boot,boot", "--b-alt", "150", "--b-null", "150",
                "--seed", "13"]
        one = _run([*args, "--threads", "1"], out)
        assert _run([*args, "--threads", "2"], tmp_path / "out2") == one
        return one
    if name == "power":
        return _run(["power", "--prior-spec", str(_write_prior(tmp_path)), "--levels", "5",
                     "--test", "all", "--n-sweep", "20,40", "--k", "4", "--epsilon", "0.1",
                     "--trials", "10", "--b-null", "40", "--seed", "9"], out)
    if name == "power-trial-p-values":
        # Every test's p on four trials. N = 12 runs the exact permutation and
        # Wilcoxon tests, N = 40 the Monte Carlo permutation test and the
        # Wilcoxon normal approximation (with ties on the 5-level prior).
        values = []
        for prior, family in ((default_synthetic_prior(), ResponseFamily()),
                              (toxicity_prior(), ResponseFamily(5))):
            for n in (12, 40):
                config = ExperimentConfig(n_items=n, k_responses=4, epsilon=0.1, prior=prior,
                                          family=family, b_null=40, seed=15)
                values.append([power._trial_p_value(config, tuple(TestId), t) for t in range(4)])
        return repr(values).encode()
    if name == "simulate":
        assert main(["simulate", "--default-synthetic", "--n", "6", "--k", "3",
                     "--epsilon", "0.1", "--seed", "10", "--out", str(out)]) == 0
        return b"".join(Path(f"{out}.{m}.jsonl").read_bytes() for m in "GAB")
    if name == "simulate-toxicity":
        assert main(["simulate", "--prior-spec", str(_write_prior(tmp_path)), "--levels", "5",
                     "--n", "6", "--k", "3", "--epsilon", "0.1", "--seed", "10",
                     "--format", "csv", "--out", str(out)]) == 0
        return b"".join(Path(f"{out}.{m}.csv").read_bytes() for m in "GAB")
    if name == "mean-metric-scores":
        values = []
        for prior, family in ((default_synthetic_prior(), ResponseFamily()),
                              (toxicity_prior(), ResponseFamily(5))):
            for phi in ("boot,boot", "all,boot", "boot,all", "all,all"):
                config = ExperimentConfig(n_items=20, k_responses=4, epsilon=0.1, prior=prior,
                                          family=family, phi=SamplingStrategy.parse(phi), seed=12)
                values.append(mean_metric_scores(config, 30))
        return repr(values).encode()
    if name.startswith("fit-"):
        g = _write_matrices(tmp_path, FIT_COUNTS)[0]
        fit = ["fit", "--input", str(g), "--seed", "14"]
        if name == "fit-ragged-clip":
            one = _run([*fit, *FIT_CLIP, "--threads", "1"], out)
            assert _run([*fit, *FIT_CLIP, "--threads", "2"], tmp_path / "out2") == one
            return one
        if name in FIT_FAMILIES:
            return _run([*fit, *FIT_FAMILIES[name]], out)
        if name == "fit-skipped-candidates":
            # lo > hi, a > b and b > c fail validation and are skipped, so
            # candidate indices (and their streams) run behind grid indices.
            return _run([*fit, "--location-family", "uniform", "--grid", "lo=0:0.6:0.1,hi=0.1:0.5:0.1",
                         "--scale-family", "triangular",
                         "--scale-grid", "a=0:0.2:0.1,b=0:0.2:0.1,c=0.1:0.3:0.1",
                         "--threads", "2"], out)
        if name == "fit-equal-count":
            # As many simulated draws as items: the sorted-difference branch.
            return _run([*fit, *FIT_CLIP, "--sim-count", str(len(FIT_COUNTS))], out)
    raise AssertionError(name)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stream_contract(name, tmp_path):
    assert _sha(_case_output(name, tmp_path)) == DIGESTS[name]
