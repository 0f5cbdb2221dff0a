"""Command-line front end.

Subcommands: fit | simulate | pvalue | table | power | ecdf. Shared flags:
--seed, --threads, --out, --format. Exit codes: 0 success, 1 runtime
failure, 2 usage error. The parser types every flag value, so a malformed
value or a pair of conflicting flags exits 2 before any input is read.
Every command is deterministic given --seed, regardless of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

from . import rngstreams
from .config import ExperimentConfig, SamplingStrategy
from .distributions import Family
from .errors import InvalidParam, RaterPowerError, check_count
from .inference import run_columns, run_experiment
from .metrics import MetricId
from .simulator import ItemPrior, ResponseFamily, default_synthetic_prior, generate_triple

MEMD_PAPER_SCALE = 15.5  # documented display factor; see README on MEMD scaling

# power's TestId values, for the parser's --test choices (a test pins them to TestId).
_TESTS = ("bootstrap", "welch", "wilcoxon", "permutation")


def _lazy(module: str, name: str):
    """``module``'s function ``name``, imported on its first call: a command loads only what it runs."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


load_responses = _lazy("dataio", "load_responses")
save_matrix = _lazy("dataio", "save_matrix")
compute_ecdf = _lazy("fitting", "ecdf")
fit_prior = _lazy("fitting", "fit_prior")
grid_columns = _lazy("fitting", "grid_columns")
per_item_stats = _lazy("fitting", "per_item_stats")
power_sweeps = _lazy("power", "power_sweeps")


class UsageError(Exception):
    """A rule that spans several flags (or a flag and the --config file) is broken."""


# -- flag value types ----------------------------------------------------------------

def _typed(parse, expected: str):
    """An argparse ``type``: ``parse(text)``, whose ValueError exits 2 naming the flag."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _items(parse):
    """Parse each nonblank comma-separated entry of a text."""
    return lambda text: tuple(parse(p.strip()) for p in text.split(",") if p.strip())


def _at_least(kind, least, rule: str):
    """Parse one ``kind`` value; a value below ``least`` or not finite exits 2 stating ``rule``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= least):
            raise argparse.ArgumentTypeError(f"{rule}, got {text.strip()}")
        return value
    return parse


_COUNT = _at_least(int, 1, "each N and K must be >= 1")


def _nk_pair(text: str) -> tuple[int, int]:
    n, k = text.split(":")
    return _COUNT(n), _COUNT(k)


def _metrics(text: str) -> tuple[MetricId, ...]:
    return tuple(MetricId) if text == "all" else _items(MetricId)(text)


def _grid(text: str) -> dict[str, tuple[float, ...]]:
    """``name=start:stop:step`` or ``name=value`` entries: each name's grid values, each name once."""
    grid: dict[str, tuple[float, ...]] = {}
    for token in filter(str.strip, text.split(",")):
        name, valspec = token.split("=", 1)
        if name.strip() in grid:
            raise argparse.ArgumentTypeError(f"{name.strip()!r} appears more than once in {text!r}")
        parts = [float(p) for p in valspec.split(":")]
        if len(parts) == 3:
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step)) + 1
            values = tuple(round(start + i * step, 12) for i in range(count) if start + i * step <= stop + step * 1e-9)
        elif len(parts) == 1:
            values = tuple(parts)
        else:
            raise ValueError
        grid[name.strip()] = values
    if not grid:
        raise ValueError
    return grid


def _clip(text: str) -> dict[str, float]:
    """``lo,hi`` censoring bounds; a blank or ``none`` side stays open."""
    lo, hi = text.split(",")
    return {name: float(part) for name, part in (("lo", lo), ("hi", hi))
            if part.strip().lower() not in ("", "none")}


def _positive(kind, noun: str):
    """An argparse ``type`` that accepts a finite ``kind`` value > 0."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or value <= 0:
            raise ValueError
        return value
    return _typed(parse, f"{noun} > 0")


def _load_prior(args) -> ItemPrior | None:
    """The prior the flags choose, or None when ``--input`` supplies the data."""
    if sum((args.default_synthetic, args.prior_spec is not None, args.input is not None)) != 1:
        raise UsageError("choose exactly one of --default-synthetic, --prior-spec, --input")
    if args.input is not None:
        if args.n_items is not None or args.k_responses is not None:
            raise UsageError("--n/--k come from the input matrices in --input mode")
        return None
    if args.default_synthetic:
        return default_synthetic_prior()
    return ItemPrior.from_json_dict(_read_json(args.prior_spec, "prior-spec"))


def _read_json(path: str, name: str):
    """File ``path``'s JSON value; content that is not JSON raises ``InvalidParam`` naming ``name``."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data)
    except ValueError as exc:
        raise InvalidParam(name, f"not a JSON file: {exc}") from None


def _base_config(args) -> ExperimentConfig:
    """The ``--config`` file's config, overridden by the flags and the prior they choose."""
    # A flag that is unset, or that the command does not take, keeps the config's value.
    updates = {f.name: value for f in dataclasses.fields(ExperimentConfig)
               if (value := getattr(args, f.name, None)) is not None}
    if args.levels is not None:
        updates["family"] = ResponseFamily(args.levels)
    config = ExperimentConfig(**updates)  # the flags alone: a bad value exits 2 before any file is read
    prior = _load_prior(args)
    if args.config:
        config = ExperimentConfig.from_json_dict(_read_json(args.config, "config")).with_(**updates)
    return config if prior is None else config.with_(prior=prior)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return out.getvalue()


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    """Write ``obj`` as the commands' JSON: two-space indents and a final newline."""
    _emit(args, json.dumps(obj, indent=2) + "\n")


# -- commands ----------------------------------------------------------------------

def cmd_pvalue(args) -> None:
    config = _base_config(args)
    given = None if args.input is None else tuple(load_responses(p, levels=args.levels) for p in args.input)
    report = run_experiment(config, given=given, threads=args.threads)
    obj = report.to_json_dict()
    if args.memd_scale != 1.0 and MetricId.MEMD.value in obj["results"]:
        # Wasserstein distances scale linearly, so every score summary does too.
        obj["memd_scale"] = args.memd_scale
        result = obj["results"][MetricId.MEMD.value]
        for key in ("median_alt", "median_null"):
            result[key] *= args.memd_scale
        for summary in (result["alt_scores"], result["null_scores"]):
            for key in ("mean", "std", "min", "q25", "median", "q75", "max"):
                summary[key] *= args.memd_scale
    _emit_json(args, obj)


def cmd_table(args) -> None:
    if args.nk_pairs is not None and (args.n_values, args.k_values) != (None, None):
        raise UsageError("--nk-pairs replaces --n-values and --k-values; give one or the other")
    if args.pivot and args.format == "json":
        raise UsageError("--pivot writes CSV only; drop --format json")
    pairs = args.nk_pairs or tuple(itertools.product(args.n_values or (), args.k_values or ()))
    eps_values = args.epsilon_values
    if not pairs or not eps_values:
        raise UsageError("table needs --epsilon-values and --nk-pairs (or --n-values and --k-values)")
    base = _base_config(args)
    metrics = base.metrics
    if args.pivot and len(metrics) != 1:
        raise UsageError("--pivot needs a single --metric")

    # One column of epsilon values per (N, K), whose draws are shared; every
    # column runs on one pool.
    columns = [(base.with_(n_items=n, k_responses=k, epsilon=eps_values[0]), eps_values) for n, k in pairs]
    rows = []
    for (n, k), reports in zip(pairs, run_columns(columns, threads=args.threads)):
        for eps, report in zip(eps_values, reports):
            for metric in metrics:
                rows.append((n, k, eps, metric.value, report.p_value(metric)))

    if args.pivot:
        eps_values, pairs = list(dict.fromkeys(eps_values)), list(dict.fromkeys(pairs))
        lookup = {(r[0], r[1], r[2]): r[4] for r in rows}
        header = ["N", "K"] + [f"{e:g}" for e in eps_values]
        body = [
            [n, k] + [f"{lookup[(n, k, e)]:.4f}" for e in eps_values] for (n, k) in pairs
        ]
        _emit(args, _csv_text(header, body))
        return
    header = ["N", "K", "epsilon", "metric", "p_value"]
    body: list[list] = [[n, k, float(e), m, float(p)] for (n, k, e, m, p) in rows]
    if args.group_by_nk:
        header.append("nk")
        for row in body:
            row.append(row[0] * row[1])
        body.sort(key=lambda r: (r[5], r[0], r[2], r[3]))
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in body]
        _emit_json(args, {"schema_version": 1, "kind": "pvalue_table", "rows": payload})
    else:
        _emit(args, _csv_text(header, body))


def cmd_power(args) -> None:
    config = _base_config(args)
    if args.k_sweep is not None:
        axis, values = "k_responses", args.k_sweep
    else:
        axis, values = "n_items", (args.n_sweep if args.n_sweep is not None else (config.n_items,))
    from .power import TestId

    tests = tuple(TestId) if args.test == "all" else (TestId(args.test),)
    reports = power_sweeps(config, tests, args.trials, axis, values, threads=args.threads)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "kind": "power_report",
            "alpha": config.alpha,
            "trials": args.trials,
            "axis": axis,
            "tests": {r.test.value: r.to_json_dict()["points"] for r in reports},
        }
        _emit_json(args, payload)
        return
    rows = []
    for report in reports:
        for point in report.points:
            rows.append([axis, point.axis_value, report.test.value, float(point.power)])
    _emit(args, _csv_text(["axis", "axis_value", "test", "power"], rows))


def cmd_fit(args) -> None:
    if args.scale_family is not None and args.scale_grid is None:
        raise UsageError("--scale-family needs --scale-grid")
    if args.scale_family is None and (args.scale_grid is not None or args.scale_clip is not None):
        raise UsageError("--scale-grid and --scale-clip need --scale-family")
    # A grid or clip naming a parameter the family does not take, or lacking one it
    # needs, or a negative seed, exits 2 before the input is read.
    grid_columns(args.location_family, args.location_grid, args.location_clip or {})
    if args.scale_family is not None:
        grid_columns(args.scale_family, args.scale_grid, args.scale_clip or {})
    check_count("seed", args.seed or 0, "seed must be a nonnegative integer", least=0)
    matrix = load_responses(args.input, levels=args.levels)
    report = fit_prior(
        per_item_stats(matrix),
        args.location_family,
        args.location_grid,
        scale_family=args.scale_family,
        scale_grid=args.scale_grid,
        location_fixed=args.location_clip,
        scale_fixed=args.scale_clip,
        sim_count=args.sim_count,
        seed=args.seed or 0,
        threads=args.threads,
    )
    _emit_json(args, report.to_json_dict())


def cmd_simulate(args) -> None:
    config = _base_config(args)
    rng = rngstreams.derive_rng(config.seed, rngstreams.BASE)
    g, a, b = generate_triple(config, rng)
    suffix = "csv" if args.format == "csv" else "jsonl"
    paths = []
    for name, matrix in (("G", g), ("A", a), ("B", b)):
        path = Path(f"{args.out}.{name}.{suffix}")
        save_matrix(matrix, path)
        paths.append(str(path))
    sys.stdout.write("\n".join(paths) + "\n")


def cmd_ecdf(args) -> None:
    matrix = load_responses(args.input, levels=args.levels)
    stats = per_item_stats(matrix)
    values = stats.means if args.stat == "means" else stats.stds
    curve = compute_ecdf(values)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "kind": "ecdf",
            "stat": args.stat,
            "points": [{"x": x, "cdf": f} for (x, f) in curve.rows()],
        }
        _emit_json(args, payload)
    else:
        _emit(args, _csv_text(["x", "cdf"], [list(r) for r in curve.rows()]))


# -- parser ---------------------------------------------------------------------------

def _add_shared(p: argparse.ArgumentParser, *, formats: tuple[str, ...], default_format: str,
                out_prefix: bool = False) -> None:
    p.add_argument("--seed", type=int, default=None, help="root RNG seed (default 0)")
    p.add_argument("--threads", type=_positive(int, "an integer"), default=1)
    p.add_argument("--out", default=None, required=out_prefix,
                   help="path prefix of the output files" if out_prefix else "output path (default stdout)")
    p.add_argument("--format", choices=formats, default=default_format)


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--default-synthetic", action="store_true",
                   help="locations U(0,1), scales U(0,0.3)")
    p.add_argument("--prior-spec", default=None, help="fitted prior JSON (fit output)")
    p.add_argument("--levels", type=int, default=None,
                   help="discrete response domain with this many levels")
    p.set_defaults(input=None)  # pvalue adds --input; the other commands have none


# Each flag's dest is the ExperimentConfig field it sets (see _base_config).
_EXPERIMENT_FLAGS = {
    "--n": {"dest": "n_items", "metavar": "N", "type": int, "help": "items per test set"},
    "--k": {"dest": "k_responses", "metavar": "K", "type": int, "help": "responses per item"},
    "--epsilon": {"type": float},
    "--b-alt": {"type": int, "help": "alternative resamples (default 500)"},
    "--b-null": {"type": int, "help": "null resamples (default 500)"},
    "--alpha": {"type": float},
    "--phi": {"type": _typed(SamplingStrategy.parse, "items,responses, each all or boot"),
              "help": "sampling strategy items,responses (e.g. all,boot)"},
    "--metric": {"dest": "metrics", "type": _typed(_metrics, "mae, wins, memd, a comma list, or all"),
                 "help": "mae, wins, memd, comma list, or all"},
}


def _add_experiment_flags(p: argparse.ArgumentParser, *skip: str) -> None:
    """``--config`` and every experiment flag but ``skip``: a command takes only the flags it reads."""
    for flag, kwargs in _EXPERIMENT_FLAGS.items():
        if flag not in skip:
            p.add_argument(flag, default=None, **kwargs)
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raterpower",
        description="Simulation-based power analysis for rater-response evaluations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    counts = _typed(_items(_COUNT), "a comma-separated integer list")
    family = _typed(Family, "one of " + ", ".join(f.value for f in Family))
    grid = _typed(_grid, "name=start:stop:step or name=value entries")
    clip = _typed(_clip, "lo,hi (use 'none' to leave a side open)")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # No prefix matching, so that a flag a command lacks (table's
        # --epsilon) is an error rather than a prefix of one it has.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = command("pvalue", "expected one-sided p-value for one (N, K, epsilon)")
    _add_prior_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--input", nargs=3, metavar=("G", "A", "B"), default=None,
                   help="three matrix files; runs the bootstrap on the given data")
    p.add_argument("--memd-scale", type=_positive(float, "a finite number"), default=1.0,
                   help="display factor applied to MEMD medians (paper tables used a scaled variant)")
    _add_shared(p, formats=("json",), default_format="json")
    p.set_defaults(func=cmd_pvalue)

    p = command("table", "p-value grid over N, K and epsilon")
    _add_prior_flags(p)
    _add_experiment_flags(p, "--n", "--k", "--epsilon")
    p.add_argument("--n-values", type=counts, default=None)
    p.add_argument("--k-values", type=counts, default=None)
    p.add_argument("--epsilon-values", required=True,
                   type=_typed(_items(_at_least(float, 0, "epsilon must be >= 0 and finite")),
                               "a comma-separated number list"))
    p.add_argument("--nk-pairs", type=_typed(_items(_nk_pair), "entries like 100:10,1000:1"), default=None,
                   help="zipped pairs instead of --n-values x --k-values, e.g. 100:10,1000:1")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--group-by-nk", action="store_true", help="annotate and sort by equal N*K groups")
    layout.add_argument("--pivot", action="store_true",
                        help="wide CSV layout: one row per (N,K), one column per epsilon")
    _add_shared(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_table)

    p = command("power", "power curves for the bootstrap test and baselines")
    _add_prior_flags(p)
    _add_experiment_flags(p, "--b-alt")
    p.add_argument("--test", choices=[*_TESTS, "all"], default="all")
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--n-sweep", type=counts, default=None, help="comma list of N values")
    sweep.add_argument("--k-sweep", type=counts, default=None, help="comma list of K values")
    p.add_argument("--trials", type=_positive(int, "an integer"), default=200)
    _add_shared(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_power)

    p = command("fit", "grid-search distribution fit to per-item stats")
    p.add_argument("--input", required=True, help="matrix file (jsonl or csv)")
    p.add_argument("--levels", type=int, default=None, help="map raw ordinal labels onto [0,1]")
    p.add_argument("--location-family", type=family, required=True)
    p.add_argument("--location-grid", "--grid", type=grid, required=True)
    p.add_argument("--location-clip", type=clip, default=None, help="fixed censoring bounds lo,hi")
    p.add_argument("--scale-family", type=family, default=None)
    p.add_argument("--scale-grid", type=grid, default=None)
    p.add_argument("--scale-clip", type=clip, default=None)
    p.add_argument("--sim-count", type=_positive(int, "an integer"), default=None)
    _add_shared(p, formats=("json",), default_format="json")
    p.set_defaults(func=cmd_fit)

    p = command("simulate", "write one (G, A, B) triple")
    _add_prior_flags(p)
    _add_experiment_flags(p, "--b-alt", "--b-null", "--alpha", "--phi", "--metric")
    _add_shared(p, formats=("jsonl", "csv"), default_format="jsonl", out_prefix=True)
    p.set_defaults(func=cmd_simulate)

    p = command("ecdf", "empirical CDF of per-item means or stds")
    p.add_argument("--input", required=True)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--stat", choices=("means", "stds"), default="means")
    _add_shared(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_ecdf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except (UsageError, InvalidParam) as exc:
        # Bad config values surface as usage errors; InvalidParam is a
        # RaterPowerError, so this handler comes first.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RaterPowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
