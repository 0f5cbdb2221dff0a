"""Command-line front end.

Subcommands: fit | simulate | pvalue | table | power | ecdf. Shared flags:
--seed, --threads, --out, --format. Exit codes: 0 success, 1 runtime
failure, 2 usage error. Every command is deterministic given --seed,
regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, GridSpec, Mode, SamplingStrategy
from .dataio import load_responses, report_to_json, save_matrix
from .distributions import Family
from .errors import InvalidParam, RaterPowerError
from .fitting import ecdf as compute_ecdf
from .fitting import fit_prior, per_item_stats
from .inference import run_columns, run_experiment
from .metrics import MetricId
from .power import TestId, power_sweeps
from .simulator import ItemPrior, ResponseFamily, default_synthetic_prior

MEMD_PAPER_SCALE = 15.5  # documented display factor; see README on MEMD scaling


class UsageError(Exception):
    pass


# -- small parsers ---------------------------------------------------------------

def _parse_list(text: str, flag: str, kind=int) -> tuple:
    try:
        return tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise UsageError(f"{flag} expects a comma-separated {noun} list")


def _parse_nk_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in text.split(","):
        if not token.strip():
            continue
        try:
            n, k = token.split(":")
            pairs.append((int(n), int(k)))
        except ValueError:
            raise UsageError("--nk-pairs expects entries like 100:10,1000:1")
    if not pairs:
        raise UsageError("--nk-pairs is empty")
    return tuple(pairs)


def _parse_grid(text: str, flag: str) -> dict[str, tuple[float, ...]]:
    grid: dict[str, tuple[float, ...]] = {}
    for token in text.split(","):
        if not token.strip():
            continue
        if "=" not in token:
            raise UsageError(f"{flag}: expected name=start:stop:step, got {token!r}")
        name, valspec = token.split("=", 1)
        parts = valspec.split(":")
        try:
            if len(parts) == 1:
                values = (float(parts[0]),)
            elif len(parts) == 3:
                start, stop, step = (float(p) for p in parts)
                if step <= 0 or stop < start:
                    raise ValueError
                count = int(round((stop - start) / step)) + 1
                values = tuple(round(start + i * step, 12) for i in range(count) if start + i * step <= stop + step * 1e-9)
            else:
                raise ValueError
        except ValueError:
            raise UsageError(f"{flag}: bad values for {name!r}; use start:stop:step or a single number")
        grid[name.strip()] = values
    if not grid:
        raise UsageError(f"{flag} is empty")
    return grid


def _parse_metrics(text: str) -> tuple[MetricId, ...]:
    if text == "all":
        return (MetricId.MAE, MetricId.WINS, MetricId.MEMD)
    try:
        return tuple(MetricId(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError("--metric expects mae, wins, memd, a comma list, or all")


def _parse_clip(text: str | None, flag: str) -> dict[str, float]:
    if text is None:
        return {}
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects lo,hi (use 'none' to leave a side open)")
    out = {}
    for name, part in zip(("lo", "hi"), parts):
        part = part.strip().lower()
        if part not in ("", "none"):
            try:
                out[name] = float(part)
            except ValueError:
                raise UsageError(f"{flag}: bad bound {part!r}")
    return out


def _load_prior(args) -> ItemPrior:
    chosen = [bool(args.default_synthetic), args.prior_spec is not None]
    if hasattr(args, "input") and args.input is not None:
        chosen.append(True)
    if sum(chosen) != 1:
        raise UsageError("choose exactly one of --default-synthetic, --prior-spec, --input")
    if args.default_synthetic:
        return default_synthetic_prior()
    obj = json.loads(Path(args.prior_spec).read_text(encoding="utf-8"))
    if "location_spec" not in obj or obj.get("scale_spec") is None:
        raise InvalidParam("prior-spec", "fitted JSON needs location_spec and scale_spec")
    return ItemPrior.from_json_dict(obj)


# ExperimentConfig field set by each flag that needs no conversion.
_FLAG_FIELDS = {"n": "n_items", "k": "k_responses", "epsilon": "epsilon", "b_alt": "b_alt",
                "b_null": "b_null", "alpha": "alpha", "seed": "seed"}


def _base_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json_dict(
            json.loads(Path(args.config).read_text(encoding="utf-8"))
        )
    else:
        config = ExperimentConfig()
    updates = {field: getattr(args, flag) for flag, field in _FLAG_FIELDS.items()
               if getattr(args, flag) is not None}
    if args.phi is not None:
        updates["phi"] = SamplingStrategy.parse(args.phi)
    if args.metric is not None:
        updates["metrics"] = _parse_metrics(args.metric)
    if args.levels is not None:
        updates["family"] = ResponseFamily(args.levels)
    return config.with_(**updates)


def _csv_text(header: list[str], rows: list[list]) -> str:
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


# -- commands ----------------------------------------------------------------------

def cmd_pvalue(args) -> None:
    given = None
    if args.input is not None:
        if args.default_synthetic or args.prior_spec is not None:
            raise UsageError("choose exactly one of --default-synthetic, --prior-spec, --input")
        matrices = [load_responses(p, levels=args.levels) for p in args.input]
        given = (matrices[0], matrices[1], matrices[2])
        if args.n is not None or args.k is not None:
            raise UsageError("--n/--k come from the input matrices in --input mode")
        config = _base_config(args).with_(
            mode=Mode.BOOTSTRAP_OF_GIVEN,
            n_items=given[0].n_items,
            k_responses=given[0].rows[0].size,
        )
    else:
        prior = _load_prior(args)
        config = _base_config(args).with_(prior=prior, mode=Mode.PARAMETRIC)
    config = config.validate()
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
    _emit(args, json.dumps(obj, indent=2) + "\n")


def cmd_table(args) -> None:
    prior = _load_prior(args)
    base = _base_config(args).with_(prior=prior)
    metrics = _parse_metrics(args.metric if args.metric is not None else "all")
    if args.pivot and len(metrics) != 1:
        raise UsageError("--pivot needs a single --metric")
    base = base.with_(metrics=metrics)
    grid = GridSpec(
        n_values=_parse_list(args.n_values, "--n-values") if args.n_values else (),
        k_values=_parse_list(args.k_values, "--k-values") if args.k_values else (),
        epsilon_values=_parse_list(args.epsilon_values, "--epsilon-values", float),
        nk_pairs=_parse_nk_pairs(args.nk_pairs) if args.nk_pairs else None,
    ).validate()

    # One column of epsilon values per (N, K), whose draws are shared; every
    # column runs on one pool.
    columns = []
    for (n, k), cells in itertools.groupby(grid.cells(), key=lambda cell: cell[:2]):
        eps_values = [e for _, _, e in cells]
        columns.append((base.with_(n_items=n, k_responses=k, epsilon=eps_values[0]), eps_values))
    rows = []
    for (config, eps_values), reports in zip(columns, run_columns(columns, threads=args.threads)):
        for eps, report in zip(eps_values, reports):
            for metric in metrics:
                rows.append((config.n_items, config.k_responses, eps, metric.value, report.p_value(metric)))

    if args.pivot:
        eps_values = list(dict.fromkeys(r[2] for r in rows))
        pairs = list(dict.fromkeys((r[0], r[1]) for r in rows))
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
        _emit(args, json.dumps({"schema_version": 1, "kind": "pvalue_table", "rows": payload}, indent=2) + "\n")
    else:
        _emit(args, _csv_text(header, body))


def cmd_power(args) -> None:
    prior = _load_prior(args)
    config = _base_config(args).with_(prior=prior)
    if args.metric is None:
        config = config.with_(metrics=(MetricId.MAE,))
    if args.n_sweep and args.k_sweep:
        raise UsageError("choose one of --n-sweep / --k-sweep")
    if args.n_sweep:
        axis, values = "n_items", _parse_list(args.n_sweep, "--n-sweep")
    elif args.k_sweep:
        axis, values = "k_responses", _parse_list(args.k_sweep, "--k-sweep")
    else:
        axis, values = "n_items", (config.n_items,)
    config = config.validate()

    if args.test == "all":
        tests = tuple(TestId)
    else:
        try:
            tests = (TestId(args.test),)
        except ValueError:
            raise UsageError("--test expects bootstrap, welch, wilcoxon, permutation or all")
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
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    rows = []
    for report in reports:
        for point in report.points:
            rows.append([axis, point.axis_value, report.test.value, float(point.power)])
    _emit(args, _csv_text(["axis", "axis_value", "test", "power"], rows))


def cmd_fit(args) -> None:
    matrix = load_responses(args.input, levels=args.levels)
    stats = per_item_stats(matrix)
    location_grid = args.location_grid or args.grid
    if args.location_family is None or location_grid is None:
        raise UsageError("fit needs --location-family and --location-grid (or --grid)")
    try:
        location_family = Family(args.location_family)
        scale_family = Family(args.scale_family) if args.scale_family else None
    except ValueError as exc:
        raise UsageError(str(exc))
    if scale_family is not None and args.scale_grid is None:
        raise UsageError("--scale-family needs --scale-grid")
    report = fit_prior(
        stats,
        location_family,
        _parse_grid(location_grid, "--location-grid"),
        scale_family=scale_family,
        scale_grid=_parse_grid(args.scale_grid, "--scale-grid") if args.scale_grid else None,
        location_fixed=_parse_clip(args.location_clip, "--location-clip"),
        scale_fixed=_parse_clip(args.scale_clip, "--scale-clip"),
        sim_count=args.sim_count,
        seed=args.seed or 0,
        threads=args.threads,
    )
    _emit(args, report_to_json(report))


def cmd_simulate(args) -> None:
    if not args.out:
        raise UsageError("simulate needs --out PREFIX")
    prior = _load_prior(args)
    config = _base_config(args).with_(prior=prior).validate()
    from . import rngstreams
    from .simulator import generate_triple

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
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, _csv_text(["x", "cdf"], [list(r) for r in curve.rows()]))


# -- parser ---------------------------------------------------------------------------

def _add_shared(p: argparse.ArgumentParser, *, formats: tuple[str, ...], default_format: str) -> None:
    p.add_argument("--seed", type=int, default=None, help="root RNG seed (default 0)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default=default_format)


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--default-synthetic", action="store_true",
                   help="locations U(0,1), scales U(0,0.3)")
    p.add_argument("--prior-spec", default=None, help="fitted prior JSON (fit output)")
    p.add_argument("--levels", type=int, default=None,
                   help="discrete response domain with this many levels")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="items per test set")
    p.add_argument("--k", type=int, default=None, help="responses per item")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--b-alt", type=int, default=None, help="alternative resamples (default 500)")
    p.add_argument("--b-null", type=int, default=None, help="null resamples (default 500)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--phi", default=None, help="sampling strategy items,responses (e.g. all,boot)")
    p.add_argument("--metric", default=None, help="mae, wins, memd, comma list, or all")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raterpower",
        description="Simulation-based power analysis for rater-response evaluations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvalue", help="expected one-sided p-value for one (N, K, epsilon)")
    _add_prior_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--input", nargs=3, metavar=("G", "A", "B"), default=None,
                   help="three matrix files; runs the bootstrap on the given data")
    p.add_argument("--memd-scale", type=float, default=1.0,
                   help="display factor applied to MEMD medians (paper tables used a scaled variant)")
    _add_shared(p, formats=("json",), default_format="json")
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("table", help="p-value grid over N, K and epsilon")
    _add_prior_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--n-values", default=None)
    p.add_argument("--k-values", default=None)
    p.add_argument("--epsilon-values", required=True)
    p.add_argument("--nk-pairs", default=None, help="restrict to zipped pairs, e.g. 100:10,1000:1")
    p.add_argument("--group-by-nk", action="store_true", help="annotate and sort by equal N*K groups")
    p.add_argument("--pivot", action="store_true", help="wide layout: one row per (N,K), one column per epsilon")
    _add_shared(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("power", help="power curves for the bootstrap test and baselines")
    _add_prior_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--test", default="all",
                   help="bootstrap, welch, wilcoxon, permutation, or all")
    p.add_argument("--n-sweep", default=None, help="comma list of N values")
    p.add_argument("--k-sweep", default=None, help="comma list of K values")
    p.add_argument("--trials", type=int, default=200)
    _add_shared(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("fit", help="grid-search distribution fit to per-item stats")
    p.add_argument("--input", required=True, help="matrix file (jsonl or csv)")
    p.add_argument("--levels", type=int, default=None, help="map raw ordinal labels onto [0,1]")
    p.add_argument("--location-family", default=None)
    p.add_argument("--location-grid", default=None)
    p.add_argument("--grid", default=None, help="alias for --location-grid")
    p.add_argument("--location-clip", default=None, help="fixed censoring bounds lo,hi")
    p.add_argument("--scale-family", default=None)
    p.add_argument("--scale-grid", default=None)
    p.add_argument("--scale-clip", default=None)
    p.add_argument("--sim-count", type=int, default=None)
    _add_shared(p, formats=("json",), default_format="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="write one (G, A, B) triple")
    _add_prior_flags(p)
    _add_experiment_flags(p)
    _add_shared(p, formats=("jsonl", "csv"), default_format="jsonl")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ecdf", help="empirical CDF of per-item means or stds")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidParam as exc:
        # Bad flag values surface as usage errors; see the exit-code contract.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RaterPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
