"""Outside-in layer tracer for raterpower.

raterpower has no spans of its own, so the benchmark records them from
outside. Every name below is one that a raterpower module looks up at call
time in another module's namespace (or on a class), for example
``inference.batch_scores`` or ``DistributionSpec.sample``. ``install``
replaces each with a wrapper and ``uninstall`` puts the originals back, so
a traced op and an untraced op run the same program code.

A span wrapper times its call and keeps a per-thread stack, so a layer's
self time is its wall time minus the time of the spans it called; spans in
worker threads start their own stack. Count-only wrappers (for per-item hot
calls) only count. Counters computed from argument sizes (``*_bytes``) are
sizes the code must touch, not measured traffic.

A name that no longer exists (a later refactor may remove it) leaves its
layer absent instead of failing; a counter whose arguments changed shape is
reported as unavailable.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from time import perf_counter

_F8 = 8  # bytes per float64


def _ragged_arm(args, kwargs):
    from raterpower import rngstreams

    arm = kwargs.get("arm", args[2] if len(args) > 2 else None)
    return "inference.ragged_alt" if arm == rngstreams.ALT else "inference.ragged_null"


def _alt_gather_bytes(parametric):
    def count(args, kwargs, result):
        from raterpower.config import Level

        config, lo, hi = args[0], args[-2], args[-1]
        cells = (hi - lo) * config.n_items * config.k_responses
        items = config.phi.items == Level.BOOT
        responses = config.phi.responses == Level.BOOT and (items or not parametric)
        return {"inference.gather_bytes": 3 * _F8 * cells * (items + responses)}
    return count


def _null_gather_bytes(args, kwargs, result):
    g_base, lo, hi = args[1], args[-2], args[-1]
    return {"inference.gather_bytes": 2 * _F8 * (hi - lo) * g_base.size}


def _batch_scores_sizes(args, kwargs, result):
    g = args[1]
    triples = g.size // (g.shape[-1] * g.shape[-2])
    return {"metrics.batch_scores.triples": triples, "metrics.batch_scores.bytes": 3 * _F8 * g.size}


def _load_sizes(args, kwargs, result):
    return {"dataio.load_responses.bytes": os.path.getsize(args[0]),
            "dataio.load_responses.items": result.n_items}


def _targets():
    """(owner, attribute, layer, counter) for every span wrapper."""
    from raterpower import cli, fitting, inference, power, simulator
    from raterpower.distributions import DistributionSpec

    return [
        (cli, "run_experiment", "inference.run_experiment", None),
        (cli, "power_sweep", "power.power_sweep", None),
        (cli, "fit_prior", "fitting.fit_prior", None),
        (cli, "per_item_stats", "fitting.per_item_stats", None),
        (cli, "load_responses", "dataio.load_responses", _load_sizes),
        (inference, "generate_triple", "simulator.generate_triple", None),
        (power, "generate_triple", "simulator.generate_triple", None),
        (inference, "_gen_responses", "simulator.gen_responses",
         lambda a, k, r: {"simulator.gen_responses.values": r.size}),
        (simulator, "_gen_responses", "simulator.gen_responses",
         lambda a, k, r: {"simulator.gen_responses.values": r.size}),
        (DistributionSpec, "sample", "distributions.sample",
         lambda a, k, r: {"distributions.sample.draws": r.size}),
        (inference, "_alt_chunk_parametric", "inference.alt_chunk", _alt_gather_bytes(True)),
        (inference, "_alt_chunk_given_rect", "inference.alt_chunk", _alt_gather_bytes(False)),
        (inference, "_null_chunk_rect", "inference.null_chunk", _null_gather_bytes),
        (inference, "_scores_ragged_given", _ragged_arm, None),
        (inference, "estimate_p_value", "inference.estimate_p_value", None),
        (inference, "batch_scores", "metrics.batch_scores", _batch_scores_sizes),
        (power, "batch_scores", "metrics.batch_scores", _batch_scores_sizes),
        (inference, "batch_scores_ragged", "metrics.batch_scores_ragged", None),
        (power, "multistage_bootstrap_test", "power.bootstrap_test",
         lambda a, k, r: {"power.bootstrap_test.null_resamples": k.get("b_null", 500)}),
        (power, "per_item_errors", "power.per_item_errors", None),
        (power, "welch_t_test", "power.welch", None),
        (power, "wilcoxon_signed_rank", "power.wilcoxon", None),
        (power, "permutation_test_paired", "power.permutation", None),
        (power, "_trial_p_value", "power.trial", None),
        (fitting, "stat_distance", "fitting.stat_distance", None),
    ]


def _count_targets():
    from raterpower import metrics, rngstreams

    return [
        (metrics, "emd_1d", "metrics.emd_1d"),
        (rngstreams, "derive_rng", "rngstreams.derive_rng"),
    ]


def _map_targets():
    from raterpower import inference, power

    return [(inference, "_map_chunks"), (power, "_map_chunks")]


# Layers named by a function of the arguments, listed for absence reports.
_DYNAMIC_LAYERS = {"_scores_ragged_given": ("inference.ragged_alt", "inference.ragged_null")}


class Tracer:
    """Install wrappers, accumulate per-layer totals, restore the originals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.layers: set[str] = set()
        self.unavailable: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.busy_s = 0.0
        self.capacity_s = 0.0

    @property
    def absent(self) -> list[str]:
        return sorted(self.layers - self.present)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, counter in _targets():
            names = _DYNAMIC_LAYERS.get(attr, (layer,))
            self.layers.update(names)
            if self._patch(owner, attr, lambda f, l=layer, c=counter: self._span(f, l, c)):
                self.present.update(names)
        for owner, attr, layer in _count_targets():
            self.layers.add(layer)
            if self._patch(owner, attr, lambda f, l=layer: self._counter(f, l)):
                self.present.add(layer)
        self.layers.add("inference.map_chunks")
        for owner, attr in _map_targets():
            if self._patch(owner, attr, self._mapper):
                self.present.add("inference.map_chunks")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make) -> bool:
        original = vars(owner).get(attr)
        if not callable(original):
            return False
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))
        return True

    # -- wrappers ---------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, layer, counter):
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_s[name] += elapsed - frame[0]
                    self.counts[name + ".calls"] += 1
            if counter is not None:
                self._add_counts(name, counter, args, kwargs, result)
            return result
        return wrapper

    def _add_counts(self, layer, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            self.unavailable.add(layer)
            return
        with self._lock:
            for key, value in values.items():
                self.counts[key] += value

    def _counter(self, fn, name):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _mapper(self, fn):
        def wrapper(work, chunks, threads=1, *args, **kwargs):
            def timed(chunk):
                start = perf_counter()
                try:
                    return work(chunk)
                finally:
                    elapsed = perf_counter() - start
                    with self._lock:
                        self.busy_s += elapsed

            start = perf_counter()
            try:
                return fn(timed, chunks, threads, *args, **kwargs)
            finally:
                wall = perf_counter() - start
                with self._lock:
                    self.capacity_s += max(1, threads) * wall
        return wrapper
