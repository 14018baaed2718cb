"""Out-of-program tracing of batlife's public layer functions.

``Tracer.install`` replaces each probed function with a timing wrapper at
every place it is bound: the defining module and every ``batlife`` module
that imported it by name (``experiments`` and ``cli`` import ``assemble``,
``train``, ``predict``, ``train_dag``, ``classify`` and ``ingest_manifest``
directly, some under aliases). Patching only the defining module would
silently miss those calls. Nothing under ``src/`` is edited.

Each wrapped call records a span (id, parent id, probe, start, end) in
memory and updates its probe's statistics: calls, busy time (outermost
activations only, so a driver that calls another driver is not counted
twice), self time (busy minus time inside wrapped children), calls that
raised, and per-call durations.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class ProbeStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    depth: int = 0

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def as_dict(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy_s, "self_s": self.self_s,
                "failed": self.failed, "durations": self.durations,
                "counters": self.counters}


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined and how to observe it."""

    name: str
    module: str
    attr: str
    owner: str | None = None          # class name when ``attr`` is a method
    observe: object = None            # f(stats, args, kwargs, result)


class Tracer:
    def __init__(self):
        self.stats: dict[str, ProbeStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []      # frames: [span_id, child_time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, probe: Probe, fn):
        stats = self.stats.setdefault(probe.name, ProbeStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.failed += 1
                raise
            finally:
                end = clock()
                stack.pop()
                stats.depth -= 1
                elapsed = end - start
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stats.depth == 0:
                    stats.busy_s += elapsed
                if parent is not None:
                    parent[1] += elapsed
                stats.durations.append(elapsed)
                self.spans.append((span_id, -1 if parent is None else parent[0],
                                   probe.name, start, end))
            if probe.observe is not None:
                probe.observe(stats, args, kwargs, result)
            return result

        return wrapper

    def install(self, probes: list[Probe]) -> None:
        """Wrap every probe at each of its binding sites."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "batlife" or name.startswith("batlife."))]
        for probe in probes:
            home = sys.modules[probe.module]
            if probe.owner is not None:
                cls = getattr(home, probe.owner)
                original = cls.__dict__[probe.attr]
                self._patch(cls, probe.attr, self._wrap(probe, original))
                continue
            original = getattr(home, probe.attr)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# The probes: one per public layer boundary the benchmark reports on
# ---------------------------------------------------------------------------

def _count_curves(stats, args, kwargs, cells):
    stats.add("curves", sum(c.n_cycles for c in cells))


def _file_bytes(position: int, keyword: str):
    def observe(stats, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        stats.add("bytes", os.path.getsize(path))
    return observe


def _fit_quality(stats, args, kwargs, report):
    from batlife import ecm

    stats.add("iterations", report.iterations)
    stats.add("unconverged", not report.converged)
    stats.add("ro_clamped", report.ro_clamped)
    stats.add("inexact", report.residual_rms_v > ecm.EXACT_RESIDUAL_V)


def _fit_bearing(stats, args, kwargs, vector):
    from batlife import features

    # Sets that carry the six circuit parameters go through the fit cache.
    names = features.FEATURE_NAMES[vector.feature_set]
    stats.add("fit_bearing", set(features.ECM_NAMES) <= set(names))


def _training_rows(stats, args, kwargs, model):
    stats.add("rows", model.n_train)


PROBES = [
    Probe("simgen.simulate", "batlife.simgen", "benchmark_fleet", observe=_count_curves),
    Probe("dataset.write", "batlife.dataset", "write_cell", observe=_file_bytes(1, "path")),
    Probe("dataset.ingest", "batlife.dataset", "ingest_manifest"),
    Probe("dataset.ingest_cell", "batlife.dataset", "ingest_cell", observe=_file_bytes(0, "path")),
    Probe("dataset.record", "batlife.dataset", "record", owner="CellHistory"),
    Probe("dataset.record", "batlife.dataset", "has_cycle", owner="CellHistory"),
    Probe("ecm.fit", "batlife.ecm", "fit", observe=_fit_quality),
    Probe("features.assemble", "batlife.features", "assemble", observe=_fit_bearing),
    Probe("gpr.train", "batlife.gpr", "train", observe=_training_rows),
    Probe("gpr.lml", "batlife.gpr", "log_marginal_likelihood"),
    Probe("gpr.predict", "batlife.gpr", "predict"),
    Probe("gpc.train_dag", "batlife.gpc", "train_dag"),
    Probe("gpc.evidence", "batlife.gpc", "laplace_evidence"),
    Probe("gpc.classify", "batlife.gpc", "classify"),
    Probe("experiments.driver", "batlife.experiments", "run_rul_experiment"),
    Probe("experiments.driver", "batlife.experiments", "run_truncation_sweep"),
    Probe("experiments.driver", "batlife.experiments", "run_classification_experiment"),
    Probe("experiments.report_write", "batlife.experiments", "write", owner="ExperimentReport"),
    Probe("experiments.verify", "batlife.experiments", "read_report"),
    Probe("experiments.verify", "batlife.experiments", "verify_report"),
    Probe("modelio.save", "batlife.modelio", "save_model"),
    Probe("modelio.load", "batlife.modelio", "load_model"),
    Probe("modelio.load", "batlife.modelio", "read_model_meta"),
    Probe("cli", "batlife.cli", "main"),
]


# ---------------------------------------------------------------------------
# Per-layer metrics from one run's probe statistics
# ---------------------------------------------------------------------------

_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "durations": [], "counters": {}}


def merge_stats(parts: list[dict]) -> dict:
    """Combine the probe statistics of several processes of one workload run."""
    merged: dict[str, dict] = {}
    for stats in parts:
        for name, s in stats.items():
            m = merged.setdefault(name, {**_EMPTY, "durations": [], "counters": {}})
            for key in ("calls", "busy_s", "self_s", "failed"):
                m[key] += s[key]
            m["durations"] = m["durations"] + s["durations"]
            for key, value in s["counters"].items():
                m["counters"][key] = m["counters"].get(key, 0.0) + value
    return merged


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of per-call durations, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def layer_metrics(stats: dict) -> dict[str, float]:
    """Name -> value for every per-layer metric of ``BENCHMARK.json``."""
    def get(name):
        return stats.get(name, _EMPTY)

    def counter(name, key):
        return get(name)["counters"].get(key, 0.0)

    fit, assemble = get("ecm.fit"), get("features.assemble")
    lml, evidence = get("gpr.lml"), get("gpc.evidence")
    train = get("gpr.train")
    fit_bearing = counter("features.assemble", "fit_bearing")
    driver = get("experiments.driver")
    return {
        "simgen.simulate_s": get("simgen.simulate")["busy_s"],
        "simgen.curves": counter("simgen.simulate", "curves"),
        "dataset.write_s": get("dataset.write")["busy_s"],
        "dataset.write_mb": counter("dataset.write", "bytes") / 1e6,
        "dataset.ingest_s": get("dataset.ingest")["busy_s"],
        "dataset.ingest_mb": counter("dataset.ingest_cell", "bytes") / 1e6,
        "dataset.record.calls": get("dataset.record")["calls"],
        "dataset.record.busy_s": get("dataset.record")["busy_s"],
        "ecm.fit.calls": fit["calls"],
        "ecm.fit.busy_s": fit["busy_s"],
        "ecm.fit.p50_ms": _percentile_ms(fit["durations"], 0.50),
        "ecm.fit.p99_ms": _percentile_ms(fit["durations"], 0.99),
        "ecm.fit.best_iterations": counter("ecm.fit", "iterations"),
        "ecm.fit.unconverged": counter("ecm.fit", "unconverged"),
        "ecm.fit.ro_clamped": counter("ecm.fit", "ro_clamped"),
        "ecm.fit.inexact": counter("ecm.fit", "inexact"),
        "features.assemble.calls": assemble["calls"],
        "features.assemble.self_s": assemble["self_s"],
        "features.fit_cache_hit_ratio": 1.0 - fit["calls"] / fit_bearing if fit_bearing else 0.0,
        "gpr.train.calls": train["calls"],
        "gpr.train.busy_s": train["busy_s"],
        "gpr.train.n": counter("gpr.train", "rows") / train["calls"] if train["calls"] else 0.0,
        "gpr.lml.calls": lml["calls"],
        "gpr.lml.busy_s": lml["busy_s"],
        "gpr.lml.p50_ms": _percentile_ms(lml["durations"], 0.50),
        "gpr.lml.failed": lml["failed"],
        "gpr.predict.calls": get("gpr.predict")["calls"],
        "gpr.predict.busy_s": get("gpr.predict")["busy_s"],
        "gpc.train_dag.busy_s": get("gpc.train_dag")["busy_s"],
        "gpc.evidence.calls": evidence["calls"],
        "gpc.evidence.busy_s": evidence["busy_s"],
        "gpc.evidence.p50_ms": _percentile_ms(evidence["durations"], 0.50),
        "gpc.evidence.failed": evidence["failed"],
        "gpc.classify.calls": get("gpc.classify")["calls"],
        "gpc.classify.busy_s": get("gpc.classify")["busy_s"],
        "experiments.driver_s": driver["busy_s"],
        "experiments.self_s": driver["self_s"],
        "experiments.report_write_s": get("experiments.report_write")["busy_s"],
        "experiments.verify_s": get("experiments.verify")["busy_s"],
        "modelio.save_s": get("modelio.save")["busy_s"],
        "modelio.load_s": get("modelio.load")["busy_s"],
        "cli.self_s": get("cli")["self_s"],
    }
