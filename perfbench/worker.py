"""One benchmark step in a fresh process: a set-up or one timed workload run.

``run.py`` starts this script once per step, passing a JSON spec on
standard input, so that peak RSS and CPU time belong to that step alone.
The last line of standard output is a JSON result; everything the program
prints goes to standard error. The timed part of a run is the program's
work only: for the library workloads the experiment driver plus the report
write, read-back and ``verify_report``, for cli-predict ``batlife
predict-rul``; its times, and set-up's, are scaled to the reference host
speed (``hostspeed.py``). The benchmark's own checks (floors, output
digest, counts) run after the timer stops. With ``trace`` set, the tracer wraps the layer
functions around the same part of the step (and around set-up), and its
statistics and spans come back with the result.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from hostspeed import SpeedSampler
from tracer import PROBES, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import batlife from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import batlife

    if Path(batlife.__file__).resolve().parent != ROOT / "src" / "batlife":
        raise ImportError(f"batlife imported from {batlife.__file__}, not {ROOT / 'src'}")
    # Every module, so the tracer finds each binding site.
    import batlife.cli  # noqa: F401


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


@contextmanager
def _timed(result: dict, key: str, cpu_key: str | None = None):
    """Time the block at the reference host speed (``hostspeed``).

    ``result[key]`` (and ``result[cpu_key]``, CPU time) is the block's time
    scaled to the reference speed; the raw times and the mean probe time go
    to ``result["raw"]``.
    """
    with SpeedSampler() as sampler:
        yield
    raw = result.setdefault("raw", {})
    raw[key], raw[f"{key}.probe_s"] = sampler.wall_s, statistics.fmean(sampler.probes)
    result[key] = sampler.wall_s * sampler.scale
    if cpu_key is not None:
        raw[cpu_key] = sampler.cpu_s
        result[cpu_key] = sampler.cpu_s * sampler.scale


@contextmanager
def _traced(tracer):
    """Wrap the layer functions for the duration of the block, if tracing."""
    if tracer is None:
        yield
        return
    tracer.install(PROBES)
    try:
        yield
    finally:
        tracer.uninstall()


def _step(spec: dict, result: dict, tracer) -> None:
    import workloads  # imports batlife, so only after _import_program

    workload = workloads.WORKLOADS[spec["workload"]]
    fleet_seed, split_seed = spec["seeds"]
    seeds = workloads.Seeds(workload.seeds.fleet if fleet_seed is None else fleet_seed,
                  workload.seeds.split if split_seed is None else split_seed)
    result["seeds"] = {"fleet": seeds.fleet, "split": seeds.split, "order": spec["order_seed"]}
    outdir = Path(spec["outdir"])
    outdir.mkdir(parents=True)

    if workload.run is not None:
        with _traced(tracer):
            with _timed(result, "setup_s"):
                cells = workloads.fleet(workload.fleet_kwargs, seeds, spec["order_seed"])
            with _timed(result, "wall_s", "cpu_s"):
                produced = workload.run(cells, seeds, outdir)
        outcome = workload.score(cells, produced, outdir)
        result["fleet"] = workloads.fleet_shape(cells)
    elif spec["phase"] == "setup":
        os.chdir(outdir)
        with _traced(tracer):
            with _timed(result, "setup_s"):
                workloads.cli_setup(seeds, spec["order_seed"])
        result["digest"] = workloads.digest(workloads.cli_setup_files())
        result["fleet"] = workloads.cli_truth(seeds)
        return
    else:
        os.chdir(outdir)
        with _traced(tracer):
            with _timed(result, "wall_s", "cpu_s"):
                workloads.cli_predict(spec["inputs"])
        outcome = workloads.score_cli_predict(spec["inputs"])
    result["quality"] = outcome.quality
    result["problems"] = outcome.problems
    result["digest"] = outcome.digest
    result["facts"] = outcome.facts


def main() -> int:
    spec = json.loads(sys.stdin.read())
    result: dict = {"problems": []}
    try:
        _import_program()
        result["env"] = _environment()
        tracer = Tracer() if spec["trace"] else None
        with redirect_stdout(sys.stderr):
            _step(spec, result, tracer)
        if tracer is not None:
            result["stats"] = {name: s.as_dict() for name, s in tracer.stats.items()}
            Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    except Exception:
        traceback.print_exc()
        return 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
