"""Command-line frontend: ingest/simulate -> features -> train -> report.

Every flag that takes a quantity states its unit and default in ``--help``.
Flags may also be supplied through ``--config FILE`` (plain ``key = value``
lines, keys matching flag names with dashes replaced by underscores): the
file's values become the subcommand's defaults, checked like flags, and
explicit flags override them. All output files begin with a comment line
carrying the tool version and the fingerprint of the fully resolved
configuration, and identical configurations produce identical files at a
fixed BLAS thread count (GP models trained on about a hundred samples or
more round differently under one and two OpenBLAS threads; pin
OPENBLAS_NUM_THREADS).

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, ecm, modelio, simgen
from .dataset import (
    CellMeta,
    Chemistry,
    ManifestEntry,
    ingest_manifest,
    split_dataset,
    write_cell,
    write_manifest,
)
from .errors import DataError, NumericalError, ValidationError
from .experiments import (
    ClassificationConfig,
    RulExperimentConfig,
    build_classification_samples,
    build_rul_samples,
    derive_tables,
    feature_matrix,
    read_report,
    run_classification_experiment,
    run_rul_experiment,
    run_truncation_sweep,
    verify_report,
)
from .features import (
    DISCHARGE_SETS,
    FEATURE_NAMES,
    FeatureSet,
    WindowMode,
    WindowSpec,
    assemble,
    feature_cycles,
)
from .gpc import classify as dag_classify, train_dag
from .gpr import one_blas_thread, predict as gpr_predict, train as gpr_train
from .plots import emit_plots
from .textio import fingerprint, header_comment, read_keys, spell, write_table

OUTPUT_DIR_ENV = "BATLIFE_OUT"
# simulate's defaults are benchmark_fleet's; presets for a fourth to sixth condition extend it.
FLEET = {k: p.default for k, p in inspect.signature(simgen.benchmark_fleet).parameters.items()}
FADE_REFS = FLEET["fade_refs"] + (400.0, 650.0, 950.0)
TEMPERATURES = FLEET["temperatures"] + (30, 40, 50)
# The flags (by dest) each subcommand cannot run without, by flag or by config file.
REQUIRED = {
    "ingest": ("manifest",), "fit-ecm": ("manifest",), "features": ("manifest",),
    "train-rul": ("manifest",), "predict-rul": ("manifest", "model"),
    "train-class": ("manifest",), "classify": ("manifest", "model", "cycle"),
    "evaluate": ("manifest",), "report": ("in_dir",),
}


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; ``--config`` values become the subcommand's defaults.

    argparse then converts them through each flag's ``type`` (a bad value
    exits 2), and explicit flags still win. Keys that name no flag of the
    subcommand are ignored; boolean flags are on for 1, true or yes. A
    ``REQUIRED`` flag that neither sets is a usage error (exit 2).
    """
    args = parser.parse_args(argv)
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    if args.config:
        values = {key.replace("-", "_"): value
                  for key, value in read_keys(args.config, ValidationError).items()}
        command.set_defaults(**{
            a.dest: values[a.dest].lower() in ("1", "true", "yes") if a.nargs == 0
            else values[a.dest]
            for a in command._actions if a.dest in values and a.dest not in ("help", "config")
        })
        args = parser.parse_args(argv)
    missing = [a.option_strings[0] for a in command._actions
               if a.dest in REQUIRED.get(args.command, ()) and getattr(args, a.dest) is None]
    if missing:
        command.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _fingerprint(args: argparse.Namespace) -> str:
    """Fingerprint of the resolved settings: every flag's value, unset ones left out."""
    values = {k: str(v) for k, v in vars(args).items()
              if v is not None and k not in ("command", "config", "handler")}
    return fingerprint({"command": args.command, **values})


def _out_path(value: str | None, default_name: str) -> Path:
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    if value is None:
        return base / default_name
    path = Path(value)
    return path if path.is_absolute() or value.startswith(".") else base / path


def _int(token: str, flag: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"{flag} {spec!r}: {token.strip()!r} is not an integer") from None


def _feature_sets(text: str | None) -> tuple[FeatureSet, ...] | None:
    if text is None:
        return None
    return tuple(FeatureSet.parse(tok) for tok in text.split(",") if tok.strip())


def _given(**values) -> dict:
    """The keyword arguments that were set; a config dataclass fills in the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _rul_config(args) -> RulExperimentConfig:
    return RulExperimentConfig(**_given(
        feature_sets=_feature_sets(args.feature_sets), window_start=args.window_start,
        truncate=args.truncate, stride=args.stride, seed=args.seed,
        restarts=args.restarts, max_iters=args.max_iters,
    ))


def _class_config(args, feature_sets, **trainer) -> ClassificationConfig:
    return ClassificationConfig(**_given(
        chemistry=Chemistry.parse(args.chemistry), feature_sets=feature_sets,
        test_cycle=args.test_cycle, window_cycles=args.window_cycles,
        stride=args.stride, seed=args.seed, **trainer,
    ))


def _parse_split(text: str, cells) -> dict[str, tuple[int, int]]:
    """Split spec: 'auto' (half/half per condition), 'T/E' for every
    condition, or 'COND=T/E,COND=T/E' per condition."""
    def counts(fraction: str) -> tuple[int, int]:
        n_train, _, n_test = fraction.partition("/")
        return _int(n_train, "--split", text), _int(n_test, "--split", text)

    conditions = sorted({c.condition for c in cells})
    if text == "auto":
        sizes = {cond: sum(1 for c in cells if c.condition == cond) for cond in conditions}
        return {cond: ((n + 1) // 2, n // 2) for cond, n in sizes.items()}
    if "=" not in text:
        return dict.fromkeys(conditions, counts(text))
    spec = {}
    for part in text.split(","):
        cond, _, fraction = part.partition("=")
        spec[cond.strip()] = counts(fraction)
    return spec


def _write_csv(args, path: Path, kind: str, columns: list[str], rows: list[list], what: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(path, [header_comment(_fingerprint(args), kind=kind)], columns, rows)
    print(f"wrote {path} ({len(rows)} {what})")


def _save_model(args, path: Path, model, meta: dict[str, str], n_samples: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    comment = header_comment(_fingerprint(args), kind="model")
    modelio.save_model(model, path, header_comment=comment, meta=meta)
    print(f"wrote {path} ({n_samples} training samples)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.out is None:
        args.out = str(_out_path(None, "synthetic"))
    outdir = Path(args.out)
    fp = _fingerprint(args)

    refs = FADE_REFS
    if args.fade_refs:
        refs = tuple(float(tok) for tok in args.fade_refs.split(","))
    cells = simgen.benchmark_fleet(
        seed=args.seed, cells_per_condition=args.cells,
        fade_refs=refs[:args.conditions], temperatures=TEMPERATURES[:args.conditions],
        noise_sigma_v=args.noise_mv * 1e-3, cell_spread=args.spread,
        discharge_knots=args.discharge_knots,
    )
    comment = header_comment(fp, kind="cell")
    cell_dir = outdir / "cells"
    cell_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for cell in cells:
        write_cell(cell, cell_dir / f"{cell.cell_id}.csv", header_comment=comment)
        entries.append(ManifestEntry(**vars(CellMeta.of(cell)), path=f"cells/{cell.cell_id}.csv"))
    write_manifest(entries, outdir / "manifest.txt",
                   header_comment=header_comment(fp, kind="manifest"))
    print(f"wrote {len(cells)} cells under {outdir} (fingerprint {fp})")
    return 0


def cmd_ingest(args) -> int:
    cells = ingest_manifest(args.manifest)
    for cell in cells:
        eol = cell.eol_cycle if cell.eol_cycle is not None else "never"
        print(f"{cell.cell_id}: {cell.chemistry.value} {cell.condition} "
              f"{cell.n_cycles} cycles, eol={eol}")
    print(f"{len(cells)} cells validated")
    return 0


def cmd_fit_ecm(args) -> int:
    out = _out_path(args.out, "ecm_params.csv")
    cells = ingest_manifest(args.manifest)
    if args.cell is not None:
        cells = [c for c in cells if c.cell_id == args.cell]
        if not cells:
            raise ValidationError(f"manifest has no cell {args.cell!r}")
    rows = []
    for cell in cells:
        for m in cell.cycle_indices.tolist():
            report = ecm.fit(cell.relaxation(m, args.truncate))
            rows.append([cell.cell_id, spell(m),
                         *map(spell, report.params.as_array()),
                         spell(report.residual_rms_v), spell(report.converged)])
    _write_csv(args, out, "ecm-params",
               ["cell_id", "cycle", "ocv_v", "r_o_ohm", "r_e_ohm", "c_e_farad",
                "r_c_ohm", "c_c_farad", "residual_rms_v", "converged"], rows, "fits")
    return 0


def cmd_features(args) -> int:
    feature_set = FeatureSet.parse(args.feature_set)
    out = _out_path(args.out, "features.csv")
    if feature_set in DISCHARGE_SETS:
        window = WindowSpec(mode=WindowMode.ADJACENT)
    else:
        window = WindowSpec(mode=WindowMode.FIXED_REFERENCE, reference_cycle=args.window_start)
    rows = []
    for cell in ingest_manifest(args.manifest):
        cache: dict = {}
        for m in feature_cycles(cell, window, args.stride):
            fv = assemble(cell, m, window, feature_set, truncate=args.truncate, fit_cache=cache)
            for name, value in fv.values.items():
                rows.append([cell.cell_id, spell(m), name, spell(value)])
    _write_csv(args, out, "features", ["cell_id", "cycle", "feature", "value"], rows, "values")
    return 0


def cmd_train_rul(args) -> int:
    out = _out_path(args.out, "rul_model.txt")
    config = _rul_config(args)
    feature_set = config.feature_sets[0]
    cells = ingest_manifest(args.manifest)
    if len({c.chemistry for c in cells}) > 1:
        raise ValidationError(
            "train-rul expects a single-chemistry manifest; filter the manifest first"
        )
    samples = build_rul_samples(
        {c.cell_id: c for c in cells}, [c.cell_id for c in cells], feature_set,
        config.window(), config.truncate, config.stride, {},
    )
    if not samples:
        raise ValidationError("no labeled training samples (no cell reaches end of life?)")
    model = gpr_train(feature_matrix(samples), np.array([s.rul for s in samples]),
                      config.gpr_config(), feature_names=FEATURE_NAMES[feature_set])
    settings = config.to_dict()
    meta = {"feature_set": feature_set.value,
            "window_start": settings["window_start"], "truncate": settings["truncate"]}
    _save_model(args, out, model, meta, len(samples))
    return 0


def cmd_predict_rul(args) -> int:
    out = _out_path(args.out, "rul_predictions.csv")
    model, meta = modelio.load_model(args.model)
    config = RulExperimentConfig(
        window_start=int(meta.get("window_start", RulExperimentConfig.window_start)),
        truncate=None if meta.get("truncate", "full") == "full" else int(meta["truncate"]),
    )
    feature_set = FeatureSet.parse(meta.get("feature_set", config.feature_sets[0].value))
    window = config.window()
    rows = []
    for cell in ingest_manifest(args.manifest):
        cache: dict = {}
        for m in feature_cycles(cell, window, args.stride):
            fv = assemble(cell, m, window, feature_set, truncate=config.truncate, fit_cache=cache)
            mean, variance = gpr_predict(model, fv.as_array())
            rows.append([cell.cell_id, spell(m), spell(cell.soh(m)), spell(mean[0]),
                         spell(variance[0])])
    _write_csv(args, out, "rul-predictions",
               ["cell_id", "cycle", "soh", "rul_predicted_cycles", "predictive_variance"],
               rows, "predictions")
    return 0


def cmd_train_class(args) -> int:
    out = _out_path(args.out, "class_model.txt")
    feature_set = FeatureSet.parse(args.feature_set)
    config = _class_config(args, (feature_set,))
    cells = [c for c in ingest_manifest(args.manifest) if c.chemistry is config.chemistry]
    if not cells:
        raise ValidationError(f"manifest has no {config.chemistry.value} cells")
    pairs = build_classification_samples(
        {c.cell_id: c for c in cells}, [c.cell_id for c in cells], feature_set,
        config.test_cycle, config.window_cycles, config.threshold_policy, config.stride, {},
    )
    if not pairs:
        raise ValidationError("no labeled samples inside the training window")
    X = feature_matrix([s for s, _ in pairs])
    labels = [label for _, label in pairs]
    dag = train_dag(X, labels, config.gpc_config(), feature_names=FEATURE_NAMES[feature_set])
    settings = config.to_dict()
    meta = {"feature_set": feature_set.value,
            **{key: settings[key] for key in ("chemistry", "policy_upper", "policy_lower")}}
    _save_model(args, out, dag, meta, len(pairs))
    return 0


def cmd_classify(args) -> int:
    out = _out_path(args.out, "classification.csv")
    dag, meta = modelio.load_model(args.model)
    feature_set = FeatureSet.parse(
        meta.get("feature_set", ClassificationConfig.feature_sets[0].value))
    window = WindowSpec(mode=WindowMode.ADJACENT)
    rows = []
    for cell in ingest_manifest(args.manifest):
        for m in feature_cycles(cell, window, first=args.cycle, last=args.cycle):
            fv = assemble(cell, m, window, feature_set, fit_cache={})
            label, probability = dag_classify(dag, fv.as_array())
            rows.append([cell.cell_id, spell(m), spell(cell.soh(m)), label.value,
                         spell(probability)])
    _write_csv(args, out, "classification",
               ["cell_id", "cycle", "soh", "label", "probability"], rows, "cells")
    return 0


def cmd_evaluate(args) -> int:
    outdir = Path(args.out if args.out is not None else _out_path(None, "report"))
    cells = ingest_manifest(args.manifest)
    split = split_dataset(cells, _parse_split(args.split, cells), seed=args.seed)

    if args.experiment == "rul":
        report = run_rul_experiment(cells, split, _rul_config(args))
    elif args.experiment == "truncation":
        config = _rul_config(args)
        spec = args.sample_counts
        counts = [None if tok.strip() == "full" else _int(tok, "--sample-counts", spec)
                  for tok in spec.split(",")]
        report = run_truncation_sweep(cells, split, config, counts)
    elif args.experiment == "classification":
        config = _class_config(args, _feature_sets(args.feature_sets), restarts=args.restarts,
                               max_iters=args.max_iters, allow_ncm_nca=args.include_ncm_nca)
        report = run_classification_experiment(cells, split, config)
    else:
        raise ValidationError(
            f"unknown experiment {args.experiment!r} (rul, truncation, classification)"
        )

    report.config["split"] = args.split
    report.config["split_seed"] = str(args.seed)
    report.fingerprint = fingerprint(report.config)
    report.write(outdir)
    if args.plots:
        emit_plots(report, outdir)
    for row in report.tables["metrics"]:
        print(row)
    print(f"wrote report under {outdir} (fingerprint {report.fingerprint})")
    return 0


def cmd_report(args) -> int:
    report = read_report(args.in_dir)
    if not verify_report(report):
        raise ValidationError(
            f"{args.in_dir}: the fingerprint is not its config's, or stored tables do not "
            "match a recomputation from predictions"
        )
    derived = derive_tables(report)
    print(f"report kind={report.kind} fingerprint={report.fingerprint}: "
          f"{' and '.join(derived)} verified")
    for row in derived["metrics"]:
        print(row)
    if args.plots:
        emit_plots(report, Path(args.in_dir))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batlife",
        description="Battery life prediction and classification from voltage relaxation",
    )
    parser.add_argument("--version", action="version", version=f"batlife {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    rul, cls = RulExperimentConfig, ClassificationConfig
    truncate_help = (f"relaxation samples kept per curve "
                     f"(count, >= {ecm.MIN_FIT_SAMPLES}; default full)")

    def command(name, handler, help, manifest="manifest file (path)"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="plain key=value config file; flags override it")
        if manifest:
            p.add_argument("--manifest", help=manifest)
        p.set_defaults(handler=handler)
        return p

    p = command("simulate", cmd_simulate, "generate a synthetic multi-condition fleet",
                manifest=None)
    p.add_argument("--cells", type=int, default=FLEET["cells_per_condition"],
                   help="cells per condition (count, default %(default)s)")
    p.add_argument("--conditions", type=int, default=len(FLEET["fade_refs"]),
                   help="number of cycling conditions (count, default %(default)s)")
    p.add_argument("--seed", type=int, default=FLEET["seed"],
                   help="generator seed (integer, default %(default)s)")
    p.add_argument("--noise-mv", dest="noise_mv", type=float,
                   default=FLEET["noise_sigma_v"] * 1e3,
                   help="relaxation voltage noise sigma (millivolts, default %(default)s)")
    p.add_argument("--spread", type=float, default=FLEET["cell_spread"],
                   help="per-cell fractional parameter spread "
                        "(dimensionless, default %(default)s)")
    p.add_argument("--fade-refs", dest="fade_refs",
                   help="comma list of per-condition fade reference spans (cycles)")
    p.add_argument("--discharge-knots", dest="discharge_knots", type=int,
                   default=FLEET["discharge_knots"],
                   help="stored points per discharge curve (count, default %(default)s)")
    p.add_argument("--out", help="output dataset directory (path)")

    command("ingest", cmd_ingest, "validate a dataset manifest and its cells")

    p = command("fit-ecm", cmd_fit_ecm, "fit circuit parameters for every cycle")
    p.add_argument("--cell", help="restrict to one cell id")
    p.add_argument("--truncate", type=int, help=truncate_help)
    p.add_argument("--out", help="output CSV (path, default ecm_params.csv)")

    def window_flags(p):
        p.add_argument("--window-start", dest="window_start", type=int, default=rul.window_start,
                       help="reference cycle (cycle, default %(default)s)")
        p.add_argument("--truncate", type=int, help=truncate_help)
        p.add_argument("--stride", type=int, default=rul.stride,
                       help="cycle stride (cycles, default %(default)s)")

    p = command("features", cmd_features, "emit long-format feature CSV")
    p.add_argument("--feature-set", dest="feature_set", default=rul.feature_sets[0].value,
                   help=" | ".join(fs.value for fs in FeatureSet) + " (default %(default)s)")
    window_flags(p)
    p.add_argument("--out", help="output CSV (path, default features.csv)")

    def rul_flags(p, config=rul):
        # evaluate passes config=None: the chosen experiment's config fills in what is unset
        note = "default %(default)s" if config else "default set by the experiment"
        p.add_argument("--feature-sets", dest="feature_sets",
                       default=config and ",".join(fs.value for fs in config.feature_sets),
                       help=f"comma list of feature sets ({note})")
        window_flags(p)
        p.add_argument("--seed", type=int, default=rul.seed,
                       help="training seed (integer, default %(default)s)")
        p.add_argument("--restarts", type=int, default=config and config.restarts,
                       help=f"optimizer restarts (count, {note})")
        p.add_argument("--max-iters", dest="max_iters", type=int,
                       default=config and config.max_iters,
                       help=f"optimizer iteration cap (count, {note})")

    p = command("train-rul", cmd_train_rul, "train a remaining-life regressor",
                manifest="single-chemistry manifest file (path)")
    rul_flags(p)
    p.add_argument("--out", help="model file (path, default rul_model.txt)")

    p = command("predict-rul", cmd_predict_rul, "predict remaining life with a trained model")
    p.add_argument("--model", help="trained model file (path)")
    p.add_argument("--stride", type=int, default=rul.stride,
                   help="cycle stride (cycles, default %(default)s)")
    p.add_argument("--out", help="output CSV (path, default rul_predictions.csv)")

    def class_flags(p):
        p.add_argument("--chemistry", default=cls.chemistry.value,
                       help=" | ".join(c.value for c in Chemistry) + " (default %(default)s)")
        p.add_argument("--test-cycle", dest="test_cycle", type=int, default=cls.test_cycle,
                       help="center of the aging-stage window (cycle, default %(default)s)")
        p.add_argument("--window-cycles", dest="window_cycles", type=int,
                       default=cls.window_cycles,
                       help="aging-stage window width (cycles, default %(default)s)")

    p = command("train-class", cmd_train_class, "train the three-way life classifier")
    class_flags(p)
    p.add_argument("--feature-set", dest="feature_set", default=cls.feature_sets[0].value,
                   help="feature set (default %(default)s)")
    p.add_argument("--stride", type=int, default=cls.stride,
                   help="cycle stride (cycles, default %(default)s)")
    p.add_argument("--seed", type=int, default=cls.seed,
                   help="training seed (integer, default %(default)s)")
    p.add_argument("--out", help="model file (path, default class_model.txt)")

    p = command("classify", cmd_classify, "classify cells at a cycle with a trained DAG")
    p.add_argument("--model", help="trained DAG model file (path)")
    p.add_argument("--cycle", type=int, help="cycle to classify at (cycle)")
    p.add_argument("--out", help="output CSV (path, default classification.csv)")

    p = command("evaluate", cmd_evaluate, "run a full experiment and write a report")
    p.add_argument("--experiment", default="rul",
                   help="rul | truncation | classification (default %(default)s)")
    p.add_argument("--split", default="auto",
                   help="per-condition train/test cells: 'auto', 'T/E', or 'COND=T/E,...' "
                        "(default %(default)s)")
    rul_flags(p, config=None)
    p.add_argument("--sample-counts", dest="sample_counts", default="6,8,12,full",
                   help="truncation sweep counts (samples, default %(default)s)")
    class_flags(p)
    p.add_argument("--include-ncm-nca", dest="include_ncm_nca", action="store_true",
                   help="allow NCM+NCA cells in classification (excluded by default)")
    p.add_argument("--plots", action="store_true", help="also emit SVG plots")
    p.add_argument("--out", help="report directory (path, default report/)")

    p = command("report", cmd_report, "verify and summarize a written report", manifest=None)
    p.add_argument("--in", dest="in_dir", help="report directory (path)")
    p.add_argument("--plots", action="store_true", help="also emit SVG plots")

    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(build_parser(), argv)
        with one_blas_thread():
            return args.handler(args)
    except (NumericalError, DataError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NumericalError) else 3


if __name__ == "__main__":
    sys.exit(main())
