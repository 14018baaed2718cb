import contextlib
import csv
import dataclasses
import hashlib
import re
import shutil
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import cli, ecm, modelio
from batlife.cli import main
from batlife.dataset import (
    CellMeta,
    ingest_cell,
    ingest_manifest,
    read_manifest,
    write_cell,
    write_manifest,
)
from batlife.errors import ValidationError
from batlife.textio import fingerprint, read_keys, read_table
from batlife.experiments import build_classification_samples
from batlife.features import FeatureSet
from batlife.gpc import NCA_POLICY

from conftest import without_cycles


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small noiseless synthetic dataset written through the CLI."""
    out = tmp_path_factory.mktemp("data") / "synthetic"
    code = main([
        "simulate", "--cells", "2", "--conditions", "3", "--seed", "9",
        "--noise-mv", "0", "--fade-refs", "60,350,600", "--discharge-knots", "40",
        "--out", str(out),
    ])
    assert code == 0
    return out


def _manifest(dataset_dir) -> str:
    return str(dataset_dir / "manifest.txt")


class TestSimulateIngest:
    def test_layout(self, dataset_dir):
        assert (dataset_dir / "manifest.txt").exists()
        cells = sorted((dataset_dir / "cells").glob("*.csv"))
        assert len(cells) == 6

    def test_output_files_start_with_fingerprint_comment(self, dataset_dir):
        for path in [dataset_dir / "manifest.txt", *sorted((dataset_dir / "cells").glob("*.csv"))]:
            first = path.read_text().splitlines()[0]
            assert first.startswith("# batlife v")
            assert "fingerprint=" in first

    def test_manifest_names_its_kind_once(self, dataset_dir):
        first = (dataset_dir / "manifest.txt").read_text().splitlines()[0]
        assert first.split().count("kind=manifest") == 1
        assert len(read_manifest(dataset_dir / "manifest.txt")) == 6

    def test_cell_header_names_its_kind_once(self, dataset_dir, tmp_path):
        path = dataset_dir / "cells" / "syn25-00.csv"
        cell = ingest_cell(path)  # every metadata field from the header line
        plain = tmp_path / "plain.csv"
        write_cell(cell, plain)
        for written in (path, plain):
            assert written.read_text().splitlines()[0].split().count("kind=cell") == 1
        assert plain.read_text().startswith("# kind=cell cell_id=syn25-00 ")
        entry = next(e for e in read_manifest(dataset_dir / "manifest.txt")
                     if e.cell_id == "syn25-00")
        by_manifest = ingest_cell(path, entry)
        rel = cell.relaxation(1)
        assert (cell.cell_id, cell.chemistry, cell.condition, cell.nominal_capacity_ah,
                rel.sampling_interval_s, rel.times_s[-1]) == (
            entry.cell_id, entry.chemistry, entry.condition, entry.nominal_capacity_ah,
            entry.sampling_interval_s, entry.rest_duration_s)
        assert CellMeta.of(by_manifest) == CellMeta.of(cell)
        # The rest duration also sets calendar time.
        assert cell.calendar_days[-1] == by_manifest.calendar_days[-1]

    @pytest.mark.parametrize("source", ["manifest", "header"])
    @pytest.mark.parametrize("key, value", [
        ("nominal_capacity_ah", "3.5Ah"),
        ("sampling_interval_s", "two"),
        ("sampling_interval_s", "0.0"),
        ("nominal_capacity_ah", "nan"),
        ("rest_duration_s", "-5.0"),
        ("rest_duration_s", "inf"),
    ])
    def test_bad_metadata_number_is_validation_error(self, dataset_dir, tmp_path, capsys,
                                                     source, key, value):
        entry = next(e for e in read_manifest(dataset_dir / "manifest.txt")
                     if e.cell_id == "syn25-00")
        cell = tmp_path / entry.path
        cell.parent.mkdir()
        shutil.copy(dataset_dir / entry.path, cell)
        manifest = tmp_path / "manifest.txt"
        write_manifest([entry], manifest)
        if source == "manifest":
            text = manifest.read_text()
            manifest.write_text(re.sub(rf"(\.{key} = ).*", rf"\g<1>{value}", text))
            assert main(["ingest", "--manifest", str(manifest)]) == 3
            err = capsys.readouterr().err
            assert "ValidationError" in err and key in err
        else:
            header, rest = cell.read_text().split("\n", 1)
            cell.write_text(re.sub(rf"\b{key}=\S+", f"{key}={value}", header) + "\n" + rest)
            assert main(["ingest", "--manifest", str(manifest)]) == 0  # the manifest's record
            with pytest.raises(ValidationError, match=key):
                ingest_cell(cell)

    def test_ingest_validates(self, dataset_dir, capsys):
        assert main(["ingest", "--manifest", _manifest(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "6 cells validated" in out

    @pytest.mark.parametrize("flag", ["--noise-mv", "--spread"])
    def test_nan_drift_setting_exits_3(self, tmp_path, capsys, flag):
        code = main(["simulate", "--cells", "1", "--conditions", "1", flag, "nan",
                     "--discharge-knots", "2", "--out", str(tmp_path / "nan")])
        assert code == 3
        assert "noise sigma and cell spread must be non-negative" in capsys.readouterr().err

    def test_simulate_deterministic(self, tmp_path):
        # identical configuration (including the output path) twice over
        args = ["simulate", "--cells", "1", "--conditions", "1", "--seed", "4",
                "--noise-mv", "0.5", "--fade-refs", "60", "--discharge-knots", "40",
                "--out", str(tmp_path / "a")]
        main(args)
        cell = next((tmp_path / "a" / "cells").glob("*.csv"))
        manifest = tmp_path / "a" / "manifest.txt"
        first = (cell.read_bytes(), manifest.read_bytes())
        main(args)
        assert (cell.read_bytes(), manifest.read_bytes()) == first


class TestFitEcm:
    def test_emits_per_cycle_parameters(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "params.csv"
        code = main(["fit-ecm", "--manifest", _manifest(dataset_dir),
                     "--cell", "syn25-00", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# batlife v")
        assert lines[1] == ("cell_id,cycle,ocv_v,r_o_ohm,r_e_ohm,c_e_farad,"
                            "r_c_ohm,c_c_farad,residual_rms_v,converged")
        assert len(lines) > 10

    def test_truncate_below_minimum_exits_3(self, dataset_dir, tmp_path, capsys):
        code = main(["fit-ecm", "--manifest", _manifest(dataset_dir),
                     "--cell", "syn25-00", "--truncate", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error (DataError): ECM fit needs at least 6 relaxation samples, got 5" in err
        assert "6" in err


class TestFeatures:
    def test_long_format(self, dataset_dir, tmp_path):
        out = tmp_path / "features.csv"
        code = main(["features", "--manifest", _manifest(dataset_dir),
                     "--feature-set", "NOVEL_PRED", "--stride", "8",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "cell_id,cycle,feature,value"
        assert any(",dv_sum," in line for line in lines)

    def test_deterministic_output_bytes(self, dataset_dir, tmp_path):
        args = ["features", "--manifest", _manifest(dataset_dir),
                "--feature-set", "ECM", "--stride", "16",
                "--out", str(tmp_path / "a.csv")]
        main(args)
        first = (tmp_path / "a.csv").read_bytes()
        main(args)
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_window_start_before_first_cycle_exits_3(self, dataset_dir, tmp_path, capsys):
        code = main(["features", "--manifest", _manifest(dataset_dir), "--window-start", "0",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 3
        assert "reference cycle 0" in capsys.readouterr().err


class TestModelCommands:
    def test_train_predict_cycle(self, dataset_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code = main(["train-rul", "--manifest", _manifest(dataset_dir),
                     "--feature-sets", "NOVEL_PRED", "--stride", "6",
                     "--restarts", "2", "--max-iters", "150",
                     "--out", str(model)])
        assert code == 0
        assert model.read_text().splitlines()[0].startswith("# batlife v")
        out = tmp_path / "pred.csv"
        code = main(["predict-rul", "--manifest", _manifest(dataset_dir),
                     "--model", str(model), "--stride", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "cell_id,cycle,soh,rul_predicted_cycles,predictive_variance"
        assert len(lines) > 4

    def test_train_classify_cycle(self, dataset_dir, tmp_path):
        model = tmp_path / "dag.txt"
        code = main(["train-class", "--manifest", _manifest(dataset_dir),
                     "--chemistry", "NCA", "--test-cycle", "24",
                     "--window-cycles", "16", "--seed", "0",
                     "--out", str(model)])
        assert code == 0
        out = tmp_path / "labels.csv"
        code = main(["classify", "--manifest", _manifest(dataset_dir),
                     "--model", str(model), "--cycle", "24", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "cell_id,cycle,soh,label,probability"
        assert len(lines) == 8  # six cells classified


class TestBlasThreads:
    @pytest.mark.parametrize("argv, code", [
        (["fit-ecm", "--truncate", "6"], 0),
        (["train-rul", "--restarts", "0"], 3),
    ], ids=["fit-ecm", "refused"])
    def test_each_command_runs_inside_one_blas_thread_once(self, dataset_dir, tmp_path,
                                                          monkeypatch, argv, code):
        entered = []
        one_blas_thread = cli.one_blas_thread

        @contextlib.contextmanager
        def counting():
            entered.append(argv[0])
            with one_blas_thread():
                yield

        monkeypatch.setattr(cli, "one_blas_thread", counting)
        out = tmp_path / "out.csv"
        assert main([*argv, "--manifest", _manifest(dataset_dir), "--out", str(out)]) == code
        assert entered == [argv[0]]


class TestOptimizerBudget:
    @pytest.mark.parametrize("argv", [
        # train-class takes no restarts or iteration flag: it trains at the
        # ClassificationConfig defaults. evaluate reaches the same GPC config.
        ["train-rul"],
        ["evaluate", "--experiment", "rul"],
        ["evaluate", "--experiment", "truncation", "--sample-counts", "6,full"],
        ["evaluate", "--experiment", "classification", "--test-cycle", "24",
         "--window-cycles", "16"],
    ], ids=["train-rul", "evaluate-rul", "evaluate-truncation",
            "evaluate-classification"])
    @pytest.mark.parametrize("budget", [["--restarts", "0"], ["--restarts", "-2"],
                                        ["--max-iters", "0"]], ids=["0", "-2", "iters-0"])
    def test_below_one_exits_3_before_any_fit(self, dataset_dir, tmp_path, capsys, monkeypatch,
                                              argv, budget):
        def no_fit(curve):
            raise AssertionError("a circuit fit ran")

        monkeypatch.setattr(ecm, "fit", no_fit)
        out = tmp_path / "out"
        code = main([*argv, "--manifest", _manifest(dataset_dir), *budget, "--out", str(out)])
        assert code == 3
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def _evaluate(dataset_dir, outdir: Path, *flags: str) -> Path:
    assert main(["evaluate", "--manifest", _manifest(dataset_dir), *flags,
                 "--out", str(outdir)]) == 0
    return outdir


@pytest.fixture(scope="module")
def class_report(dataset_dir, tmp_path_factory):
    return _evaluate(dataset_dir, tmp_path_factory.mktemp("clsrep") / "report",
                     "--experiment", "classification", "--chemistry", "NCA",
                     "--test-cycle", "24", "--window-cycles", "16",
                     "--split", "1/1", "--seed", "2", "--plots")


@pytest.fixture(scope="module")
def rul_report(dataset_dir, tmp_path_factory):
    return _evaluate(dataset_dir, tmp_path_factory.mktemp("rulrep") / "report",
                     "--experiment", "rul", "--feature-sets", "ECM",
                     "--stride", "8", "--restarts", "2", "--max-iters", "100",
                     "--split", "1/1", "--seed", "3")


@pytest.fixture(scope="module")
def trunc_report(dataset_dir, tmp_path_factory):
    return _evaluate(dataset_dir, tmp_path_factory.mktemp("truncrep") / "report",
                     "--experiment", "truncation", "--sample-counts", "6,full",
                     "--feature-sets", "NOVEL_PRED", "--stride", "8",
                     "--restarts", "2", "--max-iters", "100",
                     "--split", "1/1", "--seed", "3")


class TestEvaluateReport:
    def test_rul_report_and_verify(self, dataset_dir, tmp_path, capsys):
        outdir = tmp_path / "report"
        code = main(["evaluate", "--manifest", _manifest(dataset_dir),
                     "--experiment", "rul", "--feature-sets", "NOVEL_PRED,ECM",
                     "--stride", "6", "--restarts", "2", "--max-iters", "150",
                     "--split", "1/1", "--seed", "3", "--out", str(outdir)])
        assert code == 0
        for name in ("predictions", "metrics", "importance"):
            assert (outdir / f"{name}.csv").exists()
        assert (outdir / "summary.txt").exists()
        code = main(["report", "--in", str(outdir)])
        assert code == 0
        assert "metrics verified" in capsys.readouterr().out

    def test_corrupted_report_fails_verification(self, rul_report, tmp_path, capsys):
        outdir = tmp_path / "report2"
        shutil.copytree(rul_report, outdir)
        metrics = outdir / "metrics.csv"
        text = metrics.read_text().splitlines()
        text[2] = text[2].rsplit(",", 2)[0] + ",999.0,1.0"
        metrics.write_text("\n".join(text) + "\n")
        assert main(["report", "--in", str(outdir)]) == 3

    def test_classification_evaluate(self, class_report):
        assert (class_report / "confusion.csv").exists()

    def test_plots_from_evaluate_and_report(self, class_report, trunc_report, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(trunc_report, copy)
        assert main(["report", "--in", str(copy), "--plots"]) == 0
        for path in [class_report / "probability_scatter.svg", class_report / "accuracy.svg",
                     *(copy / name for name in ("rul_scatter.svg", "importance.svg",
                                                "truncation.svg"))]:
            assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    def test_plots_of_values_no_axis_can_span_exit_3(self, trunc_report, tmp_path, capsys):
        # Importance is stored, not recomputed, so the edit passes verification;
        # a bar shows the last row of its category.
        copy = tmp_path / "copy"
        shutil.copytree(trunc_report, copy)
        lines = (copy / "importance.csv").read_text().splitlines()
        for i, value in ((-2, "1e308"), (-1, "-1e308")):
            cells = lines[i].split(",")
            cells[-2] = value
            lines[i] = ",".join(cells)
        (copy / "importance.csv").write_text("\n".join(lines) + "\n")
        assert main(["report", "--in", str(copy), "--plots"]) == 3
        err = capsys.readouterr().err
        assert "ValidationError" in err and "importance.svg" in err

    def test_fingerprint_covers_the_split(self, dataset_dir, class_report, tmp_path):
        """Two splits give two fingerprints; one split by flag or by config gives one."""
        flags = ["--experiment", "classification", "--chemistry", "NCA", "--test-cycle", "24",
                 "--window-cycles", "16", "--seed", "2"]
        config = tmp_path / "split.cfg"
        config.write_text("split = 1/1\n")
        auto = _evaluate(dataset_dir, tmp_path / "auto", *flags, "--split", "auto")
        by_config = _evaluate(dataset_dir, tmp_path / "config", *flags, "--config", str(config))

        def summary(report):
            return read_keys(report / "summary.txt", ValidationError)

        by_flag = summary(class_report)
        assert summary(auto)["fingerprint"] != by_flag["fingerprint"]
        assert (by_config / "summary.txt").read_bytes() == (class_report / "summary.txt").read_bytes()
        config_values = {k.removeprefix("config."): v for k, v in by_flag.items()
                         if k.startswith("config.")}
        assert by_flag["fingerprint"] == fingerprint(config_values)

    def test_truncation_evaluate(self, trunc_report, capsys):
        rows = (trunc_report / "sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1:3] for row in rows] == [["6", "720.0"], ["16", "1920.0"]]
        assert main(["report", "--in", str(trunc_report)]) == 0
        assert "metrics verified" in capsys.readouterr().out

    @pytest.mark.parametrize("report, name, edit, error", [
        ("class_report", "confusion.csv", lambda line: line.rsplit(",", 1)[0] + ",999",
         "ValidationError"),
        ("trunc_report", "sweep.csv", lambda line: line.rsplit(",", 1)[0] + ",1.0",
         "ValidationError"),
        ("class_report", "summary.txt", lambda line: line + "\nstray line", "SchemaError"),
    ], ids=["confusion", "sweep", "summary-line-without-equals"])
    def test_edited_report_exits_3(self, request, tmp_path, capsys, report, name, edit, error):
        copy = tmp_path / "copy"
        shutil.copytree(request.getfixturevalue(report), copy)
        lines = (copy / name).read_text().splitlines()
        lines[2] = edit(lines[2])
        (copy / name).write_text("\n".join(lines) + "\n")
        assert main(["report", "--in", str(copy)]) == 3
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("report", ["rul_report", "trunc_report", "class_report"])
    def test_edited_config_exits_3(self, request, tmp_path, capsys, report):
        copy = tmp_path / "copy"
        shutil.copytree(request.getfixturevalue(report), copy)
        summary = copy / "summary.txt"
        text, edits = re.subn(r"(?m)^(config\.seed = \d+)$", r"\g<1>1", summary.read_text())
        assert edits == 1
        summary.write_text(text)
        assert main(["report", "--in", str(copy)]) == 3
        assert "the fingerprint is not its config's" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", "--manifest", str(tmp_path / "nope.txt")]) == 3

    def test_help_lists_flags_with_units(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        text = capsys.readouterr().out
        for flag in ("--manifest", "--experiment", "--feature-sets", "--truncate",
                     "--window-start", "--seed", "--split", "--test-cycle"):
            assert flag in text
        assert "cycles" in text and "count" in text

    def test_config_file_merge_and_flag_override(self, dataset_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("feature_set = ECM\nstride = 16\n")
        out_a = tmp_path / "a.csv"
        main(["features", "--manifest", _manifest(dataset_dir),
              "--config", str(config), "--out", str(out_a)])
        assert ",ocv," in out_a.read_text()
        out_b = tmp_path / "b.csv"
        main(["features", "--manifest", _manifest(dataset_dir),
              "--config", str(config), "--feature-set", "RATE_CLASS",
              "--out", str(out_b)])
        text = out_b.read_text()
        assert ",dq_var_log10," in text and ",ocv," not in text

    def test_default_output_directory_env(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("BATLIFE_OUT", str(tmp_path))
        main(["features", "--manifest", _manifest(dataset_dir),
              "--feature-set", "ECM", "--stride", "16"])
        assert (tmp_path / "features.csv").exists()


def _write_fleet(cells, entries, directory: Path) -> str:
    """Write ``cells`` under ``directory`` with a manifest of their ``entries``."""
    by_id = {e.cell_id: e for e in entries}
    kept = [by_id[cell.cell_id] for cell in cells]
    for cell, entry in zip(cells, kept):
        (directory / entry.path).parent.mkdir(parents=True, exist_ok=True)
        write_cell(cell, directory / entry.path)
    write_manifest(kept, directory / "manifest.txt")
    return str(directory / "manifest.txt")


def _written_cycles(path) -> dict[str, list[int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    cycles: dict[str, list[int]] = {}
    for row in rows:
        found = cycles.setdefault(row[0], [])
        if not found or found[-1] != int(row[1]):
            found.append(int(row[1]))
    return cycles


class TestQuotedCellId:
    """A cell id may hold ',' and '"' (``CellMeta`` refuses only whitespace
    and '='), so every table that carries it must quote it."""

    def test_id_reads_back_verbatim(self, dataset_dir, tmp_path, capsys):
        cells = ingest_manifest(_manifest(dataset_dir))
        renamed = {c.cell_id: f'q,"{i}' for i, c in enumerate(cells, start=1)}
        manifest = _write_fleet(
            [dataclasses.replace(c, cell_id=renamed[c.cell_id]) for c in cells],
            [dataclasses.replace(e, cell_id=renamed[e.cell_id])
             for e in read_manifest(_manifest(dataset_dir))],
            tmp_path / "quoted")
        ids = set(renamed.values())

        def written_ids(path) -> set[str]:
            _, header, rows = read_table(path)
            return {row[header.index("cell_id")] for row in rows}

        features = tmp_path / "features.csv"
        assert main(["features", "--manifest", manifest, "--feature-set", "NOVEL_PRED",
                     "--stride", "10", "--out", str(features)]) == 0
        assert written_ids(features) == ids
        assert '\n"q,""1",' in features.read_text()
        model, predictions = tmp_path / "model.txt", tmp_path / "pred.csv"
        assert main(["train-rul", "--manifest", manifest, "--stride", "10", "--restarts", "1",
                     "--max-iters", "50", "--out", str(model)]) == 0
        assert main(["predict-rul", "--manifest", manifest, "--model", str(model),
                     "--stride", "10", "--out", str(predictions)]) == 0
        predicted = written_ids(predictions)
        assert 'q,"1' in predicted and predicted <= ids
        report = tmp_path / "report"
        assert main(["evaluate", "--manifest", manifest, "--experiment", "rul",
                     "--feature-sets", "NOVEL_PRED", "--stride", "8", "--restarts", "2",
                     "--max-iters", "100", "--split", "1/1", "--seed", "3",
                     "--out", str(report)]) == 0
        tested = written_ids(report / "predictions.csv")
        assert tested and tested <= ids
        assert main(["report", "--in", str(report)]) == 0
        assert "metrics verified" in capsys.readouterr().out


# Header fingerprint and sha256 of each output, recorded with the CLI that
# resolved flags and config files by hand (before argparse did it). The
# manifest and the two models were re-recorded when the manifest header
# stopped repeating its kind and the GP gradients moved to the shared
# length-scale contraction and the trtri inverse, the cell file when its
# header stopped repeating its kind, and the two models when model files
# became plain ``key = value`` files (format v2; the same numbers). The
# features and the two models were re-recorded when the circuit fit moved to
# the projected start: the fitted values moved by at most 1.2e-12 relative;
# and again when the variable-projection loop became the whole circuit fit:
# the features moved by at most 7.9e-13 relative, and the models' GP
# hyperparameters with them, most along the likelihood's flat length scales.
GOLDEN = {
    "small/manifest.txt": (
        "3f665b729229", "36752dd343d66ef5673b0cd13a50b01d392cb0cb832a06f6d90c7af9c55eba41"),
    "small/cells/syn25-00.csv": (
        "3f665b729229", "7b00351baa40f1a9a4bf703bd3f6019e1d7db658fd3a18991be6c190521ee52d"),
    "by_flags/features.csv": (
        "672c53d2fc2a", "b00cbb213e30087a2248853fe4186d437d78a2760fde5e08870fa190b35dd748"),
    "by_config/features.csv": (
        "672c53d2fc2a", "b00cbb213e30087a2248853fe4186d437d78a2760fde5e08870fa190b35dd748"),
    "rul_model.txt": (
        "efefeadd9222", "8cc7d01db1e9e8a11fe3d6b08e18755d87e6b335826e0cdd0eb43bb50ba9abd8"),
    "class_model.txt": (
        "c861099b7e8e", "ac046983e76e21f6117753faa60a87a7fd565ac55f08e9e2cd81ba0cf2cba625"),
}


class TestGolden:
    def test_outputs_match_recorded_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BATLIFE_OUT", raising=False)
        assert main(["simulate", "--cells", "1", "--conditions", "2", "--seed", "9",
                     "--noise-mv", "0", "--fade-refs", "40,60", "--discharge-knots", "40",
                     "--out", "small"]) == 0
        assert main(["simulate", "--cells", "2", "--conditions", "3", "--seed", "9",
                     "--noise-mv", "0", "--fade-refs", "60,350,600", "--discharge-knots", "40",
                     "--out", "fleet"]) == 0
        # The same settings by flags and by config file, under two output directories.
        monkeypatch.setenv("BATLIFE_OUT", "by_flags")
        assert main(["features", "--manifest", "small/manifest.txt", "--feature-set", "NOVEL_PRED",
                     "--stride", "5", "--out", "features.csv"]) == 0
        Path("features.cfg").write_text(
            "manifest = small/manifest.txt\nfeature_set = NOVEL_PRED\nstride = 5\n")
        monkeypatch.setenv("BATLIFE_OUT", "by_config")
        assert main(["features", "--config", "features.cfg", "--out", "features.csv"]) == 0
        monkeypatch.delenv("BATLIFE_OUT")
        assert main(["train-rul", "--manifest", "small/manifest.txt"]) == 0
        assert main(["train-class", "--manifest", "fleet/manifest.txt", "--test-cycle", "24",
                     "--window-cycles", "16"]) == 0
        for path, (fp, digest) in GOLDEN.items():
            data = Path(path).read_bytes()
            assert f"fingerprint={fp} ".encode() in data.split(b"\n", 1)[0], path
            assert hashlib.sha256(data).hexdigest() == digest, path


class TestConfigValues:
    def test_bad_config_value_is_usage_error(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("stride = x\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["features", "--manifest", _manifest(dataset_dir), "--config", str(config)])
        assert excinfo.value.code == 2
        assert "argument --stride: invalid int value: 'x'" in capsys.readouterr().err

    def test_boolean_config_value(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("include_ncm_nca = yes\n")
        code = main(["evaluate", "--manifest", _manifest(dataset_dir), "--config", str(config),
                     "--experiment", "classification", "--chemistry", "NCM+NCA",
                     "--split", "1/1", "--out", str(tmp_path / "r")])
        # Allowed by the config file, then no NCM+NCA cell has a training sample.
        assert code == 3
        assert "error (DataError): no training samples in cycles" in capsys.readouterr().err


class TestEvaluateInput:
    @pytest.mark.parametrize("flags, spec", [
        (["--split", "3"], "'3'"),
        (["--split", "A=x/1"], "'A=x/1'"),
        (["--experiment", "truncation", "--split", "1/1", "--sample-counts", "6,abc"], "'6,abc'"),
    ])
    def test_malformed_spec_is_validation_error(self, dataset_dir, tmp_path, capsys, flags, spec):
        code = main(["evaluate", "--manifest", _manifest(dataset_dir), *flags,
                     "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "ValidationError" in err and spec in err


@pytest.fixture(scope="module")
def dag_model(dataset_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("dag") / "dag.txt"
    assert main(["train-class", "--manifest", _manifest(dataset_dir), "--test-cycle", "24",
                 "--window-cycles", "16", "--out", str(model)]) == 0
    return model


class TestModelSchema:
    @pytest.mark.parametrize("field", [
        pytest.param("stage1.sigma_f", id="sigma_f"),
        pytest.param("stage1.length_scales", id="length_scales"),
        pytest.param("stage1.y", id="y"), "x_mean", "x_scale",
    ])
    def test_missing_dag_field_exits_3(self, dataset_dir, dag_model, tmp_path, capsys, field):
        lines = dag_model.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith(f"{field} ="))
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines[:first] + lines[first + 1:]) + "\n")
        code = main(["classify", "--manifest", _manifest(dataset_dir), "--model", str(broken),
                     "--cycle", "24", "--out", str(tmp_path / "labels.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "SchemaError" in err and f"missing model field '{field}'" in err


@pytest.fixture(scope="module")
def rul_model(dataset_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("rul") / "model.txt"
    assert main(["train-rul", "--manifest", _manifest(dataset_dir), "--stride", "10",
                 "--restarts", "1", "--max-iters", "50", "--out", str(model)]) == 0
    return model


class TestModelRead:
    @pytest.mark.parametrize("model, argv", [
        ("rul_model", ["predict-rul", "--stride", "10"]),
        ("dag_model", ["classify", "--cycle", "24"]),
    ], ids=["predict-rul", "classify"])
    def test_model_file_parsed_once(self, request, dataset_dir, tmp_path, monkeypatch, model,
                                    argv):
        parsed = []

        def counting_read_keys(path, *args):
            parsed.append(Path(path))
            return read_keys(path, *args)

        monkeypatch.setattr(modelio, "read_keys", counting_read_keys)
        path = request.getfixturevalue(model)
        assert main([*argv, "--manifest", _manifest(dataset_dir), "--model", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert parsed == [path]


def _first_dropped(value: str) -> str:
    return value.partition(",")[2]


def _last_dropped(value: str) -> str:
    return value.rpartition(",")[0]


V1_GPR = ("# kind=model\nbatlife-model v1 kind=gpr\nsigma_f = 1.0\nsigma_n = 0.1\n"
          "length_scales = 1.0\nx_mean = 0.0\nx_scale = 1.0\ny_mean = 0.0\nn = 1\nX 0.5\n"
          "y = 1.0\n")
V1_DAG = ("# kind=model\nbatlife-model v1 kind=life-dag\nx_mean = 0.0\nx_scale = 1.0\n"
          "begin binary stage1\nsigma_f = 1.0\nlength_scales = 1.0\nn = 1\nX 0.5\ny = 1.0\n"
          "end binary\n")


class TestMalformedModel:
    """A model file that does not hold a sound model exits 3, naming the file and the field."""

    @pytest.mark.parametrize("model, key, edit, error, named", [
        ("rul", "sigma_f", lambda v: "nan", "ValidationError", "field 'sigma_f'"),
        ("rul", "sigma_n", lambda v: "inf", "ValidationError", "field 'sigma_n'"),
        ("rul", "y_mean", lambda v: "1_0", "ValidationError", "field 'y_mean'"),
        ("rul", "length_scales", lambda v: "x," + _first_dropped(v), "ValidationError",
         "field 'length_scales'"),
        ("rul", "y", lambda v: "", "ValidationError", "field 'y': no numbers"),
        ("rul", "x_scale", lambda v: "0.0," + _first_dropped(v), "ValidationError",
         "field 'x_scale'"),
        ("rul", "x_mean", _last_dropped, "ValidationError", "field 'x_mean'"),
        ("rul", "y", _last_dropped, "ValidationError", "field 'X'"),
        ("rul", "y_mean", None, "SchemaError", "missing model field 'y_mean'"),
        ("rul", "v1", None, "SchemaError", "not a batlife-model v2 file"),
        ("dag", "stage2_long.sigma_f", lambda v: "nan", "ValidationError",
         "field 'stage2_long.sigma_f'"),
        ("dag", "x_mean", _last_dropped, "ValidationError", "field 'x_mean'"),
        ("dag", "x_scale", lambda v: "-1.0," + _first_dropped(v), "ValidationError",
         "field 'x_scale'"),
        ("dag", "stage2_short.length_scales", _last_dropped, "ValidationError",
         "field 'stage2_short.length_scales'"),
        ("dag", "stage1.y", _last_dropped, "ValidationError", "field 'stage1.X'"),
        ("dag", "stage1.y", lambda v: "0.5," + _first_dropped(v), "ValidationError",
         "field 'stage1.y': labels must be -1 or +1"),
        ("dag", "stage2_short.y", None, "SchemaError", "missing model field 'stage2_short.y'"),
        ("dag", "v1", None, "SchemaError", "not a batlife-model v2 file"),
        ("rul", "feature_names", lambda v: "a,b,c", "ValidationError",
         "field 'feature_names': 3 names"),
        ("dag", "feature_names", lambda v: "a,b,c", "ValidationError",
         "field 'feature_names': 3 names"),
    ], ids=["nan", "inf", "underscore", "not-a-number", "empty-list", "zero-x_scale",
            "short-x_mean", "X-y-mismatch", "missing-key", "v1", "dag-nan", "dag-short-x_mean",
            "dag-negative-x_scale", "dag-short-length_scales", "dag-X-y-mismatch",
            "dag-soft-label", "dag-missing-key", "dag-v1", "feature-names-count",
            "dag-feature-names-count"])
    def test_exits_3(self, dataset_dir, rul_model, dag_model, tmp_path, capsys,
                     model, key, edit, error, named):
        source = rul_model if model == "rul" else dag_model
        broken = tmp_path / "broken.txt"
        if key == "v1":
            broken.write_text(V1_GPR if model == "rul" else V1_DAG)
        else:
            lines = source.read_text().splitlines()
            at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
            value = lines[at].partition(" = ")[2]
            lines[at:at + 1] = [] if edit is None else [f"{key} = {edit(value)}"]
            broken.write_text("\n".join(lines) + "\n")
        if model == "rul":
            command = ["predict-rul", "--manifest", _manifest(dataset_dir), "--stride", "10"]
        else:
            command = ["classify", "--manifest", _manifest(dataset_dir), "--cycle", "24"]
        out = tmp_path / "out.csv"
        assert main([*command, "--model", str(broken), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"error ({error}): " in err and str(broken) in err and named in err
        assert not out.exists()


class TestRequiredFlags:
    @pytest.mark.parametrize("argv, flags", [
        (["ingest"], "--manifest"),
        (["fit-ecm"], "--manifest"),
        (["features"], "--manifest"),
        (["train-rul"], "--manifest"),
        (["predict-rul"], "--manifest, --model"),
        (["train-class"], "--manifest"),
        (["classify", "--cycle", "24"], "--manifest, --model"),
        (["classify", "--manifest", "m.txt", "--model", "x.txt"], "--cycle"),
        (["evaluate"], "--manifest"),
        (["report"], "--in"),
    ], ids=["ingest", "fit-ecm", "features", "train-rul", "predict-rul", "train-class",
            "classify", "classify-cycle", "evaluate", "report"])
    def test_missing_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, flags):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"batlife {argv[0]}: error: the following arguments are required: {flags}" in err

    def test_config_file_supplies_them(self, dataset_dir, rul_model, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"manifest = {_manifest(dataset_dir)}\n")
        out = tmp_path / "pred.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["predict-rul", "--config", str(config), "--out", str(out)])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --model" in capsys.readouterr().err
        config.write_text(f"manifest = {_manifest(dataset_dir)}\nmodel = {rul_model}\n"
                          "stride = 10\n")
        assert main(["predict-rul", "--config", str(config), "--out", str(out)]) == 0
        assert main(["ingest", "--config", str(config)]) == 0


class TestMissingCycles:
    """A cycle gets a feature vector when it and its window partner are recorded."""

    def test_predict_skips_cycles_without_partner(self, dataset_dir, tmp_path):
        model = tmp_path / "model.txt"
        assert main(["train-rul", "--manifest", _manifest(dataset_dir), "--stride", "10",
                     "--restarts", "1", "--max-iters", "50", "--out", str(model)]) == 0
        cells = {c.cell_id: c for c in ingest_manifest(_manifest(dataset_dir))}
        gapped = [without_cycles(cells["syn25-00"], {1}), without_cycles(cells["syn25-01"], {20})]
        manifest = _write_fleet(gapped, read_manifest(_manifest(dataset_dir)), tmp_path / "gapped")
        out = tmp_path / "pred.csv"
        assert main(["predict-rul", "--manifest", manifest, "--model", str(model),
                     "--out", str(out)]) == 0
        last = int(cells["syn25-01"].cycle_indices[-1])
        # The window starts at cycle 1: syn25-00 has no reference cycle left.
        assert _written_cycles(out) == {"syn25-01": [m for m in range(2, last + 1) if m != 20]}

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rate_features_follow_the_rule(self, dataset_dir, data):
        cell = next(c for c in ingest_manifest(_manifest(dataset_dir)) if c.cell_id == "syn25-00")
        n = int(cell.cycle_indices[-1])
        dropped = data.draw(st.sets(st.integers(1, n), max_size=n // 2), label="dropped")
        stride = data.draw(st.integers(1, 4), label="stride")
        gapped = without_cycles(cell, dropped)
        recorded = set(gapped.cycle_indices.tolist())

        def admitted(first, last):
            return [m for m in range(max(first, 2), last + 1, stride)
                    if m in recorded and m - 1 in recorded]

        with tempfile.TemporaryDirectory() as tmp:
            manifest = _write_fleet([gapped], read_manifest(_manifest(dataset_dir)), Path(tmp))
            out = Path(tmp) / "features.csv"
            assert main(["features", "--manifest", manifest, "--feature-set", "RATE_CLASS",
                         "--stride", str(stride), "--out", str(out)]) == 0
            written = _written_cycles(out)
        assert written.get("syn25-00", []) == admitted(2, max(recorded))

        test_cycle = data.draw(st.integers(2, n), label="test_cycle")
        window_cycles = data.draw(st.integers(2, n), label="window_cycles")
        pairs = build_classification_samples(
            {cell.cell_id: gapped}, [cell.cell_id], FeatureSet.RATE_CLASS, test_cycle,
            window_cycles, NCA_POLICY, stride, {},
        )
        expected = [m for m in admitted(test_cycle - window_cycles // 2,
                                        min(test_cycle + window_cycles // 2, gapped.eol_cycle))
                    if gapped.soh(m) > 0.8]
        assert [sample.cycle for sample, _ in pairs] == expected
