import pytest

from batlife.cli import main


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

    def test_ingest_validates(self, dataset_dir, capsys):
        assert main(["ingest", "--manifest", _manifest(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "6 cells validated" in out

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
        assert "InsufficientData" in err
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

    def test_corrupted_report_fails_verification(self, dataset_dir, tmp_path, capsys):
        outdir = tmp_path / "report2"
        main(["evaluate", "--manifest", _manifest(dataset_dir),
              "--experiment", "rul", "--feature-sets", "ECM",
              "--stride", "8", "--restarts", "2", "--max-iters", "100",
              "--split", "1/1", "--seed", "3", "--out", str(outdir)])
        metrics = outdir / "metrics.csv"
        text = metrics.read_text().splitlines()
        text[2] = text[2].rsplit(",", 2)[0] + ",999.0,1.0"
        metrics.write_text("\n".join(text) + "\n")
        assert main(["report", "--in", str(outdir)]) == 3

    def test_classification_evaluate(self, dataset_dir, tmp_path):
        outdir = tmp_path / "clsrep"
        code = main(["evaluate", "--manifest", _manifest(dataset_dir),
                     "--experiment", "classification", "--chemistry", "NCA",
                     "--test-cycle", "24", "--window-cycles", "16",
                     "--split", "1/1", "--seed", "2", "--out", str(outdir)])
        assert code == 0
        assert (outdir / "confusion.csv").exists()

    def test_truncation_evaluate(self, dataset_dir, tmp_path, capsys):
        outdir = tmp_path / "truncrep"
        code = main(["evaluate", "--manifest", _manifest(dataset_dir),
                     "--experiment", "truncation", "--sample-counts", "6,full",
                     "--feature-sets", "NOVEL_PRED", "--stride", "8",
                     "--restarts", "2", "--max-iters", "100",
                     "--split", "1/1", "--seed", "3", "--out", str(outdir)])
        assert code == 0
        rows = (outdir / "sweep.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1:3] for row in rows] == [["6", "720.0"], ["16", "1920.0"]]
        assert main(["report", "--in", str(outdir)]) == 0
        assert "metrics verified" in capsys.readouterr().out


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
