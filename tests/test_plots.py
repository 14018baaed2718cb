import math
import xml.etree.ElementTree as ET

import pytest

from batlife.errors import ValidationError
from batlife.experiments import ExperimentReport
from batlife.plots import chart, emit_plots

SVG = "{http://www.w3.org/2000/svg}"
AWKWARD = 'CY<25&"x'


def _rul_predictions(condition="CY25-0.5/1", relax_samples=None):
    rows = [
        {"feature_set": "NOVEL_PRED", "chemistry": "NCA", "condition": condition,
         "cell_id": "a", "cycle": 10 * i, "soh": 1.0 - 0.01 * i, "eol_cycles": 200,
         "rul_observed": 200.0 - 10 * i, "rul_predicted": 198.0 - 10 * i,
         "rul_predicted_var": 25.0}
        for i in range(1, 8)
    ]
    return [{"relax_samples": relax_samples, **row} if relax_samples else row for row in rows]


def _importance(feature_sets=("NOVEL_PRED",), first="ocv"):
    return [
        {"feature_set": feature_set, "chemistry": "NCA", "feature": name,
         "length_scale": 1.0 + i, "weight_by_length_scale": 0.25,
         "weight_by_inverse_length_scale": 0.25}
        for feature_set in feature_sets
        for i, name in enumerate((first, "r_o", "dv_sum", "dv_last"))
    ]


def _rul_report(condition="CY25-0.5/1", feature="ocv"):
    predictions = _rul_predictions(condition) + _rul_predictions("CY45-0.5/1")
    return ExperimentReport(kind="rul", fingerprint="deadbeef0000", config={"seed": "0"},
                            tables={"predictions": predictions,
                                    "importance": _importance(first=feature)})


def _truncation_report():
    predictions = _rul_predictions(relax_samples=6) + _rul_predictions(relax_samples=16)
    sweep = [
        {"feature_set": feature_set, "relax_samples": n, "relaxation_time_s": 120.0 * n,
         "rmse_cycles": rmse, "mape_pct": rmse / 4}
        for feature_set, offset in (("NOVEL_PRED", 0.0), ("BENCHMARK", 3.0))
        for n, rmse in ((16, 20.0 + offset), (6, 35.0 + offset))
    ]
    return ExperimentReport(kind="truncation", fingerprint="deadbeef0002", config={"seed": "0"},
                            tables={"predictions": predictions, "sweep": sweep,
                                    "importance": _importance(("NOVEL_PRED", "BENCHMARK"))})


def _classification_report(condition="CY25-0.5/1"):
    predictions = [
        {"feature_set": "NOVEL_CLASS", "condition": condition, "cell_id": "a",
         "cycle": 30 + i, "soh": 0.95 - 0.01 * i, "rul_observed": 100.0 - i,
         "label_observed": "Medium", "label_predicted": "Medium" if i % 3 else "Short",
         "probability": 0.6 + 0.03 * i, "correct": int(bool(i % 3))}
        for i in range(9)
    ]
    metrics = [
        {"feature_set": "NOVEL_CLASS", "condition": condition, "n_samples": 9,
         "accuracy_pct": 66.7},
        {"feature_set": "NOVEL_CLASS", "condition": "ALL", "n_samples": 9,
         "accuracy_pct": 66.7},
    ]
    return ExperimentReport(kind="classification", fingerprint="deadbeef0001",
                            config={"seed": "0"},
                            tables={"predictions": predictions, "metrics": metrics})


def _figure(path):
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    return root


def _legend(root):
    """The legend names: the texts placed right of the plot area, top to bottom."""
    frame = root.findall(f"{SVG}rect")[1]
    right = float(frame.get("x")) + float(frame.get("width"))
    return [t.text for t in root.iter(f"{SVG}text")
            if t.get("x") is not None and float(t.get("x")) > right]


def _guides(root):
    return [line for line in root.iter(f"{SVG}line") if line.get("stroke-dasharray")]


@pytest.mark.parametrize("report, names", [
    (_rul_report, ["rul_scatter.svg", "importance.svg"]),
    (_truncation_report, ["rul_scatter.svg", "importance.svg", "truncation.svg"]),
    (_classification_report, ["probability_scatter.svg", "accuracy.svg"]),
], ids=["rul", "truncation", "classification"])
def test_plot_set_parses_and_repeats_byte_for_byte(tmp_path, report, names):
    first = emit_plots(report(), tmp_path / "a")
    second = emit_plots(report(), tmp_path / "b")
    assert [p.name for p in first] == names
    for a, b in zip(first, second):
        _figure(a)
        assert a.read_bytes() == b.read_bytes()


def test_rul_scatter_has_a_series_per_condition_and_a_diagonal_guide(tmp_path):
    emit_plots(_rul_report(), tmp_path)
    root = _figure(tmp_path / "rul_scatter.svg")
    assert _legend(root) == ["CY25-0.5/1", "CY45-0.5/1"]
    assert len(list(root.iter(f"{SVG}circle"))) == 14
    [guide] = _guides(root)
    x1, y1, x2, y2 = (float(guide.get(k)) for k in ("x1", "y1", "x2", "y2"))
    assert x2 > x1 and y2 < y1  # rises left to right: y = x


def test_probability_scatter_has_both_outcomes_and_a_half_guide(tmp_path):
    emit_plots(_classification_report(), tmp_path)
    root = _figure(tmp_path / "probability_scatter.svg")
    assert _legend(root) == ["correct", "misclassified"]
    assert len(list(root.iter(f"{SVG}circle"))) == 9
    [guide] = _guides(root)
    assert guide.get("y1") == guide.get("y2")
    assert _legend(_figure(tmp_path / "accuracy.svg")) == ["NOVEL_CLASS"]


def test_truncation_figures(tmp_path):
    emit_plots(_truncation_report(), tmp_path)
    root = _figure(tmp_path / "truncation.svg")
    assert _legend(root) == ["NOVEL_PRED", "BENCHMARK"]
    lines = [p.get("points").split() for p in root.iter(f"{SVG}polyline")]
    assert [len(points) for points in lines] == [2, 2]
    # Each line runs left to right: 12 then 32 minutes of relaxation.
    assert all(float(p[0].split(",")[0]) < float(p[1].split(",")[0]) for p in lines)
    assert not _guides(root)
    importance = _figure(tmp_path / "importance.svg")
    assert _legend(importance) == ["NCA"]
    # Background and frame, one bar per feature, one legend swatch.
    assert len(importance.findall(f"{SVG}rect")) == 2 + 4 + 1


def test_table_text_is_escaped(tmp_path):
    # A condition in the scatter legend and the accuracy categories, a
    # feature in the importance categories.
    paths = [*emit_plots(_rul_report(AWKWARD, AWKWARD), tmp_path),
             emit_plots(_classification_report(AWKWARD), tmp_path)[1]]
    assert [p.name for p in paths] == ["rul_scatter.svg", "importance.svg", "accuracy.svg"]
    for path in paths:
        text = path.read_text()
        assert AWKWARD not in text
        assert "CY&lt;25&amp;&quot;x" in text
        assert AWKWARD in [t.text for t in _figure(path).iter(f"{SVG}text")]


def test_values_that_are_not_finite_numbers_are_left_out(tmp_path):
    report = _classification_report()
    rows = report.tables["predictions"]
    rows[0]["probability"], rows[1]["soh"], rows[2]["probability"] = "x", float("nan"), math.inf
    report.tables["metrics"][0]["accuracy_pct"] = "x"
    emit_plots(report, tmp_path)
    assert len(list(_figure(tmp_path / "probability_scatter.svg").iter(f"{SVG}circle"))) == 6
    accuracy = _figure(tmp_path / "accuracy.svg")
    assert len(accuracy.findall(f"{SVG}rect")) == 2 + 0 + 1


def test_empty_tables_still_draw(tmp_path):
    empty = ExperimentReport(kind="classification", fingerprint="0", config={},
                             tables={"predictions": [], "metrics": []})
    for path in emit_plots(empty, tmp_path):
        _figure(path)


@pytest.mark.parametrize("value", [1e20, -1e20])
def test_a_constant_series_at_a_huge_value_draws(value):
    root = ET.fromstring(chart([("a", [(0.0, value)])], "x", "y"))
    assert len(list(root.iter(f"{SVG}circle"))) == 1
    labels = [float(text.text) for text in root.iter(f"{SVG}text") if text.get("text-anchor") == "end"]
    assert min(labels) <= value <= max(labels)


@pytest.mark.parametrize("points, guide", [
    ([(0.0, 1e308), (1.0, -1e308)], None),
    ([(-1e308, 0.0), (1e308, 1.0)], None),
    ([(0.0, 1.0), (1e308, 2.0)], (10.0, 0.0)),
    ([(0.0, 0.0), (1.0, 5e-324)], None),
], ids=["y-span-overflows", "x-span-overflows", "guide-overflows", "span-underflows"])
def test_values_no_axis_can_span_are_a_validation_error(points, guide):
    with pytest.raises(ValidationError, match="span no finite range"):
        chart([("a", points)], "x", "y", guide=guide)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_left_out_of_a_chart(bad):
    root = ET.fromstring(chart([("a", [(0.0, 1.0), (1.0, bad), (bad, 2.0), (2.0, 3.0)])],
                               "x", "y"))
    assert len(list(root.iter(f"{SVG}circle"))) == 2


def test_emit_plots_names_the_figure_and_writes_none(tmp_path):
    report = _rul_report()
    report.tables["importance"][0]["weight_by_length_scale"] = 1e308
    report.tables["importance"][1]["weight_by_length_scale"] = -1e308
    with pytest.raises(ValidationError, match=r"figure .*importance\.svg: values from"):
        emit_plots(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()
