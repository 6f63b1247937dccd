"""scripts/perf_ab.py statistics, on canned perfbench result lines."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "scripts" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(wall, rps, correct=True, failed=0, extra=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "rounds_per_s": {"value": rps, "unit": "rounds/s"}}
    metrics.update(extra or {})
    return json.dumps({"correct": correct, "attempted": 240, "failed": failed,
                       "metrics": metrics})


BETTER = {"wall_s": "lower", "rounds_per_s": "higher"}


def records(ab, rows):
    return [ab.parse_result("# header\nwall_s 1 s\n" + row + "\n\n") for row in rows]


def test_parse_result_takes_the_last_line(ab):
    rec = ab.parse_result("# trace\nsome table\n" + line(1.5, 100.0) + "\n")
    assert rec["metrics"]["wall_s"]["value"] == 1.5
    with pytest.raises(ValueError):
        ab.parse_result("\n\n")


def test_directions_read_both_metric_lists(ab):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = ab.directions(bench)
    assert better["wall_s"] == "lower"
    assert better["specs_per_s"] == "higher"
    assert better["sim.kernel.observe_round_s"] == "lower"


def test_quartiles_interpolate_like_numpy(ab):
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert ab.quartiles([5.0]) == (5.0, 5.0)
    assert ab.quartiles([1.0, 3.0]) == (1.5, 2.5)


def test_medians_iqr_and_wins(ab):
    base = records(ab, [line(w, 1000 / w) for w in (1.40, 1.42, 1.38, 1.45, 1.41)])
    head = records(ab, [line(w, 1000 / w) for w in (1.20, 1.19, 1.43, 1.21, 1.18)])
    s = ab.summarize(base, head, BETTER)
    wall = s["metrics"]["wall_s"]
    assert wall["base_median"] == 1.41 and wall["head_median"] == 1.20
    assert wall["base_iqr"] == pytest.approx(1.42 - 1.40)
    assert wall["base_quartiles"] == [1.40, 1.42]
    assert wall["head_quartiles"] == [1.19, 1.21]
    assert wall["head_runs"] == [1.20, 1.19, 1.43, 1.21, 1.18]
    assert wall["wins"] == 4  # pair 3 lost: 1.43 > 1.38
    assert wall["clears_iqr"] is True
    assert wall["change"] == pytest.approx((1.20 - 1.41) / 1.41)
    rps = s["metrics"]["rounds_per_s"]
    assert rps["wins"] == 4 and rps["clears_iqr"] is True  # higher is better
    assert s["pairs"] == 5 and s["correct"] is True


def test_gap_inside_the_iqr_does_not_clear(ab):
    base = records(ab, [line(w, 1.0) for w in (1.0, 1.3, 1.1, 1.4)])
    head = records(ab, [line(w, 1.0) for w in (0.95, 1.25, 1.05, 1.35)])
    wall = ab.summarize(base, head, BETTER)["metrics"]["wall_s"]
    assert wall["wins"] == 4
    assert wall["clears_iqr"] is False  # 0.05 gap < 0.15 IQR


def test_worse_head_never_clears(ab):
    base = records(ab, [line(1.0, 10.0)] * 3)
    head = records(ab, [line(2.0, 5.0)] * 3)
    s = ab.summarize(base, head, BETTER)
    for m in s["metrics"].values():
        assert m["wins"] == 0 and m["clears_iqr"] is False


def test_correct_needs_every_run_clean(ab):
    good = records(ab, [line(1.0, 1.0)] * 2)
    assert ab.summarize(good, records(ab, [line(1.0, 1.0), line(1.0, 1.0, failed=1)]),
                        BETTER)["correct"] is False
    assert ab.summarize(records(ab, [line(1.0, 1.0, correct=False)] * 2), good,
                        BETTER)["correct"] is False


def test_only_shared_known_metrics_are_compared(ab):
    extra = {"mystery": {"value": 1.0, "unit": "x"},
             "sim.kernel.observe_round_s": {"value": 0.2, "unit": "s"}}
    base = records(ab, [line(1.0, 1.0, extra=extra)] * 2)
    head = records(ab, [line(1.0, 1.0)] * 2)
    better = dict(BETTER, **{"sim.kernel.observe_round_s": "lower"})
    assert set(ab.summarize(base, head, better)["metrics"]) == {"wall_s", "rounds_per_s"}


def test_mismatched_pairs_raise(ab):
    with pytest.raises(ValueError):
        ab.summarize(records(ab, [line(1.0, 1.0)]), [], BETTER)


def test_format_summary_lists_every_metric(ab):
    base = records(ab, [line(1.4, 700.0)] * 2)
    head = records(ab, [line(1.2, 800.0)] * 2)
    text = ab.format_summary(ab.summarize(base, head, BETTER))
    assert "wall_s" in text and "-14.3%" in text and "2/2" in text
    assert text.splitlines()[-1] == "correct: True"
