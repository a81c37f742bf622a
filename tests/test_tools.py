"""Smoke tests of the benchmark tools under tools/; no timing gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import curve  # noqa: E402


def test_ab_inproc_writes_an_aa_file(tmp_path):
    # two tiny A/A rounds of this checkout: three processes a round, one counting
    # process a side, and the cold-cli outputs compare once the work directory is masked
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inproc.py"), "--src", str(ROOT), "--src",
         str(ROOT), "--workload", "cold-cli", "--rounds", "2", "--queries", "12", "--out",
         str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["workload"] == "cold-cli" and result["queries"] == 12
    assert {"nproc", "cpu_model", "python"} <= set(result["machine"])
    assert [(p["round"], p["side"]) for p in result["processes"]] == [
        (0, "A"), (0, "B"), (0, "A"), (1, "A"), (1, "B"), (1, "A")]
    assert all(sum(p["queries"].values()) == 12 for p in result["processes"])
    summary = result["summary"]
    assert summary["digests_equal_per_seed"] is True and summary["failed_checks"] == 0
    for k in ("nf", "cyclic", "all"):
        assert set(summary[k]) == {"b_over_a", "a_over_a", "b_faster_than_both_a_in"}
        assert set(summary[k]["b_over_a"]) == {"median", "quartiles"}
    assert result["calls"]["A"] == result["calls"]["B"]
    assert result["calls"]["A"]["group.build_context"] == 12


def test_bench_pairs_leaves_cold_cli_digests_uncompared():
    run = {"exit": 0, "failed": 0, "metrics": {"throughput_qps": 1.0}}
    runs = [{"pair": 0, "side": side, "digest": side, **run} for side in ("parent", "change")]
    summary = bench_pairs.summarise(runs, {"throughput_qps": "higher"}, "cold-cli")
    assert summary["digests_equal_per_seed"] is None
    assert "work directory" in summary["digests_not_compared"]
    assert bench_pairs.summarise(runs, {}, "blowup")["digests_equal_per_seed"] is False


@pytest.mark.parametrize("tool", sorted((ROOT / "tools").glob("*.py")), ids=lambda p: p.stem)
def test_tool_prints_its_help(tool):
    # each tool imports its helpers from bench_pairs, which must load as a script too
    proc = subprocess.run([sys.executable, str(tool), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


LONG = ("conj-conjugate", "conj-not-conjugate", "cr-membership", "cyclic-form", "cli-conj")
# where each series' committed record keeps its points, or (sweep) its one aggregate digest
COMMITTED = {
    "bz-normal-form": ("BENCH_pairs_joins.json", "curve", "change", "curves", "normal_form"),
    "bz-reduced-form": ("BENCH_pairs_joins.json", "curve", "change", "curves", "reduced_form"),
    "wide-validate": ("BENCH_wide.json", "change", "points"),
    "wide-meet": ("BENCH_wide_meet.json", "change", "wide-meet", "runs", 0, "points"),
    "circle-transversal": ("BENCH_circle.json", "change", "circle-transversal", "runs", 0,
                           "points"),
    "sweep": ("BENCH_sweep.json", "runs", 1),
    **{name: ("BENCH_long.json", "change", "points", name) for name in LONG},
}

# the series of curve.py that took over the work of each deleted curve tool
OLD_TOOLS = {"bz_curve": ("bz-normal-form", "bz-reduced-form"), "long_curve": LONG,
             "sweep_curve": ("sweep",), "wide_curve": ("wide-validate",)}


@pytest.mark.parametrize("tool", sorted(OLD_TOOLS))
def test_curve_tool_prints_its_help(tool):
    # curve.py's help offers, as --series choices, every series the old tool timed
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "curve.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    choices = proc.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert set(OLD_TOOLS[tool]) <= set(choices)


@pytest.mark.parametrize("name", sorted(curve.SERIES))
def test_each_series_reproduces_its_committed_digest(name, tmp_path):
    # the smallest point, through the tool's own runner, against the committed curve
    series = curve.SERIES[name]
    if name == "sweep":  # the forms, and so the digest, do not depend on the repeats
        series = series._replace(data={**series.data, "repeats": 1})
    point = curve.run_point(str(ROOT), series, series.sizes[0], 1024, str(tmp_path))
    assert point["exit_code"] == 0, point
    node = json.loads((ROOT / COMMITTED[name][0]).read_text(encoding="utf-8"))
    for key in COMMITTED[name][1:]:
        node = node[key]
    assert point["digest"] == (node if "digest" in node else node[str(series.sizes[0])])["digest"]
