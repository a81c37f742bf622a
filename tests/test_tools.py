"""Smoke tests of the benchmark tools under tools/; no timing gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


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


@pytest.mark.parametrize("tool", ["bz_curve", "long_curve", "sweep_curve", "wide_curve"])
def test_curve_tool_prints_its_help(tool):
    # each curve tool imports its machine and commit helpers from bench_pairs
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / f"{tool}.py"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
