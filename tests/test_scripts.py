"""The scripts in scripts/ and the README's examples still run against the package API.

Each script module is loaded without calling its main(), so a removed or
renamed name fails here at almost no cost instead of only when the script
is run.  The README's python blocks are executed, and its scenario-format
block is run through the CLI.  The summary of scripts/bench_pairs.py is
checked on fixed numbers.  The outputs of scripts/reference_outputs.py
are held to the hashes in tests/golden/reference_outputs.sha256, and
scripts/workload_outputs.py must print the same lines for two runs, the
lines pinned in tests/golden/workload_outputs.sha256.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from thermostrobe.cli import main

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
README = (REPO / "README.md").read_text(encoding="utf-8")


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.S | re.M)


def test_scripts_exist():
    assert SCRIPTS


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(load_script(path).main)


def test_reference_outputs_keep_their_pinned_hashes(tmp_path, capsys):
    # the 21 reference outputs, the golden summary among them, byte for byte
    load_script(REPO / "scripts" / "reference_outputs.py").main([str(tmp_path)])
    pinned = (REPO / "tests" / "golden" / "reference_outputs.sha256").read_text(encoding="utf-8")
    assert capsys.readouterr().out == pinned


def test_workload_outputs_print_the_same_hashes_twice(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    script = load_script(REPO / "scripts" / "workload_outputs.py")
    try:
        printed = []
        for out in ("a", "b"):
            script.main([str(tmp_path / out), "7"])
            printed.append(capsys.readouterr().out)
    finally:
        sys.modules.pop("workloads", None)
    assert printed[0] == printed[1]
    assert printed[0] == (REPO / "tests" / "golden" / "workload_outputs.sha256").read_text(encoding="utf-8")
    paths = [line.split("  ")[1].split("/") for line in printed[0].splitlines()]
    assert {seed for _, seed, _ in paths} == {"7"}
    assert {name for name, _, _ in paths} == {
        "ladder-qubit", "relax-multilevel", "gibbs-noncommuting", "open-factorized"}


def test_readme_python_examples_run(capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["W_fd"].shape == namespace["W"].shape == (1, 1)


def test_readme_scenario_format_runs(tmp_path, capsys):
    (block,) = readme_blocks("yaml")
    path = tmp_path / "readme.yaml"
    path.write_text(block, encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "qubit_standard_summary.json").read_text())
    assert summary["protocols"] == ["discrete", "ode2", "closed-form"]
    assert "generic_vs_analytic_A" in summary["diagnostics"]


PARENT_RUNS = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]  # quartiles 11, 12, 13


@pytest.mark.parametrize("shift, ties, losses, wins, gain", [
    (5.0, 0, 0, 10, True),
    (5.0, 1, 0, 9, True),    # 9 of 10 pairs: the edge that still holds
    (5.0, 0, 1, 9, True),
    (5.0, 2, 0, 8, False),   # ties count for neither side
    (5.0, 1, 1, 8, False),
    (2.0, 0, 0, 10, False),  # the median gap equals the parent's interquartile range
    (2.5, 0, 0, 10, True),
], ids=["all", "one-tie", "one-loss", "two-ties", "tie-and-loss", "gap-at-iqr", "gap-above-iqr"])
def test_bench_pairs_summary(shift, ties, losses, wins, gain):
    summarize = load_script(REPO / "scripts" / "bench_pairs.py").summarize
    change = [p - shift for p in PARENT_RUNS]
    for i in range(ties):
        change[2 * i] = PARENT_RUNS[2 * i]
    for i in range(losses):
        change[2 * i + 1] = PARENT_RUNS[2 * i + 1] + 1.0
    low = summarize(PARENT_RUNS, change, "lower")
    assert (low["wins"], low["pairs"], low["gain"]) == (wins, 10, gain)
    assert low["parent"] == (11.0, 12.0, 13.0)
    high = summarize([-p for p in PARENT_RUNS], [-c for c in change], "higher")
    assert (high["wins"], high["gain"]) == (wins, gain)
    assert summarize(PARENT_RUNS * 2, change * 2, "lower")["gain"] == gain  # 18 of 20 holds, 16 does not


@pytest.mark.parametrize("change, verdict", [
    ([c + 2.9 for c in PARENT_RUNS], "no worse"),    # median 14.9, within 25 % of 12
    ([c + 3.0 for c in PARENT_RUNS], "no worse"),    # median 15.0, exactly at the bound
    ([c + 3.1 for c in PARENT_RUNS], "worse"),       # median 15.1, beyond it
    ([c - 5.0 for c in PARENT_RUNS], "no worse"),    # better
], ids=["inside-bound", "at-bound", "beyond-bound", "better"])
def test_bench_pairs_verdict(change, verdict):
    judge = load_script(REPO / "scripts" / "bench_pairs.py").verdict
    assert judge(PARENT_RUNS, change, "lower", 0.25) == verdict
    assert judge([-p for p in PARENT_RUNS], [-c for c in change], "higher", 0.25) == verdict


def test_bench_pairs_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    judge = load_script(REPO / "scripts" / "bench_pairs.py").verdict
    # the parent's interquartile range is 2, wider than 5 % of its median 12
    assert judge(PARENT_RUNS, PARENT_RUNS, "lower", 0.05) == "unresolved"
    assert judge(PARENT_RUNS, [c + 10.0 for c in PARENT_RUNS], "lower", 0.05) == "unresolved"
    assert judge(PARENT_RUNS, [c - 3.5 for c in PARENT_RUNS], "lower", 0.05) == "unresolved"  # 10.5 > 10
    assert judge(PARENT_RUNS, [c - 5.0 for c in PARENT_RUNS], "lower", 0.05) == "no worse"  # every run beats every run
    assert judge(PARENT_RUNS, [9.0] * 10, "lower", 0.05) == "no worse"


@pytest.mark.parametrize("result", [
    {"correct": False, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}},
    {"correct": True, "attempted": 5, "failed": 1, "metrics": {"wall_s": {"value": 1.0}}},
    {"correct": False, "attempted": 3, "failed": 3},
], ids=["incorrect", "failed-op", "no-metrics"])
def test_bench_pairs_refuses_a_bad_run(result):
    with pytest.raises(SystemExit, match="refused"):
        load_script(REPO / "scripts" / "bench_pairs.py").checked(result, "parent")
