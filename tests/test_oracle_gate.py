"""The benchmark's output checks pass on the program's own outputs.

perfbench/oracle.py checks each workload's outputs against operators it
rebuilds with numpy and scipy, apart from the program.  Here each of the four
workloads is built from two seeds by perfbench/workloads.py, run in-process
through cli.main, and every check must pass, so a change that breaks the
numbers the benchmark accepts fails Tier-1 and not only the benchmark.
"""

import sys
from pathlib import Path

import pytest
import yaml

from thermostrobe.cli import main

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("ladder-qubit", "relax-multilevel", "gibbs-noncommuting", "open-factorized")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import oracle
    import workloads
    yield workloads, oracle
    for name in ("oracle", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1001, 2002])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_pass_the_oracle(tmp_path, perfbench, name, seed):
    workloads, oracle = perfbench
    assert workloads.WORKLOADS == WORKLOADS
    base = yaml.safe_load((REPO / "scenarios" / "multilevel_relax.yaml").read_text(encoding="utf-8"))
    w = workloads.build(name, seed, base)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(w.scenario, sort_keys=True), encoding="utf-8")
    out = tmp_path / "out"
    rc = main([w.command, str(scenario), "--out-dir", str(out)])
    assert oracle.check(w, str(out), rc) == []
