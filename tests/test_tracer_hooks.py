"""The benchmark tracer still finds what it counts.

perfbench/tracer.py wraps package functions by name and counts numpy's
eigensolvers through np.linalg.  A refactor that renames a target, or binds
eigh or rk4_step to a local name, leaves the traced counters silently at 0,
so a small gibbs-generalized run is traced here and its spans checked.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from thermostrobe.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

R = 2.0 ** -0.5
SZ1 = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
SX1 = [[0.0, R, 0.0], [R, 0.0, R], [0.0, R, 0.0]]

GENERALIZED = {
    "name": "traced",
    "model": {"kind": "custom-gksl",
              "hamiltonian": [[1.0, 0.2, 0.0], [0.2, 0.0, 0.2], [0.0, 0.2, -1.0]],
              "jumps": [{"operator": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "rate": 0.3},
                        {"operator": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "rate": 0.1}]},
    "ansatz": {"kind": "gibbs-generalized", "observables": [SZ1, SX1]},
    "protocols": ["ode1", "ode2"],
    "strob": {"dt": 0.1, "horizon": 0.2},
    "initial": {"E": [-0.1, 0.05]},
}


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_hooks_resolve_and_see_one_eigh_per_rhs(tmp_path, tracer_module):
    path = tmp_path / "traced.yaml"
    path.write_text(yaml.safe_dump(GENERALIZED), encoding="utf-8")
    eigh = np.linalg.eigh
    t = tracer_module.Tracer()
    t.install()  # raises when a TARGETS name no longer resolves
    try:
        for module, attr, _span in tracer_module.TARGETS:
            target = sys.modules[f"thermostrobe.{module}"]
            for part in attr.split("."):
                target = getattr(target, part)
            assert hasattr(target, "__wrapped__"), f"{module}.{attr} is not traced"
        assert np.linalg.eigh is not eigh
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        t.uninstall()
    assert np.linalg.eigh is eigh
    spans = t.take()
    rhs = [i for i, s in enumerate(spans) if s[0] == "strob.rhs"]
    assert len(rhs) == 2 * 10 * 4  # ode1 and ode2 walked together: 2 intervals of 10 RK4 steps, 4 stages

    def rhs_of(i):
        while i >= 0 and spans[i][0] != "strob.rhs":
            i = spans[i][1]
        return i

    per_rhs = dict.fromkeys(rhs, 0)
    for i, s in enumerate(spans):
        if s[0] == "matcore.eigh" and rhs_of(i) >= 0:
            per_rhs[rhs_of(i)] += 1
    assert set(per_rhs.values()) == {1}
    assert tracer_module.layer_metrics(spans)["matcore.eigh_per_rhs"] == 1.0
