"""Scenario fuzzing: odd values in the committed scenarios never crash the CLI.

Each example takes one of the six committed scenarios with the command that
runs it, sets one or two of its nodes (a section, a key, or an item of a
list) to a value from a fixed pool, and runs the command through cli.main in
process.  Whatever the input, the command must end with exit code 0-3, say
`config error:` (2) or `error:` (3) when it fails, emit no warning, and
write only finite numbers.  No example is filtered out.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from thermostrobe.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
COMMANDS = {
    "qubit_standard": "simulate",
    "multilevel_relax": "simulate",
    "custom_static": "simulate",
    "qubit_ladder": "compare",
    "qubit_fit": "fit",
    "qubit_invariance": "analyze-invariance",
}
# runtime budget: a horizon of 0.2 is a whole number of every dt the scenarios
# use (0.1, and the ladder's 0.05 and 0.025), so every command still runs
HORIZON = 0.2
POOL = (None, "", "abc", "nan", [], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], {}, {"x": 1.0},
        True, False, 0, 0.0, -1, -0.5, 1e308, -1e308, math.nan, math.inf, -math.inf, 1e-300)


def _load(name: str) -> dict:
    scenario = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    scenario["strob"]["horizon"] = HORIZON
    return scenario


DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
BASES = {name: _load(name) for name in COMMANDS}


def _paths(node, prefix=()):
    """Every node below the root: section, key and list item paths."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# strategies built once: building one inside each draw costs more than the run
NAMES = st.sampled_from(sorted(COMMANDS))
PATHS = {name: st.lists(st.sampled_from(sorted(_paths(sc), key=repr)), min_size=1, max_size=2,
                        unique=True) for name, sc in BASES.items()}
VALUES = st.sampled_from(POOL)


@st.composite
def mutations(draw):
    name = draw(NAMES)
    return name, [(path, draw(VALUES)) for path in draw(PATHS[name])]


def _mutated(name: str, changes) -> dict:
    scenario = copy.deepcopy(BASES[name])
    # deeper paths first, so a change to an ancestor applies last instead of
    # leaving a path that no longer resolves
    for path, value in sorted(changes, key=lambda change: -len(change[0])):
        node = scenario
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return scenario


def _check_finite(obj, where):
    if isinstance(obj, dict):
        for value in obj.values():
            _check_finite(value, where)
    elif isinstance(obj, list):
        for value in obj:
            _check_finite(value, where)
    elif isinstance(obj, float):
        assert math.isfinite(obj), f"non-finite number in {where}"


def _check_outputs(out_dir: Path) -> None:
    for path in out_dir.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            _check_finite(json.loads(text, parse_constant=float), path.name)
        else:
            for line in text.splitlines()[1:]:
                assert all(math.isfinite(float(field)) for field in line.split(",")), path.name


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=mutations())
def test_mutated_scenarios_fail_cleanly(work, case):
    name, changes = case
    path, out_dir = work / "scenario.yaml", work / "out"
    path.write_text(yaml.dump(_mutated(name, changes), Dumper=DUMPER), encoding="utf-8")
    for old in out_dir.glob("*"):
        old.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy RuntimeWarning escapes as an exception
        code = main([COMMANDS[name], str(path), "--out-dir", str(out_dir)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("config error:"), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:"), err.getvalue()
    if out_dir.is_dir():
        _check_outputs(out_dir)
