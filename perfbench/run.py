"""thermostrobe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/ and
scenarios/).  The run

1. builds the workload's inputs from the seed (perfbench/workloads.py);
2. starts one measured worker process (perfbench/worker.py) and drives it
   as a closed loop with one caller for S seconds: each operation is one
   `thermostrobe` command, sent only after the previous one returned and
   its outputs were checked here against perfbench/oracle.py (outputs
   byte-identical to ones already checked share their verdict);
3. between operations, spread over the run, times SETUP_SAMPLES
   fresh-process set-ups (import, scenario load, builders, first
   Propagator) and reports their median as setup_s;
4. prints every metric by name with its unit, then, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With --trace 1 operations alternate untraced and traced,
and the metrics are the per-layer ones from perfbench/tracer.py plus the
tracing overhead; the spans of the first traced operation are written to
.perfbench/trace-<workload>.json (overwritten by the next traced run).

An operation fails when its command does not complete: it raises, or exits
with a configuration (2) or runtime (3) error.  `correct` is false when an
operation that did complete produced outputs that fail a check, and when no
operation completed; then the result still gives attempted and failed, with
no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60.0
OP_TIMEOUT_S = 60.0
WORK_DIR = ".perfbench"
# Exit codes of a command that completed and wrote its outputs: 0, or 1 for
# an adverse compare verdict (which the output checks then reject).
COMPLETED = (0, 1)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set to 1 in the measured process: BLAS threads, and the worker count of
# `thermostrobe compare` ladder sweeps, so it has one thread of work.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "THERMOSTROBE_THREADS")


class BenchError(RuntimeError):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="thermostrobe benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_json(text: str) -> dict:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def setup_sample(root: str, scenario: str, env: dict) -> dict:
    """Set-up phase times of one fresh process."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--probe", scenario],
                          cwd=root, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return _last_json(proc.stdout)


def _outputs_digest(out_dir: str, rc: int) -> str:
    """Digest of an operation's exit code and output bytes.  Outputs that
    are byte-identical to ones already checked get the same verdict, so
    repeated operations are not checked twice."""
    h = hashlib.sha256(str(rc).encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Worker:
    """The measured process, driven one request at a time."""

    def __init__(self, root: str, env: dict, argv: list[str], log_path: str):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                                     cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log, text=True, bufsize=1)

    def read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError(f"worker gave no answer within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited ({self.proc.wait()}); see {self._log.name}")
        return json.loads(line)

    def ask(self, request: str, timeout: float = OP_TIMEOUT_S) -> dict:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self._log.close()


def run(args, root: str) -> tuple[dict, int, int, list[str]]:
    import yaml

    import oracle
    import workloads

    base_path = os.path.join(root, "scenarios", "multilevel_relax.yaml")
    if not os.path.isfile(os.path.join(root, "src", "thermostrobe", "cli.py")) or \
            not os.path.isfile(base_path):
        raise BenchError(f"{root} is not a thermostrobe source checkout (src/, scenarios/ missing)")
    with open(base_path, encoding="utf-8") as fh:
        base = yaml.safe_load(fh)
    wl = workloads.build(args.workload, args.seed, base)

    work = os.path.join(root, WORK_DIR)
    run_dir = os.path.join(work, f"run-{args.workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    scenario = os.path.join(run_dir, "scenario.yaml")
    with open(scenario, "w", encoding="utf-8") as fh:
        yaml.safe_dump(wl.scenario, fh, sort_keys=True)
    env = _worker_env(root)

    trace_path = os.path.join(work, f"trace-{args.workload}.json")
    argv = ["--serve", scenario, "--command", wl.command, "--out-dir", out_dir]
    if args.trace:
        argv += ["--trace", trace_path]
    worker = Worker(root, env, argv, os.path.join(run_dir, "worker.log"))
    attempted = failed = 0
    problems: list[str] = []
    probes: list[dict] = []
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    layers: list[dict] = []
    byte_counts: list[int] = []
    verdicts: dict[str, list[str]] = {}   # output digest -> check failures
    try:
        worker.read(PROBE_TIMEOUT_S)
        start = perf_counter()
        while True:
            mode = "traced" if args.trace and attempted % 2 == 1 else "plain"
            answer = worker.ask(mode)
            attempted += 1
            if answer["rc"] not in COMPLETED:
                failed += 1
                print(f"FAILED op {attempted}: exit code {answer['rc']} {answer['error'] or ''}",
                      file=sys.stderr)
            else:
                walls[mode].append(answer["wall_s"])
                byte_counts.append(answer["bytes"])
                if mode == "traced":
                    layers.append(answer["layers"])
                key = _outputs_digest(out_dir, answer["rc"])
                if key not in verdicts:
                    verdicts[key] = oracle.check(wl, out_dir, answer["rc"])
                problems += [f"op {attempted}: {msg}" for msg in verdicts[key]]
            # set-up samples are spread over the run, between operations
            share = min(1.0, (perf_counter() - start) / args.seconds)
            if len(probes) < math.ceil(SETUP_SAMPLES * share):
                probes.append(setup_sample(root, scenario, env))
            if share >= 1.0 and (not args.trace or layers or failed):
                break
        while len(probes) < SETUP_SAMPLES:
            probes.append(setup_sample(root, scenario, env))
        peak_rss_mb = worker.ask("stop")["peak_rss_mb"]
        worker.proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        worker.close()

    if not walls["plain"] or (args.trace and not layers):
        kind = "untraced and traced" if args.trace else "untraced"
        problems.append(f"not every kind of operation ({kind}) completed once, so nothing is measured")
        return {}, attempted, failed, problems
    if args.trace:
        import tracer
        metrics = tracer.median_metrics(layers)
        metrics["cli.import_s"] = median(p["import_s"] for p in probes)
        metrics["cli.bytes_written"] = median(byte_counts)
        metrics["trace.overhead_ratio"] = median(walls["traced"]) / median(walls["plain"])
        units = tracer.LAYER_UNITS
    else:
        metrics = {
            "wall_s": median(walls["plain"]),
            "setup_s": median(p["setup_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result, attempted, failed, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    try:
        metrics, attempted, failed, problems = run(args, root)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for msg in problems:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    correct = not problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, outputs {'correct' if correct else 'INCORRECT'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
