"""The measured process: one thread of work, BLAS pinned to one thread.

Two modes.

  worker.py --probe SCENARIO
      A fresh-process set-up sample: import thermostrobe, load the
      scenario, build config, model, family, initial point and the first
      Propagator, print the set-up and import times as one JSON line, exit.

  worker.py --serve SCENARIO --command CMD --out-dir DIR [--trace TRACE_FILE]
      Import thermostrobe once, then serve a closed loop on stdin/stdout:
      each request line ("plain" or "traced") runs `thermostrobe CMD
      SCENARIO --out-dir DIR` through cli.main and answers with one JSON
      line; "stop" answers with the peak resident memory and exits.

The caller sets OPENBLAS_NUM_THREADS and friends and puts src/ on
PYTHONPATH.  This process never imports scipy, so its peak memory is the
program's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter


def probe(scenario_path: str) -> dict:
    t0 = perf_counter()
    from thermostrobe import Propagator
    from thermostrobe import cli
    t1 = perf_counter()
    scenario = cli.load_scenario(scenario_path)
    cfg = cli.build_config(scenario["strob"])
    model = cli.build_model(scenario["model"], cfg.dt)
    family = cli.build_ansatz(scenario["ansatz"], model)
    cli.build_initial(scenario["initial"], family)
    Propagator.build(model.generator, cfg.lam * cfg.dt)
    return {"setup_s": perf_counter() - t0, "import_s": t1 - t0}


def _clear(out_dir: str) -> None:
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def _bytes_in(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def serve(args, reply) -> None:
    from thermostrobe import cli

    tracer = None
    kept = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    argv = [args.command, args.serve, "--out-dir", args.out_dir]
    os.makedirs(args.out_dir, exist_ok=True)
    reply({"ready": True})
    for line in sys.stdin:
        request = line.strip()
        if request == "stop":
            break
        traced = request == "traced"
        _clear(args.out_dir)
        if traced:
            tracer.install()
        error = None
        try:
            t0 = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - t0
        except Exception as err:  # a fault of the program: report it, keep serving
            rc, wall, error = None, perf_counter() - t0, f"{type(err).__name__}: {err}"
        finally:
            if traced:
                tracer.uninstall()
        out = {"rc": rc, "error": error, "wall_s": wall, "bytes": _bytes_in(args.out_dir)}
        if traced:
            spans = tracer.take()
            out["layers"] = tracing.layer_metrics(spans)
            if kept is None:
                kept = spans
        reply(out)
    if kept is not None:
        tracing.write_spans(args.trace, kept)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply({"peak_rss_mb": peak_kb / 1024.0})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe")
    parser.add_argument("--serve")
    parser.add_argument("--command")
    parser.add_argument("--out-dir")
    parser.add_argument("--trace")
    args = parser.parse_args()
    # protocol lines go to the real stdout; anything the program prints goes to stderr
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr

    def reply(obj: dict) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    if args.probe:
        reply(probe(args.probe))
    else:
        serve(args, reply)
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
