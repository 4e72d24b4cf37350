"""Write the outputs of the four benchmark workloads at given seeds and print their hashes.

    python3 scripts/workload_outputs.py OUT_DIR SEED [SEED ...]

Builds each workload's scenario at each seed with perfbench/workloads.py,
writes it to OUT_DIR/<workload>/<seed>/scenario.yaml as the benchmark does,
runs its command through the CLI entry point into that directory, then prints
one `sha256  workload/seed/file` line per output file.  Two checkouts whose
outputs should agree byte for byte print the same lines.
"""

import hashlib
import sys
from pathlib import Path

import yaml

from thermostrobe import cli

REPO = Path(__file__).resolve().parents[1]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        raise SystemExit("usage: workload_outputs.py OUT_DIR SEED [SEED ...]")
    out, seeds = Path(args[0]), [int(seed) for seed in args[1:]]
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    base = yaml.safe_load((REPO / "scenarios" / "multilevel_relax.yaml").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for seed in seeds:
            w = workloads.build(name, seed, base)
            run_dir = out / name / str(seed)
            run_dir.mkdir(parents=True, exist_ok=True)
            scenario = run_dir / "scenario.yaml"
            scenario.write_text(yaml.safe_dump(w.scenario, sort_keys=True), encoding="utf-8")
            code = cli.main([w.command, str(scenario), "--out-dir", str(run_dir)])
            if code not in (0, 1):
                raise SystemExit(f"{w.command} {name} at seed {seed} exited with {code}")
            for path in sorted(run_dir.iterdir()):
                if path != scenario:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{seed}/{path.name}")


if __name__ == "__main__":
    main()
