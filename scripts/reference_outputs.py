"""Write the reference CLI outputs of the committed scenarios and print their hashes.

    python3 scripts/reference_outputs.py OUT_DIR

Runs, through the CLI entry point, `simulate` on qubit_standard,
multilevel_relax and custom_static, `compare` on qubit_ladder, `fit` on
qubit_fit and `analyze-invariance` on qubit_invariance, all into OUT_DIR
(21 files), then prints one `sha256  file` line per file.  Two checkouts
whose outputs should agree byte for byte can be compared with `diff -r` on
their OUT_DIRs or with the printed lines.
"""

import hashlib
import sys
from pathlib import Path

from thermostrobe import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
COMMANDS = (
    ("simulate", "qubit_standard"),
    ("simulate", "multilevel_relax"),
    ("simulate", "custom_static"),
    ("compare", "qubit_ladder"),
    ("fit", "qubit_fit"),
    ("analyze-invariance", "qubit_invariance"),
)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit("usage: reference_outputs.py OUT_DIR")
    out = Path(args[0])
    for command, scenario in COMMANDS:
        code = cli.main([command, str(SCENARIOS / f"{scenario}.yaml"), "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"{command} {scenario} exited with {code}")
    for path in sorted(out.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    main()
