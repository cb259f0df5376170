"""Golden outputs of the protcoord command line.

    python tools/golden.py --write

Regenerates tests/golden/ from the checkout's src/, and is the only way
those files should change. Each case in cases() is one command line, run
in-process through click's CliRunner (click 8.2 or later, which keeps
stderr apart from stdout). Its record is the exit code, the stdout and
the stderr, stored byte for byte in tests/golden/<case>.txt;
tests/test_golden.py compares every case with its file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TIMES = GOLDEN / "times.csv"  # the committed input of the check case


def cases() -> dict[str, list[str]]:
    """Case name -> protcoord arguments."""
    from protcoord.studio import SCENARIOS

    out = {f"run_{sid}_{fmt}": ["run", "--scenario", sid, "--format", fmt]
           for sid in sorted(SCENARIOS) for fmt in ("md", "csv")}
    out["validate"] = ["validate"]
    for bus in ("bus1", "bus2", "bus3", "bus4"):
        out[f"size_ufcl_{bus}"] = ["size-ufcl", "--fault-bus", bus]
    out["check"] = ["check", "--times", str(TIMES)]
    return out


def record(args: list[str]) -> str:
    """Exit code, stdout and stderr of one command line."""
    from click.testing import CliRunner

    from protcoord.studio import cli

    result = CliRunner().invoke(cli, args)
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    return (f"exit {result.exit_code}\n--- stdout\n{result.stdout}"
            f"--- stderr\n{result.stderr}")


def main() -> None:
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    for path in GOLDEN.glob("*.txt"):
        path.unlink()
    for name, args in cases().items():
        (GOLDEN / f"{name}.txt").write_bytes(record(args).encode())


if __name__ == "__main__":
    main()
