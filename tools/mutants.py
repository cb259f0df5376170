"""Mutation smoke: every checked-in mutant must fail the tests it names.

    python tools/mutants.py

tools/mutants.json lists the mutants. Each gives the file it edits, the
exact old text, which must occur in that file exactly once, the new text
and the tests expected to fail. The tool copies src/, tests/, tools/ and
perfbench/feeder.py (the feeder that conftest.feeder_net reads) to a
temporary directory and first runs every named test there unmutated: all
must pass. It then applies one mutant at a time and runs its tests with
PYTHONPATH=<copy>/src. A mutant is killed when each of its named tests
fails (for a test named without parameters, one of its cases).

Exits 1 when a named test passes under its mutant, when a mutant's old
text does not occur exactly once, or when a pytest run ends other than by
passing or failing tests (a named test that no longer exists, say).
Nothing is written in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests", "tools"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "perfbench").mkdir()
    shutil.copy2(ROOT / "perfbench" / "feeder.py", dest / "perfbench")


def run_tests(copy: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code over tests in the copy, and the failed test ids.
    No bytecode is written: a mutant of the same size as its old text,
    written within the same second, would otherwise run a stale cache."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="protcoord-mutants-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        named = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        code, _ = run_tests(copy, named)
        if code != 0:
            print(f"baseline: the named tests do not pass unmutated "
                  f"(pytest exit {code})")
            return 1
        for m in mutants:
            path = copy / m["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(m["old"]) != 1:
                print(f"STALE     {m['id']}: its old text occurs "
                      f"{text.count(m['old'])} times in {m['file']}")
                bad += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]),
                            encoding="utf-8")
            start = time.perf_counter()
            code, failed = run_tests(copy, m["tests"])
            path.write_text(text, encoding="utf-8")
            spent = f"{time.perf_counter() - start:.1f} s"
            missed = [t for t in m["tests"] if not any(
                f == t or f.startswith(t + "[") for f in failed)]
            if code not in (0, 1):
                print(f"ERROR     {m['id']}: pytest exit {code} ({spent})")
            elif missed:
                print(f"SURVIVED  {m['id']}: still passing: "
                      f"{', '.join(missed)} ({spent})")
            else:
                print(f"killed    {m['id']} ({spent})")
                continue
            bad += 1
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
