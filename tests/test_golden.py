import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import golden  # noqa: E402


def test_cli_output_matches_golden_corpus():
    # regenerate with: python tools/golden.py --write
    cases = golden.cases()
    files = {p.stem: p.read_bytes() for p in golden.GOLDEN.glob("*.txt")}
    differ = [name for name, args in cases.items()
              if files.get(name) != golden.record(args).encode()]
    assert (sorted(set(files) - set(cases)), differ) == ([], [])


# a fresh interpreter running one command line, as `protcoord` does, that
# says on stderr's last line whether numpy or click was loaded when it
# exited
NUMPY_PROBE = """\
import sys
from protcoord.studio import cli
try:
    cli.main(args=sys.argv[1:], prog_name="protcoord")
finally:
    sys.stderr.write(f"\\nnumpy loaded: {'numpy' in sys.modules}, "
                     f"click loaded: {'click' in sys.modules}\\n")
"""


@pytest.mark.parametrize("case", ["run_s2_dg1_ufcl_md", "run_s2_dg1_ufcl_csv",
                                  "size_ufcl_bus3", "validate", "check",
                                  "run_s2_dg1_ufcl_md_debug_csv"])
def test_cli_never_imports_numpy(case, tmp_path):
    # only oracle_solve imports numpy, so no command reaches it; a case
    # ending in _debug_csv is its golden case plus a --debug-csv dump
    name = case.removesuffix("_debug_csv")
    dump = tmp_path / "dump.csv"
    extra = [] if name == case else ["--debug-csv", str(dump)]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE,
                           *golden.cases()[name], *extra],
                          capture_output=True, text=True, env=package_env())
    want = (golden.GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert want.startswith(f"exit {proc.returncode}\n--- stdout\n"
                           f"{proc.stdout}--- stderr\n")
    assert proc.stderr.endswith("\nnumpy loaded: False, click loaded: False\n")
    assert dump.exists() == bool(extra)


# the console script's own call, as pip writes it, which then says whether
# the heap was frozen
CONSOLE_SCRIPT = """\
import gc, sys
from protcoord.studio import cli
try:
    sys.exit(cli())
finally:
    sys.stderr.write(f"\\nfrozen: {gc.get_freeze_count() > 0}\\n")
"""


@pytest.mark.parametrize("entry", ["module", "console_script"])
@pytest.mark.parametrize("case", ["run_s2_dg1_ufcl_md", "validate"])
def test_process_entries_match_golden(entry, case):
    # both process entries end as the in-process command does
    command = {"module": ["-m", "protcoord.studio"],
               "console_script": ["-c", CONSOLE_SCRIPT]}[entry]
    proc = subprocess.run([sys.executable, *command, *golden.cases()[case]],
                          capture_output=True, text=True, env=package_env())
    want = (golden.GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert want.startswith(f"exit {proc.returncode}\n--- stdout\n"
                           f"{proc.stdout}--- stderr\n")
    if entry == "console_script":
        assert proc.stderr.endswith("\nfrozen: True\n")
