import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import golden  # noqa: E402


def test_cli_output_matches_golden_corpus():
    # regenerate with: python tools/golden.py --write
    cases = golden.cases()
    files = {p.stem: p.read_bytes() for p in golden.GOLDEN.glob("*.txt")}
    differ = [name for name, args in cases.items()
              if files.get(name) != golden.record(args).encode()]
    assert (sorted(set(files) - set(cases)), differ) == ([], [])
