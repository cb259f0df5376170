"""Fuzz test of the times file that `check` reads.

Variations of the committed times file (header order, missing or extra
columns, a BOM, CRLF line ends, quoting, blank lines, duplicate rows,
unknown ids, bad numbers, bytes that are not UTF-8) must end `check` in
exit 0, 1 or 2 with at most one `error:` line and no traceback.
"""

import csv
import io
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protcoord.studio import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "times.csv"
ROWS = list(csv.DictReader(io.StringIO(GOLDEN.read_text())))
COLUMNS = ["fault_bus", "relay", "t_s"]
BUSES = sorted({r["fault_bus"] for r in ROWS}) + ["bus9", "", " bus3 "]
RELAYS = sorted({r["relay"] for r in ROWS}) + ["relayX", "", "relay2 "]
TIMES = ["0", "0.5", " 1.2 ", "", "none", "no_trip", "abc", "-1", "nan",
         "inf", "-inf", "1e400", "1e-400", "1,5", "0x10", "\u0661", "0.39"]

HEADERS = st.tuples(
    st.permutations(COLUMNS),
    st.sampled_from([3, 3, 3, 2, 1]),  # how many of them to keep
    st.sampled_from([[], ["note"], ["t_s"], ["relay", "extra"]]))  # added
EDITS = st.lists(st.one_of(
    st.tuples(st.just("duplicate"), st.integers(0, len(ROWS) - 1)),
    st.tuples(st.just("bus"), st.integers(0, len(ROWS) - 1),
              st.sampled_from(BUSES)),
    st.tuples(st.just("relay"), st.integers(0, len(ROWS) - 1),
              st.sampled_from(RELAYS)),
    st.tuples(st.just("t_s"), st.integers(0, len(ROWS) - 1),
              st.sampled_from(TIMES)),
    st.tuples(st.just("drop"), st.integers(0, len(ROWS) - 1)),
    st.tuples(st.just("short"), st.integers(0, len(ROWS) - 1)),
), max_size=4)
LAYOUT = st.fixed_dictionaries({
    "bom": st.booleans(), "crlf": st.booleans(), "quote_all": st.booleans(),
    "blank_lines": st.lists(st.integers(0, 12), max_size=3),
    "latin1": st.sampled_from([False, False, False, True])})


def _times_file(header, edits, layout) -> bytes:
    order, keep, extra = header
    columns = list(order[:keep]) + list(extra)
    rows = [dict(r, note="x", extra="y") for r in ROWS]
    for kind, i, *value in edits:
        i %= max(len(rows), 1)
        if not rows:
            break
        if kind == "duplicate":
            rows.insert(i, dict(rows[i]))
        elif kind == "drop":
            rows.pop(i)
        elif kind == "short":
            rows[i] = {"fault_bus": rows[i]["fault_bus"]}
        else:
            rows[i][kind] = value[0]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n" if layout["crlf"]
                        else "\n", quoting=csv.QUOTE_ALL
                        if layout["quote_all"] else csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns if c in row])
    lines = out.getvalue().splitlines(keepends=True)
    for at in layout["blank_lines"]:
        lines.insert(min(at, len(lines)), "\r\n" if layout["crlf"] else "\n")
    text = ("\ufeff" if layout["bom"] else "") + "".join(lines)
    if layout["latin1"]:
        text += "bus3,relay2,\u00e9\n"
        return text.encode("latin-1", errors="replace")
    return text.encode()


PLAIN = {"bom": False, "crlf": False, "quote_all": False, "blank_lines": [],
         "latin1": False}


@settings(max_examples=60, deadline=None)
@given(header=HEADERS, edits=EDITS, layout=LAYOUT)
# the committed file as it is, then one case per error rule
@example((COLUMNS, 3, []), [], PLAIN)
@example((COLUMNS, 3, []), [("duplicate", 1)], PLAIN)
@example((COLUMNS, 3, []), [("bus", 0, "bus9")], PLAIN)
@example((COLUMNS, 3, []), [("t_s", 2, "abc")], PLAIN)
@example((COLUMNS, 3, []), [("short", 3)], PLAIN)
@example((COLUMNS, 2, []), [], dict(PLAIN, bom=True, crlf=True))
@example((COLUMNS, 3, ["note"]), [], dict(PLAIN, latin1=True))
def test_times_file_ends_cleanly(header, edits, layout):
    data = _times_file(header, edits, layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "times.csv"
        path.write_bytes(data)
        result = CliRunner().invoke(cli, ["check", "--times", str(path)])
    shown = f"{data!r}\n{result.output}"
    assert result.exit_code in (0, 1, 2), shown
    assert result.exception is None or isinstance(
        result.exception, SystemExit), shown
    assert "Traceback" not in result.output, shown
    errors = [ln for ln in result.output.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == (1 if result.exit_code == 1 else 0), shown
