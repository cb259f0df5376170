"""Run one protcoord CLI command in this process with layer spans.

    python perfbench/traced_cli.py SPANS_FILE OP_ID <protcoord arguments>

Used by the traced cli_process run in place of `python -m
protcoord.studio`. The spans, tagged with OP_ID, are written to
SPANS_FILE as one JSON list when the command ends; the exit code and
output are the command's own.
"""

import json
import sys

from tracer import Tracer

from protcoord import studio


def main() -> None:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        tracer.wrap("studio.cli", studio.cli.main)(args=argv,
                                                   prog_name="protcoord")
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main()
