"""Run one weylfans command with the span tracer installed.

    python perfbench/cli_shim.py SPANS_FILE OP_ID <weylfans arguments...>

Behaves like ``python -m weylfans.cli`` (same stdout and exit code) and
writes the command's spans to SPANS_FILE when it ends.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from weylfans import cli

    tracer.op = op_id
    try:
        code = cli.main(argv)
    finally:
        tracer.op = None
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
