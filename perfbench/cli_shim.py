#!/usr/bin/env python3
"""A traced ``bruhat-forge`` CLI call, run in its own process.

    python3 perfbench/cli_shim.py <trace file> <cli arguments...>

Times the import of ``bruhat_forge.cli``, installs the layer wrappers of
spans.py, runs ``cli.main`` on the remaining arguments and writes the
spans, counts and the closed-form fallback count once, at exit.  The
exit code is the CLI's.
"""

import sys
import time

_start = time.perf_counter()
from bruhat_forge import cli, closedform  # noqa: E402

_end = time.perf_counter()

import json  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    tracer = spans.install()
    tracer.record("cli.import", _start, _end)
    code = 1
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        obj = tracer.to_json_obj()
        obj["fallbacks"] = len(closedform.fallback_log())
        with open(sys.argv[1], "w") as fh:
            json.dump(obj, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
