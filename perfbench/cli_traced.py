"""Run one hemohopf CLI command with span tracing installed.

    python perfbench/cli_traced.py SPANS_JSON -- COMMAND ARGS...

Imports ``hemohopf.cli`` (timed), wraps the library's public functions,
calls ``hemohopf.cli.main`` with the remaining arguments and writes the
import time and the spans to SPANS_JSON.  Exits with main's exit code.
"""

import json
import sys
import time


def _run():
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        sys.exit("usage: cli_traced.py SPANS_JSON -- COMMAND ARGS...")
    argv = sys.argv[3:]
    import spans  # found next to this script, which is sys.path[0]

    t0 = time.perf_counter()
    import hemohopf.cli
    import_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        code = hemohopf.cli.main(argv)
    finally:
        spans.uninstall(undo)
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run())
