"""One benchmark operation: a fresh interpreter running the keyrates CLI.

Usage: python child.py ROOT TRACE SPANS_PATH -- CLI_ARGS...

The script puts ``ROOT/src`` first on ``sys.path``, imports the CLI and
loads the config named in CLI_ARGS; the moment that set-up ends is
reported on the system-wide monotonic clock, so the parent can time
interpreter start, import and config load together. It then times
``keyrates.cli.run(CLI_ARGS)`` with stdout and stderr captured. With
TRACE = 1 the layers are wrapped first and the spans are aggregated
(and written to SPANS_PATH when it is not empty) after the run.
The result is one JSON object on the real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    root, trace, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py ROOT TRACE SPANS_PATH -- CLI_ARGS...")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    from keyrates import cli

    cli.load_config(cli_args[1])
    setup_done = time.monotonic()
    module_file = os.path.realpath(cli.__file__)
    if not module_file.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"keyrates imported from {module_file}, not from {src}")

    recorder = None
    if trace == "1":
        import tracer  # found next to this script, sys.path[1]

        recorder = tracer.Recorder()
        recorder.install()
        entry = recorder.wrap(cli.run, tracer.ROOT_SPAN)
    else:
        entry = cli.run

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = entry(cli_args)
        except Exception:
            code = 1
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start

    result = {
        "rc": code,
        "elapsed_s": elapsed,
        "setup_done": setup_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "trace": None,
    }
    if recorder is not None:
        if spans_path:
            recorder.save(spans_path)
        result["trace"] = tracer.aggregate(recorder.arrays(), recorder.names)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
