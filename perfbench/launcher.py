"""Run one vibropol command with the per-layer wrappers installed.

    python perfbench/launcher.py TRACE_JSON <vibropol arguments...>

Same argv as ``python -m vibropol.cli``; the spans go to TRACE_JSON and
the process exits with the command's own exit code.
"""

import json
import sys

import tracer as tracing


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import vibropol.cli

    spans = tracing.Tracer()
    tracing.install(spans)
    code = 0
    try:
        vibropol.cli.main(args=argv, prog_name="vibropol")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(spans.take(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
