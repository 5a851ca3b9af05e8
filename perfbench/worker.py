"""One traced CLI request: ``python perfbench/worker.py SPANS REQUEST -- ARGS...``

Installs the tracing wrappers, runs ``lttop.cli.main(ARGS)`` exactly as
``python -m lttop.cli ARGS`` would, writes the spans to SPANS and exits
with the CLI's exit code.
"""

import sys

import tracing


def main():
    spans_path, request = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: worker.py SPANS REQUEST -- ARGS...")
    tracer = tracing.install(request)
    import lttop.cli

    try:
        return lttop.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
