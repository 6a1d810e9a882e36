"""Run one ``paraself`` CLI command with span tracing installed.

    PYTHONPATH=src python3 bench/launch.py SPANS.npz simulate --strategy chsh ...

Installs the wrappers of :mod:`tracing`, calls ``paraself.cli.main`` with the
remaining arguments and writes the recorded spans to ``SPANS.npz`` when the
command exits, whatever its exit code.
"""

import sys

import tracing


def main() -> None:
    spans, args = sys.argv[1], sys.argv[2:]
    import paraself.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        paraself.cli.main(args=args, prog_name="paraself")
    finally:
        tracer.write(spans)


if __name__ == "__main__":
    main()
