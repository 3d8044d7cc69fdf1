"""Run one fibercav CLI verb with span recording switched on.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py SPANS.json VERB [ARGS...]``

Times ``import fibercav`` and ``import fibercav.cli``, installs the span
wrappers of :mod:`tracing`, runs the click entry point exactly as
``python -m fibercav.cli VERB ARGS...`` would, and writes the spans and
counts to SPANS.json when the process ends, whatever its exit status.
"""

import sys

from tracing import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(op=argv[0] if argv else "")
    status = 0
    try:
        with tracer.span("import.fibercav"):
            import fibercav  # noqa: F401
        with tracer.span("import.fibercav_cli"):
            import fibercav.cli
        tracer.add("import.scipy_modules", sum(
            1 for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
        tracer.install()
        try:
            with tracer.span("cli.main") as root:
                # spans opened by the --batch pool's threads hang under it
                tracer.root = root.index
                fibercav.cli.main(args=argv, prog_name="fibercav")
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.add("cli.modules_loaded", len(sys.modules))
        tracer.dump(spans_path)
    sys.exit(status)


if __name__ == "__main__":
    main()
