"""Run the interferolab CLI in-process with every layer traced.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

Times the package import, installs the tracer (see layers.py), runs
``interferolab.cli.main`` inside a ``cli.main`` span, writes the spans
to SPANS_JSON and exits with the CLI's exit code.
"""

import json
import sys
import time

import layers
from tracing import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    import interferolab.cli
    import interferolab.sweep

    import_s = time.perf_counter() - started

    tracer = Tracer()
    layers.install(tracer)
    with tracer.span("cli.main"):
        code = interferolab.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "workers": interferolab.sweep._worker_count(),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
