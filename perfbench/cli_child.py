"""One traced CLI invocation, for the traced run of cli_cold.

Usage: python3 -X importtime cli_child.py SPANS_JSON ARG...

Runs ``aoarima.cli.main(ARG...)`` with every public function wrapped in a
span, writes the spans and the module counts to SPANS_JSON and exits with
the CLI's exit code. The parent reads the import attribution from this
process's stderr.
"""

from __future__ import annotations

import sys

import tracing

_before = set(sys.modules)

import aoarima.cli  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = aoarima.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    tracer.settle()
    modules = tracing.module_counts(_before)
    import json  # after the snapshot: json is one of the modules the CLI loads

    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({
            "aoarima_file": aoarima.cli.__file__,
            "modules": modules,
            "summary": tracing.summarize(tracer.spans),
            "spans": tracing.export_spans(tracer.spans),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
