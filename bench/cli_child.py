"""Run the ``mlsgc`` command line under a tracer and write its spans.

Used by the traced run of the CLI workload in place of ``python3 -m
mlsgc.cli``.  Usage: python3 bench/cli_child.py SPANS_JSON ARG...
where ARG... are the arguments given to ``mlsgc``.
"""

import json
import sys
import time

import mlsgc.cli

from tracing import Tracer

if __name__ == "__main__":
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main"):
        code = mlsgc.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump({"imported": imported, "spans": tracer.spans, "counts": dict(tracer.counts)}, handle)
    sys.exit(code)
