"""Run one config through ``planar_ppv.cli.run`` in this process, traced.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py CONFIG OUTDIR SPANS_JSON

Exits with the status ``cli.run`` returned and writes the spans and
counters to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer, install


def main(config, outdir, spans_path):
    from planar_ppv import cli

    tracer = Tracer(trace_id=config)
    undo = install(tracer)
    try:
        status = tracer.traced("cli.run", cli.run)(config, outdir=outdir)
    finally:
        undo()
    with open(spans_path, "w") as fh:
        json.dump({"status": status, "spans": tracer.spans,
                   "totals": tracer.totals, "by_span": tracer.by_span}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
