"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 serve_traced.py LAYERS.json [repro serve flags ...]

Behaves exactly like ``python3 -m repro serve ...``; when the daemon
has drained after SIGTERM, the layer totals it accumulated (pool
workers' included) are written to ``LAYERS.json``.
"""

import json
import sys

from layers import SERVICE_TARGETS, LayerTracer


def main() -> int:
    out, flags = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    tracer.install(SERVICE_TARGETS)
    from repro.cli import main as repro_main
    code = repro_main(["serve", *flags])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
