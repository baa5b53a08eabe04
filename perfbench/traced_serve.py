"""``repro serve`` with the layer spans installed: the traced run's server.

    python3 perfbench/traced_serve.py SPANS.json serve --port 0

Installs the wrappers of :mod:`tracing`, then runs the normal
``repro.cli`` entry with the remaining arguments.  Requests arrive in
order on one connection, so the k-th top-level ``handle_request`` span
is the k-th request.  The spans are written to ``SPANS.json`` when the
server stops.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer(count_requests=True)
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
