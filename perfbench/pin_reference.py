"""Pin the reference answers of the workloads.

    python3 perfbench/pin_reference.py --seconds 30

For each workload, computes the digest of every answer a run of that
length can give, from the independent references (the uncached
baseline kernel for ``paper-cover``, ``repro.streaming.ColdReference``
for ``edit-stream``), and writes ``perfbench/reference/<workload>.json``.
The answers do not depend on the seed, which only orders the fixed
work: the ``paper-cover`` pool, and the ``edit-stream`` cycle of edits
that every run plays from a seeded entry point.  A run whose answers
are pinned compares them with these digests; any other run computes
its references after the timed loop.  The pool is prefix-stable, so
pins made at one length serve shorter runs too.

Pinned digests hold while the program's answers do: a change that
gives other, equally correct covers must pin them again.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

sys.path.insert(0, str(harness.SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    out_dir = harness.HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        doc = {
            "workload": name,
            "seconds": args.seconds,
            "reference": "repro.streaming.ColdReference"
            if name == "edit-stream"
            else "uncached baseline kernel",
            "digests": cls(1, args.seconds).reference_digests(),
        }
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
