"""Child processes of the benchmark; run with PYTHONPATH pointing at src.

    child.py setup <workload> <seed>     import superint, finish one warm-up op
    child.py cli <spans.json> <args...>  run one superint CLI call under the
                                         tracer and write its spans and counts
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.make(argv[1], os.getcwd()).warmup(int(argv[2]))
        return 0
    if mode == "cli":
        import spans
        from superint import cli

        tracer = spans.Tracer()
        with tracer:
            code = cli.main(argv[2:])
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
