"""Record the expected result of every job into perfbench/expected.json.

    python3 perfbench/record.py

Run it from the root of a checkout of the commit whose results are the
reference.  It runs each workload once, untraced, and stores per job the
observed exit status, the hex digest of its computed results, and the
SHA-256 of its stdout (null when the job printed nothing).  Rerun it only
when a change alters results or output on purpose.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, TIME_LIMIT_S, spawn
from jobs import WORKLOADS


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        report = spawn(["--workload", workload, "--seed", "0"], time.monotonic() + TIME_LIMIT_S)
        expected[workload] = {
            rec["key"]: {k: rec[k] for k in ("status", "digest", "out_digest")}
            for rec in report["jobs"]
        }
        print(f"{workload}: {len(report['jobs'])} jobs", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
