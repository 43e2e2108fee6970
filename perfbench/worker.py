"""One pass of a workload in a fresh interpreter.

Runs the job list one job after another through
``seqasym.cli.main(args, standalone_mode=False)`` and prints one JSON line:
the time the jobs were ready to start, and per job its exit status, latency
and result digests.  The results a job computed are taken from the
computation calls that ``seqasym.cli`` makes, before anything is rendered.

    python3 perfbench/worker.py --workload large-n --seed 1 [--trace --spans FILE]
    python3 perfbench/worker.py --workload large-n --seed 1 --setup-only
    python3 perfbench/worker.py --jobs-file JOBS.json    # [[args, expect], ...]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import click  # noqa: E402

from checks import digest, reference_mismatches  # noqa: E402

# Computation calls of seqasym.cli whose results make up a job's result.
RESULT_CALLS = (
    "parts_table",
    "seq_coefficients",
    "cyc_coefficients",
    "set_via_seq_coefficients",
    "cyc_part_count",
    "evaluate_partial_sum",
    "audit",
    "run_suite",
    "oracle_for",
)


def capture_results(cli_module) -> list:
    """Record the return value of every RESULT_CALLS call cli makes."""
    results: list = []

    def capturing(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append(out)
            return out

        return wrapper

    for name in RESULT_CALLS:
        setattr(cli_module, name, capturing(getattr(cli_module, name)))
    return results


def run_job(cli_main, job, results, tracer, index) -> dict:
    args = list(job.args) + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    results.clear()
    status, error = 0, ""
    if tracer is not None:
        tracer.begin_job(index)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                cli_main(args, standalone_mode=False)
            else:
                tracer.call("cli", cli_main, (args,), {"standalone_mode": False})
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        status, error = exc.exit_code, exc.format_message()
    except Exception as exc:  # the CLI would exit 1 with a traceback
        status, error = 1, f"{type(exc).__name__}: {exc}"[:300]
    latency = time.perf_counter() - t0
    text = out.getvalue()
    compared, bad = reference_mismatches(results)
    result_digest = digest(results)
    results.clear()
    return {
        "key": job.key,
        "expect": job.expect,
        "status": status,
        "error": error or err.getvalue()[-300:],
        "latency_s": latency,
        "digest": result_digest,
        "out_digest": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "ref_compared": compared,
        "ref_mismatches": bad,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs-file")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the pass's spans here (with --trace)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import seqasym.cli

    from jobs import Job, workload_jobs

    if args.jobs_file:
        jobs = [Job(tuple(a), e) for a, e in json.loads(Path(args.jobs_file).read_text())]
    else:
        jobs = workload_jobs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = capture_results(seqasym.cli)
    records = [
        run_job(seqasym.cli.main, job, results, tracer, i) for i, job in enumerate(jobs)
    ]
    report = {
        "ready": ready,
        "jobs": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
