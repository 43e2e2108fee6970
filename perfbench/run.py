"""Run one workload of the seqasym benchmark and print its metrics.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  Every pass of the job list runs in a
fresh interpreter (``perfbench/worker.py``), one pass after another, so
caches and peak RSS start cold as they do for a CLI user.  Passes repeat
until ``--seconds`` would be exceeded (at least one pass).  Set-up is also
timed in a few extra interpreters that stop before the first job.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` each round is an untraced pass followed by
a traced pass; the metrics are the per-layer ones from the traced passes,
plus the tracing overhead.  Every job's result is checked against the
digests in ``expected.json``.  Human-readable lines come first; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
Details, the environment and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# The end-to-end metrics the result line carries, as listed in BENCHMARK.json.
# job_p50_s and job_p90_s are printed only: on large-n (8 jobs) and oracle-grid
# (1 job) they rest on too few samples to hold a bound from run to run.
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mib")
TIME_LIMIT_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402
from tracing import REPEAT_COUNTS  # noqa: E402


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its report."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - t0
    return report


def measure(worker_args: list[str], seconds: float, trace: bool, spans: Path | None = None):
    """Set-up probes, then rounds of passes until ``seconds`` would be exceeded."""
    deadline = time.monotonic() + TIME_LIMIT_S
    probe = worker_args + ["--setup-only"]
    setups = [spawn(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        plain.append(spawn(worker_args, deadline))
        if trace:
            extra = ["--trace"] + (["--spans", str(spans)] if spans else [])
            traced.append(spawn(worker_args + extra, deadline))
        now = time.monotonic()
        if now - start + (now - t_round) > seconds:
            break
    return setups + [p["setup_s"] for p in plain], plain, traced


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_jobs(passes: list[dict], expected: dict) -> tuple[int, list[str], list[str]]:
    """Failed job count, failure lines, and result problems (wrong outputs)."""
    failed, failures, problems = 0, [], []
    for p in passes:
        for rec in p["jobs"]:
            exp = expected.get(rec["key"])
            wrong = []
            if exp is None:
                wrong.append("no recorded result")
            else:
                if rec["digest"] != exp["digest"]:
                    wrong.append("result digest differs from the recorded one")
                if exp["out_digest"] is not None and rec["out_digest"] != exp["out_digest"]:
                    wrong.append("stdout digest differs from the recorded one")
            if rec["ref_mismatches"]:
                wrong.append(f"{rec['ref_mismatches']} entries differ from REFERENCE_TABLES")
            problems += [f"{rec['key']}: {w}" for w in wrong]
            if wrong or rec["status"] != rec["expect"]:
                failed += 1
                why = "; ".join(wrong) or (rec["error"].strip().splitlines() or [""])[-1]
                failures.append(
                    f"{rec['key']}: exit {rec['status']}, expected {rec['expect']}: {why}"
                )
    return failed, failures, problems


def same_digests(plain: list[dict], traced: list[dict]) -> list[str]:
    """Jobs whose traced result differs from the untraced one."""
    want = {rec["key"]: rec["digest"] for p in plain for rec in p["jobs"]}
    return [
        f"{rec['key']}: traced and untraced results differ"
        for p in traced
        for rec in p["jobs"]
        if rec["digest"] != want.get(rec["key"])
    ]


def repeat_problems(count_sets: list[dict]) -> list[str]:
    """Computed counts that differ between runs of the same code."""
    first = count_sets[0] if count_sets else {}
    return [
        f"{name}: {first[name]} then {other[name]} on the same code"
        for other in count_sets[1:]
        for name in REPEAT_COUNTS
        if other[name] != first[name]
    ]


def repeat_counts(layers: dict) -> dict:
    return {name: layers[name][0] for name in REPEAT_COUNTS}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def pass_wall(p: dict) -> float:
    """Time to finish the job list: the sum of the job latencies."""
    return sum(rec["latency_s"] for rec in p["jobs"])


def end_to_end(setups: list[float], plain: list[dict]) -> dict:
    """name -> (value, unit, sample count).

    job_p90_s is left out below 100 job samples, where it would be little
    more than the slowest job.
    """
    walls = [pass_wall(p) for p in plain]
    lat = sorted(rec["latency_s"] for p in plain for rec in p["jobs"])
    out = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "job_p50_s": (statistics.median(lat), "s", len(lat)),
        "job_p90_s": (nearest_rank(lat, 0.9), "s", len(lat)),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in plain), "MiB", len(plain)),
    }
    if len(lat) < 100:
        del out["job_p90_s"]
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes, plus the tracing overhead."""
    names = traced[0]["layers"]
    out = {
        name: (
            statistics.median(p["layers"][name][0] for p in traced),
            names[name][1],
            len(traced),
        )
        for name in names
    }
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    plain_wall = statistics.median(pass_wall(p) for p in plain)
    out["trace.wall_s"] = (traced_wall, "s", len(traced))
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s", len(traced))
    return out


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def code_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "code_sha256": code_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills the
    # running worker before the benchmark goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "seqasym" / "cli.py").is_file():
        print(f"run.py: no seqasym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, plain, traced = measure(
        worker_args, args.seconds, bool(args.trace), OUT / f"{stem}.spans.jsonl"
    )

    passes = plain + traced
    failed, failures, problems = check_jobs(passes, expected)
    problems += same_digests(plain, traced)
    metrics = end_to_end(setups, plain)
    if traced:
        count_sets = [repeat_counts(p["layers"]) for p in traced]
        state = OUT / f"counts-{args.workload}-{env['code_sha256'][:16]}.json"
        if state.exists():
            count_sets.insert(0, json.loads(state.read_text()))
        else:
            state.write_text(json.dumps(count_sets[0]))
        problems += repeat_problems(count_sets)
        layers = per_layer(plain, traced)
    attempted = sum(len(p["jobs"]) for p in passes)

    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced passes of {len(plain[0]['jobs'])} jobs"
    )
    walls = [pass_wall(p) for p in plain]
    for name, (value, unit, n) in metrics.items():
        extra = f"; {spread(walls)}" if name == "wall_s" else ""
        print(f"  {name:<14} {value:.6g} {unit}  (n={n}{extra})")
    print(f"  {'failed_ratio':<14} {failed / attempted:.6g}  ({failed}/{attempted} jobs)")
    compared = sum(rec["ref_compared"] for p in passes for rec in p["jobs"])
    print(f"  REFERENCE_TABLES entries compared: {compared}")
    for line in dict.fromkeys(failures):
        print(f"  failed: {line}")
    for line in dict.fromkeys(problems):
        print(f"  WRONG: {line}")
    if traced:
        for name, (value, unit, n) in layers.items():
            print(f"  {name:<46} {value:.6g} {unit}")
    print(f"  env {json.dumps(env)}")

    chosen = layers if args.trace else {k: metrics[k] for k in RESULT_METRICS}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in chosen.items()},
    }
    details = {
        "env": env,
        "failures": failures,
        "problems": problems,
        "end_to_end": metrics,
        "per_layer": layers if traced else None,
        "passes": [
            {
                "traced": "layers" in p,
                "setup_s": p["setup_s"],
                "peak_rss_mib": p["peak_rss_mib"],
                "jobs": [
                    {k: rec[k] for k in ("key", "status", "expect", "latency_s", "digest")}
                    for rec in p["jobs"]
                ],
            }
            for p in passes
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
