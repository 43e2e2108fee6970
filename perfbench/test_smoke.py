"""Smoke test of the benchmark harness on a tiny job list.

    python3 -m pytest perfbench/test_smoke.py

It sits outside the tier-1 ``testpaths``, so the tier-1 run does not pay for
it.  Each pass still runs in its own interpreter, as in the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

FAILING = ["expansion", "--class", "tournaments", "--n", "3", "--terms", "5"]
TINY = [
    [["table", "--class", "tournaments", "--kind", "parts", "--m", "1..3", "--n", "0..6"], 0],
    [["expansion", "--class", "permutations", "--n", "12", "--m", "1", "--terms", "2"], 0],
    [["audit", "--class", "permutations", "--N", "12"], 0],
    [["oracle", "--class", "unlabeled_tournaments", "--n", "4"], 0],
    [["verify", "--suite", "wright"], 0],
    [FAILING, 0],  # exits 2 (usage error), so it must count as failed
]


def _measure(tmp_path_factory):
    jobs = tmp_path_factory.mktemp("bench") / "jobs.json"
    jobs.write_text(json.dumps(TINY))
    return run.measure(["--jobs-file", str(jobs)], seconds=0, trace=True)


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return _measure(tmp_path_factory)


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return _measure(tmp_path_factory)


def test_every_metric_name_is_present(first):
    setups, plain, traced = first
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == set(run.RESULT_METRICS)
    assert set(run.RESULT_METRICS) | {"job_p50_s"} == set(run.end_to_end(setups, plain))
    assert {m["name"] for m in bench["per_layer"]} == set(run.per_layer(plain, traced))


def test_failing_job_is_counted(first):
    _, plain, traced = first
    expected = {
        rec["key"]: {k: rec[k] for k in ("digest", "out_digest")} for rec in plain[0]["jobs"]
    }
    failed, failures, problems = run.check_jobs(plain, expected)
    assert (failed, len(plain[0]["jobs"])) == (1, len(TINY))
    assert failures[0].startswith(" ".join(FAILING) + ": exit 2, expected 0")
    assert problems == []
    assert run.same_digests(plain, traced) == []


def test_wrong_result_is_a_problem(first):
    _, plain, _ = first
    expected = {rec["key"]: {"digest": "0" * 64, "out_digest": None} for rec in plain[0]["jobs"]}
    failed, _, problems = run.check_jobs(plain, expected)
    assert failed == len(TINY) and len(problems) == len(TINY)


def test_counts_repeat(first, second):
    a = run.repeat_counts(first[2][0]["layers"])
    b = run.repeat_counts(second[2][0]["layers"])
    assert a == b
    assert a["series.mul.coeff_products"] > 0 and a["audit.conv_terms"] > 0
    assert a["oracle.unlabeled_tournaments-d1.objects"] == 2 ** 6
    assert run.repeat_problems([a, b]) == []
    assert run.repeat_problems([a, {**b, "audit.conv_terms": b["audit.conv_terms"] + 1}])
