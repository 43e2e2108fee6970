"""The names the benchmark harness under perfbench/ binds in the package.

The harness wraps and records program functions by name, so a rename in the
package crashes its jobs rather than failing a test.  Its modules are loaded
here from their files, unedited, and their name lists are checked against
the package.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import seqasym.cli
import seqasym.oracle
from seqasym.asymptotics import CoefficientTable, ExpansionReport
from seqasym.series import PowerSeries
from seqasym.suites import ORACLE_GRID

from conftest import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    """worker.py and tracing.py; worker.py puts perfbench/ on sys.path and
    imports its sibling modules, which are taken back out afterwards."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    try:
        yield _load("worker"), _load("tracing")
    finally:
        sys.path[:] = saved_path
        for name in {"checks", "jobs"} - saved_modules:
            sys.modules.pop(name, None)


def test_cli_binds_every_result_call(harness):
    worker, _ = harness
    missing = [n for n in worker.RESULT_CALLS if not callable(getattr(seqasym.cli, n, None))]
    assert missing == []


@pytest.fixture
def captured(harness):
    """The harness's own result capture, installed on seqasym.cli; the
    wrapped attributes are put back afterwards."""
    worker, _ = harness
    saved = {name: getattr(seqasym.cli, name) for name in worker.RESULT_CALLS}
    try:
        yield worker.capture_results(seqasym.cli)
    finally:
        for name, fn in saved.items():
            setattr(seqasym.cli, name, fn)


def _invoke(command, *args):
    res = CliRunner().invoke(seqasym.cli.main, [command, *args, "--format", "json"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize(
    "construction, cls, label",
    [
        ("seq", "tournaments", "seq"),
        ("cyc", "tournaments", "cyc"),
        ("set", "permutations", "set-via-seq"),
    ],
)
def test_table_reaches_the_builder_through_cli_globals(captured, construction, cls, label):
    """A builder or evaluation bound before the capture is installed would
    record nothing; under cyc the shapes come from the derived cycle class."""
    shapes_class = f"cyc({cls}(d=1))" if construction == "cyc" else f"{cls}(d=1)"
    where = ["--class", cls, "--construction", construction, "--m", "1"]
    builder = f"{label.replace('-', '_')}_coefficients"
    _invoke("table", *where, "--kind", "coefficients", "--k", "0..4")
    assert [(type(r), r.construction) for r in captured] == [(CoefficientTable, label)], (
        f"table --construction {construction} must call cli.{builder} once and nothing else"
    )
    captured.clear()
    _invoke("expansion", *where, "--n", "20", "--terms", "3")
    got = [(type(r), r.construction, r.class_name) for r in captured]
    assert got == [(ExpansionReport, construction, shapes_class)], (
        f"expansion --construction {construction} must call cli.evaluate_partial_sum once"
        " and no other captured name"
    )


def test_cycle_parts_capture_one_count_per_cell(captured):
    _invoke("table", "--class", "tournaments", "--construction", "cyc", "--kind", "parts",
            "--m", "1..2", "--n", "1..3")
    assert [type(r) for r in captured] == [int] * 6


_JOBS = _load("jobs")
# every job of the three workloads: none takes more than a fraction of a
# second; the large-n expansion of tournaments cyc at n = 120 grows row 1
# past the k <= 4 prefix its coefficient table divided first
REPLAYED = [
    pytest.param(workload, job, id=job.key)
    for workload, jobs in [
        ("small-n-sweep", _JOBS.small_n_sweep()),
        ("oracle-grid", _JOBS.ORACLE_GRID),
        ("large-n", _JOBS.LARGE_N),
    ]
    for job in jobs
]
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload, job", REPLAYED)
def test_sweep_job_replays_its_recorded_digests(harness, captured, workload, job):
    """Each replayed job, run through the harness's own run_job, ends with its
    expected exit status and gives the result digest recorded in
    perfbench/expected.json and, where the recording run printed something,
    its stdout digest, as the harness checks them: a change of any number or
    byte fails here.  The two tournaments n = 240 expansions failed in
    rendering when they were recorded, so they carry no stdout digest."""
    worker, _ = harness
    rec = worker.run_job(seqasym.cli.main, job, captured, None, 0)
    want = EXPECTED[workload][job.key]
    assert rec["status"] == job.expect, rec["error"]
    assert rec["ref_mismatches"] == 0
    assert rec["digest"] == want["digest"], "result digest differs from the recorded one"
    if want["out_digest"] is not None:
        assert rec["out_digest"] == want["out_digest"], "stdout digest differs from recording"


def test_traced_worker_pass_sees_the_value_cache(tmp_path):
    """The tracer wraps CountingSequence.value and values and reads _cache;
    a traced pass over two small jobs runs them and counts cache misses."""
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([
        [["table", "--class", "tournaments", "--n", "1..4", "--m", "1..2"], 0],
        [["audit", "--class", "permutations", "--N", "12"], 0],
    ]))
    res = run_python(str(PERFBENCH / "worker.py"), "--jobs-file", str(jobs), "--trace")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert [job["status"] for job in report["jobs"]] == [0, 0]
    assert report["layers"]["catalog.value.misses"][0] > 0


def test_power_series_defines_every_traced_method(harness):
    _, tracing = harness
    assert [n for n in tracing.SERIES_METHODS if n not in PowerSeries.__dict__] == []


def test_oracle_binds_every_traced_entry_point(harness):
    _, tracing = harness
    names = [*tracing._ORACLE_KIND, "object_count"]
    missing = [n for n in names if not inspect.isfunction(getattr(seqasym.oracle, n, None))]
    assert missing == []
    # the tracer reads the kind of a dispatching call from its arguments
    for name, kind in tracing._ORACLE_KIND.items():
        params = inspect.signature(getattr(seqasym.oracle, name)).parameters
        assert (kind is None) == ("kind" in params), name


# oracle.<row>.objects of every traced oracle-grid run; objects_per_s divides
# by these, so they must not move when an oracle changes how it walks
GRID_OBJECTS = {
    "tournaments-d1": 2_131_019,
    "tournaments-d2": 59_809,
    "permutations-d1": 409_113,
    "permutations-d2": 533_417,
    "matchings-d1": 11_464,
    "matchings-d2": 11_260,
    "unlabeled_tournaments-d1": 33_867,
}


def test_oracle_grid_object_counts_are_pinned(harness):
    _, tracing = harness
    assert list(GRID_OBJECTS) == list(tracing.ORACLE_ROWS)
    objects = {
        f"{kind}-d{d}": sum(seqasym.oracle.object_count(kind, n, d) for n in range(1, n_max + 1))
        for kind, d, n_max in ORACLE_GRID
    }
    assert objects == GRID_OBJECTS
