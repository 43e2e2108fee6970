import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqasym import catalog

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tournaments1():
    return catalog.tournaments(1)


@pytest.fixture
def permutations1():
    return catalog.permutations(1)


def rationals(max_num: int = 20, max_den: int = 12):
    """Hypothesis strategy for small exact rationals."""
    from hypothesis import strategies as st

    return st.fractions(
        min_value=Fraction(-max_num), max_value=Fraction(max_num), max_denominator=max_den
    )


# The (construction, labeling) cells the construction rules admit, stated by
# hand rather than read off the program's table, so tests against it stay an
# independent check: seq takes either labeling, cyc labeled classes, and set
# unlabeled classes with one part only.
ADMITTED_CELLS = {
    ("seq", "labeled"),
    ("seq", "unlabeled"),
    ("cyc", "labeled"),
    ("set", "unlabeled"),
}


def construction_refusal(construction: str, labeling: str, m: int) -> str | None:
    """The start of the message a construction rule refuses m parts of a class
    of this labeling with (m >= 1), or None when the rules admit it."""
    if (construction, labeling) not in ADMITTED_CELLS:
        return f"--construction {construction}:"
    if construction == "set" and m != 1:
        return f"--m {m}:"
    return None


def run_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def str_text(x: Fraction | int) -> str:
    """The exact text of x, "n" or "n/d", written by ``str()`` alone rather
    than by the renderer under test."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def _jsonable(x):
    """x as plain JSON data: Fractions as ``str_text``, dict keys str()-ed,
    tuples as lists."""
    if isinstance(x, Fraction):
        return str_text(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def reference_json(config, result) -> str:
    """The document built whole and dumped at once: the text that
    ``render.write_json`` must reproduce byte for byte."""
    doc = {"schema_version": "1", "config": _jsonable(config), "result": _jsonable(result)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
