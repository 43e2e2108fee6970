"""Spans around the seqasym layers, recorded from the benchmark's own side.

``Tracer.install`` replaces the public functions of every layer module and
the ring methods of ``PowerSeries`` with wrappers, at every attribute of a
loaded ``seqasym`` module that binds them, so a call is seen whichever
import path it takes.  The program's source is not changed.

A span is (label, start, end, parent span, job).  Spans stay in memory until
the pass ends.  A span's self time is its duration minus the time its child
spans cover; it is summed per label as spans close.  Counts of work are
taken at the same boundaries by hooks that run outside the timed interval.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "series",
    "catalog",
    "decomposition",
    "asymptotics",
    "audit",
    "oracle",
    "suites",
    "render",
    "cli",
)

# PowerSeries methods that do ring work.  The accessors (__getitem__, order)
# and __post_init__ run once per coefficient; spans around them would time
# the tracer rather than the program.
SERIES_METHODS = (
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "inverse",
    "pow",
    "exp",
    "log",
    "truncate",
    "from_coefficients",
    "from_ints",
    "zero",
    "one",
)

ORACLE_ROWS = (
    "tournaments-d1",
    "tournaments-d2",
    "permutations-d1",
    "permutations-d2",
    "matchings-d1",
    "matchings-d2",
    "unlabeled_tournaments-d1",
)

SUITES = (
    "appendix",
    "oracle",
    "sumrule",
    "recurrences",
    "lift",
    "wright",
    "comtet",
    "residual-order",
)

# Oracle entry points and the class kind each enumerates (None: from args).
_ORACLE_KIND = {
    "oracle_for": None,
    "enumerate_tournament_parts": "tournaments",
    "enumerate_permutation_parts": "permutations",
    "enumerate_matching_parts": "matchings",
    "enumerate_unlabeled_tournament_parts": "unlabeled_tournaments",
}

# Computed counts that must repeat exactly between runs of the same code.
REPEAT_COUNTS = (
    "series.mul.coeff_products",
    "audit.conv_terms",
    "decomposition.parts_table.calls",
) + tuple(f"oracle.{row}.objects" for row in ORACLE_ROWS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, child time, label]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.job = -1
        self._covered: dict[tuple, list] = {}

    def begin_job(self, job: int) -> None:
        self.job = job
        self._covered = {}

    # -- spans ---------------------------------------------------------

    def call(self, label, fn, args, kwargs, after=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [len(self.spans), 0.0, label]
        self.spans.append(None)
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if parent is None or parent[2].split(".", 1)[0] != label.split(".", 1)[0]:
                self.counts[label.split(".", 1)[0] + ".failures"] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans[frame[0]] = (label, t0, t1, parent[0] if parent else -1, self.job)
            self.self_s[label] += (t1 - t0) - frame[1]
            self.calls[label] += 1
            if parent is not None:
                parent[1] += t1 - t0
        if after is not None:
            h0 = perf_counter()
            after(self, args, kwargs, result)
            if parent is not None:  # hook time belongs to no layer
                parent[1] += perf_counter() - h0
        return result

    def _wrap(self, label, fn, before=None, after=None, label_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            name = label if label_of is None else label_of(args, kwargs)
            return self.call(name, fn, args, kwargs, after)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the PowerSeries methods."""
        import seqasym.cli  # noqa: F401  (imports every layer)
        from seqasym.catalog import CountingSequence
        from seqasym.series import PowerSeries

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"seqasym.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._function_wrapper(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "seqasym" or modname.startswith("seqasym."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, name, wrappers[obj])

        for attr in SERIES_METHODS:
            raw = PowerSeries.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            label = "series." + attr.strip("_")
            after = _mul_counts if attr == "__mul__" else None
            w = self._wrap(label, fn, after=after)
            setattr(PowerSeries, attr, staticmethod(w) if is_static else w)

        CountingSequence.value = self._wrap(
            "catalog.value", CountingSequence.value, before=_value_miss
        )
        CountingSequence.values = self._wrap("catalog.values", CountingSequence.values)

    def _function_wrapper(self, layer, fn):
        name = fn.__name__
        label = f"{layer}.{name}"
        before = after = label_of = None
        if layer == "suites" and name.startswith("suite_"):
            label = "suites." + name[len("suite_") :].replace("_", "-")
        elif layer == "suites" and name == "run_suite":
            after = _failed_checks
        elif layer == "decomposition" and name in ("parts_table", "irreducible_series"):
            before = _repeat_tracker(label, inspect.signature(fn))
        elif layer == "audit" and name == "audit_sequence":
            after = _conv_terms
        elif layer == "render" and name == "json_document":
            after = _out_bytes
        elif layer == "oracle" and name in _ORACLE_KIND:
            label_of = _oracle_row(_ORACLE_KIND[name], inspect.signature(fn))
            if _ORACLE_KIND[name] is not None:
                after = _oracle_objects(label_of, sys.modules["seqasym.oracle"].object_count)
        return self._wrap(label, fn, before=before, after=after, label_of=label_of)

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the pass, as name -> (value, unit)."""
        s, n, c = self.self_s, self.calls, self.counts
        out: dict[str, tuple[float, str]] = {}

        def layer_self(layer):
            return sum(v for k, v in s.items() if k.split(".", 1)[0] == layer)

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
        out.update(
            {
                "series.mul.calls": (n["series.mul"], "count"),
                "series.mul.self_s": (s["series.mul"], "s"),
                "series.mul.coeff_products": (c["series.mul.coeff_products"], "count"),
                "series.mul.max_bits": (c["series.mul.max_bits"], "bits"),
                "series.inverse.calls": (n["series.inverse"], "count"),
                "series.inverse.self_s": (s["series.inverse"], "s"),
                "series.log.self_s": (s["series.log"], "s"),
                "series.counting_to_series.self_s": (s["series.counting_to_series"], "s"),
                "decomposition.parts_table.calls": (n["decomposition.parts_table"], "count"),
                "decomposition.parts_table.self_s": (s["decomposition.parts_table"], "s"),
                "decomposition.parts_table.repeat_ratio": (
                    ratio(c["decomposition.parts_table.repeats"], n["decomposition.parts_table"]),
                    "ratio",
                ),
                "decomposition.irreducible_series.calls": (
                    n["decomposition.irreducible_series"],
                    "count",
                ),
                "decomposition.irreducible_series.repeat_ratio": (
                    ratio(
                        c["decomposition.irreducible_series.repeats"],
                        n["decomposition.irreducible_series"],
                    ),
                    "ratio",
                ),
                "decomposition.recurrences.self_s": (
                    s["decomposition.verify_simple_recurrence"]
                    + s["decomposition.verify_halving_identity"],
                    "s",
                ),
                "asymptotics.seq_coefficients.self_s": (s["asymptotics.seq_coefficients"], "s"),
                "asymptotics.evaluate_partial_sum.self_s": (
                    s["asymptotics.evaluate_partial_sum"],
                    "s",
                ),
                "asymptotics.cyc_part_count.calls": (n["asymptotics.cyc_part_count"], "count"),
                "asymptotics.cyc_part_count.self_s": (s["asymptotics.cyc_part_count"], "s"),
                "catalog.value.calls": (n["catalog.value"], "count"),
                "catalog.value.misses": (c["catalog.value.misses"], "count"),
                "catalog.value.self_s": (s["catalog.value"], "s"),
                "catalog.unlabeled_tournament_count.self_s": (
                    s["catalog.unlabeled_tournament_count"],
                    "s",
                ),
                "audit.audit_sequence.self_s": (s["audit.audit_sequence"], "s"),
                "audit.reduced_values.self_s": (s["audit.reduced_values"], "s"),
                "audit.conv_terms": (c["audit.conv_terms"], "count"),
                "oracle.unlabeled_tournaments.orbits_per_code": (
                    ratio(
                        c["oracle.unlabeled_tournaments-d1.orbits"],
                        c["oracle.unlabeled_tournaments-d1.objects"],
                    ),
                    "ratio",
                ),
                "suites.checks_failed": (c["suites.checks_failed"], "count"),
                "render.out_bytes": (c["render.out_bytes"], "bytes"),
                "render.failures": (c["render.failures"], "count"),
            }
        )
        for row in ORACLE_ROWS:
            label = f"oracle.{row}"
            objects = c[f"{label}.objects"]
            out[f"{label}.objects"] = (objects, "count")
            out[f"{label}.self_s"] = (s[label], "s")
            out[f"{label}.objects_per_s"] = (ratio(objects, s[label]), "1/s")
        for suite in SUITES:
            out[f"suites.{suite}.self_s"] = (s[f"suites.{suite}"], "s")
        return out


# ---------------------------------------------------------------------------
# hooks: counts taken at the layer boundaries
# ---------------------------------------------------------------------------


def _mul_counts(tracer, args, kwargs, result):
    """Terms summed by the Cauchy product, and the largest coefficient size."""
    f, g = args
    n = result.order
    nonzero_g = []
    running = 0
    for j in range(n + 1):
        running += bool(g.coefficients[j])
        nonzero_g.append(running)
    tracer.counts["series.mul.coeff_products"] += sum(
        nonzero_g[n - i] for i in range(n + 1) if f.coefficients[i]
    )
    bits = max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coefficients
    )
    if bits > tracer.counts["series.mul.max_bits"]:
        tracer.counts["series.mul.max_bits"] = bits


def _value_miss(tracer, args, kwargs):
    seq, n = args
    if n not in seq._cache:
        tracer.counts["catalog.value.misses"] += 1


def _repeat_tracker(label, sig):
    """Count calls whose result an earlier call in the same job already covered."""

    def before(tracer, args, kwargs):
        b = sig.bind(*args, **kwargs)
        A = b.arguments["A"]
        size = tuple(v for k, v in b.arguments.items() if k != "A")
        seen = tracer._covered.setdefault((label, A.name, A.labeling, A.period), [])
        if any(all(o >= s for o, s in zip(old, size)) for old in seen):
            tracer.counts[f"{label}.repeats"] += 1
        seen.append(size)

    return before


def _conv_terms(tracer, args, kwargs, report):
    for trace in report.convolution_trace.values():
        tracer.counts["audit.conv_terms"] += len(trace) * (len(trace) + 1) // 2


def _out_bytes(tracer, args, kwargs, text):
    tracer.counts["render.out_bytes"] += len(text.encode())


def _failed_checks(tracer, args, kwargs, checks):
    tracer.counts["suites.checks_failed"] += sum(c.status == "fail" for c in checks)


def _oracle_row(kind, sig):
    """Label of the oracle grid row (class kind and d) that a call works on."""

    def label_of(args, kwargs):
        b = sig.bind(*args, **kwargs)
        return f"oracle.{kind or b.arguments['kind']}-d{b.arguments.get('d', 1)}"

    return label_of


def _oracle_objects(label_of, object_count):
    """Objects an enumerator visits; orbits found, for unlabeled tournaments."""

    def after(tracer, args, kwargs, result):
        label = label_of(args, kwargs)
        kind, d = label[len("oracle.") :].rsplit("-d", 1)
        tracer.counts[f"{label}.objects"] += object_count(kind, result.n, int(d))
        if kind == "unlabeled_tournaments":
            tracer.counts[f"{label}.orbits"] += result.total_enumerated

    return after
