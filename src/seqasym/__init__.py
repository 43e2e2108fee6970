"""Exact part-count statistics and asymptotic expansions for SEQ-like classes.

A combinatorial class decomposable as A = SEQ(B) assigns to each size-n
object a number of irreducible parts.  This package computes the exact
distribution of that number (integer convolutions of counting values), the
integer coefficients of its complete asymptotic expansion, finite-range
audits of the growth condition the expansion rests on, and brute-force
enumeration oracles that cross-check every exact pipeline on small sizes.
"""

from .asymptotics import (
    CoefficientTable,
    ExpansionReport,
    LeadingTerm,
    bender_compose,
    cyc_class,
    cyc_coefficients,
    cyc_part_count,
    evaluate_partial_sum,
    leading_term,
    seq_coefficients,
    set_via_seq_coefficients,
)
from .audit import AuditReport, audit
from .catalog import (
    CountingSequence,
    catalog_classes,
    custom,
    load_custom,
    resolve_class,
)
from .decomposition import (
    PartsTable,
    irreducible_series,
    lift_consistency,
    parts_table,
    periodic_reindex,
    verify_halving_identity,
    verify_simple_recurrence,
)
from .errors import SeqasymError
from .oracle import (
    OracleResult,
    enumerate_matching_parts,
    enumerate_permutation_parts,
    enumerate_tournament_parts,
    enumerate_unlabeled_tournament_parts,
)
from .series import PowerSeries, counting_to_series, series_to_counting

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CoefficientTable",
    "CountingSequence",
    "ExpansionReport",
    "LeadingTerm",
    "OracleResult",
    "PartsTable",
    "PowerSeries",
    "SeqasymError",
    "audit",
    "bender_compose",
    "catalog_classes",
    "counting_to_series",
    "custom",
    "cyc_class",
    "cyc_coefficients",
    "cyc_part_count",
    "enumerate_matching_parts",
    "enumerate_permutation_parts",
    "enumerate_tournament_parts",
    "enumerate_unlabeled_tournament_parts",
    "evaluate_partial_sum",
    "irreducible_series",
    "leading_term",
    "lift_consistency",
    "load_custom",
    "parts_table",
    "periodic_reindex",
    "resolve_class",
    "seq_coefficients",
    "series_to_counting",
    "set_via_seq_coefficients",
    "verify_halving_identity",
    "verify_simple_recurrence",
]
