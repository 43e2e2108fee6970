"""Frozen reference part counts and expansion coefficients.

Exact integer tables for the catalog classes: the number of size-n objects
with exactly m irreducible parts, and the expansion coefficients d_{k,m} of
the m-part probability.  Matchings are indexed by pair count; their actual
object size is twice the index.  Sixteen of the tables form the standard
report suite (numbered 2-17); the d=3 permutation and matching tables carry
no suite number and serve only as extra cross-checks.

Every value here is pinned by regression tests against the computing
pipeline; edits to this file should be treated as data corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReferenceTable",
    "REFERENCE_TABLES",
    "APPENDIX_ORDER",
    "WRIGHT_FOLDED",
    "COMTET_NUMERATORS",
]


@dataclass(frozen=True)
class ReferenceTable:
    """One frozen table: rows[m-1][i] is the value at index start_index + i."""

    class_key: str
    d: int
    kind: str  # "parts" | "coefficients"
    start_index: int
    golden_index: int | None
    rows: tuple[tuple[int, ...], ...]

    def value(self, index: int, m: int) -> int:
        return self.rows[m - 1][index - self.start_index]


def _t(class_key, d, kind, start_index, golden_index, rows):
    return ReferenceTable(class_key, d, kind, start_index,
                          golden_index, tuple(tuple(r) for r in rows))


REFERENCE_TABLES = {
    ("tournaments", 1, "parts"): _t(
        "tournaments", 1, "parts", 1, 1,
        [
            (1, 0, 2, 24, 544, 22320, 1677488, 236522496, 64026088576),
            (0, 2, 0, 16, 240, 6608, 315840, 27001984, 4268194560),
            (0, 0, 6, 0, 120, 2160, 70224, 3830400, 366729600),
            (0, 0, 0, 24, 0, 960, 20160, 758016, 46448640),
            (0, 0, 0, 0, 120, 0, 8400, 201600, 8628480),
        ],
    ),
    ("tournaments", 1, "coefficients"): _t(
        "tournaments", 1, "coefficients", 0, 2,
        [
            (1, -2, 2, -4, -32, -848, -38032, -3039136, -446043008),
            (0, 2, -8, 16, -16, 368, 22528, 2232064, 372697856),
            (0, 0, 6, -36, 120, 0, 9744, 586656, 60297600),
            (0, 0, 0, 24, -192, 960, 960, 153216, 10063872),
            (0, 0, 0, 0, 120, -1200, 8400, 16800, 2177280),
        ],
    ),
    ("tournaments", 2, "parts"): _t(
        "tournaments", 2, "parts", 1, 3,
        [
            (1, 1, 15, 543, 51969, 13639329, 10259025615, 22709334063807),
            (0, 2, 6, 126, 5730, 644418, 193703454, 165016159614),
            (0, 0, 6, 36, 990, 54360, 6994134, 2358537804),
            (0, 0, 0, 24, 240, 8280, 534240, 77136696),
            (0, 0, 0, 0, 120, 1800, 75600, 5619600),
        ],
    ),
    ("tournaments", 2, "coefficients"): _t(
        "tournaments", 2, "coefficients", 0, 4,
        [
            (1, -2, 0, -24, -960, -98208, -26634240, -20324347776),
            (0, 2, -6, 18, 654, 82998, 24809706, 19757225682),
            (0, 0, 6, -18, 234, 11970, 1631934, 540748278),
            (0, 0, 0, 24, -48, 2520, 158400, 24005016),
            (0, 0, 0, 0, 120, 0, 27000, 1990800),
        ],
    ),
    ("tournaments", 3, "parts"): _t(
        "tournaments", 3, "parts", 1, 5,
        [
            (1, 2, 46, 3608, 1006936, 1061010512, 4382959945456),
            (0, 2, 12, 392, 37920, 12342032, 14950347552),
            (0, 0, 6, 72, 3120, 358560, 132424656),
            (0, 0, 0, 24, 480, 26400, 3514560),
            (0, 0, 0, 0, 120, 3600, 243600),
        ],
    ),
    ("tournaments", 3, "coefficients"): _t(
        "tournaments", 3, "coefficients", 0, 6,
        [
            (1, -2, -2, -80, -6824, -1975952, -2109678992),
            (0, 2, -4, 56, 5792, 1868432, 2073370016),
            (0, 0, 6, 0, 816, 96480, 34953936),
            (0, 0, 0, 24, 96, 9120, 1237440),
            (0, 0, 0, 0, 120, 1200, 99600),
        ],
    ),
    ("permutations", 1, "parts"): _t(
        "permutations", 1, "parts", 1, 7,
        [
            (1, 1, 3, 13, 71, 461, 3447, 29093, 273343, 2829325, 31998903),
            (0, 1, 2, 7, 32, 177, 1142, 8411, 69692, 642581, 6534978),
            (0, 0, 1, 3, 12, 58, 327, 2109, 15366, 125316, 1135329),
            (0, 0, 0, 1, 4, 18, 92, 531, 3440, 24892, 200344),
            (0, 0, 0, 0, 1, 5, 25, 135, 800, 5226, 37690),
        ],
    ),
    ("permutations", 1, "coefficients"): _t(
        "permutations", 1, "coefficients", 0, 8,
        [
            (1, -2, -1, -4, -19, -110, -745, -5752, -49775, -476994),
            (0, 2, -2, 0, 4, 38, 330, 2980, 28760, 298650),
            (0, 0, 3, 0, 6, 36, 237, 1740, 14172, 127200),
            (0, 0, 0, 4, 4, 20, 108, 672, 4728, 37144),
            (0, 0, 0, 0, 5, 10, 45, 240, 1470, 10140),
        ],
    ),
    ("permutations", 2, "parts"): _t(
        "permutations", 2, "parts", 1, 9,
        [
            (1, 3, 29, 499, 13101, 486131, 24266797, 1571357619),
            (0, 1, 6, 67, 1172, 30037, 1079810, 52459239),
            (0, 0, 1, 9, 114, 2046, 51591, 1802079),
            (0, 0, 0, 1, 12, 170, 3148, 78627),
            (0, 0, 0, 0, 1, 15, 235, 4505),
        ],
    ),
    ("permutations", 2, "coefficients"): _t(
        "permutations", 2, "coefficients", 0, 10,
        [
            (1, -2, -5, -52, -931, -25030, -942225, -47453784),
            (0, 2, 2, 36, 748, 21742, 856206, 44317536),
            (0, 0, 3, 12, 150, 2868, 78345, 2939328),
            (0, 0, 0, 4, 28, 364, 6884, 182120),
            (0, 0, 0, 0, 5, 50, 705, 13480),
        ],
    ),
    ("permutations", 3, "parts"): _t(
        "permutations", 3, "parts", 1, None,
        [
            (1, 7, 201, 13351, 1697705, 369575303, 127249900617),
            (0, 1, 14, 451, 29516, 3622725, 768285578),
            (0, 0, 1, 21, 750, 48838, 5804607),
            (0, 0, 0, 1, 28, 1098, 71660),
            (0, 0, 0, 0, 1, 35, 1495),
        ],
    ),
    ("permutations", 3, "coefficients"): _t(
        "permutations", 3, "coefficients", 0, None,
        [
            (1, -2, -13, -388, -26251, -3365894, -735527881),
            (0, 2, 10, 348, 24940, 3278846, 724757382),
            (0, 0, 3, 36, 1230, 84132, 10578441),
            (0, 0, 0, 4, 76, 2780, 186708),
            (0, 0, 0, 0, 5, 130, 5145),
        ],
    ),
    ("matchings", 1, "parts"): _t(
        "matchings", 1, "parts", 1, 11,
        [
            (1, 2, 10, 74, 706, 8162, 110410, 1708394, 29752066, 576037442),
            (0, 1, 4, 24, 188, 1808, 20628, 273064, 4126156, 70252320),
            (0, 0, 1, 6, 42, 350, 3426, 38886, 506314, 7491006),
            (0, 0, 0, 1, 8, 64, 568, 5696, 64744, 833280),
            (0, 0, 0, 0, 1, 10, 90, 850, 8770, 100362),
        ],
    ),
    ("matchings", 1, "coefficients"): _t(
        "matchings", 1, "coefficients", 0, 12,
        [
            (1, -2, -3, -16, -124, -1224, -14516, -200192, -3143724),
            (0, 2, 0, 6, 64, 744, 9792, 145160, 2402304),
            (0, 0, 3, 6, 39, 336, 3516, 43032, 602964),
            (0, 0, 0, 4, 16, 108, 928, 9520, 113376),
            (0, 0, 0, 0, 5, 30, 225, 2000, 20580),
        ],
    ),
    ("matchings", 2, "parts"): _t(
        "matchings", 2, "parts", 1, 13,
        [
            (1, 8, 208, 10520, 867808, 106065512, 18027732016),
            (0, 1, 16, 480, 24368, 1947200, 230392272),
            (0, 0, 1, 24, 816, 42056, 3278112),
            (0, 0, 0, 1, 32, 1216, 64096),
            (0, 0, 0, 0, 1, 40, 1680),
        ],
    ),
    ("matchings", 2, "coefficients"): _t(
        "matchings", 2, "coefficients", 0, 14,
        [
            (1, -2, -15, -400, -20560, -1711248, -210183824),
            (0, 2, 12, 354, 19168, 1639776, 204426336),
            (0, 0, 3, 42, 1299, 68304, 5592912),
            (0, 0, 0, 4, 88, 3012, 158656),
            (0, 0, 0, 0, 5, 150, 5685),
        ],
    ),
    ("matchings", 3, "parts"): _t(
        "matchings", 3, "parts", 1, None,
        [
            (1, 26, 3322, 1150226, 841423330, 1121484681818, 2465466393826522),
            (0, 1, 52, 7320, 2473196, 1753694096, 2294365478340),
            (0, 0, 1, 78, 11994, 3986486, 2743549314),
            (0, 0, 0, 1, 104, 17344, 5707672),
            (0, 0, 0, 0, 1, 130, 23370),
        ],
    ),
    ("matchings", 3, "coefficients"): _t(
        "matchings", 3, "coefficients", 0, None,
        [
            (1, -2, -51, -6592, -2293132, -1680373464, -2241215669540),
            (0, 2, 48, 6438, 2271328, 1672977864, 2235962560224),
            (0, 0, 3, 150, 21495, 7347936, 5237215404),
            (0, 0, 0, 4, 304, 47148, 15807712),
            (0, 0, 0, 0, 5, 510, 85425),
        ],
    ),
    ("unlabeled_tournaments", 1, "parts"): _t(
        "unlabeled_tournaments", 1, "parts", 1, 15,
        [
            (1, 0, 1, 1, 6, 35, 353, 6008, 178133, 9355949, 884464590),
            (0, 1, 0, 2, 2, 13, 72, 719, 12098, 357078, 18725040),
            (0, 0, 1, 0, 3, 3, 21, 111, 1099, 18273, 536856),
            (0, 0, 0, 1, 0, 4, 4, 30, 152, 1494, 24536),
            (0, 0, 0, 0, 1, 0, 5, 5, 40, 195, 1905),
        ],
    ),
    ("unlabeled_tournaments", 1, "coefficients"): _t(
        "unlabeled_tournaments", 1, "coefficients", 0, 16,
        [
            (1, -2, 1, -2, 0, -10, -57, -634, -11297, -344168),
            (0, 2, -4, 4, -6, 10, 24, 460, 9362, 310072),
            (0, 0, 3, -6, 9, -12, 33, 102, 1581, 30156),
            (0, 0, 0, 4, -8, 16, -20, 72, 224, 3340),
            (0, 0, 0, 0, 5, -10, 25, -30, 130, 390),
        ],
    ),
}

APPENDIX_ORDER = tuple(
    sorted(
        (k for k, t in REFERENCE_TABLES.items() if t.golden_index is not None),
        key=lambda k: REFERENCE_TABLES[k].golden_index,
    )
)

# Folded one-part tournament coefficients d_{k,1} * 2^{k(k+1)/2}: the
# integers appearing in the classical strong-tournament expansion.
WRIGHT_FOLDED = (-4, 16, -256, -32768)

# Numerators of the classical indecomposable-permutation expansion
# P = 1 - 2/n - 1/(n)_2 - 4/(n)_3 - ...: equal to -d_{k,1} for k = 1..10.
COMTET_NUMERATORS = (2, 1, 4, 19, 110, 745, 5752, 49775, 476994, 5016069)
