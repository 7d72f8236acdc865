"""Frozen fixture data shared across the test suite.

Every value here was computed once with throwaway scripts (direct
convolutions, brute-force orbit scans, exhaustive searches) and then
pasted in. Tests assert the library against these constants; nothing in
this file is derived from the code under test at collection time.
"""
from __future__ import annotations

# --- known circulant weighing matrices -------------------------------------

# CW(7, 4), the smallest nontrivial example.
KNOWN_CW_7_4 = "-++0+00"
KNOWN_CW_7_4_P = frozenset({1, 2, 4})
KNOWN_CW_7_4_N = frozenset({0})

# CW(31, 16) with multiplier 2 fixing it in place (shift 0).
KNOWN_CW_31_16 = "- 0 0 0 0 - 0 + 0 - - + 0 + + 0 0 0 - + - + + 0 0 + + 0 + 0 0"
KNOWN_CW_31_16_P = frozenset({7, 11, 13, 14, 19, 21, 22, 25, 26, 28})
KNOWN_CW_31_16_N = frozenset({0, 5, 9, 10, 18, 20})

# CW(13, 9) fixed by multiplier 3; exercises a unit other than 2.
KNOWN_CW_13_9 = "0-+-0++++-0+0"
KNOWN_CW_13_9_P = frozenset({2, 5, 6, 7, 8, 11})
KNOWN_CW_13_9_N = frozenset({1, 3, 9})

# The two classes of CW(13, 9) with six +1 entries, each fixed by 3 up to
# a shift. A scan of all 60060 rows of order 13 with six +1 and three -1
# entries found 104 weighing rows, in exactly two classes of 52 under
# i -> t*i + s; these are the representatives that
# `cwmat search 13 9 '3^2' '3^1' --multiplier 3` reports for them.
CW_13_9_CLASSES = ("--00++0+0+-++", "--0+-+00+0+++")

# --- the two inequivalent classes at order 31 ------------------------------

W1_31_P = frozenset({3, 6, 7, 12, 14, 17, 19, 24, 25, 28})
W1_31_N = frozenset({0, 1, 2, 4, 8, 16})
W2_31_P = frozenset({5, 9, 10, 15, 18, 20, 23, 27, 29, 30})
W2_31_N = frozenset({0, 1, 2, 4, 8, 16})

# The unique class at order 21 and the non-contractible class at 63.
W0_21_P = frozenset({0, 5, 9, 10, 13, 15, 17, 18, 19, 20})
W0_21_N = frozenset({1, 2, 4, 8, 11, 16})
W1_63_P = frozenset({0, 9, 13, 18, 19, 26, 36, 38, 41, 52})
W1_63_N = frozenset({1, 2, 4, 8, 16, 32})

# --- multiplier-2 orbit structure ------------------------------------------

# Max number of orbits of length i under t=2, i = 1..28: the number of
# binary Lyndon words of length i, OEIS A001037, attained in Z_{2^i - 1}.
# At i = 1 the value is 1, not OEIS's 2: Z_1 has the single orbit {0}.
ORBIT_CAPS_T2 = (
    1, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161,
    2182, 4080, 7710, 14532, 27594, 52377, 99858, 190557, 364722, 698870,
    1342176, 2580795, 4971008, 9586395,
)

# The six length-5 orbits mod 31 in first-element order.
ORBITS_LEN5_MOD31 = (
    (1, 2, 4, 8, 16),
    (3, 6, 12, 24, 17),
    (5, 10, 20, 9, 18),
    (7, 14, 28, 25, 19),
    (11, 22, 13, 26, 21),
    (15, 30, 29, 27, 23),
)

# (length, count, t) -> orders that must divide n for the profile to fit.
REQUIRED_DIVISOR_CASES = (
    ((5, 2, 1), (31,)),
    ((6, 2, 2), (21,)),
    ((6, 2, 1), (9, 21)),
)

# --- partition enumeration --------------------------------------------------

# All 11 partitions of 6 in enumeration order (ascending largest part).
PARTITIONS_OF_6 = (
    "1^6",
    "1^4 2^1",
    "1^2 2^2",
    "2^3",
    "1^3 3^1",
    "1^1 2^1 3^1",
    "3^2",
    "1^2 4^1",
    "2^1 4^1",
    "1^1 5^1",
    "6^1",
)

# --- the 41 cap-feasible (olp(P), olp(N)) pairs for weight 16, t = 2 --------
# Order is the table order: N-side profiles ascend, P-side within each block.

FEASIBLE_PAIRS_16 = (
    ("5^2", "1^1 2^1 3^1"),
    ("4^1 6^1", "1^1 2^1 3^1"),
    ("3^1 7^1", "1^1 2^1 3^1"),
    ("10^1", "1^1 2^1 3^1"),
    ("2^1 4^2", "3^2"),
    ("1^1 4^1 5^1", "3^2"),
    ("5^2", "3^2"),
    ("4^1 6^1", "3^2"),
    ("1^1 2^1 7^1", "3^2"),
    ("2^1 8^1", "3^2"),
    ("1^1 9^1", "3^2"),
    ("10^1", "3^2"),
    ("3^2 4^1", "2^1 4^1"),
    ("1^1 4^1 5^1", "2^1 4^1"),
    ("5^2", "2^1 4^1"),
    ("1^1 3^1 6^1", "2^1 4^1"),
    ("4^1 6^1", "2^1 4^1"),
    ("3^1 7^1", "2^1 4^1"),
    ("1^1 9^1", "2^1 4^1"),
    ("10^1", "2^1 4^1"),
    ("3^2 4^1", "1^1 5^1"),
    ("2^1 4^2", "1^1 5^1"),
    ("2^1 3^1 5^1", "1^1 5^1"),
    ("5^2", "1^1 5^1"),
    ("4^1 6^1", "1^1 5^1"),
    ("3^1 7^1", "1^1 5^1"),
    ("2^1 8^1", "1^1 5^1"),
    ("10^1", "1^1 5^1"),
    ("1^1 2^1 3^1 4^1", "6^1"),
    ("3^2 4^1", "6^1"),
    ("2^1 4^2", "6^1"),
    ("2^1 3^1 5^1", "6^1"),
    ("1^1 4^1 5^1", "6^1"),
    ("5^2", "6^1"),
    ("1^1 3^1 6^1", "6^1"),
    ("4^1 6^1", "6^1"),
    ("1^1 2^1 7^1", "6^1"),
    ("3^1 7^1", "6^1"),
    ("2^1 8^1", "6^1"),
    ("1^1 9^1", "6^1"),
    ("10^1", "6^1"),
)

# 1-based indices (into FEASIBLE_PAIRS_16) of pairs surviving the
# existence-level prune, and of pairs surviving the counting level.
EXISTENCE_SURVIVOR_INDICES = frozenset({2, 8, 11, 17, 23, 24, 28, 29, 30, 35, 36})
COUNTING_SURVIVOR_INDICES = (17, 24, 35)

# For each existence-rejected pair: one cross pair (k, l) known to fire,
# with the full candidate length set it forces.
KNOWN_REJECTION_WITNESSES = {
    1: ((5, 2), frozenset({10})),
    3: ((7, 2), frozenset({14})),
    4: ((10, 3), frozenset({30})),
    5: ((2, 3), frozenset({6})),
    6: ((4, 3), frozenset({12})),
    7: ((5, 3), frozenset({15})),
    9: ((2, 3), frozenset({6})),
    10: ((2, 3), frozenset({6})),
    12: ((10, 3), frozenset({30})),
    13: ((3, 2), frozenset({6})),
    14: ((5, 2), frozenset({10})),
    15: ((5, 2), frozenset({10})),
    16: ((3, 4), frozenset({12})),
    18: ((3, 2), frozenset({6})),
    19: ((9, 2), frozenset({18})),
    20: ((10, 4), frozenset({20})),
    21: ((3, 5), frozenset({15})),
    22: ((2, 5), frozenset({10})),
    25: ((4, 5), frozenset({20})),
    26: ((3, 5), frozenset({15})),
    27: ((2, 5), frozenset({10})),
    31: ((4, 6), frozenset({12})),
    32: ((5, 6), frozenset({30})),
    33: ((5, 6), frozenset({30})),
    34: ((5, 6), frozenset({30})),
    37: ((7, 6), frozenset({42})),
    38: ((7, 6), frozenset({42})),
    39: ((8, 6), frozenset({24})),
    40: ((9, 6), frozenset({18})),
    41: ((10, 6), frozenset({15, 30})),
}

# Counting-level witnesses: index -> (length, min_count, max_count) with
# the minimum on the delta side exceeding the delta_bar maximum.
KNOWN_COUNTING_WITNESSES = {
    2: (12, 48, 24),
    11: (3, 30, 12),
    36: (4, 8, 0),
}

# --- base orders and classification ----------------------------------------

# Counting survivor -> candidate base orders.
BASE_ORDER_CASES = (
    (("5^2", "1^1 5^1"), (31,)),
    (("1^1 3^1 6^1", "6^1"), (21, 63)),
    (("4^1 6^1", "2^1 4^1"), (45, 105, 315)),
)

# Expected (candidates_tested, solutions, classes) per base search.
BASE_SEARCH_COUNTS = {
    31: (60, 12, 2),
    63: (144, 8, 2),
    21: (4, 2, 1),
    45: (6, 0, 0),
    105: (12, 0, 0),
    315: (54, 0, 0),
}

# The classes of CW(n, 16) at odd n number the sum of c_b over the b
# dividing n: 2*[31|n] + [63|n] + [21|n], as {b: c_b}.
RULE_TERMS = {21: 1, 31: 2, 63: 1}

# Odd n <= 105 with a nonzero number of CW(n, 16) classes.
CLASS_COUNTS_UPTO_105 = {21: 1, 31: 2, 63: 2, 93: 2, 105: 1}
