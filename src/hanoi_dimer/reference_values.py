"""Frozen expected values for the d=2,3,4 systems.

Single source of truth for the verification suite and the ``reproduce``
command.  The small-stage integers are confirmed independently by the
brute-force oracle; the ratio/entropy strings are fixed decimal renderings
that the exact pipeline must reproduce digit-for-digit.
"""

from __future__ import annotations

# class counts (c0..c_{d+1}) and totals; stage 0 is the K_{d+1} seed

CLASS_COUNTS_D3 = {
    0: (1, 0, 1, 0, 3),
    1: (1010, 1242, 1556, 1983, 2571),
    2: (
        49464202269253193,
        62379666478434024,
        78668504245191833,
        99212077110534768,
        125122091640871731,
    ),
}
TOTALS_D3 = {0: 10, 1: 25817, 2: 1292964293737151090}

CLASS_COUNTS_D4 = {
    0: (1, 0, 1, 0, 3, 0),
    1: (510980, 755968, 1123642, 1677248, 2513329, 3779500),
    2: (
        12567379442065248794102222711306394841,
        18760454431707651977688401100886141664,
        28005432734266093414497192140551929071,
        41806280366033934562540832493986021752,
        62408116726493840561375438310621519011,
        93162456829680622542047599275124003808,
    ),
}
TOTALS_D4 = {0: 26, 1: 48645865, 2: 1209689823065753613801849265389348210254}

# oracle-confirmed d=2 stages (the class counts descend for d=2)
CLASS_COUNTS_D2 = {
    0: (1, 0, 1, 0),
    1: (18, 16, 15, 14),
    2: (568301, 521504, 478579, 439204),
}
TOTALS_D2 = {0: 4, 1: 125, 2: 4007754}

# d -> (class counts, totals), the per-stage tables above
REFERENCE_COUNTS = {
    2: (CLASS_COUNTS_D2, TOTALS_D2),
    3: (CLASS_COUNTS_D3, TOTALS_D3),
    4: (CLASS_COUNTS_D4, TOTALS_D4),
}

# consecutive-class ratios r_0..r_d, rendered round-half-even

RATIOS_D3 = {  # 15 decimal places
    1: ("0.813204508856683", "0.798200514138817", "0.784669692385275",
        "0.771295215869312"),
    2: ("0.792953939347432", "0.792943339611629", "0.792932741016451",
        "0.792922143559552"),
    3: ("0.792939105706120", "0.792939105700090", "0.792939105694060",
        "0.792939105688030"),
    4: ("0.792939105697681", "0.792939105697681", "0.792939105697681",
        "0.792939105697681"),
}

RATIOS_D4 = {  # 14 decimal places
    1: ("0.67592808161192", "0.67278368021131", "0.66993193612394",
        "0.66734120363868", "0.66498981346739"),
    2: ("0.66988672837395", "0.66988625420357", "0.66988578005661",
        "0.66988530593307", "0.66988483183294"),
    3: ("0.66988575004178", "0.66988575004176", "0.66988575004175",
        "0.66988575004173", "0.66988575004172"),
    4: ("0.66988575004175", "0.66988575004175", "0.66988575004175",
        "0.66988575004175", "0.66988575004175"),
}

# contraction-quotient table for d=3: lists 10 * eps(n+1)/eps(n)^2 with the
# digit tail cut rather than rounded (both quirks reproduced by
# ratio_facts.eps_ratio_table_value)
EPS_RATIO_TABLE_D3 = {
    1: "0.18102932094933",
    2: "0.17893865402990",
    3: "0.17893332747848",
    4: "0.17893332747295",
}

# the quotient itself stabilizes here (tenfold rendering, stage 4 entry)
EPS_RATIO_LIMIT_D3 = "0.17893332747295"

# common ratio limits
RATIO_LIMIT_DIGITS = {
    3: "0.79293910569768130956986961523",
    4: "0.66988575004174782028883689785",
}

# entropy per site: certified digit prefixes at bound stage k=6
Z_PREFIX = {
    2: "0.5764643016",
    3: "0.65719921144295911522",
    4: "0.72291383087181938879",
}
MIN_CERTIFIED_DIGITS_K6 = {3: 101, 4: 120}

# Sierpinski-gasket counterparts, for documentation tables only: the
# entropy on TH_d sits strictly below these for each d
Z_SIERPINSKI = {2: "0.6562942369", 3: "0.7811514674", 4: "0.8767794029"}
