"""reproduce: recompute every reference value for d=2,3,4 and report matches."""

from __future__ import annotations

import argparse

from .. import cli
from .. import reference_values as ref


class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.checks = 0
        self.failures = 0

    def info(self, text: str) -> None:
        self.lines.append(text)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if ok:
            self.lines.append(f"  {label}: OK{(' ' + detail) if detail else ''}")
        else:
            self.failures += 1
            self.lines.append(f"  {label}: FAIL{(' ' + detail) if detail else ''}")

    def compare(self, label: str, got, want) -> None:
        if got == want:
            self.check(label, True)
        else:
            self.check(label, False, f"(got {got!r}, want {want!r})")


_ORACLE_STAGES = {2: (0, 1, 2), 3: (0, 1), 4: (0, 1)}


# d -> the last stage that a reference table or the oracle cross-check reads
# (tests pin it to reference_values); the ratio facts and the entropy bounds
# of the later stages read only leading bits, off the bounds' walk
_EXACT_STAGES = {2: 2, 3: 5, 4: 4}
_LAST_STAGE = 6
_PRECISION = 160


def _reproduce_dimension(report: _Report, d: int) -> None:
    (generate, evolve_to, boundary_class_vector, build, bounds, ratios,
     check_contraction, step, render_quotient, eps_ratio_table_value) = cli._library(
        "generate", "evolve_to", "boundary_class_vector", "build", "bounds",
        "ratios", "check_contraction", "step", "render_quotient",
        "eps_ratio_table_value")
    report.info(f"[d={d}]")
    generate(d)  # checks each polynomial's shape and closed-form total
    report.info(f"  generated {d + 2} class polynomials over c0..c{d + 1}")

    vectors = evolve_to(d, _EXACT_STAGES[d])
    for n in _ORACLE_STAGES[d]:
        reference = boundary_class_vector(build(d, n))
        report.check(f"oracle cross-check stage {n}", reference == vectors[n])

    counts_ref, totals_ref = ref.REFERENCE_COUNTS[d]
    for n in (1, 2):
        report.compare(f"class counts n={n}",
                       vectors[n].counts, counts_ref[n])
        report.compare(f"matching total n={n}", vectors[n].m, totals_ref[n])

    # the ratio facts of the later stages read the enclosures the bounds
    # walked; if their ends leave a fact open, exact stages decide it
    result = bounds(d, _LAST_STAGE, vectors, precision=_PRECISION)
    trace = ratios(vectors + list(result.walk))
    contraction = check_contraction(trace)
    if contraction is None:
        while vectors[-1].n < _LAST_STAGE:
            vectors.append(step(vectors[-1]))
        trace = ratios(vectors)
        contraction = check_contraction(trace)
    if d == 3:
        for n, row in ref.RATIOS_D3.items():
            got = tuple(render_quotient(*trace.ratio_pair(n, j), 15) for j in range(4))
            report.compare(f"ratio row n={n} (15 digits)", got, row)
        for n, want in ref.EPS_RATIO_TABLE_D3.items():
            report.compare(f"contraction quotient n={n}",
                           eps_ratio_table_value(trace, n), want)
    elif d == 4:
        for n, row in ref.RATIOS_D4.items():
            got = tuple(render_quotient(*trace.ratio_pair(n, j), 14) for j in range(5))
            report.compare(f"ratio row n={n} (14 digits)", got, row)

    report.check("ratio ordering and monotonicity", contraction.ok,
                 f"(limit {contraction.limit_digits[:31]})")
    if d in ref.RATIO_LIMIT_DIGITS:
        report.check(
            "ratio limit digits",
            contraction.limit_digits.startswith(ref.RATIO_LIMIT_DIGITS[d]),
            f"(want prefix {ref.RATIO_LIMIT_DIGITS[d]})",
        )

    prefix = ref.Z_PREFIX[d]
    report.check(
        "entropy bounds k=6 share reference prefix",
        result.lower.as_decimal().startswith(prefix)
        and result.upper.as_decimal().startswith(prefix),
        f"({prefix}, certified {result.certified_digits} digits)",
    )
    if d in ref.MIN_CERTIFIED_DIGITS_K6:
        need = ref.MIN_CERTIFIED_DIGITS_K6[d]
        report.check(f"certified digits >= {need}",
                     result.certified_digits >= need,
                     f"(got {result.certified_digits})")


def run(_args: argparse.Namespace) -> int:
    report = _Report()
    report.info("reference reproduction report")
    report.info("=============================")
    for d in (2, 3, 4):
        _reproduce_dimension(report, d)
        report.info("")
    verdict = "all values match" if report.failures == 0 else "MISMATCHES FOUND"
    report.info(f"SUMMARY: {report.checks} comparisons, "
                f"{report.failures} failures -- {verdict}")
    cli._emit("\n".join(report.lines))
    return 0 if report.failures == 0 else 1
