"""The value records: read-only fields, keyword construction and defaults,
value equality, and validation on every way a record is built."""

from __future__ import annotations

import copy
import pickle
from math import comb

import pytest

from hanoi_dimer.appendix_check import CertificateReport, run_certificates
from hanoi_dimer.entropy import BoundsResult, HighPrecisionReal, bounds
from hanoi_dimer.errors import IntegrityError
from hanoi_dimer.evolve import BoundaryClassVector, CountInterval, enclose, evolve_to
from hanoi_dimer.ratio_facts import ContractionReport, RatioTrace, check_contraction, ratios
from hanoi_dimer.hanoi_graph import HanoiGraph, build
from hanoi_dimer.matching_oracle import CornerConstraint
from hanoi_dimer.recursion_gen import RecursionSystem, generate
from hanoi_dimer.scan import INT_RING, Ring

from .helpers import SandwichReport, check_finite_sandwich


@pytest.fixture(scope="module")
def records():
    """One instance of each record, keyed by its type."""
    vectors = evolve_to(3, 3)
    trace = ratios(vectors)
    result = bounds(3, 3, vectors, precision=40)
    made = [
        vectors[2],
        enclose(vectors[3], 40),
        trace,
        check_contraction(trace),
        result.lower,
        result,
        check_finite_sandwich(3, 1, 3, vectors),
        generate(2),
        INT_RING,
        build(2, 1),
        CornerConstraint.parse("mdf"),
        run_certificates(2, "omega")[0],
    ]
    return {type(r): r for r in made}


RECORDS = [BoundaryClassVector, CountInterval, RatioTrace, ContractionReport,
           HighPrecisionReal, BoundsResult, SandwichReport, RecursionSystem, Ring,
           HanoiGraph, CornerConstraint, CertificateReport]


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_every_field_is_read_only(records, kind):
    record = records[kind]
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_rebuilt_from_their_fields_are_equal(records, kind):
    record = records[kind]
    rebuilt = kind(**{field: getattr(record, field) for field in kind._fields})
    assert rebuilt == record and type(rebuilt) is kind
    assert repr(rebuilt).startswith(f"{kind.__name__}(")


def test_defaults_are_kept():
    assert BoundsResult._fields[-1] == "warning"
    assert BoundsResult._field_defaults == {"warning": None}
    assert CertificateReport._field_defaults == {"notes": ()}
    report = CertificateReport(name="omega-ascending", d=2, attempted=True,
                               passed=True, term_count=1, offending_monomial=None)
    assert report.notes == () and report.ok


def vector(d, n, counts):
    return BoundaryClassVector(d=d, n=n, counts=counts,
                               m=sum(comb(d + 1, k) * c for k, c in enumerate(counts)))


def test_a_class_vector_is_checked_on_replace_and_make():
    v = vector(3, 1, (1, 2, 3, 4, 5))
    assert v._replace(m=v.m) == v
    with pytest.raises(IntegrityError, match="differs from binomial-weighted"):
        v._replace(m=v.m + 1)
    with pytest.raises(IntegrityError, match="not strictly monotone"):
        v._replace(counts=(5, 4, 3, 2, 1))
    with pytest.raises(IntegrityError, match="needs 5 counts, got 4"):
        BoundaryClassVector._make((3, 1, (1, 2, 3, 4), 10))
    with pytest.raises(IntegrityError, match="negative class count"):
        v._replace(n=0, counts=(-1, 0, 0, 0, 0), m=-1)


def test_a_ratio_trace_is_checked_on_replace_and_make():
    trace = ratios([vector(3, 1, (1, 2, 3, 4, 5))])
    assert trace._replace(d=3) == trace
    with pytest.raises(ZeroDivisionError, match="ratio r1 undefined at stage 1"):
        trace._replace(lo=((1, 2, 0, 4, 5),), hi=((1, 2, 0, 4, 5),))
    with pytest.raises(IntegrityError, match="negative class count c2 at stage 1"):
        trace._replace(lo=((1, 2, -3, 4, 5),))
    with pytest.raises(IntegrityError, match="ends out of order at stage 1"):
        RatioTrace._make((3, (1,), ((1, 2, 3, 4, 6),), ((1, 2, 3, 4, 5),)))


def test_checked_records_survive_copy_and_pickle():
    v = vector(3, 1, (1, 2, 3, 4, 5))
    trace = ratios([v])
    assert trace.eps_pair(1) == (1 * 5 - 4 * 2, 2 * 5)  # cached on the instance
    for record in (v, trace):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)
