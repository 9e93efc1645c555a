"""The result records are immutable named tuples: no field can be assigned,
the validated ones reject bad fields on construction, and each prints as
``Name(field=value, ...)``."""
from fractions import Fraction

import pytest

from kahlerimm.bell import CigarLimit, CigarScan
from kahlerimm.diastasis import BochnerReport
from kahlerimm.einstein import EinsteinResult, NotEinstein
from kahlerimm.immersion import Component, ImmersionMap, NonExistence, \
    Target, VerifyResult
from kahlerimm.models import MODELS, ModelEntry
from kahlerimm.resolvability import CertifiedNotResolvable, HartogsWitness, \
    HermMatrix, MatrixWitness, NotPsd, Pivot, Psd, ResolvableUpTo
from kahlerimm.scalars import CScalar
from kahlerimm.series import HolSeries
from kahlerimm.symmetric import DomainInvariants, Membership

SERIES = HolSeries(1, 2, {1: CScalar(1)})
PIVOT = Pivot(0, Fraction(2), {0: CScalar(1)})
HARTOGS = HartogsWitness(2, 0, Fraction(-1, 4))
RECORDS = [
    HermMatrix(1, {(0, 0): CScalar(1)}, ((1,),), True),
    PIVOT,
    Psd(1, (PIVOT,)),
    NotPsd((CScalar(1),), Fraction(-1)),
    MatrixWitness(((1,),), (CScalar(1),), Fraction(-1)),
    HARTOGS,
    ResolvableUpTo(3, 2),
    CertifiedNotResolvable(2, HARTOGS),
    Target("curved", Fraction(1, 2)),
    Component(1, Fraction(1, 2), SERIES),
    ImmersionMap((Component(1, Fraction(1), SERIES),), Target("flat"), 2, 1),
    NonExistence("no map"),
    VerifyResult(True),
    DomainInvariants(2, Fraction(2), 4, 4),
    Membership("discrete", 1),
    CigarScan(2, Fraction(-1), Fraction(-1, 2), (Fraction(1),)),
    CigarLimit(Fraction(1), (Fraction(1), Fraction(2)), 0.5),
    EinsteinResult(Fraction(4)),
    NotEinstein(((1,), (1,)), CScalar(1), CScalar(0)),
    BochnerReport(True),
    MODELS["flat"],
]


def test_every_record_type_is_listed_once():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 21
    assert isinstance(MODELS["flat"], ModelEntry)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_names_the_type_and_every_field(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_validated_records_reject_bad_fields():
    with pytest.raises(ValueError, match="sign"):
        Component(2, Fraction(1), SERIES)
    with pytest.raises(ValueError, match="positive radicand"):
        Component(1, Fraction(0), SERIES)
    with pytest.raises(ValueError, match="indefinite target"):
        ImmersionMap((Component(-1, Fraction(1), SERIES),), Target("flat"),
                     2, 1)
    with pytest.raises(ValueError, match="rank"):
        DomainInvariants(0, Fraction(2), 4, 4)


def test_validation_also_runs_for_keyword_fields():
    assert Component(sign=-1, radicand=Fraction(3), series=SERIES).sign == -1
    with pytest.raises(ValueError):
        DomainInvariants(rank=1, a=Fraction(-1), genus=2, dim=1)
    assert DomainInvariants(3, Fraction(1), 4, 6).threshold == 1
