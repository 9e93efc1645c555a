"""The records are immutable tuples with named fields (``scalars.Record``):
each has the fields it always had, in order, with the same defaults; it is
built from positional, keyword or defaulted fields, and a wrong field list
is a TypeError; it equals, hashes and unpacks as the plain tuple of its
fields; no field can be assigned; the validated ones reject bad fields on
construction; and each prints as ``Name(field=value, ...)``."""
import copy
from fractions import Fraction

import pytest

from kahlerimm.bell import CigarLimit, CigarScan
from kahlerimm.cli import Command, Option, build_parser
from kahlerimm.diastasis import BochnerReport
from kahlerimm.einstein import EinsteinResult, NotEinstein
from kahlerimm.immersion import Component, ImmersionMap, Target
from kahlerimm.models import MODELS, ModelEntry
from kahlerimm.resolvability import CertifiedNotResolvable, HartogsWitness, \
    HermMatrix, MatrixWitness, NotPsd, Pivot, Psd, ResolvableUpTo
from kahlerimm.scalars import CScalar
from kahlerimm.symmetric import DomainInvariants, Membership

COLUMN = (1, {1: (1, 0)})  # the den and nums of z
PIVOT = Pivot(0, 2, {}, 1)
HARTOGS = HartogsWitness(2, 0, Fraction(-1, 4))
COMMAND = build_parser()["check-certificate"]
RECORDS = [
    HermMatrix(1, 1, {(0, 0): (1, 0)}, ((1,),)),
    PIVOT,
    Psd(1, (PIVOT,)),
    NotPsd((CScalar(1),), Fraction(-1)),
    MatrixWitness(((1,),), (CScalar(1),), Fraction(-1)),
    HARTOGS,
    ResolvableUpTo(3, 2),
    CertifiedNotResolvable(2, HARTOGS),
    Target("curved", Fraction(1, 2)),
    Component(Fraction(1, 2), *COLUMN),
    ImmersionMap((Component(Fraction(1), *COLUMN),), Target("flat"), 2, 1),
    DomainInvariants(2, Fraction(2), 4, 4),
    Membership("discrete", 1),
    CigarScan(2, Fraction(-1), Fraction(-1, 2), (Fraction(1),)),
    CigarLimit(Fraction(1), (Fraction(1), Fraction(2)), 0.5),
    EinsteinResult(Fraction(4)),
    NotEinstein(((1,), (1,)), CScalar(1), CScalar(0)),
    BochnerReport(True),
    MODELS["flat"],
    COMMAND,
    build_parser()["analyze"].options["--degree"],
]

# every record type's fields, in order, and the defaults of its last fields
FIELDS = {
    HermMatrix: (("dimension", "den", "nums", "basis"), ()),
    Pivot: (("ordinal", "bareiss", "x", "den"), ()),
    Psd: (("rank", "pivots"), ()),
    NotPsd: (("witness", "value"), ()),
    MatrixWitness: (("basis", "components", "value"), ()),
    HartogsWitness: (("j", "k", "coefficient"), ()),
    ResolvableUpTo: (("degree", "rank"), (None,)),
    CertifiedNotResolvable: (("degree", "witness"), ()),
    Target: (("kind", "b"), (None,)),
    Component: (("radicand", "den", "nums"), ()),
    ImmersionMap: (("components", "target", "degree", "arity"), ()),
    DomainInvariants: (("rank", "a", "genus", "dim"), ()),
    Membership: (("kind", "k"), (None,)),
    CigarScan: (("first_negative_n", "y_value", "coefficient",
                 "coefficients"), ()),
    CigarLimit: (("partial_sum", "enclosure", "float_value"), ()),
    EinsteinResult: (("lam", "flat"), (False,)),
    NotEinstein: (("location", "got", "want"), ()),
    BochnerReport: (("is_bochner", "defect"), (None,)),
    ModelEntry: (("build", "schema", "doc", "profile", "profile_params"), ()),
    Command: (("func", "help", "options", "positional"), ((),)),
    Option: (("kind", "default", "help"), ()),
}


def test_every_record_type_is_listed_once():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 21
    assert {type(r) for r in RECORDS} == set(FIELDS)
    assert isinstance(MODELS["flat"], ModelEntry)
    assert COMMAND.positional == ("file",)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_keep_their_names_and_order(record):
    fields, _ = FIELDS[type(record)]
    assert type(record)._fields == fields
    assert tuple(getattr(record, f) for f in fields) == tuple(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_positional_keyword_and_defaulted_construction_agree(record):
    cls = type(record)
    fields, defaults = FIELDS[cls]
    values = dict(zip(fields, record))
    assert cls(*record) == cls(**values) == record
    assert cls(record[0], **dict(list(values.items())[1:])) == record
    required = len(fields) - len(defaults)
    built = [cls(*record[:required]),
             cls(**dict(list(values.items())[:required]))]
    for fewer in built:
        assert type(fewer) is cls
        assert tuple(fewer) == tuple(record[:required]) + defaults


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_the_tuple_of_their_fields(record):
    plain = tuple(record)
    assert isinstance(record, tuple)
    assert record == plain and plain == record
    try:
        expected = hash(plain)
    except TypeError:  # a dict field: neither one hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert len(record) == len(FIELDS[type(record)][0])
    *head, last = record
    assert (*head, last) == plain
    twin = copy.copy(record)
    assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_wrong_field_list_is_a_type_error(record):
    cls = type(record)
    fields, defaults = FIELDS[cls]
    required = len(fields) - len(defaults)
    with pytest.raises(TypeError):
        cls(*record, None)  # too many
    with pytest.raises(TypeError):
        cls(*record, no_such_field=None)  # unknown
    with pytest.raises(TypeError):
        cls(*record, **{fields[0]: record[0]})  # given twice
    with pytest.raises(TypeError):
        cls(*record[:required - 1])  # missing
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], record[1:])))  # missing by keyword


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
    with pytest.raises(ValueError, match="positive radicand"):
        Component(Fraction(0), *COLUMN)
    with pytest.raises(ValueError, match="rank"):
        DomainInvariants(0, Fraction(2), 4, 4)


def test_validation_also_runs_for_keyword_fields():
    assert Component(radicand=Fraction(3), den=1, nums={}).radicand == 3
    with pytest.raises(ValueError, match="positive radicand"):
        Component(radicand=Fraction(-3), den=1, nums={1: (1, 0)})
    with pytest.raises(ValueError):
        DomainInvariants(rank=1, a=Fraction(-1), genus=2, dim=1)
    assert DomainInvariants(3, Fraction(1), 4, 6).threshold == 1
