"""The engine's ten value records (``orbitcert.record.Record`` subclasses):
equality and hash by value within one class, no equality across classes,
no assignment or deletion, keyword construction and defaults, the
``Name(field=value, ...)`` repr, and ``pickle`` and ``copy.deepcopy`` round
trips that compare equal."""
import copy
import pickle

import pytest

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import rootsys as rs
from orbitcert.lsinduce import GLBlock, LeviDescriptor, Tail
from orbitcert.orbits import DualityRecord, OrbitRecord, Partition
from orbitcert.record import Record

import conftest

E8 = rs.build("E8")
LAMBDA_PRIME = rs.canonicalize(E8, conftest.LAMBDA_PRIME_COORDS)
FLAGSHIP = ct.CertificateInput(E8, conftest.LEVI_A5A1, None, LAMBDA_PRIME, True)
PASSED = ct.CheckResult(ct.PASS)

# record -> (its positional arguments, the same record by keyword,
#            a record of the same class with one field changed)
CASES = {
    "Partition": ((Partition, (3, 1, 0), "so"),
                  dict(parts=[3, 1], kind="so"),
                  Partition((3, 1))),
    "OrbitRecord": ((OrbitRecord, "E8", "A1", "E7", 190),
                    dict(algebra="E8", bala_carter="A1", q_type="E7", dim_z=190),
                    OrbitRecord("E8", "2A1", "B6", 156)),
    "DualityRecord": ((DualityRecord, "F4", "~A1", "F4(a1)"),
                      dict(algebra="F4", e_label="~A1", e_dual_label="F4(a1)"),
                      DualityRecord("F4", "A1+~A1", "F4(a2)")),
    "GLBlock": ((GLBlock, 2, Partition((2,))),
                dict(k=2, d=Partition((2,))),
                GLBlock(2, Partition((1, 1)))),
    "Tail": ((Tail, 2, Partition((1, 1), "so")),
             dict(m=2, c=Partition((1, 1), "so")),
             Tail(3, Partition((3,), "so"))),
    "LeviDescriptor": ((LeviDescriptor, "so", 6, (GLBlock(2, Partition((2,))),),
                        Tail(2, Partition((1, 1), "so"))),
                       dict(kind="so", ambient=6, gl_blocks=(GLBlock(2, Partition((2,))),),
                            tail=Tail(2, Partition((1, 1), "so"))),
                       LeviDescriptor("so", 6, (GLBlock(2, Partition((1, 1))),),
                                      Tail(2, Partition((1, 1), "so")))),
    "IntegralSystem": ((ig.IntegralSystem, LAMBDA_PRIME, (), (), ("A1",), None),
                       dict(lambda_prime=LAMBDA_PRIME, coroots=(), simple_system=(),
                            cartan_type=("A1",), cor68=None),
                       ig.IntegralSystem(LAMBDA_PRIME, (), (), ("A1",), 202)),
    "CheckResult": ((ct.CheckResult, ct.FAIL, (1, 2), "why"),
                    dict(status=ct.FAIL, witness=(1, 2), detail="why"),
                    ct.CheckResult(ct.FAIL, (1, 3), "why")),
    "CertificateInput": ((ct.CertificateInput, E8, conftest.LEVI_A5A1, None, LAMBDA_PRIME, True),
                         dict(model=E8, levi=conftest.LEVI_A5A1, h=None,
                              lambda_prime=LAMBDA_PRIME, principal_in_levi=True),
                         ct.CertificateInput(E8, conftest.LEVI_A5A1, None, LAMBDA_PRIME)),
    "CertificateReport": ((ct.CertificateReport, PASSED, PASSED, PASSED, PASSED, 248, 202, 202,
                           LAMBDA_PRIME),
                          dict(verdict_A=PASSED, verdict_B=PASSED, verdict_C=PASSED,
                               verdict_D=PASSED, dim_g=248, dim_orbit=202, cor68=202,
                               delta_prime=LAMBDA_PRIME),
                          ct.CertificateReport(PASSED, PASSED, PASSED, PASSED, 248, 202, None,
                                               LAMBDA_PRIME)),
}


def make(name):
    cls, *args = CASES[name][0]
    return cls(*args)


def test_every_record_is_covered():
    """The ten records, and no others, are the Record subclasses."""
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_equal_and_hash_by_value(name):
    a, b = make(name), make(name)
    changed = CASES[name][2]
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert type(changed) is type(a) and a != changed and not a == changed
    assert len({a, b, changed}) == 2


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction(name):
    cls = CASES[name][0][0]
    assert cls(**CASES[name][1]) == make(name)


@pytest.mark.parametrize("name", CASES)
def test_no_assignment_or_deletion(name):
    record = make(name)
    before = dict(vars(record))
    for field in [*before, "other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert vars(record) == before


@pytest.mark.parametrize("name", CASES)
def test_repr_names_each_field(name):
    record = make(name)
    fields = ", ".join(f"{key}={value!r}" for key, value in vars(record).items())
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_deepcopy_round_trips(name):
    record = make(name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin is not record
        assert twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(vars(twin))), None)


def test_no_equality_across_classes():
    """Records of two classes with equal fields are unequal: ``__eq__``
    defers to the other operand, and a tuple of the fields is no record."""
    p = Partition((2,))
    assert GLBlock(2, p) != Tail(2, p) and not GLBlock(2, p) == Tail(2, p)
    assert GLBlock(2, p).__eq__(Tail(2, p)) is NotImplemented
    assert list(vars(GLBlock(2, p)).values()) == list(vars(Tail(2, p)).values())
    assert Partition((2,)) != ((2,), "gl") and OrbitRecord("E8", "A1", "E7", 190) != (
        "E8", "A1", "E7", 190)


def test_defaults_and_field_order():
    assert repr(Partition([3, 0, 1])) == "Partition(parts=(3, 1), kind='gl')"
    assert repr(GLBlock(1, Partition((1,)))) == \
        "GLBlock(k=1, d=Partition(parts=(1,), kind='gl'))"
    assert vars(ct.CheckResult(ct.PASS)) == {"status": "pass", "witness": None, "detail": ""}
    assert LeviDescriptor("gl", 2, (GLBlock(2, Partition((2,))),)).tail is None
    report = make("CertificateReport")
    assert report.unverified == ct.certify(FLAGSHIP).unverified and len(report.unverified) == 1
    assert list(vars(report)) == ["verdict_A", "verdict_B", "verdict_C", "verdict_D", "dim_g",
                                  "dim_orbit", "cor68", "delta_prime", "unverified"]
    inp = make("CertificateInput")
    assert list(vars(inp)) == ["model", "levi", "h", "lambda_prime", "principal_in_levi",
                               "h_simple"]
    assert ct.CertificateInput(E8, conftest.LEVI_A5A1, None, LAMBDA_PRIME).principal_in_levi \
        is False


def test_certificate_round_trips_keep_the_interned_model():
    """An unpickled or deep-copied certificate input holds the interned
    model, so it equals its original and certifies to the same report."""
    for twin in (pickle.loads(pickle.dumps(FLAGSHIP)), copy.deepcopy(FLAGSHIP)):
        assert twin.model is E8 and twin == FLAGSHIP
        assert ct.certify(twin) == ct.certify(FLAGSHIP)
    report = ct.certify(FLAGSHIP)
    assert pickle.loads(pickle.dumps(report)).to_json_dict() == report.to_json_dict()
