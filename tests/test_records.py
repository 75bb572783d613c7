"""The package's records are immutable named tuples: every field is read
only, copies are made with _replace, and a record that memoizes a verdict
keeps it per instance."""

import inspect
import itertools
from fractions import Fraction as F

import pytest

import rnlab
from rnlab import bounds, certifier, decomposer, hensel, pade, rigor, survey

RECORDS = [
    hensel.LiftState,
    pade.PadeSystem, pade.BoundConstants,
    rigor.PowProd,
    certifier.VariantConstants, certifier.HugeSolutionCertificate,
    certifier.MaxSigmaResult,
    decomposer.AuditConstants, decomposer.Decomposition,
    decomposer.AuditReport,
    survey.SurveyRecord, survey.SurveyReport,
    bounds.QBoundReport, bounds.EBoundReport, bounds.KernelReport,
    bounds.FactorialBoundReport,
]

# the records that memoize a verdict in their instance dict
MEMOIZING = (pade.PadeSystem, certifier.VariantConstants)


def _modules():
    return [module for name, module in vars(rnlab).items()
            if inspect.ismodule(module) and name != "_sys"] + [bounds]


def test_every_record_is_listed():
    found = {cls for module in _modules() for cls in vars(module).values()
             if inspect.isclass(cls) and issubclass(cls, tuple)
             and hasattr(cls, "_fields") and not cls.__name__.startswith("_")}
    assert found == set(RECORDS)


def _instance(cls):
    """An instance of cls with placeholder fields, built as _replace
    builds its copies."""
    return cls._make(itertools.islice(itertools.count(1), len(cls._fields)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_field_is_read_only(cls):
    record = _instance(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(record) == tuple(range(1, len(cls._fields) + 1))
    if cls in MEMOIZING:
        with pytest.raises(AttributeError):
            record.extra = 0
    else:
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_copies_into_the_same_class(cls):
    record = _instance(cls)
    name = cls._fields[0]
    copy = record._replace(**{name: -1})
    assert type(copy) is cls and getattr(copy, name) == -1
    assert copy[1:] == record[1:] and getattr(record, name) == 1


def test_constructors_keep_their_defaults():
    assert pade.BOUNDS == pade.BoundConstants() and \
        pade.BOUNDS.q_base == F("89.3445")
    assert decomposer.AUDIT_CONSTANTS.nine_tenths == F(9, 10)
    assert rigor.PowProd(F(2)).factors == ()
    cert = certifier.certify(76, 101, 1015, 3, F(1, 10))
    assert cert.notes == () and cert.certified
    state = hensel.LiftState(p=101, D=76, n=1, min_roots=(5,))
    assert state == (101, 76, 1, (5,)) and state.verify() == (1,)


def test_replace_drops_the_memo():
    sys = pade.build_diagonal(3, 1)
    assert sys.identity_holds() and "_identity" in vars(sys)
    bent = sys._replace(P=sys.P + pade.IntPolynomial((1,)))
    assert "_identity" not in vars(bent) and not bent.identity_holds()
    var = certifier.VARIANTS["5j"]
    assert var._rational_failures == (None, None)
    assert "_rational_failures" in vars(var)
    assert "_rational_failures" not in vars(var._replace())
