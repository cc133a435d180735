"""The library's result records behave as ``dataclasses`` records do.

galbim builds its records on ``fieldops._Record`` and never imports
``dataclasses``; here ``dataclasses.make_dataclass`` builds a twin of
every record class, with the same fields, defaults, ``eq`` and
``frozen``, as the oracle.  Record and twin must accept and reject the
same constructor calls and agree on ``==``/``!=``, on whether ``hash``
raises, on assignment to a frozen record and on ``repr``."""

import dataclasses

import pytest

from galbim import bimod, coact, fieldops
from galbim.errors import DegreeBound

# (eq, frozen) of each record class, as it would be passed to @dataclass
RECORDS = {
    fieldops.Subfield: (True, False),
    fieldops.SplittingData: (True, False),
    bimod.GrFactor: (True, False),
    bimod.BimoduleAnalysis: (True, False),
    bimod.GaloisVerdict: (True, False),
    bimod.Classification: (True, False),
    bimod.SplitData: (True, False),
    bimod.ProbeResult: (True, False),
    coact.FieldCoaction: (False, False),
    coact.FiniteCoaction: (False, False),
    coact.SubstitutionAction: (False, False),
    coact.CoactionReport: (True, True),
    coact.PsiXiTauReport: (True, True),
    coact.IntegralityCertificate: (True, True),
    coact.EndomorphismCertificate: (True, True),
    coact.DivisibilityVerdict: (True, True),
    coact.SemisimpleBound: (True, True),
    coact.TruncatedInvariants: (True, True),
}
IDS = [cls.__name__ for cls in RECORDS]
MISSING = object()


def _spec(cls):
    """(name, default or MISSING) of each field of ``cls``, in order."""
    return [(name, vars(cls).get(name, MISSING))
            for name in cls.__annotations__]


def _twin(cls):
    eq, frozen = RECORDS[cls]
    fields = []
    for name, default in _spec(cls):
        if name.startswith("_"):
            field = (dataclasses.field(default_factory=list, init=False)
                     if default == [] else
                     dataclasses.field(default=default, init=False))
        elif default is MISSING:
            field = dataclasses.field()
        else:
            field = dataclasses.field(default=default)
        fields.append((name, object, field))
    return dataclasses.make_dataclass(cls.__name__, fields, eq=eq,
                                      frozen=frozen)


def _args(cls, tag=""):
    return ["%s%s" % (name, tag) for name, _ in _spec(cls)
            if not name.startswith("_")]


def _outcome(make, *args, **kwargs):
    try:
        return repr(make(*args, **kwargs))
    except TypeError:
        return TypeError


def test_every_record_class_is_listed():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(fieldops._Record)) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_constructor_calls_match_dataclasses(cls):
    twin = _twin(cls)
    args = _args(cls)
    required = [name for name, default in _spec(cls)
                if default is MISSING and not name.startswith("_")]
    caches = [name for name, _ in _spec(cls) if name.startswith("_")]
    calls = [
        (args, {}),
        ([], dict(zip(args, args))),
        (args[:1], dict(zip(args[1:], args[1:]))),
        (args[:len(required)], {}),
        (args[:len(required) - 1], {}),
        (args + ["extra"], {}),
        (args, {"unknown": 1}),
        (args, {args[0]: args[0]}),
        (args[1:], {}),
        ([], dict(zip(args[1:], args[1:]))),
    ] + [(args, {name: None}) for name in caches]
    for positional, keywords in calls:
        assert _outcome(cls, *positional, **keywords) == \
            _outcome(twin, *positional, **keywords), (positional, keywords)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_hashing_and_assignment_match_dataclasses(cls):
    eq, frozen = RECORDS[cls]
    record = [cls(*_args(cls)), cls(*_args(cls)), cls(*_args(cls, "'"))]
    twin_cls = _twin(cls)
    twin = [twin_cls(*_args(cls)), twin_cls(*_args(cls)),
            twin_cls(*_args(cls, "'"))]

    def relations(a, b, c):
        return [a == b, a != b, a == c, a != c, a == a, a != a, a == "x"]

    assert relations(*record) == relations(*twin)

    def hashable(x):
        try:
            hash(x)
        except TypeError:
            return False
        return True

    assert hashable(record[0]) == hashable(twin[0])
    if frozen:
        assert hash(record[0]) == hash(record[1])
    elif not eq:
        assert hash(record[0]) != hash(record[1])
    name = _args(cls)[0]
    for x in (record[0], twin[0]):
        if frozen:
            with pytest.raises(AttributeError):
                setattr(x, name, "new")
            with pytest.raises(AttributeError):
                delattr(x, name)
        else:
            setattr(x, name, "new")
            assert getattr(x, name) == "new"


def test_records_of_two_classes_are_never_equal():
    # as a dataclass's __eq__, the fields are compared only within a class
    pairs = [(a, b) for a in RECORDS for b in RECORDS
             if a is not b and len(_args(a)) == len(_args(b))]
    assert pairs
    for a, b in pairs:
        x, y = a(*_args(a)), b(*_args(a))
        assert not x == y and x != y


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_matches_dataclasses(cls):
    assert repr(cls(*_args(cls))) == repr(_twin(cls)(*_args(cls)))


def test_field_coactions_never_share_their_powers():
    a = coact.FieldCoaction(None, None, {})
    b = coact.FieldCoaction(None, None, {})
    assert a._powers == b._powers == []
    assert a._powers is not b._powers
    a._powers.append(1)
    assert b._powers == [] and coact.FieldCoaction._powers == []
    assert a._bimodule is None and a._invariants is None


def test_verdict_analysis_defaults_to_none():
    err = DegreeBound("over the cap")
    verdict = bimod.GaloisVerdict(None, None, err)
    assert verdict.analysis is None
    assert not verdict.decided
