"""The frozen records: construction, immutability, equality, hash, repr, pickling.

Every result and parameter type of the package is a record on one base in
lattice_geometry. Each record here is built from a fixed set of field
values, and its repr is pinned in the frozen-dataclass format,
Name(field=value, ...).
"""

import itertools
import pickle

import pytest

from broadcastdom import (
    CycleLemmaReport,
    GammaResult,
    GridDims,
    Params,
    ReceptionProfile,
    SignedTuple,
    SublatticePattern,
    TorusReport,
    TowerPattern,
    TupleSequence,
    VizingPairReport,
)

RECORDS = [
    (Params, (3, 2), "Params(t=3, r=2)"),
    (GridDims, ((4, 3),), "GridDims(dims=(4, 3))"),
    (SignedTuple, (-1, 2, 3), "SignedTuple(sign=-1, gap=2, magnitude=3)"),
    (TupleSequence, ((SignedTuple(1, 1, 2), SignedTuple(-1, 2, 1)),),
     "TupleSequence(tuples=(SignedTuple(sign=1, gap=1, magnitude=2), "
     "SignedTuple(sign=-1, gap=2, magnitude=1)))"),
    (GammaResult, ("exact", 2, ((0, 0), (1, 1)), 2, 7, 1),
     "GammaResult(status='exact', gamma=2, witness=((0, 0), (1, 1)), "
     "upper_bound=2, nodes=7, components=1)"),
    (CycleLemmaReport, (3, 2, 4, "passed", 2, (0, 2), (0, 2), (3, 2, 3, 2), ""),
     "CycleLemmaReport(t=3, r=2, n=4, status='passed', gamma=2, witness=(0, 2), "
     "canonical_witness=(0, 2), canonical_receptions=(3, 2, 3, 2), note='')"),
    (TorusReport, (3, 2, 4, 2, 2, 4, True, ((0, 0), (2, 2)), True, 2, 2,
                   ((0, 2), (2, 0)), True),
     "TorusReport(t=3, r=2, n=4, gamma_torus=2, gamma_cycle=2, squared_bound=4, "
     "violates_product_bound=True, canonical_witness=((0, 0), (2, 2)), "
     "canonical_dominates=True, min_reception=2, expected_min_reception=2, "
     "min_reception_vertices=((0, 2), (2, 0)), passed=True)"),
    (VizingPairReport, ("P3", "C4", "cap-exceeded", 1, None, None, 1, 2, 2,
                        None, None, None),
     "VizingPairReport(g='P3', h='C4', status='cap-exceeded', gamma_g=1, "
     "gamma_h=None, gamma_product=None, gamma_g_t1=1, gamma_h_t1=2, "
     "gamma_product_t1=2, halved_product_holds_gh=None, "
     "halved_product_holds_hg=None, distance_product_holds=None)"),
    (ReceptionProfile, ("T(2,1)", (2, 2), ((0, (2, 0)), (-1, (0, 2)))),
     "ReceptionProfile(pattern='T(2,1)', receptions=(2, 2), "
     "rows=((0, (2, 0)), (-1, (0, 2))))"),
    (SublatticePattern, (((2, 0), (1, 1)),),
     "SublatticePattern(basis=((2, 0), (1, 1)))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
each_record = pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)


def field_names(cls):
    # A record's fields are its own annotations, in order.
    return list(cls.__annotations__)


class NotedParams(Params):
    note: str


class SameParams(Params):
    pass


@each_record
def test_built_by_position_or_keyword(cls, values, text):
    names = field_names(cls)
    by_position = cls(*values)
    # Keywords in reverse order still store the fields in declaration order.
    by_keyword = cls(**dict(reversed(list(zip(names, values)))))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert list(vars(record).items()) == list(zip(names, values))
        assert record == by_position


@each_record
def test_wrong_arguments_are_type_errors(cls, values, text):
    # Each field once: none missing, unknown, repeated or extra.
    names = field_names(cls)
    message = f"^{cls.__name__}\\(\\) takes {', '.join(names)}, each once; got "
    for args, kwargs in [
        (values[:-1], {}),
        ((), {}),
        ((), dict(zip(names[1:], values[1:]))),
        (values, {"bogus": 1}),
        (values[:-1], {"bogus": values[-1]}),
        (values, {names[0]: values[0]}),
        (values, {names[-1]: values[-1]}),
        ((*values, None), {}),
    ]:
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, kwargs, message", [
    (Params, {"t": 0, "r": 0}, "r must be at least 1"),
    (Params, {"t": 1, "r": 2}, "t must be at least r"),
    (GridDims, {"dims": ()}, "grid needs at least one dimension"),
    (GridDims, {"dims": (2, 0)}, "grid dimensions must be at least 1"),
    (SignedTuple, {"sign": 0, "gap": 1, "magnitude": 1}, "sign must be +1 or -1"),
    (SignedTuple, {"sign": 1, "gap": 0, "magnitude": 1}, "gap must be at least 1"),
    (SignedTuple, {"sign": -1, "gap": 1, "magnitude": 0}, "magnitude must be at least 1"),
    (SublatticePattern, {"basis": ()}, "basis must have at least one column"),
    (SublatticePattern, {"basis": ((1, 2),)}, "basis must be square"),
    (SublatticePattern, {"basis": ((1, 1), (2, 2))}, "basis is singular"),
])
def test_post_init_checks_keep_their_messages(cls, kwargs, message):
    for build in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_post_init_normalizes_by_keyword_too():
    pattern = SublatticePattern(basis=((18, 0), (-13, 1)))
    assert vars(pattern) == {"basis": ((18, 0), (5, 1))}
    assert pattern == TowerPattern(18, 5)


@each_record
def test_assignment_and_deletion_raise(cls, values, text):
    record = cls(*values)
    for name in (field_names(cls)[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(vars(record).values()) == values


def test_records_of_different_types_never_compare_equal():
    records = [cls(*values) for cls, values, _ in RECORDS]
    records += [SameParams(3, 2), TowerPattern(2, 1)]
    for a, b in itertools.combinations(records, 2):
        if {type(a), type(b)} == {SublatticePattern, TowerPattern}:
            continue  # a tower equals the lattice it is
        assert a != b and b != a, (a, b)
        assert not a == b
    assert SameParams(3, 2) == SameParams(3, 2)


@each_record
def test_equality_and_hash_read_the_field_values(cls, values, text):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != values and values != record
    assert hash(record) == hash(cls(*values)) == hash(values)


@each_record
def test_repr_is_the_dataclass_repr(cls, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert eval(repr(record)) == record


def test_subclass_field_goes_last():
    noted = NotedParams(3, 2, "x")
    assert list(vars(noted).items()) == [("t", 3), ("r", 2), ("note", "x")]
    assert noted == NotedParams(t=3, note="x", r=2) != Params(3, 2)
    assert hash(noted) == hash((3, 2, "x"))
    assert repr(noted) == "NotedParams(t=3, r=2, note='x')"
    with pytest.raises(ValueError, match="^t must be at least r$"):
        NotedParams(1, 2, "x")
    with pytest.raises(TypeError, match="^NotedParams\\(\\) takes t, r, note, each once"):
        NotedParams(3, 2)


@pytest.mark.parametrize("record", [cls(*values) for cls, values, _ in RECORDS]
                         + [TowerPattern(18, 5)], ids=IDS + ["TowerPattern"])
def test_pickle_round_trip(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record)
        assert copy == record and hash(copy) == hash(record)
        assert list(vars(copy).items()) == list(vars(record).items())
        assert repr(copy) == repr(record)
