"""The five value types of the scalar API's hot path.

GeodeticCoord, EcefCoord, PlaneCoord, GeodesicState and GeodesicSolution are
frozen dataclasses with a hand-written __init__ that stores the fields
straight into the instance __dict__.  Everything else is the dataclass
machinery's: equality, hashing, repr, fields, replace, astuple, copying,
pickling and FrozenInstanceError, and the checks keep their messages.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from geodkit.coords import EcefCoord, GeodeticCoord
from geodkit.geodesics import GeodesicSolution, GeodesicState
from geodkit.projections import PlaneCoord

# the field values of one valid instance of each type
VALUES = {
    GeodeticCoord: (0.5, 1.25, 120.0),
    EcefCoord: (4.3e6, 1.1e6, 4.5e6),
    PlaneCoord: (500123.5, 300456.25),
    GeodesicState: (1.5e6, 0.75, 1.002),
    GeodesicSolution: (0.6, 0.2, 1.0, 1.1, 1234.5),
}
TYPES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


@TYPES
def test_equal_hash_and_repr_of_a_field_wise_rebuild(cls):
    obj = cls(*VALUES[cls])
    rebuilt = cls(**{name: getattr(obj, name) for name in names(cls)})
    assert obj == rebuilt and hash(obj) == hash(rebuilt) and repr(obj) == repr(rebuilt)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names(cls), VALUES[cls]))
    assert repr(obj) == f"{cls.__name__}({shown})"
    assert obj != cls(*VALUES[cls][:-1], VALUES[cls][-1] + 1.0)
    assert vars(obj) == dict(zip(names(cls), VALUES[cls]))


@TYPES
def test_fields_replace_and_astuple(cls):
    obj = cls(*VALUES[cls])
    assert names(cls) == list(inspect.signature(cls).parameters) == list(cls.__match_args__)
    assert dataclasses.astuple(obj) == VALUES[cls]
    changed = dataclasses.replace(obj, **{names(cls)[-1]: 7.0})
    assert dataclasses.astuple(changed) == (*VALUES[cls][:-1], 7.0)
    assert dataclasses.astuple(obj) == VALUES[cls]


@TYPES
def test_copy_and_pickle_round_trip(cls):
    obj = cls(*VALUES[cls])
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is cls and other == obj and vars(other) == vars(obj)


@TYPES
def test_assignment_and_deletion_raise(cls):
    obj = cls(*VALUES[cls])
    for name in names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert dataclasses.astuple(obj) == VALUES[cls]


def test_geodetic_coord_defaults_and_wraps_the_longitude():
    assert GeodeticCoord(0.5, 1.25) == GeodeticCoord(0.5, 1.25, 0.0)
    assert GeodeticCoord(0.5, 7.0).lam == 7.0 - 2.0 * math.pi
    assert GeodeticCoord(0.5, -math.pi).lam == math.pi
    assert dataclasses.replace(GeodeticCoord(0.5, 1.0), lam=7.0).lam == 7.0 - 2.0 * math.pi


@pytest.mark.parametrize("cls, args, message", [
    (GeodeticCoord, (math.nan, 0.0), "latitude nan outside [-pi/2, pi/2]"),
    (GeodeticCoord, (-1.6, 0.0, 5.0), "latitude -1.6 outside [-pi/2, pi/2]"),
    (GeodeticCoord, (0.1, math.inf), "non-finite longitude inf or height 0.0"),
    (GeodeticCoord, (0.1, 0.2, -math.inf), "non-finite longitude 0.2 or height -inf"),
    (GeodeticCoord, (0.1, 0.2, math.nan), "non-finite longitude 0.2 or height nan"),
    (EcefCoord, (1.0, math.inf, 3.0), "non-finite coordinate (1.0, inf, 3.0)"),
    (EcefCoord, (1.0, 2.0, math.nan), "non-finite coordinate (1.0, 2.0, nan)"),
    (PlaneCoord, (math.nan, 2.0), "non-finite plane coordinate (nan, 2.0)"),
    (PlaneCoord, (1.0, -math.inf), "non-finite plane coordinate (1.0, -inf)"),
])
def test_rejections_keep_their_messages(cls, args, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*args)
    assert str(excinfo.value) == message


def test_post_init_runs_once_per_construction(monkeypatch):
    # patched on the class, as the benchmark's tracer counts constructions
    calls = []
    post_init = GeodeticCoord.__post_init__

    def counted(obj):
        calls.append(obj)
        post_init(obj)
    monkeypatch.setattr(GeodeticCoord, "__post_init__", counted)
    g = GeodeticCoord(0.5, 7.0)
    h = dataclasses.replace(g, he=5.0)
    copy.copy(g), pickle.loads(pickle.dumps(g))
    assert calls == [g, h] and g.lam == 7.0 - 2.0 * math.pi
    with pytest.raises(ValueError):
        GeodeticCoord(2.0, 0.0)
    assert len(calls) == 3
