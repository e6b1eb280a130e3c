"""The package's frozen value types, every one a subclass of core.Value, which
makes it a dataclass.

GeodeticCoord, EcefCoord, PlaneCoord, GeodesicState and GeodesicSolution,
the five value types of the scalar API's hot path, have a hand-written
__init__ that stores the fields straight into the instance __dict__; the
other value types store them by object.__setattr__.  Equality, hashing,
repr and FrozenInstanceError are core.Value's, fields, replace, astuple and
__match_args__ the dataclass machinery's, and copying and pickling
object's; the checks keep their messages.  No value type holds a method
that dataclasses compiled.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from geodkit import (adjust, cli, coords, core, datum, geodesics, heights, orbits, projections,
                     reductions, sphere)
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


# -- every value type -------------------------------------------------------------
MODULES = [adjust, cli, coords, core, datum, geodesics, heights, orbits, projections, reductions,
           sphere]


def subclasses(cls) -> set:
    """Every class below cls, at any depth."""
    return {sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))}


# the package's dataclasses and every value type, a dataclass or not
DATACLASSES = sorted({cls for module in MODULES for cls in vars(module).values()
                      if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                      and cls.__module__.startswith("geodkit.")}
                     | {cls for cls in subclasses(core.Value) if cls.__module__.startswith("geodkit.")},
                     key=lambda cls: cls.__name__)
# the one dataclass that is not a value type: Network.solve moves its points
MUTABLE = {adjust.NetworkPoint}


def instances() -> dict:
    """One valid instance of each value type, and a replace() that changes it."""
    grs80 = core.get_ellipsoid("grs80")
    system = adjust.LinearSystem(np.array([[1.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.5]))
    helmert = datum.Helmert2DParams(10.0, 20.0, 1.0, 0.001)
    return {
        core.Angle: (core.Angle(0.5), {"rad": 0.25}),
        core.Ellipsoid: (grs80, {"a": 6378000.0}),
        **{cls: (cls(*values), {names(cls)[-1]: 7.0}) for cls, values in VALUES.items()},
        coords.LocalFrame: (coords.local_frame(GeodeticCoord(0.5, 0.2)),
                            {"origin": GeodeticCoord(0.4, 0.2)}),
        projections.LambertDef: (projections.named_projection("lambert-nord-tn"), {"k0": 0.9999}),
        projections.UtmDef: (projections.UtmDef.from_zone(grs80, 32), {"false_n": 1e7}),
        adjust.LinearSystem: (system, {"k": np.array([0.0, 2.0, 0.5])}),
        adjust.AdjustmentResult: (adjust.solve_linear(system), {"iterations": 3}),
        adjust.CurvatureCheck: (adjust.CurvatureCheck(np.eye(2), np.zeros((2, 2)), np.eye(2),
                                                      True), {"positive_definite": False}),
        adjust.Observation: (adjust.Observation("leveling", "A", "B", 1.5, dist_km=2.0),
                             {"value": 2.5}),
        adjust.DopResult: (adjust.DopResult(2.0, 1.8, 0.9, 1.1, 1.4), {"vdop": 1.5}),
        datum.BursaWolfParams: (datum.BursaWolfParams(1.0, 2.0, 3.0, 1e-6, 1e-6, 2e-6, 3e-6),
                                {"tx": 4.0}),
        datum.Helmert2DParams: (helmert, {"u": 0.5}),
        datum.DatumShiftResult: (datum.DatumShiftResult(helmert, np.zeros(4), 0.0, np.eye(4)),
                                 {"s2": None}),
        heights.LevelLine: (heights.LevelLine(((980.1, 1.5), (980.2, -0.5)), 0.7, 0.71, 100.0),
                            {"h_mean": 200.0}),
        orbits.OrbitalElements: (orbits.OrbitalElements(26_560e3, 0.01, 0.96, 1.0, 2.0),
                                 {"e": 0.02}),
        reductions.DistanceObservation: (
            reductions.DistanceObservation(1000.0, 10.0, 20.0, "light"), {"wave": "micro"}),
        sphere.SphericalTriangle: (sphere.solve_triangle_sas(1.0, 1.2, 0.9), {"A": 0.5}),
    }


INSTANCES = instances()
VALUE_TYPES = pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
# value types with an array among their compared fields: as a generated
# __hash__ did, hashing raises, and equality holds for the same instance only
ARRAY_TYPES = {coords.LocalFrame, adjust.LinearSystem, adjust.AdjustmentResult,
               adjust.CurvatureCheck, datum.DatumShiftResult}


def same(x, y) -> bool:
    """x and y hold equal values: arrays elementwise, value types field by field."""
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and np.array_equal(x, y)
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(same(getattr(x, f.name), getattr(y, f.name))
                                          for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(map(same, x, y))
    return x == y


def test_every_value_type_has_an_instance():
    assert set(INSTANCES) == set(DATACLASSES) - MUTABLE


@VALUE_TYPES
def test_value_types_compare_hash_and_show_their_fields(cls):
    obj, change = INSTANCES[cls]
    rebuilt, changed = dataclasses.replace(obj), dataclasses.replace(obj, **change)
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}"
                      for f in dataclasses.fields(cls) if f.repr)
    assert repr(obj) == repr(rebuilt) == f"{cls.__qualname__}({shown})"
    assert repr(changed) != repr(obj) and same(rebuilt, obj) and not same(changed, obj)
    assert obj == obj and obj != 1.0 and obj.__eq__(1.0) is NotImplemented
    if cls in ARRAY_TYPES:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert obj == rebuilt and hash(obj) == hash(rebuilt) and obj != changed
        assert {obj: 1}[rebuilt] == 1


@VALUE_TYPES
def test_value_types_replace_copy_and_pickle(cls):
    obj, change = INSTANCES[cls]
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    assert cls.__match_args__ == tuple(init)
    assert same(dataclasses.astuple(obj), dataclasses.astuple(obj))
    changed = dataclasses.replace(obj, **change)
    for f in dataclasses.fields(cls):
        if f.init:
            assert same(getattr(changed, f.name), change.get(f.name, getattr(obj, f.name)))
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is cls and same(other, obj)


@VALUE_TYPES
def test_value_types_are_frozen(cls):
    obj = INSTANCES[cls][0]
    before = repr(obj)
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: cls.__name__)
def test_a_dataclass_compiles_nothing(cls):
    # every method is written in its module, and __init__'s signature is the
    # init fields' (projections._json_fields reads them); keyword-only
    # parameters are not fields
    if cls in MUTABLE:
        assert not issubclass(cls, core.Value)
        return
    assert issubclass(cls, core.Value)
    generated = [name for name, value in vars(cls).items()
                 if inspect.isfunction(value) and value.__code__.co_filename == "<string>"]
    assert generated == []
    params = [p for p in inspect.signature(cls.__init__).parameters.values()
              if p.name != "self" and p.kind is not p.KEYWORD_ONLY]
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls) if f.init]
    assert "__doc__" in vars(cls) and cls.__doc__
    assert not cls.__doc__.startswith(cls.__name__ + "(")


def test_an_ellipsoid_compares_and_shows_name_a_and_f_only():
    grs80 = core.get_ellipsoid("grs80")
    twin = core.Ellipsoid(grs80.name, grs80.a, grs80.f)
    assert twin == grs80 and hash(twin) == hash(grs80) and twin is not grs80
    assert repr(grs80) == f"Ellipsoid(name='GRS 1980', a=6378137.0, f={grs80.f!r})"
    assert core.Ellipsoid("other", grs80.a, grs80.f) != grs80
    assert [f.name for f in dataclasses.fields(core.Ellipsoid) if f.compare] == ["name", "a", "f"]


def test_a_lambert_definition_compares_its_derived_constants_but_does_not_show_them():
    d = projections.named_projection("lambert-nord-tn")
    shown = ["ell", "phi0", "lam0", "k0", "false_e", "false_n", "axis_convention"]
    assert [f.name for f in dataclasses.fields(d) if f.repr] == shown
    assert repr(d).endswith(", false_n=300000.0, axis_convention='stt')")
    assert not any(f" {name}=" in repr(d) for name in ("n", "r0", "l0"))
    assert [f.name for f in dataclasses.fields(d) if f.compare] == [*shown, "n", "r0", "l0"]
    assert d.n == math.sin(d.phi0)
    assert dataclasses.replace(d) == d and hash(dataclasses.replace(d)) == hash(d)


def test_replace_on_an_adjustment_result_keeps_its_system():
    system, result = INSTANCES[adjust.LinearSystem][0], INSTANCES[adjust.AdjustmentResult][0]
    traced = dataclasses.replace(result, iterations=4, trace=[1, {}])
    assert (traced.iterations, traced.trace) == (4, [1, {}]) and traced.system is system
    assert same(traced.x, result.x) and same(traced.v, result.v) and traced.s2 == result.s2
    assert same(traced.cov, result.cov)


def test_a_linear_system_checks_weights_only_when_asked():
    system = INSTANCES[adjust.LinearSystem][0]
    assert same(adjust.LinearSystem(system.a, system.k, 2.0).p, np.full(3, 2.0))
    with pytest.raises(ValueError, match="weights must be > 0"):
        adjust.LinearSystem(system.a, system.k, -np.ones(3))
    kept = np.array([-1.0, 1.0, 1.0])  # as checked by the caller: taken as is
    assert adjust.LinearSystem(system.a, system.k, kept, weights_checked=True).p is kept


def test_subclassing_value_declares_a_value_type():
    class P(core.Value):
        """A point with a tag that is neither compared nor shown."""

        x: float
        y: float = 0.0
        tag: str = dataclasses.field(default="", compare=False, repr=False)

        def __init__(self, x, y=0.0, tag=""):
            core._store(self, x=x, y=y, tag=tag)

    assert dataclasses.is_dataclass(P) and P.__doc__.startswith("A point with a tag")
    assert [(f.name, f.default, f.init, f.compare, f.repr) for f in dataclasses.fields(P)] == [
        ("x", dataclasses.MISSING, True, True, True), ("y", 0.0, True, True, True),
        ("tag", "", True, False, False)]
    assert P.__match_args__ == ("x", "y", "tag")
    p = P(1.0, 2.0, "a")
    changed, retagged = dataclasses.replace(p, y=3.0), dataclasses.replace(p, tag="b")
    assert dataclasses.astuple(p) == (1.0, 2.0, "a") and dataclasses.astuple(changed) == (
        1.0, 3.0, "a")
    assert retagged == p and hash(retagged) == hash(p) and retagged.tag == "b"
    assert changed != p and repr(p) == f"{P.__qualname__}(x=1.0, y=2.0)"
    for name in ("x", "tag", "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, name)
    assert vars(P)["__init__"].__qualname__ == f"{P.__qualname__}.__init__"
    assert not {"__eq__", "__hash__", "__repr__", "__setattr__"} & set(vars(P))
    assert (P.__eq__, P.__hash__, P.__repr__) == (
        core.Value.__eq__, core.Value.__hash__, core.Value.__repr__)
    assert not [value for value in vars(P).values()
                if inspect.isfunction(value) and value.__code__.co_filename == "<string>"]

    class Bare(core.Value):
        """A value type without an __init__ of its own: it gets none."""

        x: float

    assert [f.name for f in dataclasses.fields(Bare)] == ["x"] and "__init__" not in vars(Bare)
