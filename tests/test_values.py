"""The value types: validated immutable tuples on one base.

Each type is built here from good fields and, for the types with field rules,
from each bad field in turn, by every route that builds one.  The messages,
reprs and hashes are those the frozen dataclasses the types replaced gave.
``TrajectoryState``'s own cases are in ``test_boyer.py``."""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from abclab import (
    ABResult,
    BounceConfig,
    BounceResult,
    ChargeConfiguration,
    CircleLoop,
    DetectionProbabilities,
    DomainError,
    GaussianPacket,
    LineCharge,
    NeutronModel,
    OrbitParams,
    PhysicalConstants,
    PointCharge,
    PolylineLoop,
    SolenoidParams,
    TrajectoryState,
    ValidationError,
    Vec3,
    scenario,
    units,
)

SRC = Path(__file__).resolve().parents[1] / "src"

ORIGIN, UNIT_X = Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)
SQUARE = (Vec3(1.0, 1.0, 0.0), Vec3(-1.0, 1.0, 0.0), Vec3(-1.0, -1.0, 0.0), Vec3(1.0, -1.0, 0.0), Vec3(1.0, 1.0, 0.0))
LINE, NEUTRON = LineCharge(0.05), NeutronModel(1.0, 1.0)

# type -> (good fields, repr of the value built from them)
GOOD = {
    Vec3: ((1.0, -2.0, 0.5), "Vec3(x=1.0, y=-2.0, z=0.5)"),
    PhysicalConstants: ((1.0, 2.0, 3.0), "PhysicalConstants(e=1.0, c=2.0, hbar=3.0)"),
    SolenoidParams: ((1.0, 2.0, 3.0, 0.0, 5.0), "SolenoidParams(r=1.0, L=2.0, M=3.0, Q=0.0, v=5.0)"),
    OrbitParams: ((2.0, 0.0), "OrbitParams(R=2.0, u=0.0)"),
    ABResult: (
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        "ABResult(flux=1.0, phase_ab=2.0, delta_v=3.0, delta_x=4.0, lambda_db=5.0, phase_local=6.0)",
    ),
    GaussianPacket: ((0.5, -1.0, 2.0), "GaussianPacket(x0=0.5, p0=-1.0, sigma_x=2.0)"),
    DetectionProbabilities: ((0.25, 0.75), "DetectionProbabilities(p_a=0.25, p_b=0.75)"),
    PointCharge: ((-1.0, UNIT_X), "PointCharge(q=-1.0, pos=Vec3(x=1.0, y=0.0, z=0.0))"),
    ChargeConfiguration: (
        ((PointCharge(1.0, ORIGIN), PointCharge(4.0, UNIT_X)),),
        "ChargeConfiguration(charges=(PointCharge(q=1.0, pos=Vec3(x=0.0, y=0.0, z=0.0)), "
        "PointCharge(q=4.0, pos=Vec3(x=1.0, y=0.0, z=0.0))))",
    ),
    LineCharge: ((0.05,), "LineCharge(lambda_c=0.05)"),
    NeutronModel: ((1.0, -2.0), "NeutronModel(mass=1.0, mu_z=-2.0)"),
    BounceConfig: ((1.5, 3.0, 10, 0.25, "naive-boyer"), "BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=10, dt=0.25, law='naive-boyer')"),
    BounceResult: (
        ("full", (TrajectoryState(0.0, 3.0, 0.5, -2.0, 0.0),), (0.75,), (2.0,), (0.0,), (0.0,), LINE, NEUTRON),
        "BounceResult(law='full', states=(TrajectoryState(t=0.0, x=3.0, y=0.5, vx=-2.0, vy=0.0),), "
        "bounce_times=(0.75,), bounce_kinetic_energies=(2.0,), work_per_leg=(0.0,), ke_gain_per_leg=(0.0,), "
        "line=LineCharge(lambda_c=0.05), neutron=NeutronModel(mass=1.0, mu_z=1.0))",
    ),
    CircleLoop: ((Vec3(0.3, -0.2, 0.0), 1.5), "CircleLoop(center=Vec3(x=0.3, y=-0.2, z=0.0), radius=1.5)"),
    PolylineLoop: (
        (SQUARE,),
        "PolylineLoop(vertices=(Vec3(x=1.0, y=1.0, z=0.0), Vec3(x=-1.0, y=1.0, z=0.0), Vec3(x=-1.0, y=-1.0, z=0.0), "
        "Vec3(x=1.0, y=-1.0, z=0.0), Vec3(x=1.0, y=1.0, z=0.0)))",
    ),
    scenario._Tagged: (("kind", {"a": {}}), "_Tagged(tag='kind', tables={'a': {}})"),
}

NAN, INF = math.nan, math.inf
# (type, {field: bad value}, error, message): one bad field each, as the
# constructor words it
BAD = [
    (PhysicalConstants, {"e": -1.0}, ValidationError, "constant e must be finite and positive, got -1.0"),
    (PhysicalConstants, {"c": NAN}, ValidationError, "constant c must be finite and positive, got nan"),
    (PhysicalConstants, {"hbar": "1"}, ValidationError, "constant hbar must be finite and positive, got '1'"),
    (SolenoidParams, {"r": 0.0}, ValidationError, "r must be positive and finite, got 0.0"),
    (SolenoidParams, {"L": INF}, ValidationError, "L must be positive and finite, got inf"),
    (SolenoidParams, {"M": -1.0}, ValidationError, "M must be positive and finite, got -1.0"),
    (SolenoidParams, {"Q": -1.0}, ValidationError, "Q must be non-negative and finite, got -1.0"),
    (SolenoidParams, {"v": NAN}, ValidationError, "v must be positive and finite, got nan"),
    (OrbitParams, {"R": 0.0}, ValidationError, "R must be positive and finite, got 0.0"),
    (OrbitParams, {"u": -INF}, ValidationError, "u must be non-negative and finite, got -inf"),
    (GaussianPacket, {"sigma_x": 0.0}, ValidationError, "sigma_x must be positive, got 0.0"),
    (
        GaussianPacket, {"sigma_x": 1e-170}, ValidationError,
        "sigma_x^2 = 0.0 at sigma_x = 1e-170: the overlap routes need it normal and 8*sigma_x^2 finite",
    ),
    (GaussianPacket, {"x0": INF}, ValidationError, "packet center and momentum must be finite"),
    (GaussianPacket, {"p0": NAN}, ValidationError, "packet center and momentum must be finite"),
    (PointCharge, {"q": INF}, ValidationError, "charge must be finite, got inf"),
    (
        PointCharge, {"pos": Vec3(NAN, 0.0, 0.0)}, ValidationError,
        "charge position has non-finite components: Vec3(x=nan, y=0.0, z=0.0)",
    ),
    (ChargeConfiguration, {"charges": ()}, ValidationError, "configuration needs at least one charge"),
    (
        ChargeConfiguration, {"charges": (PointCharge(1.0, UNIT_X), PointCharge(-1.0, UNIT_X))}, ValidationError,
        "charges 0 and 1 are closer than 1e-12 cm",
    ),
    (LineCharge, {"lambda_c": NAN}, ValidationError, "lambda_c must be finite, got nan"),
    (NeutronModel, {"mass": 0.0}, ValidationError, "mass must be positive, got 0.0"),
    (NeutronModel, {"mu_z": INF}, ValidationError, "mu_z must be finite, got inf"),
    (BounceConfig, {"mirror_b": 1.5}, ValidationError, "mirror planes must be distinct"),
    (BounceConfig, {"n_bounces": 0}, ValidationError, "n_bounces must be >= 1, got 0"),
    (BounceConfig, {"dt": -0.25}, ValidationError, "dt must be positive, got -0.25"),
    (BounceConfig, {"law": "bare"}, ValidationError, "unknown law 'bare'; expected one of ('full', 'naive-boyer')"),
    (
        CircleLoop, {"center": Vec3(0.0, INF, 0.0)}, ValidationError,
        "center has non-finite components: Vec3(x=0.0, y=inf, z=0.0)",
    ),
    (CircleLoop, {"radius": 0.0}, ValidationError, "radius must be positive, got 0.0"),
    (PolylineLoop, {"vertices": SQUARE[:3]}, ValidationError, "a closed polyline needs at least 3 distinct vertices"),
    (PolylineLoop, {"vertices": SQUARE[:4] + (UNIT_X,)}, DomainError, "open path: polyline must end at its starting vertex"),
    (
        PolylineLoop, {"vertices": (Vec3(NAN, 0.0, 0.0), *SQUARE[1:])}, ValidationError,
        "vertex has non-finite components: Vec3(x=nan, y=0.0, z=0.0)",
    ),
]


def _fields(cls, **bad) -> tuple:
    return tuple(bad.get(name, value) for name, value in zip(cls._fields, GOOD[cls][0]))


def _forged(cls, fields):
    # a value that skipped validation, as the stock NamedTuple _make builds one
    return tuple.__new__(cls, fields)


BUILDERS = {
    "positional": lambda cls, fields: cls(*fields),
    "keyword": lambda cls, fields: cls(**dict(zip(cls._fields, fields))),
    "_make": lambda cls, fields: cls._make(iter(fields)),
    "_replace": lambda cls, fields: cls(*GOOD[cls][0])._replace(**dict(zip(cls._fields, fields))),
    "copy": lambda cls, fields: copy.copy(_forged(cls, fields)),
    "deepcopy": lambda cls, fields: copy.deepcopy(_forged(cls, fields)),
    **{
        f"pickle{protocol}": lambda cls, fields, protocol=protocol: pickle.loads(pickle.dumps(_forged(cls, fields), protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
@pytest.mark.parametrize("cls", GOOD, ids=lambda cls: cls.__name__)
def test_every_way_of_building_a_value_keeps_its_fields(cls, build):
    fields = GOOD[cls][0]
    value = build(cls, fields)
    assert type(value) is cls and value == fields and tuple(value) == fields


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
@pytest.mark.parametrize(
    "cls, bad, error, message", BAD, ids=[f"{cls.__name__}-{next(iter(bad))}-{i}" for i, (cls, bad, _, _) in enumerate(BAD)]
)
def test_every_way_of_building_a_value_validates(cls, bad, error, message, build):
    with pytest.raises(error) as caught:
        build(cls, _fields(cls, **bad))
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("cls", GOOD, ids=lambda cls: cls.__name__)
def test_value_is_an_immutable_tuple_that_reprs_and_hashes_as_before(cls):
    # the repr and the hash of the tuple of fields are those the frozen
    # dataclass it replaced gave; a _Tagged holds a dict, so it has no hash
    fields, text = GOOD[cls]
    value = cls(*fields)
    assert isinstance(value, units._ValueTuple) and isinstance(value, tuple)
    assert repr(value) == text
    if cls is not scenario._Tagged:
        assert hash(value) == hash(fields) == hash(cls(*fields))
    assert value == cls(*fields) == fields
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    assert not hasattr(value, "__dict__") and value == fields


def test_replace_and_unpacking_read_the_fields():
    k = PhysicalConstants(1.0, 2.0, 3.0)
    assert k._replace(e=5.0) == (5.0, 2.0, 3.0) and k.h == 2.0 * math.pi * 3.0
    e, c, hbar = k
    assert (e, c, hbar) == (k.e, k.c, k.hbar)
    # a configuration counts its charges in its one field
    cfg = ChargeConfiguration(GOOD[ChargeConfiguration][0][0])
    assert len(cfg.charges) == 2 and len(cfg) == 1


def test_every_exported_value_type_is_on_the_one_base():
    import abclab

    values = {v for v in vars(abclab).values() if isinstance(v, type) and issubclass(v, tuple)}
    assert values == set(GOOD) - {scenario._Tagged} | {TrajectoryState}
    for cls in (*values, scenario._Tagged):
        assert issubclass(cls, units._ValueTuple) and cls.__slots__ == ()
        # the base's validating _make and __reduce__, not the stock ones
        assert cls._make.__func__ is units._ValueTuple._make.__func__
        assert cls.__reduce__ is units._ValueTuple.__reduce__


def test_a_fresh_import_of_the_cli_builds_no_dataclass_but_the_report_records():
    # the value types are tuples, so that no class is created by dataclass()
    # at import; the two mutable report records stay dataclasses
    probe = (
        "import dataclasses, sys, abclab.cli\n"
        "found = {v for name, m in list(sys.modules.items()) if name.split('.')[0] == 'abclab'\n"
        "         for v in vars(m).values() if isinstance(v, type) and dataclasses.is_dataclass(v)}\n"
        "print(sorted(v.__qualname__ for v in found))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "['CheckRow', 'RunReport']\n"
    assert dataclasses.is_dataclass(scenario.Scenario) and not dataclasses.is_dataclass(Vec3)
