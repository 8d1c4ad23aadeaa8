"""The record types of the engine path: how each is built, shown,
compared and protected.

These types are tuple records (namedtuple subclasses) or slotted
classes, so set-up imports no ``dataclasses``; their public behaviour is
the one their dataclass versions had.
"""

import copy

import pytest

from afdi.engine import EngineConfig, LoopRule, PreprocessPolicy, VirtualSensor
from afdi.nbc import AttributeSchema, LabeledExample, NbcModel
from afdi.states import ComponentId, DiscretizationSpec, StateDistribution, StateVector

CPU = ComponentId("cpu")
SCHEMA = AttributeSchema(attributes=(("x", 2),), classes=("a", "b"))
UNIFORM = (((0.5, 0.5), (0.5, 0.5)),)

# the smallest config the default loop rule accepts
_KEYS = ("vm.cpu", "host.cpu", "vm.throughput")
_COMPONENTS = tuple(map(ComponentId.parse, _KEYS))
_CONFIG_ARGS = dict(
    specs={c.key: DiscretizationSpec(c, (0.0, 25.0, 50.0, 75.0, 100.0)) for c in _COMPONENTS},
    severity_components=_COMPONENTS[:1],
    model=NbcModel(
        AttributeSchema(tuple((key, 4) for key in _KEYS), ("normal", "endless-loop")),
        (0.5, 0.5),
        (((0.25,) * 4,) * 2,) * 3,
        1.0,
    ),
)

# type, constructor keywords, the defaults of the other fields, and
# whether the record is immutable and hashable
RECORDS = [
    (ComponentId, dict(name="cpu"), dict(level="vm"), True),
    (StateVector, dict(assignments=((CPU, 1),)), {}, True),
    (StateDistribution, dict(probs=(0.25, 0.75)), {}, True),
    (DiscretizationSpec, dict(component=CPU, boundaries=(0.0, 50.0, 100.0)), {}, True),
    (AttributeSchema, dict(attributes=(("x", 2),), classes=("a", "b")), {}, True),
    (LabeledExample, dict(features=(1, None), label=0), {}, True),
    (NbcModel, dict(schema=SCHEMA, priors=(0.5, 0.5), cond=UNIFORM, alpha=1.0), {}, True),
    (PreprocessPolicy, {}, dict(window=11, z_cutoff=3.0), True),
    (LoopRule, {}, dict(k=3, vm_cpu="vm.cpu", host_cpu="host.cpu", throughput="vm.throughput",
                        cause="endless-loop"), True),
    (VirtualSensor, dict(sensor_id="s"), dict(active=True, frequency_ms=1000), True),
    (EngineConfig, _CONFIG_ARGS, dict(severity_mapping=(0, 0, 1, 2), loop_rule=LoopRule(),
                                      preprocess=PreprocessPolicy()), False),
]


@pytest.mark.parametrize("cls, kwargs, defaults, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_types_keep_their_constructor_repr_equality_and_immutability(cls, kwargs, defaults, frozen):
    obj = cls(**kwargs)
    fields = {**kwargs, **defaults}
    assert {name: getattr(obj, name) for name in fields} == fields
    # the text a dataclass repr gives: every field, in order
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert cls(**kwargs) == obj
    assert copy.deepcopy(obj) == obj
    first = next(iter(fields))
    if frozen:
        assert hash(cls(**kwargs)) == hash(obj)
        with pytest.raises(AttributeError):
            setattr(obj, first, getattr(obj, first))
    else:
        assert type(obj).__hash__ is None
        setattr(obj, first, getattr(obj, first))
    if isinstance(obj, tuple):
        assert obj == tuple(fields.values())


def test_a_virtual_sensor_takes_no_counter_at_construction():
    with pytest.raises(TypeError):
        VirtualSensor("s", deliveries=3)


def test_engine_config_names_its_windowed_metrics_once():
    config = EngineConfig(**_CONFIG_ARGS)
    specs = _CONFIG_ARGS["specs"]
    assert config.window_specs == (specs["vm.cpu"], specs["host.cpu"], specs["vm.throughput"])
    assert config.window_specs is config.window_specs
