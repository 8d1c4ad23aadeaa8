"""Fault diagnosis for virtualized hosts.

Telemetry windows are discretized into multi-state levels, gated
through a multi-valued decision diagram severity model, and diagnosed
with a Naive Bayes classifier; an exact Bayesian-network engine answers
the same questions by bucket elimination for validation, and a
deterministic simulator produces labeled fault-injection datasets.

``import afdi`` loads no submodule.  Each public name below is imported
from its submodule on first use, so a process pays only for the parts
it runs: the engine alone never loads the network, simulator or
evaluation code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in ``__all__`` order
_EXPORTS = {
    **dict.fromkeys(
        ("ComponentId", "DiscretizationSpec", "MetricSample", "StateDistribution", "StateVector", "discretize"),
        "states",
    ),
    **dict.fromkeys(("Mdd", "build_from_structure_function", "build_max_severity"), "mdd"),
    **dict.fromkeys(("AttributeSchema", "LabeledExample", "NbcModel", "classify", "posterior", "train"), "nbc"),
    **dict.fromkeys(
        ("DiscreteBayesNet", "joint_probability", "load_net", "marginal", "posterior_given_evidence"),
        "bayesnet",
    ),
    **dict.fromkeys(("ConfusionMatrix", "accuracy", "false_alarm_rate", "precision", "recall"), "evaluation"),
    **dict.fromkeys(("Alarm", "Engine", "EngineConfig", "PreprocessPolicy", "VirtualSensor", "preprocess"), "engine"),
    **dict.fromkeys(("FaultInjection", "Scenario", "generate", "to_training_set"), "simulator"),
}

__all__ = [*_EXPORTS, "__version__"]

_SUBMODULES = {*_EXPORTS.values(), "cli"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # bound here too, so later lookups of the name skip this function
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
