"""Fault diagnosis for virtualized hosts.

Telemetry windows are discretized into multi-state levels, gated
through a multi-valued decision diagram severity model, and diagnosed
with a Naive Bayes classifier; an exact Bayesian-network engine answers
the same questions by bucket elimination for validation, and a
deterministic simulator produces labeled fault-injection datasets.
"""

from .states import (
    ComponentId,
    DiscretizationSpec,
    MetricSample,
    StateDistribution,
    StateVector,
    discretize,
)
from .mdd import Mdd, build_from_structure_function, build_max_severity
from .nbc import AttributeSchema, LabeledExample, NbcModel, classify, posterior, train
from .bayesnet import (
    DiscreteBayesNet,
    joint_probability,
    load_net,
    marginal,
    posterior_given_evidence,
)
from .evaluation import ConfusionMatrix, accuracy, false_alarm_rate, precision, recall
from .engine import Alarm, Engine, EngineConfig, PreprocessPolicy, VirtualSensor, preprocess
from .simulator import FaultInjection, Scenario, generate, to_training_set

__version__ = "0.1.0"

__all__ = [
    "ComponentId",
    "DiscretizationSpec",
    "MetricSample",
    "StateDistribution",
    "StateVector",
    "discretize",
    "Mdd",
    "build_from_structure_function",
    "build_max_severity",
    "AttributeSchema",
    "LabeledExample",
    "NbcModel",
    "classify",
    "posterior",
    "train",
    "DiscreteBayesNet",
    "joint_probability",
    "load_net",
    "marginal",
    "posterior_given_evidence",
    "ConfusionMatrix",
    "accuracy",
    "false_alarm_rate",
    "precision",
    "recall",
    "Alarm",
    "Engine",
    "EngineConfig",
    "PreprocessPolicy",
    "VirtualSensor",
    "preprocess",
    "FaultInjection",
    "Scenario",
    "generate",
    "to_training_set",
    "__version__",
]
