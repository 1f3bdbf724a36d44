"""The unified public facade: declarative specs over every backend.

One import gives the whole platform a single, serializable surface::

    from repro.api import Pipeline, PipelineSpec

    spec = PipelineSpec.from_dict(
        {
            "weighting": "ARCS",
            "pruning": "CNP",
            "matching": {"matcher": {"name": "threshold",
                                     "params": {"threshold": 0.35}}},
            "backend": {"kind": "sequential"},
        }
    )
    report = Pipeline.run(spec, kb1, kb2, gold=gold)
    print(report.summary())

The same spec executes on the sequential batch path, the parallel
MapReduce jobs, or the streaming resolver — with bit-identical
pruned edges and match decisions — by changing only the ``backend``
node.  Components (blockers, weighting schemes, pruners, matchers,
budget policies, workload scenarios, sample corpora) resolve through
the :data:`~repro.api.registry.registry`; third parties plug in with
the :func:`~repro.api.registry.register` decorator.
"""

from repro.api.registry import (
    ComponentInfo,
    InvalidParamsError,
    ParamInfo,
    Registry,
    UnknownComponentError,
    register,
    registry,
)
from repro.api.spec import (
    BackendSpec,
    BlockingSpec,
    ComponentSpec,
    DataSpec,
    EvaluationSpec,
    MatchingSpec,
    PipelineSpec,
    SpecError,
)
from repro.api.runner import Pipeline, RunReport

__all__ = [
    "ComponentInfo",
    "ParamInfo",
    "Registry",
    "registry",
    "register",
    "UnknownComponentError",
    "InvalidParamsError",
    "SpecError",
    "ComponentSpec",
    "BlockingSpec",
    "MatchingSpec",
    "EvaluationSpec",
    "BackendSpec",
    "DataSpec",
    "PipelineSpec",
    "Pipeline",
    "RunReport",
]
