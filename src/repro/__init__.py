"""MinoanER reproduction: progressive entity resolution in the Web of Data.

A from-scratch Python implementation of the platform described in
V. Efthymiou, K. Stefanidis, V. Christophides, *"Minoan ER: Progressive
Entity Resolution in the Web of Data"* (EDBT 2016), together with every
substrate the platform depends on: an RDF stack, schema-agnostic blocking
and meta-blocking, a simulated MapReduce cluster for the parallel
algorithms, matching, the progressive scheduling/update core with
quality-aware benefit models, the baselines it is evaluated against, a
LOD-cloud workload synthesizer and the evaluation harness.

Quickstart — one spec, any backend::

    from repro import Pipeline, PipelineSpec, load_movies

    kb_a, kb_b, gold = load_movies()
    spec = PipelineSpec.from_dict({
        "weighting": "ARCS", "pruning": "CNP",
        "matching": {"budget": 500, "benefit": "entity-coverage"},
    })
    report = Pipeline.run(spec, kb_a, kb_b, gold=gold)
    print(report.summary())
"""

from repro.model import (
    EntityDescription,
    EntityCollection,
    EntityInterner,
    EntityIdOverflowError,
    Tokenizer,
)
from repro.rdf import (
    parse_ntriples,
    load_collection,
)
from repro.blocking import (
    Block,
    BlockCollection,
    TokenBlocking,
    PrefixInfixSuffixBlocking,
    AttributeClusteringBlocking,
    BlockPurging,
    BlockFiltering,
    QGramsBlocking,
)
from repro.metablocking import BlockingGraph
from repro.matching import (
    SimilarityIndex,
    ThresholdMatcher,
    OracleMatcher,
    MatchGraph,
)
from repro.mapreduce import MapReduceEngine, parallel_token_blocking
from repro.core import (
    CostBudget,
    ProgressiveER,
    ProgressiveSession,
    NeighborEvidencePropagator,
    NeighborAwareMatcher,
    static_strategy,
    dynamic_strategy,
)
from repro.datasets import (
    GoldStandard,
    SyntheticConfig,
    synthesize_pair,
    synthesize_dirty,
    load_restaurants,
    load_movies,
    CENTER_PROFILE,
    PERIPHERY_PROFILE,
)
from repro.evaluation import (
    evaluate_blocks,
    evaluate_matches,
    bcubed,
    ProgressiveCurve,
    format_table,
    format_series,
)
from repro.baselines import (
    random_order_baseline,
    oracle_order_baseline,
    batch_baseline,
    AltowimProgressiveER,
)
from repro.stream import (
    StreamingEntityStore,
    StreamResolver,
    WorkloadDriver,
)

# The declarative facade (imported last: it resolves the components
# registered by the subpackages above into the registry).
from repro.api import (
    Pipeline,
    PipelineSpec,
    RunReport,
    register,
    registry,
)

__version__ = "4.0.0"

__all__ = [
    "Pipeline",
    "PipelineSpec",
    "RunReport",
    "registry",
    "register",
    "EntityDescription",
    "EntityCollection",
    "EntityInterner",
    "EntityIdOverflowError",
    "Tokenizer",
    "parse_ntriples",
    "load_collection",
    "Block",
    "BlockCollection",
    "TokenBlocking",
    "PrefixInfixSuffixBlocking",
    "AttributeClusteringBlocking",
    "BlockPurging",
    "BlockFiltering",
    "BlockingGraph",
    "SimilarityIndex",
    "ThresholdMatcher",
    "MatchGraph",
    "MapReduceEngine",
    "parallel_token_blocking",
    "CostBudget",
    "ProgressiveER",
    "StreamingEntityStore",
    "StreamResolver",
    "WorkloadDriver",
    "NeighborEvidencePropagator",
    "static_strategy",
    "dynamic_strategy",
    "GoldStandard",
    "SyntheticConfig",
    "synthesize_pair",
    "synthesize_dirty",
    "load_restaurants",
    "load_movies",
    "CENTER_PROFILE",
    "PERIPHERY_PROFILE",
    "evaluate_blocks",
    "evaluate_matches",
    "bcubed",
    "ProgressiveCurve",
    "ProgressiveSession",
    "OracleMatcher",
    "NeighborAwareMatcher",
    "QGramsBlocking",
    "format_table",
    "format_series",
    "random_order_baseline",
    "oracle_order_baseline",
    "batch_baseline",
    "AltowimProgressiveER",
]
