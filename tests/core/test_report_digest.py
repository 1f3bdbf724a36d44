"""The report is derived from the decision columns, and equals the old objects.

The digests were recorded when the match graph still stored one
``MatchDecision`` per comparison, keyed by URI pair.  They cover every
report accessor the match graph has, orientation included: a decision
reported as ``(right, left)`` or a score taken in the other orientation
changes the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Pipeline, PipelineSpec
from repro.core.benefit import BENEFITS

#: sha256 of :func:`report` per (benefit model, update phase); 91 matches
#: in 820 comparisons with the update phase, 84 in 795 without
DIGESTS = {
    ("attribute-completeness", True): "024ae04d2855a4038099a629be0abd304f4d4589a3b28683130d884ae0a1ae5d",
    ("attribute-completeness", False): "1dc98b08bfc5573e19278447964ebbcece29d335891c77e2dba396d9d3d7c24c",
    ("entity-coverage", True): "3f49624abee5d88c0b3848fd062ec9a75e8bb4f8063279a97135599974df8aa7",
    ("entity-coverage", False): "9031507a878ee994febc21edba1383be805c8ebee8c9bbc77d399b344a576790",
    ("quantity", True): "3f49624abee5d88c0b3848fd062ec9a75e8bb4f8063279a97135599974df8aa7",
    ("quantity", False): "9031507a878ee994febc21edba1383be805c8ebee8c9bbc77d399b344a576790",
    ("relationship-completeness", True): "5d6f19a0d94d4fabdf3045e37a2b213e60dc5172e3a8d9f8a8cc7fd4d436a4c9",
    ("relationship-completeness", False): "2f34853248776acabce6dd35ddc36c0e5d926f9b4ca8808e0bf3d508792130d5",
}


def report(graph) -> str:
    matched = sorted(graph.matched_pairs())
    lines = [repr(matched)]
    lines += [repr((d.left, d.right, d.similarity, d.is_match)) for d in graph.matches()]
    lines.append(repr([sorted(cluster) for cluster in graph.clusters()]))
    for uri in sorted({uri for pair in matched for uri in pair}):
        lines.append(repr((uri, sorted(graph.partners(uri)))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("update_phase", [True, False], ids=["update", "static"])
@pytest.mark.parametrize("benefit", sorted(BENEFITS))
def test_report_equals_the_recorded_objects(center_dataset, benefit, update_phase):
    data = center_dataset
    spec = PipelineSpec.from_dict(
        {
            "matching": {
                "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
                "benefit": {"name": benefit},
                "update_phase": update_phase,
            }
        }
    )
    result = Pipeline.run(spec, data.kb1, data.kb2, gold=data.gold)
    graph = result.progressive.match_graph
    assert graph.match_count > 0
    assert report(graph) == DIGESTS[benefit, update_phase]
