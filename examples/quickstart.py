#!/usr/bin/env python3
"""Quickstart: resolve two restaurant directories with MinoanER.

Loads the embedded restaurants corpus (two KBs with different schemas and
abbreviation conventions), runs the full pipeline — token blocking,
purging + filtering, ARCS/CNP meta-blocking, progressive matching — and
evaluates against the gold standard.

Run:  python examples/quickstart.py
"""

from repro import Pipeline, PipelineSpec, evaluate_matches, format_table, load_restaurants


def main() -> None:
    kb_a, kb_b, gold = load_restaurants()
    print(f"KB A: {len(kb_a)} descriptions   KB B: {len(kb_b)} descriptions")
    print(f"Gold matches: {len(gold)}\n")

    spec = PipelineSpec.from_dict(
        {
            "matching": {
                "budget": 300,  # pay-as-you-go: at most 300 comparisons
                "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
                "benefit": "quantity",
            }
        }
    )
    result = Pipeline.run(spec, kb_a, kb_b, gold=gold)

    print(format_table(
        [dict(stage=k, value=v) for k, v in result.summary().items()],
        title="Pipeline stages",
    ))

    quality = evaluate_matches(result.matched_pairs(), gold)
    print()
    print(format_table([quality.as_row()], title="Matching quality"))

    print("\nResolved pairs:")
    for left, right in sorted(result.matched_pairs()):
        name_a = kb_a[left].first("http://kba.example.org/ontology/name")
        name_b = kb_b[right].first("http://kbb.example.org/schema/title")
        print(f"  {name_a!r:40} <-> {name_b!r}")


if __name__ == "__main__":
    main()
