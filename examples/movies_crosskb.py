#!/usr/bin/env python3
"""Cross-KB movie resolution with neighbour evidence.

The movies corpus pairs a DBpedia-like KB (name-bearing URIs, rich
attributes) with a Freebase-like KB (opaque ``/m/…`` ids, sparse labels,
abbreviated titles).  Films reference their directors inside each KB, so
this is the scenario MinoanER's update phase was designed for: a director
match is similarity evidence for the films citing them — including films
like "Crimson Meridian", whose KB-B label is just "Meridian".

The script contrasts the static schedule (update phase off) with full
MinoanER (update phase on + neighbour-aware matching) and shows which
matches only the iterative strategy recovers.

Run:  python examples/movies_crosskb.py
"""

from repro import Pipeline, PipelineSpec, evaluate_matches, format_table, load_movies


def run(update_phase: bool):
    kb_a, kb_b, gold = load_movies()
    spec = PipelineSpec.from_dict(
        {
            "matching": {
                "budget": 400,
                "matcher": {"name": "threshold", "params": {"threshold": 0.4}},
                "update_phase": update_phase,
                "benefit": (
                    "relationship-completeness" if update_phase else "quantity"
                ),
            }
        }
    )
    return Pipeline.run(spec, kb_a, kb_b, gold=gold), gold


def main() -> None:
    kb_a, kb_b, gold = load_movies()
    print(f"Movies corpus: {len(kb_a)} + {len(kb_b)} descriptions, {len(gold)} gold matches\n")

    static_result, _ = run(update_phase=False)
    dynamic_result, _ = run(update_phase=True)

    rows = []
    for label, result in (("static", static_result), ("dynamic", dynamic_result)):
        quality = evaluate_matches(result.matched_pairs(), gold)
        rows.append(
            {
                "strategy": label,
                "comparisons": str(result.progressive.comparisons_executed),
                "matches": str(result.progressive.match_graph.match_count),
                "discovered": str(result.progressive.discovered_matches),
                **quality.as_row(),
            }
        )
    print(format_table(rows, title="Static vs dynamic scheduling", first_column="strategy"))

    recovered = dynamic_result.matched_pairs() - static_result.matched_pairs()
    if recovered:
        print("\nMatches only the update phase recovered:")
        for left, right in sorted(recovered):
            label_a = kb_a[left].first("http://kba.example.org/ontology/title") or kb_a[
                left
            ].first("http://kba.example.org/ontology/name")
            label_b = kb_b[right].first("http://kbb.example.org/schema/label")
            marker = "GOLD" if gold.is_match(left, right) else "    "
            print(f"  [{marker}] {label_a!r} <-> {label_b!r}")
    else:
        print("\n(no additional matches this run)")


if __name__ == "__main__":
    main()
