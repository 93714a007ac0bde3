"""Interactive resolution on the synthetic Person data, step by step.

This example shows what the framework of Fig. 4 actually does round by round
for a single Person entity: the validity check, the automatically deduced true
values, the suggestion handed to the user, and the effect of each answer.  The
"user" is a simulated oracle reading the generator's ground truth, exactly as
in the paper's experiments.

Run with:  python examples/person_interactive.py
(``REPRO_SMOKE=1`` shrinks the dataset so CI can exercise the script quickly.)
"""

from __future__ import annotations

import os

from repro.datasets import PersonConfig, generate_person_dataset
from repro.evaluation import GroundTruthOracle
from repro.resolution import ConflictResolver, ResolverOptions


class VerboseOracle:
    """Wraps the ground-truth oracle and narrates every exchange."""

    def __init__(self, inner: GroundTruthOracle) -> None:
        self._inner = inner
        self.round = 0

    def answer(self, suggestion, spec):
        self.round += 1
        print(f"  round {self.round}: the system asks about {list(suggestion.attributes)}")
        for attribute in suggestion.attributes:
            candidates = suggestion.candidates.get(attribute, [])
            print(f"    candidates for {attribute}: {candidates}")
        answers = self._inner.answer(suggestion, spec)
        print(f"    user answers: {dict(answers)}")
        return answers


def main() -> None:
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    dataset = generate_person_dataset(PersonConfig(num_entities=4 if smoke else 10, seed=2024))
    print(dataset.summary())

    # Pick the entity with the most conflicting attributes — the most
    # interesting one to watch.
    entity = max(
        dataset.entities, key=lambda e: len(e.conflicting_attributes(dataset.schema))
    )
    spec = dataset.specification_for(entity)
    print(f"\nresolving {entity.name}: {entity.size()} tuples, "
          f"{len(entity.conflicting_attributes(dataset.schema))} conflicting attributes")
    print(f"ground truth: {entity.true_values}")

    oracle = VerboseOracle(GroundTruthOracle(entity))
    resolver = ConflictResolver(ResolverOptions(max_rounds=4, fallback="pick"))
    result = resolver.resolve(spec, oracle)

    print("\nround-by-round progress:")
    for report in result.rounds:
        print(
            f"  after round {report.round_index}: "
            f"{len(report.deduced_attributes)}/{len(dataset.schema)} true values known, "
            f"encoding: {report.encoding_statistics.get('clauses', 0)} clauses, "
            f"times: encode {report.encode_seconds*1000:.1f} ms, "
            f"validity {report.validity_seconds*1000:.1f} ms, "
            f"deduce {report.deduce_seconds*1000:.1f} ms, "
            f"suggest {report.suggest_seconds*1000:.1f} ms"
        )

    print(f"\nfinal resolved tuple: {result.resolved_tuple}")
    correct = sum(
        1
        for attribute, value in result.resolved_tuple.items()
        if str(value) == str(entity.true_values.get(attribute))
    )
    print(f"attributes matching the ground truth: {correct}/{len(dataset.schema)}")
    print(f"attributes answered by the user: {list(result.user_validated_attributes)}")
    print(f"attributes filled by the Pick fallback: {list(result.fallback_attributes)}")


if __name__ == "__main__":
    main()
