"""NBA pipeline: generated player data → interactive resolution → accuracy.

This mirrors the paper's NBA experiment end to end on the synthetic rebuild of
the dataset: generate players with conflicting multi-source season rows, run
the conflict-resolution framework with a simulated user, compare against the
traditional ``Pick`` baseline, and print the aggregate accuracy.

Run with:  python examples/nba_pipeline.py
(``REPRO_SMOKE=1`` shrinks the dataset so CI can exercise the script quickly.)
"""

from __future__ import annotations

import os

from repro.api import ResolutionClient, RunConfig
from repro.datasets import NBAConfig, generate_nba_dataset
from repro.evaluation import format_summary, format_table
from repro.resolution import ResolverOptions


def main() -> None:
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    dataset = generate_nba_dataset(NBAConfig(num_players=4 if smoke else 25, seed=101))
    print(dataset.summary())
    print()

    # One fully automatic pass and one with (simulated) user interaction —
    # each client carries its round budget in its RunConfig; the baselines
    # run through the same facade.
    def experiment(max_rounds: int):
        config = RunConfig(options=ResolverOptions(max_rounds=max_rounds, fallback="none"))
        with ResolutionClient(config) as client:
            return client.run_experiment(dataset)

    automatic = experiment(0)
    interactive = experiment(2)
    with ResolutionClient() as client:
        pick = client.run_experiment(dataset, baseline="pick")
        vote = client.run_experiment(dataset, baseline="vote")

    rows = []
    for label, experiment in [
        ("currency+consistency (0 rounds)", automatic),
        ("currency+consistency (≤2 rounds)", interactive),
        ("Pick baseline", pick),
        ("Vote baseline", vote),
    ]:
        counts = experiment.counts()
        rows.append([label, counts.precision, counts.recall, counts.f_measure])
    print(format_table(["method", "precision", "recall", "F-measure"], rows, title="NBA accuracy"))
    print()

    series = interactive.true_value_fraction_by_round(2)
    print("fraction of true values identified after k interaction rounds:")
    for round_index, fraction in enumerate(series):
        print(f"  {round_index} rounds: {fraction:.2%}")
    print()
    print(format_summary("timing (per entity)", {
        "encode_s": interactive.mean_seconds("encode"),
        "validity_s": interactive.mean_seconds("validity"),
        "deduce_s": interactive.mean_seconds("deduce"),
        "suggest_s": interactive.mean_seconds("suggest"),
        "total_s": interactive.mean_seconds("total"),
    }))

    # Show one resolved player in detail.
    outcome = max(interactive.outcomes, key=lambda o: o.entity_size)
    print()
    print(f"largest entity {outcome.entity_name} ({outcome.entity_size} tuples):")
    resolution = outcome.resolution
    print(f"  resolved tuple: {resolution.resolved_tuple}")
    print(f"  user-validated attributes: {resolution.user_validated_attributes}")


if __name__ == "__main__":
    main()
