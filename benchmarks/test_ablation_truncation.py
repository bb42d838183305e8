"""Benchmark + regeneration of the §5.2 truncation-depth ablation."""

from repro.experiments import ablation_truncation
from repro.experiments.common import Scale


def test_ablation_truncation(benchmark, save_report):
    result = benchmark.pedantic(
        ablation_truncation.run, args=(Scale.SMOKE,), rounds=1, iterations=1
    )
    rows = {r["up_levels"]: r for r in result["rows"]}
    assert rows[0]["mm_steps"] == 0
    assert rows[2]["parallel_levels"] > rows[0]["parallel_levels"]
    save_report(
        "ablation_truncation",
        ablation_truncation.render_report(result),
        ablation_truncation.result_rows(result),
    )


def test_auto_within_gate_of_best_depth():
    """ROADMAP 4's gate: on serial, ``auto`` takes at most 1.1× the
    measured time of the best fixed depth, on every model."""
    result = ablation_truncation.run(Scale.SMOKE)
    serial = [g for g in result["gate"] if g["gated"]]
    assert {g["model"] for g in serial} == {
        "lenet", "pruned_vgg11", "rnn", "transformer_block"
    }
    for g in serial:
        assert g["ratio"] <= ablation_truncation.GATE_RATIO, g
