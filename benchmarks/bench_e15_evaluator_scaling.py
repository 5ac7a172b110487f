"""E15 benchmark — evaluator scaling: sparse/streaming vs dense memory and speed.

Builds a two-table marginal workload whose dense query matrix exceeds the
evaluator's 60M-cell budget and asserts that the sparse path evaluates it at
≥ 3× lower peak memory than the dense path while matching the dense answers
to 1e-9 (relative to the answer magnitude), with the streaming path agreeing
as well.
"""

from repro.experiments.e15_evaluator_scaling import run


def test_e15_evaluator_scaling(benchmark):
    result = benchmark.pedantic(
        run,
        kwargs={
            "size_a": 128,
            "size_b": 64,
            "size_c": 128,
            "eval_repeats": 3,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(result["table"])
    # The workload genuinely exceeds the dense cell budget (the regime the
    # sparse engine exists for) and auto mode routes it to the CSR backend.
    assert result["dense_cells"] > result["cell_budget"]
    assert result["auto_mode"] == "sparse"
    # ≥ 3× peak-memory reduction for the sparse form; streaming stays below
    # dense as well (its extra memory is bounded by the chunk size).
    assert result["memory_ratio_sparse"] >= 3.0
    assert result["memory_ratio_streaming"] >= 3.0
    # All modes agree with the dense reference to 1e-9 (relative).
    for row in result["rows"]:
        assert row["answers_match"], row
    # The sparse matvec is also faster per evaluation than the dense matmul.
    eval_seconds = {row["mode"]: row["eval_seconds"] for row in result["rows"]}
    assert eval_seconds["sparse"] < eval_seconds["dense"]
