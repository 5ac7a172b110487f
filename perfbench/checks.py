"""Correctness checks applied to every release the benchmark times.

A release fails when any check below finds a problem; failures count toward
``failed`` (and the failed share) instead of aborting the run, so one bad
release cannot hide behind the timings of the good ones.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from repro import Instance, Workload, WorkloadEvaluator

#: Algorithms whose declared (ε, δ) must be returned unchanged.
EXACT_PRIVACY = ("single_table", "two_table", "multi_table")
#: Relative tolerance of the evaluator-vs-ProductQuery agreement check.
ANSWER_RTOL = 1e-9
#: Relative tolerance of the released-mass-vs-noisy-total check.
MASS_RTOL = 1e-6


def sample_queries(workload: Workload) -> list[int]:
    """A fixed sample of query indices: first, second, middle, last."""
    count = len(workload)
    return sorted({0, min(1, count - 1), count // 2, count - 1})


def _agree(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= ANSWER_RTOL * max(abs(want), scale, 1.0)


def check_instance_answers(
    evaluator: WorkloadEvaluator, workload: Workload, instance: Instance
) -> tuple[np.ndarray, list[str]]:
    """True answers from the evaluator, cross-checked against ``ProductQuery.evaluate``."""
    answers = evaluator.answers_on_instance(instance)
    problems = []
    for i in sample_queries(workload):
        want = workload[i].evaluate(instance)
        if not _agree(float(answers[i]), want, 0.0):
            problems.append(f"answers_on_instance[{i}]={answers[i]!r} but evaluate()={want!r}")
    return answers, problems


def expected_mass(result) -> float:
    """Mass the released histogram must carry: the PMW noisy totals that ran.

    PMW returns the zero histogram when its noisy total is not positive and
    otherwise runs at least one round, rescaled to the noisy total.
    """
    diagnostics = result.diagnostics
    if "buckets" in diagnostics:
        totals = [bucket["join_size"] for bucket in diagnostics["buckets"]]
    elif diagnostics.get("iterations", 0) > 0:
        totals = [diagnostics["noisy_total"]]
    else:
        totals = []
    return float(sum(total for total in totals if total is not None and total > 0))


def check_release(
    result,
    *,
    workload: Workload,
    evaluator: WorkloadEvaluator,
    epsilon: float,
    delta: float,
) -> tuple[np.ndarray | None, list[str]]:
    """Check one release; return its answers on the histogram and any problems."""
    problems: list[str] = []
    histogram = np.asarray(result.synthetic.histogram)
    if histogram.shape != tuple(workload.join_query.shape):
        return None, [f"histogram shape {histogram.shape} != {workload.join_query.shape}"]
    if not np.all(np.isfinite(histogram)):
        return None, ["histogram has non-finite cells"]
    if histogram.min(initial=0.0) < 0.0:
        problems.append(f"histogram has negative cells (min {histogram.min()!r})")

    mass = float(histogram.sum())
    want = expected_mass(result)
    if abs(mass - want) > MASS_RTOL * max(abs(want), 1.0):
        problems.append(f"histogram mass {mass!r} != sum of PMW noisy totals {want!r}")

    privacy = result.privacy
    if result.algorithm in EXACT_PRIVACY:
        if (privacy.epsilon, privacy.delta) != (epsilon, delta):
            problems.append(f"privacy {privacy} != declared ({epsilon}, {delta})")
    elif not (
        isfinite(privacy.epsilon)
        and isfinite(privacy.delta)
        and privacy.epsilon >= epsilon
        and privacy.delta >= delta
    ):
        problems.append(f"privacy {privacy} is not finite or below declared ({epsilon}, {delta})")

    answers = evaluator.answers_on_histogram(histogram)
    for i in sample_queries(workload):
        want_answer = workload[i].evaluate_on_histogram(histogram)
        if not _agree(float(answers[i]), want_answer, mass):
            problems.append(
                f"answers_on_histogram[{i}]={answers[i]!r} but "
                f"evaluate_on_histogram()={want_answer!r}"
            )
    return answers, problems
