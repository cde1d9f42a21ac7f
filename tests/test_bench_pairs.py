"""tools/bench_pairs.py's verdict: a comparison fails on an incorrect run, a
larger share of failed operations in the change, or a metric outside its
bound, and passes otherwise."""

import copy
import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def run(work, seconds, correct=True, failed=0, attempted=100):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {"work_per_s": {"value": work}, "run_s": {"value": seconds}}}


def summary(parent, change):
    runs = {"parent": parent, "change": change}
    return {"workloads": {"fig3_sweeps": {
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs)
                      for side, rs in runs.items()},
        "metrics": bench_pairs.summarize(runs, SPEC),
        "runs": runs,
    }}}


PARENT = [run(40.0 + i, 25.0) for i in range(4)]


def test_a_passing_comparison_has_no_failures():
    assert bench_pairs.failures(summary(PARENT, [run(48.0 + i, 25.0)
                                                 for i in range(4)])) == []


@pytest.mark.parametrize("change, reason", [
    ([run(48.0, 25.0, correct=False)] + PARENT[1:], "a run is incorrect"),
    ([run(48.0, 25.0, failed=1)] + PARENT[1:], "of its operations"),
    ([run(20.0, 25.0) for _ in range(4)], "work_per_s OUTSIDE BOUND"),
    ([run(41.0, 40.0) for _ in range(4)], "run_s OUTSIDE BOUND"),
])
def test_each_reason_fails_the_comparison(change, reason):
    reasons = bench_pairs.failures(summary(copy.deepcopy(PARENT), change))
    assert len(reasons) == 1 and reason in reasons[0]
