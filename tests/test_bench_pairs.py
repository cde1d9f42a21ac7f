"""tools/bench_pairs.py's verdict: a comparison fails on an incorrect run, a
larger share of failed operations in the change, or a metric outside its
bound, and passes otherwise.  A metric whose parent runs spread wider than
its bound is reported unresolved, which fails nothing.  The summary records
each tree's source line count, all lines and code lines, the code lines of
each module, and each run the rate of a calibration loop timed before it,
which no gate reads."""

import copy
import importlib.util
import json
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


# the parent's interquartile range, 15, is 0.375 of its median 40, past the
# 0.25 bound
WIDE = [run(w, 25.0) for w in (25.0, 35.0, 45.0, 55.0)]


@pytest.mark.parametrize("parent, change, unresolved", [
    (PARENT, [run(48.0 + i, 25.0) for i in range(4)], False),  # a narrow parent
    (WIDE, [run(w, 25.0) for w in (30.0, 40.0, 50.0, 60.0)], True),
    (WIDE, [run(w, 25.0) for w in (20.0, 30.0, 40.0, 50.0)], True),
    # every change run beats every parent run
    (WIDE, [run(w, 25.0) for w in (56.0, 57.0, 58.0, 59.0)], False),
    (WIDE, [run(w, 25.0) for w in (55.0, 57.0, 58.0, 59.0)], True),  # a tie
])
def test_a_wide_parent_spread_is_unresolved(parent, change, unresolved):
    s = summary(copy.deepcopy(parent), change)
    m = s["workloads"]["fig3_sweeps"]["metrics"]
    assert m["work_per_s"]["unresolved"] is unresolved
    assert ("UNRESOLVED" in bench_pairs.report_line(
        "fig3_sweeps", "work_per_s", m["work_per_s"], 4)) is unresolved
    # run_s is the same in every run: no spread
    assert m["run_s"]["unresolved"] is False and m["run_s"]["parent_spread"] == 0.0
    # the verdict is unchanged: an unresolved metric within its bound passes
    assert bench_pairs.failures(s) == []


def test_an_unresolved_metric_outside_its_bound_still_fails():
    s = summary(copy.deepcopy(WIDE), [run(w, 25.0) for w in (10.0, 20.0, 25.0, 30.0)])
    m = s["workloads"]["fig3_sweeps"]["metrics"]["work_per_s"]
    assert m["unresolved"] and m["parent_spread"] == pytest.approx(0.375)
    reasons = bench_pairs.failures(s)
    assert len(reasons) == 1 and "work_per_s OUTSIDE BOUND" in reasons[0]
    assert "OUTSIDE BOUND  UNRESOLVED" in bench_pairs.report_line(
        "fig3_sweeps", "work_per_s", m, 4)


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@pytest.mark.parametrize("edit, differs", [
    (None, None),
    # what a run leaves under bench/ is not benchmark code
    ("bench/results/run.json", None),
    ("bench/.work/out.csv", None),
    ("bench/__pycache__/run.cpython-311.pyc", None),
    ("bench/run.py", "bench/run.py"),
    ("bench/extra/new.py", "bench/extra/new.py"),
    ("BENCHMARK.json", "BENCHMARK.json"),
])
def test_the_trees_must_share_their_benchmark_code(tmp_path, capsys, edit, differs):
    trees = {side: str(tmp_path / side) for side in ("parent", "change")}
    for tree in trees.values():
        write(os.path.join(tree, "bench", "run.py"), "print(1)\n")
        write(os.path.join(tree, "bench", "workloads.py"), "W = 1\n")
        write(os.path.join(tree, "BENCHMARK.json"), '{"workloads": []}\n')
    if edit is not None:
        path = os.path.join(trees["change"], edit)
        write(path, "changed\n")
    assert bench_pairs.first_benchmark_difference(trees["parent"], trees["change"]) == differs
    if differs is not None:
        with pytest.raises(SystemExit) as stop:
            bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                              "--workload", "steady_batch", "--pairs", "1",
                              "--seconds", "1", "--seed", "1",
                              "--out", str(tmp_path / "out.json")])
        assert stop.value.code == 2
        assert f"benchmark code differs: {differs}" in capsys.readouterr().err


def test_the_summary_records_each_trees_source_lines(tmp_path, capsys):
    # two trees whose benchmark is a stub that reports one correct run
    stub = ("import json\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 1,\n"
            "                  'metrics': {'work_per_s': {'value': 1.0}}}))\n")
    spec = {"workloads": [{"name": "steady_batch"}], "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    trees = {side: str(tmp_path / side) for side in ("parent", "change")}
    for tree in trees.values():
        write(os.path.join(tree, "bench", "run.py"), stub)
        write(os.path.join(tree, "BENCHMARK.json"), json.dumps(spec))
    write(os.path.join(trees["parent"], "src", "cpasim", "a.py"), "x = 1\ny = 2\n")
    write(os.path.join(trees["change"], "src", "cpasim", "a.py"), "x = 1\n")
    write(os.path.join(trees["change"], "src", "cpasim", "b.py"), "z = 3\nw = 4\n")
    # only the package's own modules count
    write(os.path.join(trees["change"], "src", "cpasim", "notes.txt"), "text\n")
    write(os.path.join(trees["change"], "tools", "c.py"), "v = 5\n")
    # the tests' code lines, counted apart: a move from the package into the
    # tests shows on both counts
    write(os.path.join(trees["parent"], "tests", "test_a.py"), "x = 1\n")
    write(os.path.join(trees["change"], "tests", "test_a.py"), '"""Doc."""\nx = 1\n')
    write(os.path.join(trees["change"], "tests", "oracles.py"), "y = 2\n\n# z\n")
    write(os.path.join(trees["change"], "tests", "data", "d.py"), "v = 5\n")
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                             "--workload", "steady_batch", "--pairs", "1",
                             "--seconds", "1", "--seed", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["src_lines"] == {"parent": 2, "change": 3}
    assert summary["tests_code_lines"] == {"parent": 1, "change": 2}
    printed = capsys.readouterr().out
    assert printed.count("src/cpasim lines: parent 2, change 3 (+1)") == 1
    assert printed.count("tests code lines: parent 1, change 2 (+1)") == 1


MODULE = '''"""A module docstring,
over two lines."""

# a comment
import math  # code with a comment


class Box:
    """A class docstring."""

    side = 2.0

    def area(self):
        """A method docstring,

        with a blank line."""
        text = """a string that is
no docstring"""
        return self.side ** 2 + len(text)  # code


async def later():
    \'\'\'An async docstring.\'\'\'
    return (1,
            2)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # import, class, side, def, text (2 lines), return, async def, return (2)
    assert bench_pairs.code_lines(MODULE) == 10
    stub = ("import json\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 1,\n"
            "                  'metrics': {'work_per_s': {'value': 1.0}}}))\n")
    spec = {"workloads": [{"name": "steady_batch"}], "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    trees = {side: str(tmp_path / side) for side in ("parent", "change")}
    for tree in trees.values():
        write(os.path.join(tree, "bench", "run.py"), stub)
        write(os.path.join(tree, "BENCHMARK.json"), json.dumps(spec))
    write(os.path.join(trees["parent"], "src", "cpasim", "a.py"), MODULE)
    write(os.path.join(trees["change"], "src", "cpasim", "a.py"), MODULE)
    write(os.path.join(trees["change"], "src", "cpasim", "b.py"), '"""Doc."""\n\nx = 1\n')
    write(os.path.join(trees["change"], "tools", "c.py"), "v = 5\n")
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                             "--workload", "steady_batch", "--pairs", "1",
                             "--seconds", "1", "--seed", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["src_code_lines"] == {"parent": 10, "change": 11}
    assert summary["src_lines"] == {"parent": 25, "change": 28}
    assert capsys.readouterr().out.count(
        "src/cpasim lines: parent 25, change 28 (+3); "
        "code lines: parent 10, change 11 (+1)") == 1


def test_the_summary_records_each_modules_code_lines(tmp_path, capsys):
    stub = ("import json\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 1,\n"
            "                  'metrics': {'work_per_s': {'value': 1.0}}}))\n")
    spec = {"workloads": [{"name": "steady_batch"}], "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    trees = {side: str(tmp_path / side) for side in ("parent", "change")}
    for tree in trees.values():
        write(os.path.join(tree, "bench", "run.py"), stub)
        write(os.path.join(tree, "BENCHMARK.json"), json.dumps(spec))
        write(os.path.join(tree, "src", "cpasim", "same.py"), "x = 1\n")
    write(os.path.join(trees["parent"], "src", "cpasim", "gone.py"), "y = 2\n")
    write(os.path.join(trees["parent"], "src", "cpasim", "edited.py"), "z = 3\nw = 4\n")
    write(os.path.join(trees["change"], "src", "cpasim", "edited.py"),
          "# only a comment more\nz = 3\nw = 4\nv = 5\n")
    write(os.path.join(trees["change"], "src", "cpasim", "new.py"), MODULE)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                             "--workload", "steady_batch", "--pairs", "1",
                             "--seconds", "1", "--seed", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["module_code_lines"] == {
        "parent": {"edited.py": 2, "gone.py": 1, "same.py": 1},
        "change": {"edited.py": 3, "new.py": 10, "same.py": 1}}
    assert summary["src_code_lines"] == {"parent": 4, "change": 14}
    # the modules whose code lines changed, and only those
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")]
    assert printed == ["  edited.py code lines: parent 2, change 3 (+1)",
                       "  gone.py code lines: parent 1, change 0 (-1)",
                       "  new.py code lines: parent 0, change 10 (+10)"]


def test_each_run_records_a_calibration_rate_no_gate_reads(tmp_path, monkeypatch):
    rates = iter([1000.0, 2000.0])
    monkeypatch.setattr(bench_pairs, "calibration_rate", lambda: next(rates))
    stub = ("import json\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 1,\n"
            "                  'metrics': {'work_per_s': {'value': 1.0}}}))\n")
    spec = {"workloads": [{"name": "steady_batch"}], "end_to_end": [
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    trees = {side: str(tmp_path / side) for side in ("parent", "change")}
    for tree in trees.values():
        write(os.path.join(tree, "bench", "run.py"), stub)
        write(os.path.join(tree, "BENCHMARK.json"), json.dumps(spec))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", trees["parent"], "--change", trees["change"],
                             "--workload", "steady_batch", "--pairs", "1",
                             "--seconds", "1", "--seed", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        runs = json.load(fh)["workloads"]["steady_batch"]["runs"]
    # pair 0 runs the parent first
    assert [runs[side][0]["calibration_per_s"] for side in ("parent", "change")] == [
        1000.0, 2000.0]
    # the machine's speed moves no metric: a slower calibration beside the
    # same work is no worse
    s = summary([dict(run(40.0, 25.0), calibration_per_s=1.0)] * 4,
                [dict(run(40.0, 25.0), calibration_per_s=9.0)] * 4)
    assert bench_pairs.failures(s) == []


def test_the_calibration_loop_is_stdlib_timing():
    assert bench_pairs.calibration_rate(1000) > 0.0
