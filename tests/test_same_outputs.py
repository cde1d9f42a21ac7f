"""tools/same_outputs.py: two trees that write the same files pass, and two
that differ in one file fail, naming it."""

import importlib.util
import os
import shutil

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_outputs.py")
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# a stand-in package whose reproduce writes one CSV per figure and an SVG
# holding TEXT
FAKE_CLI = '''import os, sys
def main():
    args = sys.argv[1:]
    out = args[args.index("--out") + 1]
    for name, text in ((args[1] + ".csv", "x,y\\n"), (args[1] + ".svg", TEXT)):
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    return 0
'''


def fake_tree(root, text):
    package = root / "src" / "cpasim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"TEXT = {text!r}\n" + FAKE_CLI)
    return str(root)


def test_two_copies_of_one_tree_write_the_same_files(tmp_path, capsys):
    for side in ("parent", "change"):
        shutil.copytree(SRC, tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert same_outputs.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"),
                              "--figure", "fig2", "--figure", "fig3a"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig2: 2 files identical", "fig3a: 4 files identical"]


def test_trees_that_differ_in_one_file_fail_naming_it(tmp_path, capsys):
    parent = fake_tree(tmp_path / "parent", "<svg/>")
    change = fake_tree(tmp_path / "change", "<svg />")
    assert same_outputs.main(["--parent", parent, "--change", parent,
                              "--figure", "fig2"]) == 0
    assert same_outputs.main(["--parent", parent, "--change", change,
                              "--figure", "fig2", "--figure", "fig3a"]) == 1
    assert capsys.readouterr().err == "fig2: fig2.svg differs\n"


def test_a_file_only_one_directory_holds_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_bytes(b"1\n")
    (b / "x.csv").write_bytes(b"1\n")
    assert same_outputs.first_difference(a, b) is None
    (b / "w.svg").write_bytes(b"")
    assert same_outputs.first_difference(a, b) == "w.svg"
    assert same_outputs.main(["--parent", str(tmp_path / "none"), "--change", str(a)]) == 2
