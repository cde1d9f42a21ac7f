"""Check that two checkouts of cpasim write the same output files, byte for
byte.

    python3 tools/same_outputs.py --parent ../parent --change . \
        [--figure fig2 --figure fig3a ...]

For each figure (``--figure`` may be repeated; default fig2, fig3a, fig3b,
fig3c and fig4), each tree runs ``cpasim reproduce <figure> --csv --svg``
with its own ``src`` in a fresh interpreter, into a temporary directory of
its own, and the two directories are compared: the same file names, and the
same bytes in each file.  Standard output is not compared.  Only the
standard library is used.

Exit status: 0 when every figure's files are the same; 1 when they differ,
naming the figure and its first differing file (by name, a file only one
tree wrote counting as differing) on standard error; 2 for usage errors and
when a tree's run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

FIGURES = ("fig2", "fig3a", "fig3b", "fig3c", "fig4")
# the console script's entry point, for a tree that is not installed
ENTRY = "import sys; from cpasim.cli import main; sys.exit(main())"


def reproduce(tree: str, figure: str, out: str) -> subprocess.CompletedProcess:
    """``cpasim reproduce <figure> --csv --svg --out <out>`` with the tree's
    own ``src`` first on the import path, run from ``out``."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", ENTRY, "reproduce", figure, "--csv", "--svg", "--out", out],
        cwd=out, env=env, capture_output=True, text=True)


def first_difference(a: str, b: str) -> str | None:
    """The first file name, in sorted order, that only one of the
    directories ``a`` and ``b`` holds or whose bytes differ; None when
    they hold the same files."""
    for name in sorted(set(os.listdir(a)) | set(os.listdir(b))):
        paths = os.path.join(a, name), os.path.join(b, name)
        if not all(os.path.isfile(path) for path in paths):
            return name
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            if fa.read() != fb.read():
                return name
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent checkout")
    ap.add_argument("--change", required=True, help="the changed checkout")
    ap.add_argument("--figure", action="append", choices=FIGURES,
                    help="a figure to reproduce (repeatable; default all)")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not os.path.isdir(os.path.join(tree, "src")):
            print(f"error: {tree} has no src directory", file=sys.stderr)
            return 2
    for figure in args.figure or FIGURES:
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for side, tree in (("parent", args.parent), ("change", args.change)):
                out = os.path.join(tmp, side)
                os.mkdir(out)
                proc = reproduce(tree, figure, out)
                if proc.returncode != 0:
                    print(f"error: reproduce {figure} in {tree} exited with "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 2
                outs.append(out)
            name = first_difference(*outs)
            if name is not None:
                print(f"{figure}: {name} differs", file=sys.stderr)
                return 1
            print(f"{figure}: {len(os.listdir(outs[0]))} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
