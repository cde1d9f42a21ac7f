"""pyproject.toml's Python and numpy floors are at least those that the
installed scipy (whose own floor pyproject.toml sets) declares."""

import re
import tomllib
from importlib import metadata
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def floor(spec: str) -> tuple[int, ...]:
    """The version of the ``>=`` clause of a requirement ``spec``."""
    found = re.search(r">=\s*([0-9]+(?:\.[0-9]+)*)", spec)
    assert found, spec
    return tuple(map(int, found.group(1).split(".")))


def requirement(requirements: list[str], name: str) -> str:
    """The unconditional requirement on ``name`` among ``requirements``."""
    return next(r for r in requirements
                if re.match(rf"{name}\s*[<>=!~]", r) and ";" not in r)


def test_the_python_and_numpy_floors_cover_scipys():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    scipy_python = metadata.metadata("scipy")["Requires-Python"]
    scipy_numpy = requirement(metadata.requires("scipy"), "numpy")
    assert floor(project["requires-python"]) >= floor(scipy_python)
    assert floor(requirement(project["dependencies"], "numpy")) >= floor(scipy_numpy)
