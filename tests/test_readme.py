from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import multimix
from multimix.experiments import _parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> list[str]:
    """Every name a python block of the README imports from multimix."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = []
    for code in blocks:
        for group in re.findall(r"^from multimix import (\([^)]*\)|.*)$", code, re.M):
            names += [n for n in re.split(r"[\s,()]+", group) if n]
    return names


def test_readme_quick_start_imports_resolve():
    names = readme_imports()
    assert "row_norms" in names and "curie_weiss" in names
    missing = [n for n in names if not hasattr(multimix, n)]
    assert missing == []


# roots of dotted names that belong to other packages, and file suffixes
EXTERNAL_ROOTS = {"numpy", "scipy"}
FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "txt"}


def readme_dotted_names() -> list[str]:
    """Every backticked dotted name in the README that names library code,
    such as `ising._orbit_values` or `GeneratorMatrix.rate_matrix()`."""
    names = re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\(\))?`", README.read_text())
    return sorted(
        {
            name
            for name in names
            if name.split(".")[0] not in EXTERNAL_ROOTS
            and name.rsplit(".", 1)[1] not in FILE_SUFFIXES
        }
    )


def resolve(name: str) -> bool:
    """Whether a dotted name is a module, attribute or dataclass field of
    multimix. Its root is the package, one of its modules, or one of the
    package's exports."""
    root, *rest = name.removeprefix("multimix.").split(".")
    try:
        owner = importlib.import_module(f"multimix.{root}")
    except ModuleNotFoundError:
        if not hasattr(multimix, root):
            return False
        owner = getattr(multimix, root)
    for i, attr in enumerate(rest):
        if hasattr(owner, attr):
            owner = getattr(owner, attr)
        elif dataclasses.is_dataclass(owner) and i == len(rest) - 1:
            return attr in {f.name for f in dataclasses.fields(owner)}
        else:
            return False
    return True


def test_readme_dotted_names_resolve():
    # a README that names moved or deleted code fails here
    names = readme_dotted_names()
    assert {"ising._orbit_values", "SpectralSplit.orbit_rows", "GeneratorMatrix.A"} <= set(names)
    assert [n for n in names if not resolve(n)] == []
    assert not resolve("ising._no_such_helper") and not resolve("GeneratorMatrix.B")


def test_readme_names_exactly_the_versioned_formats():
    # a header a dump writes is `f"<tag> v1 ...`; its loader reads the same tag
    sources = "\n".join(p.read_text() for p in Path(multimix.__file__).parent.glob("*.py"))
    written = set(re.findall(r'f"([a-z][\w-]*) v1 ', sources))
    read = set(re.findall(r'_header\(text, "([a-z][\w-]*)"', sources))
    named = set(re.findall(r"`([a-z][\w-]*) v1`", README.read_text()))
    assert "ising" in named
    assert written == read == named


def test_readme_experiment_config_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        configs, _ = _parse_config(block)
        assert configs
