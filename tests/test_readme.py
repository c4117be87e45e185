from __future__ import annotations

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
