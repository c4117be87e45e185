from __future__ import annotations

import re
from pathlib import Path

import multimix

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
