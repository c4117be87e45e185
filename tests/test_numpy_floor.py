"""The package declares numpy>=1.24; no module may call a numpy function
that first appeared in NumPy 2.0 or later."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multimix"

NUMPY2_ONLY = {
    "vecdot", "matvec", "vecmat", "unstack", "cumulative_sum", "cumulative_prod",
    "concat", "permute_dims", "matrix_transpose", "astype", "isdtype",
    "bitwise_count", "matrix_norm", "vector_norm", "svdvals",
}


def numpy2_calls(source: str) -> list[str]:
    """Every `np.<name>` or `np.linalg.<name>` in `source` whose name is new in NumPy 2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or node.attr not in NUMPY2_ONLY:
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id == "np":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_detector_flags_numpy2_names():
    src = "c = np.vecdot(a, b)\nd = np.linalg.vector_norm(a)\ne = a.astype(float)\n"
    assert numpy2_calls(src) == ["line 1: np.vecdot", "line 2: np.linalg.vector_norm"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy2_only_calls(path):
    assert numpy2_calls(path.read_text()) == []
