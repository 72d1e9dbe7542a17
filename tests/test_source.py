"""Source-level rules that no behavioural test would notice."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "adelie").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants raise typed errors: `python -O` strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


# Fraction is for weights that are really fractional and the Fincke-Pohst
# LDL factors; every other route stays on integers
FRACTION_MODULES = {"roots.py", "surface.py", "_exact.py"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fractions_imported_only_where_weights_are_fractional(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name not in FRACTION_MODULES:
        assert "fractions" not in set(_imported_modules(tree)), path.name


# numpy is imported at module level only by the modules that build arrays, and
# elsewhere only inside the graded Euler kernel, so that the commands that build
# no arrays start without it
NUMPY_SITES = {
    ("chevalley.py", None),
    ("obstruction.py", None),
    ("cotangent.py", "euler_characteristic_graded"),
}


def _numpy_import_owners(node, owner=None):
    """The function around each numpy import below node, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_import_owners(child, child.name)
            continue
        names = []
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        if any(name.split(".")[0] == "numpy" for name in names):
            yield owner
        yield from _numpy_import_owners(child, owner)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_imported_only_where_arrays_are_built(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = {(path.name, owner) for owner in _numpy_import_owners(tree)}
    assert sites <= NUMPY_SITES, sorted(sites - NUMPY_SITES, key=str)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_fraction_inverse(path):
    # adj(C) comes from fraction-free elimination, so no Fraction inverse
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    names |= {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert "fraction_inverse" not in names, path.name


# det(C) and adj(C) stay behind roots.RootSystem: every other module reaches
# the root basis through to_root_basis or root_coords_exact
ADJUGATE_ATTRIBUTES = {"_det", "_adjugate", "_root_numerators"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "roots.py"], ids=lambda p: p.name
)
def test_adjugate_read_only_in_roots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ADJUGATE_ATTRIBUTES
    ]
    assert lines == [], f"{path.name}: adjugate attributes on lines {lines}"
