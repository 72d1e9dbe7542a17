"""Source-level rules that no behavioural test would notice."""

import ast
from pathlib import Path

import pytest

from adelie import errors

SOURCES = sorted((Path(__file__).parent.parent / "src" / "adelie").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants raise typed errors: `python -O` strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def _import_owners(node, module, owner=None):
    """The function around each import of module below node, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _import_owners(child, module, child.name)
            continue
        names = []
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        if any(name.split(".")[0] == module for name in names):
            yield owner
        yield from _import_owners(child, module, owner)


def _import_sites(path, module):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(path.name, owner) for owner in _import_owners(tree, module)}


# Fraction is for weights that are really fractional, imported inside those
# functions so that every other route, and the start of every command, stays
# on integers
FRACTION_SITES = {
    ("roots.py", "root_coords_exact"),
    ("roots.py", "pairing"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fractions_imported_only_where_weights_are_fractional(path):
    sites = _import_sites(path, "fractions")
    assert sites <= FRACTION_SITES, sorted(sites - FRACTION_SITES, key=str)


# numpy is imported at module level only by the modules that build arrays, and
# elsewhere only inside the graded Euler kernel, so that the commands that build
# no arrays start without it
NUMPY_SITES = {
    ("chevalley.py", None),
    ("obstruction.py", None),
    ("cotangent.py", "euler_characteristic_graded"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_imported_only_where_arrays_are_built(path):
    sites = _import_sites(path, "numpy")
    assert sites <= NUMPY_SITES, sorted(sites - NUMPY_SITES, key=str)


# dataclasses (and the inspect it imports) only where numpy is loaded anyway;
# every other record is a NamedTuple or a plain class
DATACLASS_SITES = {("chevalley.py", None), ("obstruction.py", None)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dataclasses_imported_only_beside_numpy(path):
    sites = _import_sites(path, "dataclasses")
    assert sites <= DATACLASS_SITES, sorted(sites - DATACLASS_SITES, key=str)


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


def _raised_names(tree):
    """(line, name) of each raise: the class raised or called, None if bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else None


ADELIE_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.AdelieError)
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_an_adelie_error(path):
    # a caller catches AdelieError for every failure the package reports; the
    # entry point alone leaves through SystemExit
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = ADELIE_ERRORS | ({"SystemExit"} if path.name == "__main__.py" else set())
    bad = [(line, name) for line, name in _raised_names(tree) if name not in allowed]
    assert bad == [], f"{path.name}: raises outside AdelieError {bad}"


# FormalForm holds and prints forms; the graded algebra over them (sums,
# products, the differential, psi substitution) is the test oracle in
# test_obstruction.py, which nothing in the package runs
FORM_ARITHMETIC = {
    "__add__", "__mul__", "__neg__", "__sub__", "scale", "differential", "substitute_psi",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_formal_form_defines_no_arithmetic(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {
        item.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "FormalForm"
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert defined.isdisjoint(FORM_ARITHMETIC), sorted(defined & FORM_ARITHMETIC)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_cli_calls_build(path):
    # every other module answers on the RootSystem it is given: a table keyed
    # by (kind, rank) and rebuilt through build would refuse a system that
    # build does not admit, and answer for an equal one it was not given
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "build"
    ]
    assert lines == [], f"{path.name}: build called on lines {lines}"
