"""Source-level rules that no behavioural test would notice."""

import ast
from itertools import pairwise
import re
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


def _owners(node, wanted, owner=None):
    """The function around each node below node that wanted accepts, named
    with its class (RootSystem.pairing), None at module level."""
    for child in ast.iter_child_nodes(node):
        if wanted(child):
            yield owner
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if owner is None else f"{owner}.{child.name}"
        yield from _owners(child, wanted, inner)


def _sites(path, wanted):
    """(file name, owner) of each node in path that wanted accepts, in order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.name, owner) for owner in _owners(tree, wanted)]


def _imports(node, module):
    names = []
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    return any(name.split(".")[0] == module for name in names)


def _import_sites(path, module):
    return set(_sites(path, lambda node: _imports(node, module)))


def _callee(node):
    """The name a call calls, f in f(...) and obj.f(...); None for anything else."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


# Fraction is for weights that are really fractional: the pairing of two of
# them imports it inside, so that every other route, and the start of every
# command, stays on integers
FRACTION_SITES = {("roots.py", "RootSystem.pairing")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fractions_imported_only_where_weights_are_fractional(path):
    sites = _import_sites(path, "fractions")
    assert sites <= FRACTION_SITES, sorted(sites - FRACTION_SITES, key=str)


# numpy is imported at module level by the modules that build arrays and
# nowhere else: the commands that build no arrays import none of the three
# (cotangent.euler_characteristic_graded imports batch inside)
NUMPY_SITES = {("chevalley.py", None), ("obstruction.py", None), ("batch.py", None)}


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
# the root basis through to_root_basis, and a weight's pairing through pairing
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


def _foreign_private_attributes(tree):
    """(line, name) of each single-underscore attribute taken from anything but self."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            yield node.lineno, node.attr


# a class's single-underscore state is read only through self, behind its
# methods: the closure's step record, which the graded Euler recurrence and
# the Jacobi certificate walk, is RootSystem.positive_steps
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_attributes_read_only_through_self(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = list(_foreign_private_attributes(tree))
    assert bad == [], f"{path.name}: private attributes of another object {bad}"


def test_the_private_attribute_rule_finds_each_foreign_read():
    source = """
self._a
rs._b
rs._c = 1
f()._d
self.x._e
rs.__dict__
rs.f
"""
    assert list(_foreign_private_attributes(ast.parse(source))) == [
        (3, "_b"), (4, "_c"), (5, "_d"), (6, "_e"),
    ]


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
    lines = [node.lineno for node in ast.walk(tree) if _callee(node) == "build"]
    assert lines == [], f"{path.name}: build called on lines {lines}"


# one fraction-free elimination per form: RootSystem's Cartan matrix for its
# determinant and adjugate, and the lattice's own form, whose leading minors
# certify it definite where the -2 classes are enumerated.  A second
# elimination of either form would be a second route to the same fact
ADJUGATE_SITES = [("roots.py", "RootSystem.__init__"), ("surface.py", "minus_two_classes")]


def test_int_adjugate_runs_once_per_form():
    sites = [
        site for path in SOURCES
        for site in _sites(path, lambda node: _callee(node) == "int_adjugate")
    ]
    assert sites == ADJUGATE_SITES


def _sums_runs(node):
    """Whether node calls add.reduceat: np.add's, or that of an add imported alone."""
    if _callee(node) != "reduceat" or not isinstance(node.func, ast.Attribute):
        return False
    ufunc = node.func.value
    return getattr(ufunc, "attr", getattr(ufunc, "id", None)) == "add"


# equal keys are summed by one helper, chevalley.sum_by_key, which the Jacobi
# gate, the obstruction expansion and the Bianchi closure call: a second
# add.reduceat would be a second route to the same sums
SUM_SITES = [("chevalley.py", "sum_by_key")]


def test_runs_are_summed_only_in_sum_by_key():
    sites = [site for path in SOURCES for site in _sites(path, _sums_runs)]
    assert sites == SUM_SITES


def test_the_sum_rule_finds_each_add_reduceat():
    source = """
np.add.reduceat(v, s)
def f():
    return np.add.reduceat(v, s)
class K:
    def g(self):
        add.reduceat(v, s)
        np.multiply.reduceat(v, s)
        np.add.reduce(v)
        np.add.at(v, s, 1)
"""
    assert list(_owners(ast.parse(source), _sums_runs)) == [None, "f", "K.g"]


def _unbounded_caches(tree):
    """Lines that cache without an integer bound: functools.cache, and any
    lru_cache not called with an int literal maxsize (bare, or maxsize=None)."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "cache" and isinstance(node, ast.Attribute):
            yield node.lineno
        if name == "lru_cache":
            call = calls.get(id(node), ast.Call(args=[], keywords=[]))
            size = call.args + [k.value for k in call.keywords if k.arg == "maxsize"]
            if not (size and isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_lru_cache_is_bounded(path):
    # a cache keyed by what callers pass holds one entry per system they
    # construct unless it names its bound
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(_unbounded_caches(tree))
    assert lines == [], f"{path.name}: unbounded cache on lines {lines}"


def test_the_cache_rule_finds_each_unbounded_form():
    source = """
import functools
from functools import cache, lru_cache
@lru_cache
def a(): pass
@lru_cache(maxsize=None)
def b(): pass
@functools.lru_cache()
def c(): pass
@functools.cache
def d(): pass
@lru_cache(maxsize=64)
def e(): pass
@functools.lru_cache(33)
def f(): pass
"""
    assert sorted(_unbounded_caches(ast.parse(source))) == [3, 4, 6, 8, 10]


CONTAINER_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CONTAINER_WRITES = {
    "append", "appendleft", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "popleft", "remove", "discard", "clear", "sort", "reverse",
}


def _memo_writes(tree):
    """(line, name) of each write, inside a function, to a container bound
    at module level (a display, a comprehension or a call of a container
    type): an item stored or deleted, or a method that changes it, called on
    its name where the function binds no local of that name."""
    containers = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp))
            or _callee(value) in CONTAINER_TYPES
        ):
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    writes = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        inner = list(ast.walk(function))
        args = function.args
        local = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        local |= {a.arg for a in (args.vararg, args.kwarg) if a}
        local |= {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local -= {name for n in inner if isinstance(n, ast.Global) for name in n.names}
        for node in inner:
            target = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in CONTAINER_WRITES:
                target = node.func.value
            if isinstance(target, ast.Name) and target.id in containers - local:
                writes.add((node.lineno, target.id))
    return sorted(writes)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_writes_a_module_level_container(path):
    # a memo at module level outlives every system it was filled for and is
    # bounded only by hand: caches stay on a bounded lru_cache
    tree = ast.parse(path.read_text(), filename=str(path))
    writes = _memo_writes(tree)
    assert writes == [], f"{path.name}: module-level containers written at {writes}"


def test_the_memo_rule_finds_each_write():
    source = """
import collections
_a = {}
_b: dict = dict()
_c = [x for x in ()]
_d = collections.defaultdict(int)
TUPLE = ()
def f(key):
    _a[key] = 1
    del _b[key]
    _c.append(key)
    _d[key] += 1
    _a.update({})
def g(_a):
    _a[0] = 1
def h():
    _b = {}
    _b[0] = 1
    TUPLE.count(0)
    _c.copy()
    return lambda: _c.clear()
"""
    assert _memo_writes(ast.parse(source)) == [
        (9, "_a"), (10, "_b"), (11, "_c"), (12, "_d"), (13, "_a"), (21, "_c"),
    ]


def _cached_containers(tree):
    """(line, function name) of each return, in a function under lru_cache,
    of a container (a display, a comprehension or a call of a container
    type), as the value or as an element of a returned tuple; the returns
    of the functions and lambdas it defines are theirs."""
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) or not any(
            _callee(d) == "lru_cache" or getattr(d, "id", getattr(d, "attr", None)) == "lru_cache"
            for d in function.decorator_list
        ):
            continue
        nodes = list(function.body)
        while nodes:
            node = nodes.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nodes.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                for item in value.elts if isinstance(value, ast.Tuple) else [value]:
                    if isinstance(item, displays) or _callee(item) in CONTAINER_TYPES:
                        yield node.lineno, function.name
                        break


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cached_function_hands_out_a_container(path):
    # every caller of a cached function shares its value: a container in it
    # is a memo that a caller can write, outside the cache's bound
    tree = ast.parse(path.read_text(), filename=str(path))
    returns = sorted(_cached_containers(tree))
    assert returns == [], f"{path.name}: cached functions return containers at {returns}"


def test_the_cached_container_rule_finds_each_return():
    source = """
import collections, functools
from functools import lru_cache
@lru_cache(maxsize=8)
def a(x):
    return {}
@functools.lru_cache(8)
def b(x):
    if x:
        return x, [x]
    return x, {i for i in x}
@lru_cache(maxsize=8)
def c(x):
    return dict(x)
@lru_cache(maxsize=8)
def d(x):
    def inner():
        return []
    return (x, tuple(x), frozenset(x), lambda: [], inner)
def e(x):
    return {}
@lru_cache
def f(x):
    return x, collections.deque(x)
"""
    assert sorted(_cached_containers(ast.parse(source))) == [
        (6, "a"), (10, "b"), (11, "b"), (14, "c"), (24, "f"),
    ]


def _definitions(tree):
    """(qualified name, node) of each public function and class at module
    level, and of each public method of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(item, functions) and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item


def _read_names(tree):
    """(line, name, attribute) of each Name, Attribute and import alias in
    tree, attribute True for an Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rsplit(".", 1)[-1], False


def _unread_definitions(trees, acceptance, texts):
    """(file name, qualified name) of each public definition in trees (file
    name to module AST) that has no reader.  A function or class is read by a
    Name, Attribute or import alias of its name in trees outside its own
    lines or in the acceptance AST, or by a word of texts that spells it.  A
    method is read only by an Attribute of its name there, or by a qualified
    Class.method in texts: a variable that shares its name reads nothing."""
    reads, attribute_reads = {}, {}
    for file, tree in trees.items():
        for line, name, attribute in _read_names(tree):
            reads.setdefault(name, []).append((file, line))
            if attribute:
                attribute_reads.setdefault(name, []).append((file, line))
    accepted = list(_read_names(acceptance))
    words = {name for _, name, _ in accepted} | set(re.findall(r"\w+", texts))
    accepted_attributes = {name for _, name, attribute in accepted if attribute}
    mentioned = {
        f"{a}.{b}" for chain in re.findall(r"\w+(?:\.\w+)+", texts)
        for a, b in pairwise(chain.split("."))
    }
    for file, tree in trees.items():
        for qualified, node in _definitions(tree):
            if "." in qualified:
                found = node.name in accepted_attributes or qualified in mentioned
                sites = attribute_reads.get(node.name, [])
            else:
                found = node.name in words
                sites = reads.get(node.name, [])
            own = range(node.lineno, node.end_lineno + 1)
            if not found and all(other == file and line in own for other, line in sites):
                yield file, qualified


# a public function, class or method is a promise that README and the tests
# must keep, so each has a reader: a use in src/adelie or in the acceptance
# tests, or a mention in README or perfbench/.  These are kept without one
KEPT_WITHOUT_READER = {
    # the brute-force dominance order that tests/test_cotangent.py checks the
    # chain walk against
    ("cotangent.py", "dominance_leq"),
    # the inverse of the surface dictionary, the way back from a -2 class
    ("surface.py", "divisor_to_root"),
    # scalar multiples beside +, - and negation, which the package uses: the
    # tests' weights are built with it
    ("roots.py", "LatticeVector.scale"),
    # n_{alpha,beta}, the paper's structure constant, read by root pair: the
    # tests read the sign table through it
    ("chevalley.py", "ChevalleyConstants.n"),
}


def test_every_public_definition_has_a_reader():
    root = Path(__file__).parent.parent
    perfbench = sorted((root / "perfbench").rglob("*.[mp][dy]"))  # .md and .py
    texts = [root / "README.md", *perfbench]
    unread = set(_unread_definitions(
        {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES},
        ast.parse((root / "tests" / "test_acceptance.py").read_text()),
        "\n".join(path.read_text() for path in texts),
    ))
    assert unread == KEPT_WITHOUT_READER, sorted(unread ^ KEPT_WITHOUT_READER)


def test_the_reader_rule_finds_each_unread_definition():
    source = """
def recursive(n):
    return recursive(n - 1)

def called(): pass

def imported(): pass

def accepted(): pass

def documented(): pass

def _private(): pass

class Kept:
    def method(self): pass

    def used(self): pass

    def shadowed(self): pass

    def named(self): pass

    def qualified(self): pass

    def accepted(self): pass

    def __repr__(self): pass

Kept().used
called()
shadowed = 1
"""
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("from m import imported")}
    readme = "`documented` and `named`, `adelie.m.Kept.qualified` in README"
    unread = _unread_definitions(trees, ast.parse("accepted(); k.accepted"), readme)
    assert list(unread) == [
        ("m.py", "recursive"), ("m.py", "Kept.method"), ("m.py", "Kept.shadowed"),
        ("m.py", "Kept.named"),
    ]
