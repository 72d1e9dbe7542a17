"""Six refusal tables: every public callable that reads a weight or a root
refuses what is not a LatticeVector of its system's rank, every integer
parameter (a rank, an index, a degree, a bound) refuses what is not an
integer, each with an AdelieError, every function of flag and cotangent
refuses a system that is not a RootSystem with NotARootSystem, every
parameter of surface that reads a RootSystem, a ResolutionLattice or a
DivisorClass refuses anything else at that type's one door, as does every
parameter of batch, chevalley, obstruction and verify that reads a
RootSystem, a ChevalleyConstants, an ObstructionSystem or a LieElement, and
RootSystem refuses every kind that is not A, D or E with an IllegalType that
names it.  A LieElement and a FormalForm refuse fields of any other type
where they are made.

RootSystem checks a vector argument in one place, and every function below
reaches the system through its basis conversions, so none needs a check of
its own.  The table names each callable and each vector position once; a
completeness check finds every public function or method whose signature
takes a LatticeVector, so a new one cannot be left out.
"""

import inspect
import time

import numpy as np
import pytest

from adelie import batch, chevalley, cotangent, flag, obstruction, surface, verify
from adelie.chevalley import LieElement, build_constants
from adelie.errors import (
    AdelieError,
    BasisMismatch,
    BudgetExceeded,
    IllegalType,
    IndexOutOfRange,
    NonIntegerCoordinate,
    NotALattice,
    NotALieElement,
    NotAnObstructionSystem,
    NotARootClass,
    NotARootSystem,
    NotChevalleyConstants,
)
from adelie.obstruction import FormalForm, build_system
from adelie.roots import MAX_SYSTEM_RANK, RootSystem, build, root_vector, weight_vector
from adelie.surface import DivisorClass, ResolutionLattice
from adelie.verify import cotangent_h2_oracle, flag_h2_oracle, half_h2_oracle

RS = build("A2")
ROOT = RS.simple_roots[0]

BAD = {
    "None": None,
    "tuple": (1, 0),
    "str": "1 0",
    "float": 1.5,
    "other rank": weight_vector(1, 0, 0),
}

# name, and the call with the bad value v in one vector position; a name
# that ends in [k] puts it in position k of a callable with two vectors
CALLS = {
    "flag.is_singular": lambda v: flag.is_singular(RS, v),
    "flag.index": lambda v: flag.index(RS, v),
    "flag.dominant_conjugate": lambda v: flag.dominant_conjugate(RS, v),
    "flag.weyl_dim": lambda v: flag.weyl_dim(RS, v),
    "flag.bwb": lambda v: flag.bwb(RS, v),
    "flag.euler_characteristic": lambda v: flag.euler_characteristic(RS, v),
    "flag.schubert_restriction_degree": lambda v: flag.schubert_restriction_degree(RS, v, 1),
    "cotangent.dominance_leq[0]": lambda v: cotangent.dominance_leq(RS, v, ROOT),
    "cotangent.dominance_leq[1]": lambda v: cotangent.dominance_leq(RS, ROOT, v),
    "cotangent.lambda_plus": lambda v: cotangent.lambda_plus(RS, v),
    "cotangent.cht": lambda v: cotangent.cht(RS, v),
    "cotangent.lambda_star": lambda v: cotangent.lambda_star(RS, v),
    "cotangent.cotangent_verdict": lambda v: cotangent.cotangent_verdict(RS, v),
    "cotangent.negative_root_descent": lambda v: cotangent.negative_root_descent(RS, v),
    "cotangent.euler_characteristic_graded":
        lambda v: cotangent.euler_characteristic_graded(RS, v, 2),
    "batch.euler_characteristic_graded": lambda v: batch.euler_characteristic_graded(RS, v, 2),
    "surface.root_to_divisor":
        lambda v: surface.root_to_divisor(surface.resolution_lattice(RS), v),
    "surface.surface_h2_oracle": lambda v: surface.surface_h2_oracle(
        surface.resolution_lattice(RS))(v),
    "verify.flag_h2_oracle": lambda v: flag_h2_oracle(RS)(v),
    "verify.cotangent_h2_oracle": lambda v: cotangent_h2_oracle(RS)(v),
    "chevalley.ChevalleyConstants.n[0]": lambda v: build_constants(RS).n(v, ROOT),
    "chevalley.ChevalleyConstants.n[1]": lambda v: build_constants(RS).n(ROOT, v),
    "chevalley.ChevalleyConstants.flip[0]": lambda v: build_constants(RS).flip(v, ROOT),
    "chevalley.ChevalleyConstants.flip[1]": lambda v: build_constants(RS).flip(ROOT, v),
    "chevalley.LieElement.x": lambda v: LieElement.x(RS, v),
    "roots.RootSystem.to_weight_basis": lambda v: RS.to_weight_basis(v),
    "roots.RootSystem.to_root_basis": lambda v: RS.to_root_basis(v),
    "roots.RootSystem.pairing[0]": lambda v: RS.pairing(v, ROOT),
    "roots.RootSystem.pairing[1]": lambda v: RS.pairing(ROOT, v),
    "roots.RootSystem.positive_pairings": lambda v: RS.positive_pairings(v),
    "roots.RootSystem.is_root": lambda v: RS.is_root(v),
    "roots.RootSystem.is_positive_root": lambda v: RS.is_positive_root(v),
    "roots.RootSystem.descent": lambda v: RS.descent(v),
    "roots.RootSystem.root_order_index": lambda v: RS.root_order_index(v),
    "roots.RootSystem.height": lambda v: RS.height(v),
    "roots.RootSystem.reflect_simple": lambda v: RS.reflect_simple(v, 0),
    "roots.RootSystem.is_dominant": lambda v: RS.is_dominant(v),
}

# a LatticeVector of another rank is no root: these two answer False for it
ANSWER_FALSE = {"roots.RootSystem.is_root", "roots.RootSystem.is_positive_root"}


@pytest.mark.parametrize("bad", BAD, ids=str)
@pytest.mark.parametrize("name", CALLS, ids=str)
def test_every_vector_argument_is_refused_with_an_adelie_error(name, bad):
    call = CALLS[name]
    if bad == "other rank" and name in ANSWER_FALSE:
        assert call(BAD[bad]) is False
        return
    with pytest.raises(AdelieError):
        call(BAD[bad])


def _public_callables(module):
    """{"module.name": callable} of each public function defined in module,
    a cached one too, and of each public method of its classes, as the class
    gives it."""
    short = module.__name__.rsplit(".", 1)[1]
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(inspect.unwrap(obj)):
            found[f"{short}.{name}"] = obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member) and not inspect.isclass(member):
                    found[f"{short}.{name}.{attr}"] = member
    return found


def _takes_a_vector(obj) -> bool:
    return any(
        "LatticeVector" in str(p.annotation) for p in inspect.signature(obj).parameters.values()
    )


def test_the_table_names_every_public_callable_that_takes_a_vector():
    import adelie.roots as roots

    found = {
        name for module in (roots, flag, cotangent, batch, surface, chevalley)
        for name, obj in _public_callables(module).items() if _takes_a_vector(obj)
    }
    named = {name.split("[")[0] for name in CALLS}
    assert found <= named, sorted(found - named)


ZERO = weight_vector(0, 0)
LATTICE = surface.resolution_lattice(RS)

# values that are not integers: each stands in for 1, which every call below
# answers, so a refusal comes from the value's type and not from its size
NOT_INTEGERS = {"None": None, "str": "1", "float": 1.5, "integral float": 1.0}

# name, and the call with the value v in one integer position
INTEGER_CALLS = {
    "roots.RootSystem[rank]": lambda v: RootSystem("A", v),
    "roots.RootSystem.reflect_simple": lambda v: RS.reflect_simple(ZERO, v),
    "flag.schubert_restriction_degree": lambda v: flag.schubert_restriction_degree(RS, ZERO, v),
    "surface.ResolutionLattice.curve": lambda v: LATTICE.curve(v),
    "surface.ResolutionLattice.restriction_degree":
        lambda v: LATTICE.restriction_degree(LATTICE.curve(1), v),
    "chevalley.LieElement.h": lambda v: LieElement.h(RS, v),
    "chevalley.LieElement.scale": lambda v: LieElement.h(RS, 0).scale(v),
    "cotangent.euler_characteristic_graded[degree]":
        lambda v: cotangent.euler_characteristic_graded(RS, ZERO, v),
    "cotangent.euler_characteristic_graded[max_terms]":
        lambda v: cotangent.euler_characteristic_graded(RS, ZERO, 0, v),
    "batch.euler_characteristic_graded[degree]":
        lambda v: batch.euler_characteristic_graded(RS, ZERO, v),
    "batch.euler_characteristic_graded[max_terms]":
        lambda v: batch.euler_characteristic_graded(RS, ZERO, 0, v),
    "cotangent.verify_chain_criterion[radius]":
        lambda v: cotangent.verify_chain_criterion(RS, v),
    "cotangent.verify_chain_criterion[max_support]":
        lambda v: cotangent.verify_chain_criterion(RS, 1, v),
}

# max_support reads None, its default, as no cap on the support
NONE_IS_THE_DEFAULT = {"cotangent.verify_chain_criterion[max_support]"}


@pytest.mark.parametrize("name", INTEGER_CALLS, ids=str)
def test_every_integer_parameter_answers_one(name):
    INTEGER_CALLS[name](1)


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=str)
@pytest.mark.parametrize("name", INTEGER_CALLS, ids=str)
def test_every_integer_argument_is_refused_with_an_adelie_error(name, bad):
    call = INTEGER_CALLS[name]
    if bad == "None" and name in NONE_IS_THE_DEFAULT:
        assert call(None).ok
        return
    with pytest.raises(AdelieError):
        call(NOT_INTEGERS[bad])


# what stands in for a RootSystem: a spec string, None, a lattice and an
# unhashable list, each refused by roots.checked_system before any work (and
# before a cache hashes it)
NOT_SYSTEMS = {"spec": "A2", "None": None, "lattice": LATTICE, "list": [1, 2]}

# name, and the call with the value s in the RootSystem position
SYSTEM_CALLS = {
    "flag.is_singular": lambda s: flag.is_singular(s, ZERO),
    "flag.index": lambda s: flag.index(s, ZERO),
    "flag.dominant_conjugate": lambda s: flag.dominant_conjugate(s, ZERO),
    "flag.weyl_dim": lambda s: flag.weyl_dim(s, ZERO),
    "flag.bwb": lambda s: flag.bwb(s, ZERO),
    "flag.euler_characteristic": lambda s: flag.euler_characteristic(s, ZERO),
    "flag.schubert_restriction_degree": lambda s: flag.schubert_restriction_degree(s, ZERO, 1),
    "flag.verify_root_cohomology": lambda s: flag.verify_root_cohomology(s),
    "flag.verify_index_bound": lambda s: flag.verify_index_bound(s),
    "cotangent.dominance_leq": lambda s: cotangent.dominance_leq(s, ZERO, ZERO),
    "cotangent.lambda_plus": lambda s: cotangent.lambda_plus(s, ZERO),
    "cotangent.cht": lambda s: cotangent.cht(s, ZERO),
    "cotangent.lambda_star": lambda s: cotangent.lambda_star(s, ZERO),
    "cotangent.cotangent_verdict": lambda s: cotangent.cotangent_verdict(s, ZERO),
    "cotangent.verify_chain_criterion": lambda s: cotangent.verify_chain_criterion(s, 1),
    "cotangent.negative_root_descent": lambda s: cotangent.negative_root_descent(s, -ROOT),
    "cotangent.verify_descent": lambda s: cotangent.verify_descent(s),
    "cotangent.euler_characteristic_graded":
        lambda s: cotangent.euler_characteristic_graded(s, ZERO, 2),
}


@pytest.mark.parametrize("name", SYSTEM_CALLS, ids=str)
def test_every_system_parameter_answers_a_root_system(name):
    SYSTEM_CALLS[name](RS)


@pytest.mark.parametrize("bad", NOT_SYSTEMS, ids=str)
@pytest.mark.parametrize("name", SYSTEM_CALLS, ids=str)
def test_every_system_argument_is_refused_as_a_type_error(name, bad):
    with pytest.raises(NotARootSystem) as exc:
        SYSTEM_CALLS[name](NOT_SYSTEMS[bad])
    assert isinstance(exc.value, TypeError)
    assert str(exc.value) == f"{NOT_SYSTEMS[bad]!r} is not a RootSystem"


def test_the_table_names_every_function_of_flag_and_cotangent_that_takes_a_system():
    found = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        for module in (flag, cotangent)
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and getattr(obj, "__module__", None) == module.__name__
        and any("RootSystem" in str(p.annotation)
                for p in inspect.signature(obj).parameters.values())
    }
    assert found == set(SYSTEM_CALLS)


CURVE = LATTICE.curve(1)

# the surface's argument types: a value of each, which every call below
# answers, and the refusal of any other value at that type's one door
SURFACE_TYPES = {
    "RootSystem": (RS, NotARootSystem),
    "ResolutionLattice": (LATTICE, NotALattice),
    "DivisorClass": (CURVE, BasisMismatch),
}

# what stands in for each, beside a value of each other surface type
NOT_SURFACE = {"None": None, "str": "A2", "tuple": (1, 0), "list": [1, 2]}

# name[parameter], and the call with the value v in that parameter
SURFACE_CALLS = {
    "surface.resolution_lattice[rs]": lambda v: surface.resolution_lattice(v),
    "surface.verify_surface[rs]": lambda v: surface.verify_surface(v),
    "surface.root_to_divisor[lattice]": lambda v: surface.root_to_divisor(v, ROOT),
    "surface.divisor_to_root[lattice]": lambda v: surface.divisor_to_root(v, CURVE),
    "surface.divisor_to_root[d]": lambda v: surface.divisor_to_root(LATTICE, v),
    "surface.minus_two_classes[lattice]": lambda v: surface.minus_two_classes(v),
    "surface.surface_h2_oracle[lattice]": lambda v: surface.surface_h2_oracle(v),
    "surface.ResolutionLattice.degrees[d]": lambda v: LATTICE.degrees(v),
    "surface.ResolutionLattice.pair[a]": lambda v: LATTICE.pair(v, CURVE),
    "surface.ResolutionLattice.pair[b]": lambda v: LATTICE.pair(CURVE, v),
    "surface.ResolutionLattice.self_intersection[d]": lambda v: LATTICE.self_intersection(v),
    "surface.ResolutionLattice.restriction_degree[d]":
        lambda v: LATTICE.restriction_degree(v, 1),
}


# name[parameter] of every parameter of a public function or method of
# surface annotated with a surface type, and that type
SURFACE_PARAMETERS = {
    f"{name}[{p.name}]": p.annotation
    for name, obj in _public_callables(surface).items()
    for p in inspect.signature(obj).parameters.values()
    if p.annotation in SURFACE_TYPES
}


def test_the_table_names_every_surface_parameter_of_a_surface_type():
    assert SURFACE_PARAMETERS.keys() == SURFACE_CALLS.keys()


@pytest.mark.parametrize("name", SURFACE_CALLS, ids=str)
def test_every_surface_parameter_answers_its_type(name):
    SURFACE_CALLS[name](SURFACE_TYPES[SURFACE_PARAMETERS[name]][0])


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name, kind in SURFACE_PARAMETERS.items()
    for bad in [*NOT_SURFACE, *(other for other in SURFACE_TYPES if other != kind)]
], ids=str)
def test_every_surface_argument_is_refused_at_its_type_door(name, bad):
    kind = SURFACE_PARAMETERS[name]
    value = NOT_SURFACE[bad] if bad in NOT_SURFACE else SURFACE_TYPES[bad][0]
    with pytest.raises(SURFACE_TYPES[kind][1]):
        SURFACE_CALLS[name](value)


def test_a_lattice_over_no_root_system_is_refused_at_the_system_door():
    # root_to_divisor read lattice.system unchecked: a bare AttributeError
    with pytest.raises(NotARootSystem, match="None is not a RootSystem"):
        surface.root_to_divisor(ResolutionLattice(None, ()), ROOT)


# hand-built forms on A2 that are no 2 x 2 matrix of integers: one row once
# raised a bare IndexError in minus_two_classes and float entries a bare
# TypeError there, str entries one in the oracle and root_to_divisor, None
# one at every door, and the 3 x 3 form listed 2-coordinate classes
NOT_FORMS = {
    "one row": ((-2, 1),),
    "float": ((-2.0, 1.0), (1.0, -2.0)),
    "str": (("-2", "1"), ("1", "-2")),
    "None": None,
    "3 x 3": ((-2, 1, 0), (1, -2, 1), (0, 1, -2)),
}

# each function whose one door is the lattice check, with a lattice
LATTICE_DOORS = {
    "minus_two_classes": surface.minus_two_classes,
    "surface_h2_oracle": surface.surface_h2_oracle,
    "root_to_divisor": lambda lattice: surface.root_to_divisor(lattice, ROOT),
    "divisor_to_root": lambda lattice: surface.divisor_to_root(lattice, CURVE),
}


@pytest.mark.parametrize("door", LATTICE_DOORS)
@pytest.mark.parametrize("form", NOT_FORMS)
def test_a_form_that_is_no_integer_matrix_of_the_rank_is_refused_at_the_lattice_door(form, door):
    lattice = ResolutionLattice(RS, NOT_FORMS[form])
    with pytest.raises(NotALattice, match="^A2: the form is not a 2 x 2 matrix of integers$"):
        LATTICE_DOORS[door](lattice)


def test_the_lattice_door_reads_numpy_integer_entries():
    form = tuple(tuple(map(np.int64, row)) for row in LATTICE.intersection)
    lattice = ResolutionLattice(RS, form)
    for door in LATTICE_DOORS.values():
        door(lattice)
    assert surface.minus_two_classes(lattice) == surface.minus_two_classes(LATTICE)


NO_SYSTEM = ResolutionLattice(None, ())


@pytest.mark.parametrize("call", [
    lambda: NO_SYSTEM.rank,
    lambda: NO_SYSTEM.curve(1),
    lambda: NO_SYSTEM.degrees(DivisorClass(())),
    lambda: NO_SYSTEM.pair(DivisorClass(()), DivisorClass(())),
    lambda: NO_SYSTEM.self_intersection(DivisorClass(())),
    lambda: NO_SYSTEM.restriction_degree(DivisorClass(()), 1),
], ids=["rank", "curve", "degrees", "pair", "self_intersection", "restriction_degree"])
def test_a_lattice_over_no_root_system_refuses_in_its_own_methods(call):
    # rank read self.system unchecked: curve(1) raised a bare AttributeError
    with pytest.raises(NotARootSystem, match="^None is not a RootSystem$"):
        call()


CONSTANTS = build_constants(RS)
OBSTRUCTIONS = build_system(CONSTANTS, "positive")
H = LieElement.h(RS, 0)

# the argument types of batch, chevalley, obstruction and verify: a value of
# each, which every call below answers, and the refusal of any other value
# at that type's one door
ALGEBRA_TYPES = {
    "RootSystem": (RS, NotARootSystem),
    "ChevalleyConstants": (CONSTANTS, NotChevalleyConstants),
    "ObstructionSystem": (OBSTRUCTIONS, NotAnObstructionSystem),
    "LieElement": (H, NotALieElement),
}

# what stands in for each, beside a value of each other of these types
NOT_ALGEBRA = {"None": None, "str": "A2", "lattice": LATTICE, "list": [1, 2]}

# name[parameter], and the call with the value v in that parameter
ALGEBRA_CALLS = {
    "batch.euler_characteristic_graded[rs]":
        lambda v: batch.euler_characteristic_graded(v, ZERO, 2),
    "chevalley.build_constants[rs]": lambda v: build_constants(v),
    "chevalley.LieElement.h[system]": lambda v: LieElement.h(v, 0),
    "chevalley.LieElement.x[system]": lambda v: LieElement.x(v, ROOT),
    "chevalley.bracket[x]": lambda v: chevalley.bracket(v, H, CONSTANTS),
    "chevalley.bracket[y]": lambda v: chevalley.bracket(H, v, CONSTANTS),
    "chevalley.bracket[c]": lambda v: chevalley.bracket(H, H, v),
    "chevalley.adjoint_matrix[x]": lambda v: chevalley.adjoint_matrix(v, CONSTANTS),
    "chevalley.adjoint_matrix[c]": lambda v: chevalley.adjoint_matrix(H, v),
    "chevalley.verify_chevalley[c]": lambda v: chevalley.verify_chevalley(v),
    "chevalley.dump_constants[c]": lambda v: chevalley.dump_constants(v),
    "obstruction.build_system[constants]": lambda v: build_system(v, "positive"),
    "obstruction.check_bianchi[system]": lambda v: obstruction.check_bianchi(v),
    "obstruction.certify_solvability[system]":
        lambda v: obstruction.certify_solvability(v, half_h2_oracle(RS, "positive")),
    "obstruction.system_text[system]": lambda v: obstruction.system_text(v),
    "verify.flag_h2_oracle[rs]": lambda v: flag_h2_oracle(v),
    "verify.cotangent_h2_oracle[rs]": lambda v: cotangent_h2_oracle(v),
    "verify.half_h2_oracle[rs]": lambda v: half_h2_oracle(v, "negative"),
    "verify.verify_obstruction[rs]": lambda v: verify.verify_obstruction(v),
    "verify.detect_tampering[constants]": lambda v: verify.detect_tampering(v),
    "verify.run_suite[rs]": lambda v: verify.run_suite(v, "bwb"),
    "verify.verify_cht_roots[rs]": lambda v: verify.verify_cht_roots(v),
}

# name[parameter] of every parameter of a public function or method of these
# modules annotated with one of these types, and that type
ALGEBRA_PARAMETERS = {
    f"{name}[{p.name}]": p.annotation
    for module in (batch, chevalley, obstruction, verify)
    for name, obj in _public_callables(module).items()
    for p in inspect.signature(obj).parameters.values()
    if p.annotation in ALGEBRA_TYPES
}


def test_the_table_names_every_parameter_of_a_system_table_or_obstruction_type():
    assert ALGEBRA_PARAMETERS.keys() == ALGEBRA_CALLS.keys()


@pytest.mark.parametrize("name", ALGEBRA_CALLS, ids=str)
def test_every_algebra_parameter_answers_its_type(name):
    ALGEBRA_CALLS[name](ALGEBRA_TYPES[ALGEBRA_PARAMETERS[name]][0])


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name, kind in ALGEBRA_PARAMETERS.items()
    for bad in [*NOT_ALGEBRA, *(other for other in ALGEBRA_TYPES if other != kind)]
], ids=str)
def test_every_algebra_argument_is_refused_as_a_type_error_at_its_door(name, bad):
    kind = ALGEBRA_PARAMETERS[name]
    value = NOT_ALGEBRA[bad] if bad in NOT_ALGEBRA else ALGEBRA_TYPES[bad][0]
    with pytest.raises(ALGEBRA_TYPES[kind][1]) as exc:
        ALGEBRA_CALLS[name](value)
    assert isinstance(exc.value, TypeError)
    assert str(exc.value) in (f"{value!r} is not a {kind}", f"{value!r} is not an {kind}")


# fields that an element or a form refuses where it is made, the refusal and
# its message: repr(LieElement(RS, cartan=None)) raised a bare AttributeError,
# LieElement(None) + LieElement(None) answered 0, and a coefficient "a" printed
# as a*h1, as it printed as a*psi[0,1] in a form
PSI = ((), ((0, 1),))
FIELDS = {
    "LieElement[system]": (lambda: LieElement(None), NotARootSystem, "None is not a RootSystem"),
    "LieElement[cartan]": (lambda: LieElement(RS, cartan=None), NotALieElement,
                           "cartan None is not a dict of coefficients"),
    "LieElement[roots]": (lambda: LieElement(RS, roots=[(1, 0)]), NotALieElement,
                          "roots [(1, 0)] is not a dict of coefficients"),
    "LieElement[cartan index]": (lambda: LieElement(RS, {2: 1}), IndexOutOfRange,
                                 "Cartan index 2 outside 0..1"),
    "LieElement[root key]": (lambda: LieElement(RS, roots={(2, 0): 1}), NotARootClass,
                             "{2,0|root} is not a root of A2"),
    # (1.0, 0) equals the root key (1, 0) and hashes as it does
    "LieElement[float root key]": (lambda: LieElement(RS, roots={(1.0, 0): 1}),
                                   NonIntegerCoordinate, "coordinates (1.0, 0) are not integers"),
    "LieElement[root key of another rank]": (lambda: LieElement(RS, roots={5: 1}),
                                             BasisMismatch,
                                             "A2 reads LatticeVectors of rank 2, not 5"),
    "LieElement[cartan coefficient]": (lambda: LieElement(RS, {0: "a"}), NonIntegerCoordinate,
                                       "coefficient 'a' is not an integer"),
    "LieElement[root coefficient]": (lambda: LieElement(RS, roots={(1, 0): 1.5}),
                                     NonIntegerCoordinate, "coefficient 1.5 is not an integer"),
    "FormalForm[str coefficient]": (lambda: FormalForm({PSI: "a"}), NotAnObstructionSystem,
                                    "form coefficient 'a' is not an int"),
    "FormalForm[float coefficient]": (lambda: FormalForm({PSI: 1.5}), NotAnObstructionSystem,
                                      "form coefficient 1.5 is not an int"),
}


@pytest.mark.parametrize("name", FIELDS, ids=str)
def test_a_field_of_another_type_is_refused_where_the_value_is_made(name):
    make, refusal, message = FIELDS[name]
    with pytest.raises(refusal) as exc:
        make()
    assert str(exc.value) == message


def test_fields_that_pass_are_kept_as_python_ints():
    # numpy integers are read through operator.index; the element keeps ints
    e = LieElement(RS, {np.int64(0): np.int8(3)}, {(np.int64(1), 0): True})
    assert (e.cartan, e.roots) == ({0: 3}, {(1, 0): 1})
    assert all(type(v) is int for v in (*e.cartan, *e.cartan.values(), *e.roots.values()))
    assert repr(e) == "3*h1 + 1*x[1, 0]"
    assert repr(FormalForm({PSI: 2})) == "2*psi[0,1]"


# kinds that RootSystem refuses at rank 3, and how its message names each: a
# kind of letters beside the rank, any other by its repr
KINDS = {
    "None": (None, "kind None with rank 3"),
    "int": (3, "kind 3 with rank 3"),
    "float": (1.5, "kind 1.5 with rank 3"),
    "tuple": (("A",), "kind ('A',) with rank 3"),
    "lower case": ("a", "a3"),
    "B": ("B", "B3"),
    "two letters": ("AD", "AD3"),
    "empty": ("", "kind '' with rank 3"),
}


@pytest.mark.parametrize("name", KINDS, ids=str)
def test_every_other_kind_is_refused_by_name(name):
    kind, named = KINDS[name]
    with pytest.raises(IllegalType) as exc:
        RootSystem(kind, 3)
    assert str(exc.value) == f"{named} is not an ADE Dynkin diagram: A1.., D3.., E6..E8"


def test_a_root_of_another_rank_has_no_height():
    # the root basis returned the vector unchecked, and height read 3
    message = r"A2 reads LatticeVectors of rank 2, not \{1,1,1\|root\}"
    with pytest.raises(BasisMismatch, match=message):
        RS.height(root_vector(1, 1, 1))


def test_true_is_read_as_one():
    # operator.index reads True as 1, as it reads every integer argument
    assert RootSystem("A", True).name == "A1"


@pytest.mark.parametrize("kind", ["A", "D"])
def test_a_system_past_the_budget_is_refused_before_any_work(kind):
    # A300 ran past a minute; A64, the bound, is built in test_cotangent.py
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="rank 300 past the RootSystem budget, rank 64"):
        RootSystem(kind, 300)
    assert time.perf_counter() - start < 1
    assert MAX_SYSTEM_RANK == 64
