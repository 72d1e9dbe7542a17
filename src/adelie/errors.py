"""Exception types shared across the package."""


class AdelieError(Exception):
    """Base class for all errors raised by this package."""


class IllegalType(AdelieError):
    """Kind and rank that draw no ADE Dynkin diagram, a type past build's cap,
    or a suite or obstruction half that names none."""


class BasisMismatch(AdelieError):
    """Two lattice vectors disagree on rank or were combined across bases, a
    lattice vector was combined with something that is not one, or a root
    system was handed a vector argument that is not a LatticeVector of its
    rank (RootSystem checks every such argument at one door), or a lattice a
    divisor argument that is not a DivisorClass."""


class NonIntegerCoordinate(AdelieError, TypeError):
    """Lattice coordinate that is not an integer (a float, Fraction or str)."""


class NonIntegerRank(AdelieError, TypeError):
    """Root system rank that is not an integer (a float, Fraction or str)."""


class NotARootSystem(AdelieError, TypeError):
    """Root system argument that is not a RootSystem (a spec string or None)."""


class NotALattice(AdelieError, TypeError):
    """Lattice argument that is not a ResolutionLattice (a RootSystem or None)."""


class NotChevalleyConstants(AdelieError, TypeError):
    """Structure-constant argument, an ObstructionSystem's too, that is not a
    ChevalleyConstants (a RootSystem or None), or a sign table that is not an
    integer array of -1, 0 and +1 in the system's shape."""


class NotAnObstructionSystem(AdelieError, TypeError):
    """Obstruction-system argument that is not an ObstructionSystem (its
    ChevalleyConstants or None), forms that are not a mapping of FormalForms
    keyed by integer tuples, a FormalForm whose keys are not (phis, psis)
    pairs of integer tuples or whose coefficients are not ints, or a form
    argument that is not a FormalForm."""


class NotALieElement(AdelieError, TypeError):
    """Lie-algebra element argument that is not a LieElement (None or an int)."""


class ImmutableVector(AdelieError, AttributeError):
    """Attempt to change or delete a coordinate or the basis of a lattice vector."""


class ImmutableSystem(AdelieError, AttributeError):
    """Attempt to change or delete an attribute of a built root system."""


class MixedSigns(AdelieError, ValueError):
    """Vector with both positive and negative simple-root coordinates."""


class NotPositiveDefinite(AdelieError, ValueError):
    """Symmetric form with a leading principal minor that is not positive."""


class NotInRootLattice(AdelieError):
    """Weight-basis vector has no integral simple-root expansion."""


class ConstructionFailure(AdelieError):
    """A structure-constant invariant failed; signals an implementation bug."""


class NotDominant(AdelieError):
    """Operation requires a dominant weight."""


class IndexOutOfRange(AdelieError, IndexError):
    """Simple-root or curve index outside its range."""


class NegativeDegree(AdelieError):
    """Symmetric degree below zero."""


class NonIntegerDegree(AdelieError, TypeError):
    """Symmetric degree that is not an integer (a float, Fraction or str)."""


class InvalidBound(AdelieError, ValueError):
    """Radius, support cap or term budget that is not an integer, or a negative radius or cap."""


class CoefficientOverflow(AdelieError, OverflowError):
    """Coefficients too large for the int64 array asked for."""


class BudgetExceeded(AdelieError):
    """Enumeration would exceed the configured budget, or a RootSystem rank is
    past MAX_SYSTEM_RANK."""


class CancellationFailure(AdelieError):
    """Curvature expansion left terms outside the expected span."""


class IncompleteOracle(AdelieError):
    """An H^2 oracle handed to certify_solvability is not callable, or answered
    with something other than an H2VanishVerdict (None and a bool included)."""


class NotARootClass(AdelieError):
    """Divisor class is not the image of a root."""


class SystemMismatch(AdelieError):
    """Objects built from different root systems were mixed."""
