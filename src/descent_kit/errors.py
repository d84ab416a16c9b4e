"""Exception types shared across the library.

Mathematical obstructions (a non-invertible descent matrix, a non-unit
pivot) are ordinary, expected outcomes and get their own classes so callers
can tell them apart from malformed input.
"""


class DescentKitError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(DescentKitError, ZeroDivisionError):
    """Division by the zero scalar."""


class ParseError(DescentKitError):
    """A polynomial string or problem file does not match the grammar."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class ResourceLimit(DescentKitError):
    """A configurable computation budget was exceeded."""


class NotAUnit(DescentKitError):
    """The element is not invertible in the presented ring."""

    def __init__(self, element_repr):
        super().__init__(f"not a unit: {element_repr}")
        self.element_repr = element_repr


class VariableClash(DescentKitError):
    """Two presentations share variable names and renaming is disabled."""


class InvalidAlgebra(DescentKitError):
    """A structure-constant algebra violates one of its axioms."""

    def __init__(self, axiom, indices):
        super().__init__(f"algebra axiom violated: {axiom} at {indices}")
        self.axiom = axiom
        self.indices = indices


class BadIdempotents(DescentKitError):
    """Supplied factor idempotents are not orthogonal or do not sum to 1."""


class NotLocalFactor(DescentKitError):
    """A factor is not local with residue field k."""


class NotNilpotent(DescentKitError):
    """A claimed maximal-ideal element is not nilpotent."""


class StrataMismatch(DescentKitError):
    """The supplied basis is not stratified; a corrected one is attached."""

    def __init__(self, message, corrected_basis):
        super().__init__(message)
        self.corrected_basis = corrected_basis


class NotWellDefined(DescentKitError):
    """An operator structure does not descend to the presented quotient."""

    def __init__(self, relation_repr, coordinate):
        super().__init__(
            f"structure not well defined: coordinate {coordinate} of the image of "
            f"relation {relation_repr} is not in the relation ideal"
        )
        self.relation_repr = relation_repr
        self.coordinate = coordinate


class BaseMismatch(DescentKitError):
    """A structure does not restrict to the declared base structure."""


class NotDIdeal(DescentKitError):
    """The ideal is not closed under the coordinate operators."""


class TruncationExceeded(DescentKitError):
    """An operation needs operator words beyond the truncation depth."""


class NonInvertibleMatrix(DescentKitError):
    """The matrix is not invertible over the base ring.

    This is the obstruction that aborts a descent; ``witness`` carries a
    human-readable reason (a non-unit determinant or pivot column), and
    ``matrix`` the rendered rows of the descent matrix that failed, when the
    raiser knows which one it was (None otherwise).
    """

    def __init__(self, witness, matrix=None):
        super().__init__(f"matrix not invertible over the base ring: {witness}")
        self.witness = witness
        self.matrix = matrix


class SingularBasisChange(DescentKitError):
    """A change-of-basis matrix is singular over k."""


class NotAHomomorphism(DescentKitError):
    """Generator images do not kill the required relations."""


class NotADHomomorphism(DescentKitError):
    """The map is an algebra homomorphism but not an operator homomorphism."""


class CarrierMismatch(DescentKitError):
    """Two structures do not live on the same carrier ring."""


class NotFiniteDimensional(DescentKitError):
    """The target is not a finite set, so homomorphisms cannot be enumerated."""


class CombinatorialBudgetExceeded(DescentKitError):
    """The enumeration would test more candidates than the budget allows."""

    def __init__(self, candidates, budget):
        super().__init__(f"{candidates} candidate assignments exceed budget {budget}")
        self.candidates = candidates
        self.budget = budget
