"""Exception hierarchy for the asym package.

Input-validation failures (bad tables, non-unitary matrices, malformed
files) and domain failures (rate not below optimal, a projective rep in the
Gram view) are kept distinct so the CLI can map them to different exit
codes. A conversion that is impossible is a verdict, not an error.
"""


class AsymError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AsymError):
    """Input fails a structural invariant (bad table, bad matrix, bad file)."""


class AxiomViolation(ValidationError):
    def __init__(self, axiom: str, witness=None):
        self.axiom = axiom
        self.witness = witness
        msg = f"group axiom violated: {axiom}"
        if witness is not None:
            msg += f" (witness {witness})"
        super().__init__(msg)


class UnknownGroupName(ValidationError):
    pass


class NotUnitary(ValidationError):
    def __init__(self, element: int, deviation: float):
        self.element = element
        self.deviation = deviation
        super().__init__(f"matrix for element {element} is not unitary (max deviation {deviation:.3e})")


class NotProjective(ValidationError):
    def __init__(self, g: int, h: int, deviation: float):
        self.pair = (g, h)
        self.deviation = deviation
        super().__init__(
            f"U({g})U({h})U({g}{h})^+ is not a phase multiple of the identity "
            f"(max deviation {deviation:.3e})"
        )


class DimensionMismatch(ValidationError):
    pass


class GroupMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NotAState(ValidationError):
    pass


class DomainError(AsymError):
    """Argument outside the mathematical domain of an operation."""


class SymNotSubgroup(AsymError):
    """The |chi| = 1 set failed the subgroup check; tolerances are off."""


class SelfCheckFailed(AsymError):
    """A computed result failed its built-in consistency check; tolerances are off."""


class RateNotBelowOptimal(AsymError):
    """Requested rate is not strictly below the optimal exact rate (s >= 1)."""


class NotHermitian(AsymError):
    """Values a caller passes miss f(g^-1) = conj f(g), or are not finite."""


class NotAbelian(AsymError):
    pass


class NotSimultaneouslyDiagonalizable(AsymError):
    """The representation matrices do not commute (genuinely projective rep)."""
