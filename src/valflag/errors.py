"""Shared exception types.

Every refusal of a caller's input by a public name, a name in
valflag.__all__ or a method of one of its classes, is a ValflagError.  An
exact value is an int that is not a bool, a Fraction, or, where a scalar
is expected, a string of the scalar grammar; a float, a bool, None or any
other value raises DomainError (scalars.exact_int and exact_rational).  An
argument typed as a class, such as the Prime or ExponentVector of a
decision function or the other term of ExponentVector.sub, must be an
instance of it, or expect raises DomainError.  The inequality systems of
valflag.polyhedra (IneqSystem, fm_feasible) are private to the package,
and refuse the same way.

Exit-code mapping used by the CLI: ParseError -> 2, everything else
derived from ValflagError -> 3.
"""


class ValflagError(Exception):
    """Base class for all library errors."""


class ParseError(ValflagError):
    """Input text does not conform to a grammar.

    Carries the text and a character position in it; the message names the
    line and column of that position, computed when the error is raised.
    """

    def __init__(self, message: str, text: str = "", pos: int = 0):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(self._format())

    def _format(self) -> str:
        if not self.text:
            return self.message
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return f"{self.message} (line {line}, column {col})"


class DimensionError(ValflagError):
    """Operands have incompatible dimensions or variable counts."""


class DomainError(ValflagError, ValueError):
    """A precondition is violated or a value is not exact; a ValueError too."""


class CapacityError(ValflagError):
    """A configured resource bound was exceeded: the radical cap, which
    bounds the distinct primes under the square roots of one scalar."""


def expect(value, cls, what: str):
    """value itself when it is an instance of cls (a class or a tuple of
    classes); DomainError naming what and the expected class otherwise."""
    if not isinstance(value, cls):
        names = " or ".join(
            c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,))
        )
        raise DomainError(f"{what} must be of type {names}, got {value!r}")
    return value
