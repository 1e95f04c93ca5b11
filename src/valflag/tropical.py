"""Max-plus (tropical) Laurent polynomials over the rational semifield.

Coefficients are stored in log convention: the written form t^a is stored
as the rational a, so tropical multiplication of coefficients is rational
addition and the tropical zero is -infinity (represented by the float
flag NEG_INF, never stored inside a polynomial).

A polynomial is a sparse map from integer exponent vectors to rational
coefficient exponents; tropical addition is coefficientwise max and is
idempotent (f + f = f).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import DimensionError, DomainError, ParseError, expect
from .scalars import ONE, RationalLike, Scalar, _Cursor, _parse_int, _parse_rational, dot, exact_int, exact_rational, exact_rows, exact_vector

NEG_INF = float("-inf")


def _exponents(u) -> tuple[int, ...]:
    return exact_vector(u, "exponent vector", lambda e: exact_int(e, "exponent"))


@dataclass(frozen=True)
class ExponentVector:
    """(gamma, u): the coefficient exponent and the monomial exponents of a
    term t^gamma * x^u, also used as a lattice point of ℚ x Z^n."""

    gamma: Fraction
    u: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "gamma", exact_rational(self.gamma, "coefficient exponent")
        )
        object.__setattr__(self, "u", _exponents(self.u))

    @property
    def n(self) -> int:
        return len(self.u)

    def add(self, other: "ExponentVector") -> "ExponentVector":
        self._check(other)
        return ExponentVector(
            self.gamma + other.gamma,
            tuple(a + b for a, b in zip(self.u, other.u)),
        )

    def sub(self, other: "ExponentVector") -> "ExponentVector":
        self._check(other)
        return ExponentVector(
            self.gamma - other.gamma,
            tuple(a - b for a, b in zip(self.u, other.u)),
        )

    def scale(self, k: int) -> "ExponentVector":
        k = exact_int(k, "scale factor")
        return ExponentVector(self.gamma * k, tuple(e * k for e in self.u))

    def _check(self, other: "ExponentVector") -> None:
        if len(self.u) != len(other.u):
            raise DimensionError(
                f"exponent vectors of lengths {len(self.u)} and {len(other.u)}"
            )


class TropPolynomial:
    """Sparse tropical Laurent polynomial in n variables."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], RationalLike] = ()):
        """Build from a map, or pairs, exponent -> coefficient exponent; a
        repeated exponent keeps its largest coefficient (tropical sum)."""
        self.n = exact_int(n, "variable count", 0)
        clean: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for u, gamma in exact_rows(items, 2, "term (exponent, coefficient exponent)"):
            u = _exponents(u)
            if len(u) != self.n:
                raise DimensionError(
                    f"exponent {u} has length {len(u)}, expected {self.n}"
                )
            gamma = exact_rational(gamma, "coefficient exponent")
            prev = clean.get(u)
            if prev is None or gamma > prev:
                clean[u] = gamma
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TropPolynomial":
        return cls(n, {})

    @classmethod
    def unit(cls, n: int) -> "TropPolynomial":
        """The multiplicative unit 1 = t^0."""
        return cls(n, {(0,) * n: Fraction(0)})

    @classmethod
    def term(cls, gamma: RationalLike, u: Sequence[int]) -> "TropPolynomial":
        u = _exponents(u)
        return cls(len(u), {u: gamma})

    @classmethod
    def from_exponent(cls, ev: ExponentVector) -> "TropPolynomial":
        return cls.term(ev.gamma, ev.u)

    # -- structure -------------------------------------------------------

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self._terms.items())

    def exponents(self) -> Iterator[ExponentVector]:
        for u, gamma in self.items():
            yield ExponentVector(gamma, u)

    def is_zero(self) -> bool:
        return not self._terms

    def is_term(self) -> bool:
        return len(self._terms) == 1

    def the_term(self) -> ExponentVector:
        if not self.is_term():
            raise DomainError(f"{self} is not a single term")
        ((u, gamma),) = self._terms.items()
        return ExponentVector(gamma, u)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.items())))

    # -- semiring arithmetic ----------------------------------------------

    def _check(self, other: "TropPolynomial") -> None:
        if self.n != other.n:
            raise DimensionError(
                f"polynomials in {self.n} and {other.n} variables"
            )

    def __add__(self, other: "TropPolynomial") -> "TropPolynomial":
        """Tropical sum: coefficientwise max."""
        self._check(other)
        return TropPolynomial(self.n, [*self._terms.items(), *other._terms.items()])

    def __mul__(self, other: "TropPolynomial") -> "TropPolynomial":
        """Tropical product: max-plus convolution."""
        self._check(other)
        pairs = [(tuple(i + j for i, j in zip(u, v)), a + b)
                 for u, a in self._terms.items() for v, b in other._terms.items()]
        return TropPolynomial(self.n, pairs)

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, x: Sequence[Scalar]):
        """max over terms of gamma + <x, u>; NEG_INF for the zero polynomial."""
        return self.eval_homog(ONE, x)

    def eval_homog(self, r: Scalar, x: Sequence[Scalar]):
        """max over terms of r*gamma + <x, u>; requires r >= 0."""
        r = Scalar.coerce(r)
        if r.sign() < 0:
            raise DomainError(f"homogenizing coordinate must be >= 0, got {r}")
        if len(x) != self.n:
            raise DimensionError(
                f"point of length {len(x)} for a {self.n}-variable polynomial"
            )
        if not self._terms:
            return NEG_INF
        best = None
        for u, gamma in self._terms.items():
            val = r._scale(gamma) + dot(x, u)
            if best is None or val > best:
                best = val
        return best

    def __str__(self) -> str:
        names = _default_names(self.n)
        return format_poly(self, names)

    def __repr__(self) -> str:
        return f"TropPolynomial({self.n}, {self!s})"


def _default_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]


# -- text grammar ----------------------------------------------------------
#
# poly   := '0' | term ('+' term)*
# term   := factor ('*' factor)*
# factor := 't' '^' rational | name ('^' int)?
#
# rational and int are the scalar grammar's, signs and spaces included.
# Repeated factors multiply (exponents add).  A term with no t factor has
# coefficient exponent 0.  Names are distinct identifiers other than t, and
# are matched longest first, so that a name x1 is not read as x.


def check_names(names: Sequence[str]) -> list[str]:
    """names as a list; DomainError unless they are a sequence, which a str
    is not, and ParseError unless they are distinct identifiers other than
    t, so that every formatted term reads back."""
    names = list(exact_vector(names, "variable names", lambda x: x))
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name.isidentifier():
            raise ParseError(f"variable name {name!r} is not an identifier")
        if name == "t":
            raise ParseError("variable name 't' is reserved for coefficients")
        if name in names[:i]:
            raise ParseError(f"variable name {name!r} is repeated")
    return names


def _read_terms(
    text: str, names: Sequence[str], single: bool = False
) -> list[tuple[tuple[int, ...], Fraction]]:
    """The terms of text as (u, gamma) pairs in the order written, before
    any merge; with single, exactly one term.  A ParseError points at the
    offending character.  names is a list that check_names returned."""
    cur = _Cursor(text)
    if text.strip() == "0" and not single:
        return []
    index = {name: i for i, name in enumerate(names)}
    symbols = sorted([*names, "t"], key=len, reverse=True)
    terms = []
    while True:
        gamma = Fraction(0)
        u = [0] * len(names)
        while True:
            name = next((s for s in symbols if cur.take(s)), None)
            if name is None:
                raise ParseError("expected 't^' or a variable", text, cur.pos)
            if name == "t":
                cur.expect("^")
                gamma += _parse_rational(cur)
            else:
                u[index[name]] += _parse_int(cur) if cur.take("^") else 1
            if not cur.take("*"):
                break
        terms.append((tuple(u), gamma))
        if single or not cur.take("+"):
            break
    if cur.done():
        return terms
    if single and cur.peek() == "+":
        raise ParseError("expected a single term", text, cur.pos)
    raise ParseError("expected '*' or '+'", text, cur.pos)


def parse_poly(text: str, names: Sequence[str]) -> TropPolynomial:
    names = check_names(names)
    return TropPolynomial(len(names), _read_terms(text, names))


def parse_term(text: str, names: Sequence[str]) -> ExponentVector:
    """The one term written in text; a sum is refused even when its terms
    merge into one."""
    ((u, gamma),) = _read_terms(text, check_names(names), single=True)
    return ExponentVector(gamma, u)


def format_exponent(ev: ExponentVector, names: Sequence[str]) -> str:
    expect(ev, ExponentVector, "term")
    names = exact_vector(
        names, "variable names", lambda x: expect(x, str, "variable name")
    )
    parts = []
    if ev.gamma != 0 or not any(ev.u):
        parts.append(f"t^{ev.gamma}")
    for name, e in zip(names, ev.u):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(f: TropPolynomial, names: Sequence[str]) -> str:
    if expect(f, TropPolynomial, "polynomial").is_zero():
        return "0"
    return " + ".join(format_exponent(ev, names) for ev in f.exponents())
