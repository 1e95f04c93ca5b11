"""Exact arithmetic in real multi-quadratic extensions of the rationals.

A scalar is a finite sum sum_n q_n * sqrt(n) over distinct squarefree
nonnegative integers n with rational coefficients q_n; the key n = 1 holds
the rational part.  Because square roots of distinct squarefree integers are
linearly independent over the rationals, the representation is unique and
the zero test is structural: a scalar is zero iff its term map is empty.

Sign determination never trusts floating point: it brackets the value
between two integers over one common denominator (``math.isqrt`` bounds on
each radical) at doubling precision, which terminates for any nonzero
value.

Non-goals: general real algebraic numbers (cubic or higher radicals raise
no claim here).  The representable field is ℚ(sqrt(p1), ..., sqrt(pk)) for
primes p_i, with k capped: default 6, overridable through the
VALFLAG_RADICAL_CAP environment variable.  That field is closed under the
field operations and has a basis of the 2^k square roots of products of
the p_i (Besicovitch 1940), so the cap bounds every value of a computation
by 2^k terms, whatever the order of its operations.  Each scalar keeps a
bitmask of its primes: ``Scalar(terms)`` computes it exactly, a sum,
product or quotient takes the OR of its operands' masks, and the cap is
read only when that OR holds a prime that each operand lacks.

Arithmetic results are built already reduced (squarefree keys, nonzero
``Fraction`` coefficients) and skip the reduction that ``Scalar(terms)``
applies to arbitrary input.  A product of two irrational scalars sums its
partial products on integer numerators, each operand over its common
denominator, and builds one ``Fraction`` per result term.  Since a scalar
is immutable, a sum with a zero addend and a scale by 1 return the other
operand itself.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import CapacityError, DomainError, ParseError, expect

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction, str]

DEFAULT_RADICAL_CAP = 6
RADICAL_CAP_ENV = "VALFLAG_RADICAL_CAP"


def _check_radical_cap(primes: int) -> None:
    """Raise CapacityError when a prime mask holds more primes than the
    current cap, VALFLAG_RADICAL_CAP or else DEFAULT_RADICAL_CAP."""
    raw = os.environ.get(RADICAL_CAP_ENV)
    try:
        cap = DEFAULT_RADICAL_CAP if raw is None else int(raw)
    except ValueError as exc:
        raise CapacityError(
            f"{RADICAL_CAP_ENV} must be an integer, got {raw!r}"
        ) from exc
    if cap < 1:
        raise CapacityError(f"{RADICAL_CAP_ENV} must be positive, got {cap}")
    count = primes.bit_count()
    if count > cap:
        raise CapacityError(
            f"scalar would carry {count} distinct primes under its square "
            f"roots, cap is {cap} (set {RADICAL_CAP_ENV} to raise it)"
        )


# The bit of each prime in a scalar's _primes mask, assigned when the prime
# is first seen and fixed for the life of the process.  The counter hands out
# each bit once, also to threads that meet new primes at the same time.
_PRIME_BITS: dict[int, int] = {}
_NEXT_BIT = itertools.count()


def _prime_mask(n: int) -> int:
    """Mask of the primes dividing n (squarefree)."""
    mask = 0
    while n > 1:
        p = _smallest_prime_factor(n)
        bit = _PRIME_BITS.get(p)
        if bit is None:
            bit = _PRIME_BITS.setdefault(p, next(_NEXT_BIT))
        mask |= 1 << bit
        n //= p
    return mask


def _union(a: "Scalar", b: "Scalar") -> int:
    """The OR of two prime masks; the cap is read only when it holds a
    prime that each of them lacks."""
    primes = a._primes | b._primes
    if primes != a._primes and primes != b._primes:
        _check_radical_cap(primes)
    return primes


def exact_int(x: int, what: str, minimum: int | None = None) -> int:
    """x as an int; DomainError unless it is an int other than a bool, and
    at least minimum when one is given."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what} must be an int, got {x!r}")
    if minimum is not None and x < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {x}")
    return int(x)


def exact_rational(q: RationalLike, what: str) -> Fraction:
    """q as a Fraction; DomainError unless it is a Fraction or an int other
    than a bool."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, bool) or not isinstance(q, int):
        raise DomainError(f"{what} must be an int or a Fraction, got {q!r}")
    return Fraction(q)


def exact_vector(v: Iterable, what: str, read: Optional[Callable] = None) -> tuple:
    """v's entries as a tuple, each read by read (Scalar.coerce by default);
    DomainError for a str, bytes or non-iterable, none of which is a vector.
    """
    if isinstance(v, (str, bytes)):
        raise DomainError(f"{what} must be a sequence, got {v!r}")
    try:
        entries = iter(v)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {v!r}") from None
    read = read or Scalar.coerce
    return tuple([read(x) for x in entries])


def exact_rows(rows: Iterable, count: int, what: str) -> tuple:
    """rows as a tuple of tuples of exactly count entries; DomainError when
    rows is no sequence, or naming a row that is not a sequence of count
    entries."""
    def fields(row):
        entries = exact_vector(row, what, lambda x: x)
        if len(entries) != count:
            raise DomainError(f"{what} must have {count} entries, got {row!r}")
        return entries
    return exact_vector(rows, "row list", fields)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * inner with inner squarefree, for an int n >= 1;
    returns (outer, inner).

    Trial division; radicands in this library stay small.
    """
    outer, inner = 1, 1
    while n > 1:
        p = _smallest_prime_factor(n)
        n //= p
        if n % p == 0:
            n //= p
            outer *= p
        else:
            inner *= p
    return outer, inner


class Scalar:
    """An element of a real multi-quadratic field, exact and immutable."""

    __slots__ = ("_terms", "_primes", "_hash")

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        """Build from a map radicand -> coefficient.

        Radicands need not be squarefree; they are reduced (8 -> 2*sqrt(2)),
        and a term with a zero radicand or coefficient is dropped.  A radicand
        is an exact_int >= 0 and a coefficient an exact_rational, so that
        every scalar is the exact value that was written.
        """
        reduced: dict[int, Fraction] = {}
        try:
            items = () if terms is None else terms.items()
        except AttributeError:
            raise DomainError(f"scalar terms must be a mapping, got {terms!r}") from None
        for n, q in items:
            n = exact_int(n, "radicand", 0)
            q = exact_rational(q, "coefficient")
            if not q or not n:
                continue
            outer, inner = squarefree_split(n)
            coeff = q * outer
            acc = reduced.get(inner, Fraction(0)) + coeff
            if acc:
                reduced[inner] = acc
            elif inner in reduced:
                del reduced[inner]
        primes = 0
        for n in reduced:
            primes |= _prime_mask(n)
        _check_radical_cap(primes)
        self._terms = reduced
        self._primes = primes
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _reduced(cls, terms: dict[int, Fraction], primes: int) -> "Scalar":
        """Wrap a map that is already reduced: squarefree keys and nonzero
        Fraction values, with a prime mask covering its keys.  The map is
        taken, not copied.
        """
        out = object.__new__(cls)
        out._terms = terms
        out._primes = primes
        out._hash = None
        return out

    @classmethod
    def rational(cls, q: RationalLike) -> "Scalar":
        if not isinstance(q, Fraction):
            q = exact_rational(q, "scalar")
        return cls._reduced({1: q} if q else {}, 0)

    @classmethod
    def sqrt(cls, n: int) -> "Scalar":
        return cls({exact_int(n, "radicand", 0): 1})

    @staticmethod
    def coerce(value: ScalarLike) -> "Scalar":
        """value as a Scalar; a string is read by parse_scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, str):
            return parse_scalar(value)
        return Scalar.rational(value)

    # -- structure ----------------------------------------------------

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return sorted(self._terms.items())

    def coefficient(self, radicand: int) -> Fraction:
        return self._terms.get(exact_int(radicand, "radicand", 0), Fraction(0))

    def rational_part(self) -> Fraction:
        return self._terms.get(1, Fraction(0))

    def radicals(self) -> list[int]:
        """Squarefree radicands n > 1 present in this scalar, sorted."""
        return sorted(n for n in self._terms if n != 1)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        # the prime mask covers the radicands, so an empty one settles it
        return not self._primes or all(n == 1 for n in self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is irrational")
        return self.rational_part()

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for n, q in other._terms.items():
            if n in merged:
                acc = merged[n] + q
                if acc:
                    merged[n] = acc
                else:
                    del merged[n]
            else:
                merged[n] = q
        return Scalar._reduced(merged, _union(self, other))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._reduced(
            {n: -q for n, q in self._terms.items()}, self._primes
        )

    def __sub__(self, other: ScalarLike) -> "Scalar":
        """__add__'s merge with other's coefficients negated in place, so
        no negated copy of other is built."""
        other = Scalar.coerce(other)
        if not other._terms:
            return self
        merged = dict(self._terms)
        for n, q in other._terms.items():
            acc = merged[n] - q if n in merged else -q
            if acc:
                merged[n] = acc
            else:
                del merged[n]
        return Scalar._reduced(merged, _union(self, other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.coerce(other)
        a, b = self._terms, other._terms
        if len(b) == 1 and 1 in b:
            return self._scale(b[1])
        if len(a) == 1 and 1 in a:
            return other._scale(a[1])
        # integer numerators over each operand's common denominator, as in
        # _interval: the partial products add up as ints, and each result
        # term is one Fraction
        da = math.lcm(*(q.denominator for q in a.values()))
        db = math.lcm(*(q.denominator for q in b.values()))
        nb = [(n, q.numerator * (db // q.denominator)) for n, q in b.items()]
        prod: dict[int, int] = {}
        for m, qm in a.items():
            x = qm.numerator * (da // qm.denominator)
            for n, y in nb:
                # m, n squarefree: sqrt(m)*sqrt(n) = g*sqrt((m/g)*(n/g)), and
                # (m/g)*(n/g) is squarefree again
                g = math.gcd(m, n)
                key = (m // g) * (n // g)
                prod[key] = prod.get(key, 0) + x * y * g
        den = da * db
        return Scalar._reduced(
            {n: Fraction(v, den) for n, v in prod.items() if v},
            _union(self, other),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        num, den = self, other
        while not den.is_rational():
            p = _smallest_prime_factor(min(den.radicals()))
            conj = Scalar._reduced(
                {n: (-q if n % p == 0 else q) for n, q in den._terms.items()},
                den._primes,
            )
            num = num * conj
            den = den * conj
        return num._scale(1 / den.as_rational())

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other) / self

    def _scale(self, q: RationalLike) -> "Scalar":
        if not q:
            return ZERO
        if q == 1:
            return self
        return Scalar._reduced(
            {n: c * q for n, c in self._terms.items()}, self._primes
        )

    # -- order ----------------------------------------------------------

    def _interval(self, prec: int) -> tuple[int, int, int]:
        """(lo, hi, den) with lo/den <= self <= hi/den.

        den is the common denominator of the coefficients times 2**prec,
        and t/2**prec <= sqrt(n) < (t+1)/2**prec with t = isqrt(n*4**prec)
        brackets each radical, so every term adds integer numerators.
        """
        den = math.lcm(*(q.denominator for q in self._terms.values()))
        lo = hi = 0
        for n, q in self._terms.items():
            a = q.numerator * (den // q.denominator)
            if n == 1:
                lo += a << prec
                hi += a << prec
                continue
            t = math.isqrt(n << (2 * prec))
            if a >= 0:
                lo += a * t
                hi += a * (t + 1)
            else:
                lo += a * (t + 1)
                hi += a * t
        return lo, hi, den << prec

    def _brackets(self) -> Iterator[tuple[int, int, int]]:
        """_interval at precision 64, 128, 256, ...; they close in on self."""
        for k in itertools.count():
            yield self._interval(64 << k)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        if not self._terms:
            return 0
        if self.is_rational():
            q = self._terms[1]
            return -1 if q < 0 else 1
        for lo, hi, _ in self._brackets():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._terms == ({1: other} if other else {})
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Rational scalars hash as their Fraction, so that they agree with
        # the ints and Fractions they compare equal to.
        if self._hash is None:
            self._hash = hash(
                self.rational_part() if self.is_rational()
                else frozenset(self._terms.items())
            )
        return self._hash

    def _sign_minus(self, other: ScalarLike) -> int:
        """Sign of self - other; a zero other is not subtracted, and the
        int 0 is not even read."""
        if type(other) is int and other == 0:
            return self.sign()
        other = Scalar.coerce(other)
        return (self - other).sign() if other else self.sign()

    def __lt__(self, other: ScalarLike) -> bool:
        return self._sign_minus(other) < 0

    def __le__(self, other: ScalarLike) -> bool:
        return self._sign_minus(other) <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        return self._sign_minus(other) > 0

    def __ge__(self, other: ScalarLike) -> bool:
        return self._sign_minus(other) >= 0

    def floor(self) -> int:
        """Largest integer <= self, exact."""
        if self.is_rational():
            q = self.rational_part()
            return q.numerator // q.denominator
        for lo, hi, den in self._brackets():
            if lo // den == hi // den:
                return lo // den

    # math.floor reads a Scalar as it reads an int or a Fraction
    __floor__ = floor

    def approx(self) -> float:
        """Floating approximation; display only, never used in decisions."""
        return math.fsum(float(q) * math.sqrt(n) for n, q in self.items())

    # -- misc -----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


ZERO = Scalar()
ONE = Scalar.rational(1)


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def dot(xs: Sequence[Scalar], coeffs: Sequence[ScalarLike]) -> Scalar:
    """sum coeffs[i] * xs[i]; rational coefficients avoid full products."""
    acc = ZERO
    for x, c in zip(xs, coeffs):
        if isinstance(c, Scalar):
            if c:
                acc = acc + x * c
        elif c:
            acc = acc + x._scale(c)
    return acc


def rational_part_basis(v: Sequence[Scalar]) -> list[list[Fraction]]:
    """Irrationality constraints of a scalar vector.

    Returns one row per radical n > 1 appearing anywhere in v; the row lists
    the coefficient of sqrt(n) in each v_i.  An integer vector m satisfies
    sum m_i * v_i in ℚ exactly when m annihilates every returned row.
    """
    radicals = sorted({n for x in v for n in x.radicals()})
    return [[x.coefficient(n) for x in v] for n in radicals]


def simplest_between(a: ScalarLike, b: ScalarLike) -> Fraction:
    """The simplest rational strictly between a and b (requires a < b).

    Simplest means smallest denominator, ties broken toward the smaller
    absolute numerator; computed by the Stern-Brocot / continued-fraction
    walk using exact comparisons only.  Two rationals (ints or Fractions)
    walk as Fractions, any other pair as Scalars.
    """
    if _is_rational_number(a) and _is_rational_number(b):
        a, b = Fraction(a), Fraction(b)
    else:
        a, b = Scalar.coerce(a), Scalar.coerce(b)
    if not a < b:
        raise DomainError(f"empty interval ({a}, {b})")
    return _simplest_positive(a, b)


def _is_rational_number(x: object) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _simplest_positive(a: Fraction | Scalar, b: Fraction | Scalar) -> Fraction:
    if a < 0:
        if b > 0:
            return Fraction(0)
        return -_simplest_positive(-b, -a)
    # 0 <= a < b
    fa = math.floor(a)
    if b > fa + 1:
        return Fraction(fa + 1)
    a1 = a - fa
    b1 = b - fa
    if not a1:
        return fa + Fraction(1, math.floor(1 / b1) + 1)
    inner = _simplest_positive(1 / b1, 1 / a1)
    return fa + 1 / inner


# -- text grammar -------------------------------------------------------
#
# expr     := ('+'|'-')? term (('+'|'-') term)*
# term     := rational ('*' 'sqrt(' uint ')')? | 'sqrt(' uint ')'
# rational := int ('/' uint)?
# int      := ('+'|'-')? uint
#
# The leading sign is a permissive extension so that formatted output like
# "-sqrt(2)" reads back; canonical output always parses.


class _Cursor:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise DomainError(f"text to parse must be a str, got {text!r}")
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ParseError(f"expected {token!r}", self.text, self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", self.text, start)
        return int(self.text[start : self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_int(cur: _Cursor) -> int:
    """int := ('+'|'-')? uint"""
    if cur.take("-"):
        return -cur.uint()
    cur.take("+")
    return cur.uint()


def _parse_rational(cur: _Cursor) -> Fraction:
    num = _parse_int(cur)
    if cur.take("/"):
        cur.skip_ws()
        pos = cur.pos
        den = cur.uint()
        if den == 0:
            raise ParseError("zero denominator", cur.text, pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(cur: _Cursor) -> Scalar:
    if cur.take("sqrt("):
        n = cur.uint()
        cur.expect(")")
        return Scalar({n: 1})
    coeff = _parse_rational(cur)
    if cur.take("*"):
        cur.expect("sqrt(")
        n = cur.uint()
        cur.expect(")")
        return Scalar({n: coeff})
    return Scalar.rational(coeff)


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar; raises ParseError with position info."""
    cur = _Cursor(text)
    if cur.peek() == "":
        raise ParseError("empty scalar expression", text, cur.pos)
    negate = False
    if cur.peek() in "+-":
        negate = cur.take("-")
        if not negate:
            cur.take("+")
    value = _parse_term(cur)
    if negate:
        value = -value
    while not cur.done():
        if cur.take("+"):
            value = value + _parse_term(cur)
        elif cur.take("-"):
            value = value - _parse_term(cur)
        else:
            raise ParseError("expected '+' or '-'", cur.text, cur.pos)
    return value


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(s)) == s."""
    if expect(s, Scalar, "scalar").is_zero():
        return "0"
    parts: list[str] = []
    for n, q in s.items():
        if n == 1:
            body = str(abs(q))
        elif abs(q) == 1:
            body = f"sqrt({n})"
        else:
            body = f"{abs(q)}*sqrt({n})"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if q > 0 else f"- {body}")
    return " ".join(parts)
