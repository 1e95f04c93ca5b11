"""Prime congruences on tropical Laurent semirings, via defining matrices.

A defining matrix C is a (k+1) x (n+1) scalar matrix whose first column is
lexicographically nonnegative.  It orders terms t^gamma * x^u by the lex
order of C·(gamma, u), and polynomials by the lex maximum over their terms.
Every comparison is one lex sign, DefiningMatrix.sign_lex: since C is
linear, terms a and b compare by the sign of C·(a − b), and the rows are
evaluated only down to the first nonzero one.
Canonicalization applies only order-preserving row operations (positive
scaling, adding a multiple of a row to a row below it, dropping zero rows),
so the canonical matrix defines the same congruence.

decide_equal settles whether two canonical matrices order every term pair
identically.  Equal normal forms are row-operation equivalent, so they
answer Equal at once.  Otherwise it walks A's stages, shrinking the
subgroup H of ℚ x Z^n on which A's rows seen so far vanish, and reads B's
rows against each stage's H; at each stage the two rows' covectors on H's
generators (the coefficient direction t first in product kind, then the
lattice basis) must be positively proportional.  The walk terminates
because the rank of H drops at every stage.  A stage that disagrees has
one witness rule: try ±e_d in order, else a point of the open cone where
the two covectors take opposite signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, DomainError, expect
from .linalg import in_lattice, independent_rows, integer_kernel
from .scalars import ZERO, Scalar, ScalarLike, dot, exact_int, exact_rational, exact_vector, rational_part_basis, simplest_between
from .tropical import NEG_INF, ExponentVector, TropPolynomial

LESS, EQUAL, GREATER = "less", "equal", "greater"
CONT, COEFFICIENT_BLIND, NON_CONTINUOUS = (
    "cont",
    "coefficient_blind",
    "non_continuous",
)


class DefiningMatrix:
    """Scalar matrix with a coefficient column in front.

    Row i is (c_i, xi_i) with c_i scaling the coefficient exponent gamma
    and xi_i pairing with the monomial exponent u.
    """

    __slots__ = ("rows", "n")

    def __init__(
        self,
        rows: Sequence[Sequence[ScalarLike]],
        n: Optional[int] = None,
    ):
        self.rows = exact_vector(
            rows, "matrix", lambda row: exact_vector(row, "matrix row")
        )
        if self.rows:
            width = len(self.rows[0])
            if width < 1:
                raise DimensionError("matrix rows need a coefficient column")
            for row in self.rows:
                if len(row) != width:
                    raise DimensionError("ragged matrix")
            self.n = width - 1
            if n is not None and n != self.n:
                raise DimensionError(f"declared n={n}, rows have n={self.n}")
        else:
            if n is None:
                raise DimensionError("empty matrix needs an explicit n")
            self.n = exact_int(n, "variable count", 0)

    def first_column_ok(self) -> bool:
        """First column lexicographically >= 0."""
        for row in self.rows:
            s = row[0].sign()
            if s > 0:
                return True
            if s < 0:
                return False
        return True

    def _values(self, ev: ExponentVector):
        """The entries of C·(gamma, u), one row at a time."""
        if expect(ev, ExponentVector, "term").n != self.n:
            raise DimensionError(
                f"exponent vector of length {ev.n} for n={self.n}"
            )
        point = (ev.gamma, *ev.u)
        for row in self.rows:
            yield dot(row, point)

    def apply(self, ev: ExponentVector) -> list[Scalar]:
        """The lex value C·(gamma, u)."""
        return list(self._values(ev))

    def sign_lex(self, ev: ExponentVector) -> int:
        """Sign of the first nonzero entry of C·(gamma, u); 0 if all vanish.

        Rows below the first nonzero entry are not evaluated.
        """
        for value in self._values(ev):
            s = value.sign()
            if s:
                return s
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DefiningMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        )
        return f"DefiningMatrix([{rows}])"


class Prime:
    """A prime congruence, held as the normal form of its defining matrix.

    The matrix must be a fixed point of canonicalize(): every row is
    nonzero, its first nonzero entry is ±1, and +1 when that entry is in
    the coefficient column, and it is zero at the lead columns of the rows
    above it.  So the rows are independent and at most one coefficient
    entry is nonzero, and that one is 1.  Use canonicalize() to produce
    one.  Since the normal form is unique, == is equivalence under the
    order-preserving row operations.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: DefiningMatrix):
        _check_canonical(matrix)
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prime):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"Prime({self.matrix!r})"


def _check_canonical(matrix: DefiningMatrix) -> None:
    """Refuse a matrix that canonicalize() would change; no arithmetic."""
    if not isinstance(matrix, DefiningMatrix):
        raise DomainError("expected a DefiningMatrix")
    leads: list[int] = []
    for row in matrix.rows:
        if any(row[c] for c in leads):
            raise DomainError(
                "matrix not canonical: nonzero at the lead of a row above"
            )
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            raise DomainError("matrix not canonical: zero row")
        if not (row[c] == 1 or (c and row[c] == -1)):
            raise DomainError(
                "matrix not canonical: lead is not 1 (or -1 outside the"
                " coefficient column)"
            )
        leads.append(c)


def canonicalize(matrix: DefiningMatrix | Sequence[Sequence[ScalarLike]]) -> Prime:
    """Canonical form of a defining matrix; same prime congruence.

    Every row is reduced against the kept rows above it, rows that reduce
    to zero are dropped, and survivors are scaled so that their lead has
    absolute value 1 (independent_rows); all of these are order-preserving
    row operations.  The first row with a nonzero coefficient entry keeps
    its lead there, positive by the first-column check, so it becomes 1 and
    the coefficient column is cleared below it.

    The result is the normal form under those operations: they generate
    the lower-triangular positive-diagonal transformations, whose complete
    invariant is the chain of leading row spans together with each row's
    positive ray modulo the span above it, and greedy top-down reduction
    with leads normalized to ±1 computes exactly that.  So two full-rank
    matrices are mutually reachable by the operations exactly when their
    canonical primes are ==.
    """
    if not isinstance(matrix, DefiningMatrix):
        matrix = DefiningMatrix(matrix)
    if not matrix.first_column_ok():
        raise DomainError("invalid matrix: first column lexicographically < 0")
    return Prime(DefiningMatrix(independent_rows(matrix.rows), n=matrix.n))


# -- the Phi map and comparisons -------------------------------------------


def _top_term(P: Prime, f: TropPolynomial) -> Optional[ExponentVector]:
    """A term of f with the lex-largest value, the first in sorted order
    among ties; None for the zero polynomial."""
    expect(P, Prime, "P")
    expect(f, TropPolynomial, "polynomial")
    if P.n != f.n:
        raise DimensionError(f"polynomial in {f.n} variables, prime has {P.n}")
    best = None
    for ev in f.exponents():
        if best is None or P.matrix.sign_lex(ev.sub(best)) > 0:
            best = ev
    return best


def phi(P: Prime, f: TropPolynomial):
    """Lex value of a polynomial: max over terms of C·(gamma, u).

    Returns a list of scalars (compared lexicographically) or NEG_INF for
    the zero polynomial.
    """
    top = _top_term(P, f)
    return NEG_INF if top is None else P.matrix.apply(top)


def compare(P: Prime, f: TropPolynomial, g: TropPolynomial) -> str:
    """Total preorder on polynomials: lex comparison of phi values."""
    top_f, top_g = _top_term(P, f), _top_term(P, g)
    if top_f is None:
        return EQUAL if top_g is None else LESS
    if top_g is None:
        return GREATER
    return compare_terms(P, top_f, top_g)


def compare_terms(P: Prime, a: ExponentVector, b: ExponentVector) -> str:
    """Term comparison: the lex sign of C·(a − b), since C is linear."""
    expect(P, Prime, "P")
    expect(a, ExponentVector, "term")
    expect(b, ExponentVector, "term")
    s = P.matrix.sign_lex(a.sub(b))
    return LESS if s < 0 else GREATER if s > 0 else EQUAL


# -- kernel subgroups --------------------------------------------------------


@dataclass(frozen=True)
class KernelSubgroup:
    """A subgroup H of ℚ x Z^n, the joint vanishing locus of processed rows.

    kind "product": H = ℚ x Λ (the coefficient exponent is free).
    kind "graph":   H = {(ell(m), m) : m in Λ} for a rational functional
    ell, stored by its values on the Hermite basis of Λ.
    """

    kind: str
    n: int
    lattice: tuple[tuple[int, ...], ...]
    ell: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.kind not in ("product", "graph"):
            raise DomainError(f"bad kernel kind {self.kind!r}")
        if (self.ell is not None) != (self.kind == "graph"):
            raise DomainError("ell is stored exactly for graph kind")
        object.__setattr__(self, "n", exact_int(self.n, "kernel dimension", 0))
        object.__setattr__(self, "lattice", exact_vector(
            self.lattice, "lattice basis", lambda row: exact_vector(
                row, "lattice row", lambda x: exact_int(x, "lattice entry")
            ),
        ))
        if self.ell is not None:
            object.__setattr__(self, "ell", exact_vector(
                self.ell, "ell", lambda q: exact_rational(q, "ell value")
            ))
        if self.ell is not None and len(self.ell) != len(self.lattice):
            raise DomainError("one ell value per basis row")
        if any(len(row) != self.n for row in self.lattice):
            raise DomainError("lattice rows must have length n")
        # the staircase of hermite_form, which in_lattice reads
        last = -1
        for row in self.lattice:
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is None or lead <= last or row[lead] < 0:
                raise DomainError("lattice rows need positive leads in increasing columns")
            last = lead

    @classmethod
    def full(cls, n: int) -> "KernelSubgroup":
        n = exact_int(n, "kernel dimension", 0)
        basis = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        return cls("product", n, basis)

    @property
    def lattice_rank(self) -> int:
        return len(self.lattice)

    @property
    def rank(self) -> int:
        """Rank of H as an abelian group."""
        return self.lattice_rank + (1 if self.kind == "product" else 0)

    def is_trivial(self) -> bool:
        return self.rank == 0

    def contains(self, ev: ExponentVector) -> bool:
        if expect(ev, ExponentVector, "term").n != self.n:
            raise DimensionError(f"vector of length {ev.n} in ℚ x Z^{self.n}")
        coeffs = in_lattice(self.lattice, ev.u)
        if coeffs is None:
            return False
        if self.kind == "product":
            return True
        want = sum(
            (a * e for a, e in zip(coeffs, self.ell)), Fraction(0)
        )
        return ev.gamma == want

    def member(self, coeffs: Sequence[int], gamma: Optional[Fraction] = None) -> ExponentVector:
        """The member with the given basis coefficients; product kind takes
        an explicit gamma (default 0), graph kind computes it and refuses
        one."""
        coeffs = exact_vector(
            coeffs, "basis coefficients", lambda a: exact_int(a, "basis coefficient")
        )
        if len(coeffs) != len(self.lattice):
            raise DimensionError(
                f"{len(coeffs)} coefficients for a basis of {len(self.lattice)}"
            )
        if self.kind == "product":
            gamma = Fraction(0) if gamma is None else gamma
        elif gamma is not None:
            raise DomainError("graph kind computes gamma; none may be passed")
        else:
            gamma = sum((a * e for a, e in zip(coeffs, self.ell)), Fraction(0))
        u = [0] * self.n
        for a, row in zip(coeffs, self.lattice):
            for j, x in enumerate(row):
                u[j] += a * x
        return ExponentVector(gamma, tuple(u))


def _covector(row: Sequence[Scalar], H: KernelSubgroup) -> list[Scalar]:
    """A matrix row's values on H's generators.

    H's generators are the coefficient direction (1, 0) and then the
    lattice basis in product kind, and the lattice basis alone in graph
    kind.  So the covector is [c, *values] in product kind, c the row's
    coefficient entry and values the rest of the row paired with each basis
    vector, and values alone in graph kind.  There a basis vector m lifts to
    (ell(m), m), and the c·ell(m) term is left out because every row read
    on a graph-kind H has c = 0: a canonical matrix has one nonzero
    coefficient entry, and H turns graph only when the row holding it is
    consumed (decide_equal says why B's has been met by then).  The row
    vanishes on H exactly when its covector is zero.
    """
    values = [dot(row[1:], m) for m in H.lattice]
    return [row[0], *values] if H.kind == "product" else values


def _member(H: KernelSubgroup, coeffs: list[int]) -> ExponentVector:
    """The member of H with the given coefficients on H's generators."""
    if H.kind == "product":
        return H.member(coeffs[1:], Fraction(coeffs[0]))
    return H.member(coeffs)


def _restrict(H: KernelSubgroup, a: list[Scalar]) -> KernelSubgroup:
    """Intersect H with the vanishing of a row whose covector on H is a.

    A canonical matrix has c = 0 or c = 1: a's first entry in product kind,
    and 0 in graph kind (_covector).  The new lattice is where values·m is
    rational, and also zero when c = 0; with c = 1 the row fixes
    gamma = -values·m there, and H becomes the graph of that functional.
    One integer_kernel(rows, H.lattice) gives the new Hermite basis and
    each new row's coordinates over the old one, which carry a graph kind's
    ell over.
    """
    c, values = (a[0], a[1:]) if H.kind == "product" else (0, a)
    rows = rational_part_basis(values)
    if not c:
        rows.insert(0, [x.rational_part() for x in values])
    basis, old_coeffs = integer_kernel(rows, H.lattice)
    if c:
        ell = tuple(-dot(values, m).as_rational() for m in old_coeffs)
    elif H.kind == "graph":
        ell = tuple(
            sum((k * e for k, e in zip(m, H.ell)), Fraction(0))
            for m in old_coeffs
        )
    else:
        return KernelSubgroup("product", H.n, basis)
    return KernelSubgroup("graph", H.n, basis, ell)


def _stages(P: Prime):
    """The kernel recursion of one matrix.

    Yields (H, a) for each row whose covector a on the H left by the rows
    before it is nonzero, and then the final H with its zero covector.
    """
    H = KernelSubgroup.full(P.n)
    for row in P.matrix.rows:
        a = _covector(row, H)
        if any(a):
            yield H, a
            H = _restrict(H, a)
    yield H, [ZERO] * H.rank


def final_kernel(P: Prime) -> KernelSubgroup:
    """The subgroup {w in ℚ x Z^n : C·w = 0}: the last H of the stages."""
    expect(P, Prime, "P")
    for H, _ in _stages(P):
        pass
    return H


# -- the equality decision ---------------------------------------------------


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of decide_equal; Distinguished carries a checked witness."""

    outcome: str  # "Equal" | "Distinguished"
    witness: Optional[ExponentVector] = None

    def __post_init__(self):
        if self.outcome not in ("Equal", "Distinguished"):
            raise DomainError(f"bad outcome {self.outcome!r}")
        if (self.witness is not None) != (self.outcome == "Distinguished"):
            raise DomainError("witness is carried exactly by Distinguished")

    @property
    def equal(self) -> bool:
        return self.outcome == "Equal"


def _distinguished(A: Prime, B: Prime, w: ExponentVector) -> EqualityVerdict:
    sa, sb = A.matrix.sign_lex(w), B.matrix.sign_lex(w)
    if sa == sb:
        raise AssertionError(
            f"witness {w} does not separate the matrices (both signs {sa})"
        )
    return EqualityVerdict("Distinguished", w)


def _cone_point(a: list[Scalar], b: list[Scalar]) -> list[int]:
    """Integer coefficients m with a·m > 0 > b·m, for linearly independent
    covectors a and b.

    Coordinates d1, d2 with a nonzero 2x2 minor det carry the open cone into
    a plane, where its rays are (b[d2], -b[d1])/det and (a[d2], -a[d1])/det.
    It meets the line y = 1 when a ray has y > 0, and y = -1 otherwise.  On
    the line m = x·e_d1 + y·e_d2 each inequality is a strict bound on x or
    holds outright, and a rational x = p/q between the bounds gives
    p·e_d1 + y·q·e_d2.
    """
    rank = len(a)
    d1, d2, det = next(
        (d1, d2, det) for d1 in range(rank) for d2 in range(d1 + 1, rank)
        if (det := a[d1] * b[d2] - a[d2] * b[d1])
    )
    sa, sb = a[d1].sign(), b[d1].sign()
    y = 1 if -det.sign() in (sa, sb) else -1
    # on the line, a·m > 0 and b·m < 0 read x > -k·y/c where s > 0 and
    # x < -k·y/c where s < 0; where s = 0 they hold for every x
    bounds = [
        (s, k._scale(-y) / c)
        for s, c, k in ((sa, a[d1], a[d2]), (-sb, b[d1], b[d2])) if s
    ]
    lows = [t for s, t in bounds if s > 0]
    highs = [t for s, t in bounds if s < 0]
    if lows and highs:
        x = simplest_between(max(lows), min(highs))
    elif lows:
        x = Fraction(max(lows).floor() + 1)
    else:
        x = Fraction(min(highs).floor() - 1)
    coeffs = [0] * rank
    coeffs[d1], coeffs[d2] = x.numerator, y * x.denominator
    return coeffs


def _separating_member(
    A: Prime, B: Prime, H: KernelSubgroup, a: list[Scalar], b: list[Scalar]
) -> ExponentVector:
    """A member of H with differing full lex signs, for stage covectors a
    and b on H's generators that are not positively proportional.

    Every earlier row vanishes on H, so a nonzero stage value is that
    side's full lex sign.  The generators come first, +e_d before -e_d: one
    read with one sign on both sides cannot separate, opposite signs do at
    once, and only a zero needs the full lex signs.  Some ±e_d separates
    when a or b is zero or b is a negative multiple of a; otherwise a and b
    are independent, and a point of the open cone {a·m > 0 > b·m} does.
    """
    rank = len(a)
    for d, (x, y) in enumerate(zip(a, b)):
        if x == y and x:
            continue
        signs = x.sign() * y.sign()
        if signs > 0:
            continue
        for s in (1, -1):
            w = _member(H, [s if i == d else 0 for i in range(rank)])
            if signs or A.matrix.sign_lex(w) != B.matrix.sign_lex(w):
                return w
    return _member(H, _cone_point(a, b))


def _positively_proportional(ga: list[Scalar], gb: list[Scalar]) -> bool:
    # equal covectors, every stage 0 of a pair equal beyond row operations,
    # need no division
    if ga == gb:
        return True
    ratio = None
    for x, y in zip(ga, gb):
        if not x and not y:
            continue
        if not x or not y:
            return False
        if ratio is None:
            ratio = y / x
            if ratio.sign() <= 0:
                return False
        elif y != ratio * x:
            return False
    return True


def decide_equal(A: Prime, B: Prime) -> EqualityVerdict:
    """Do two canonical matrices define the same prime congruence?

    Equal means sign_lex(A·w) = sign_lex(B·w) for every w in ℚ x Z^n;
    Distinguished returns a witness w where the signs differ, re-checked
    against both full matrices before it is returned.  A == B answers Equal
    at once: equal normal forms are reachable by row operations, which keep
    every lex sign.  Other pairs walk the kernel stages.
    """
    expect(A, Prime, "A")
    expect(B, Prime, "B")
    if A.n != B.n:
        raise DimensionError(f"primes on {A.n} and {B.n} variables")
    if A == B:
        return EqualityVerdict("Equal")
    rows_b = iter(B.matrix.rows)
    for H, a in _stages(A):
        # a row of B that vanishes on H vanishes on every later, smaller H.
        # B's c = 1 row is never zero on a product-kind H, so such a stage
        # reads it as b, and unless A's row there has c = 1 too the first
        # entries disagree; a graph-kind H never reads it.
        b = next(filter(any, (_covector(r, H) for r in rows_b)), [ZERO] * H.rank)
        if not _positively_proportional(a, b):
            return _distinguished(A, B, _separating_member(A, B, H, a, b))
        if not any(a):
            return EqualityVerdict("Equal")


# -- classification -----------------------------------------------------------


def classify(P: Prime) -> str:
    """cont / coefficient_blind / non_continuous, read off the first column."""
    rows = expect(P, Prime, "P").matrix.rows
    if all(not row[0] for row in rows):
        return COEFFICIENT_BLIND
    return CONT if rows[0][0].sign() > 0 else NON_CONTINUOUS


def height(P: Prime) -> int:
    """Rank of the final kernel subgroup."""
    return final_kernel(P).rank


def min_filter_dim(P: Prime) -> int:
    """Smallest dimension of a polyhedral-set member of the prime's filter.

    Defined for cont primes: n minus the kernel rank.
    """
    if classify(P) != CONT:
        raise DomainError("min_filter_dim needs a cont prime")
    return P.n - final_kernel(P).rank


def is_order(P: Prime) -> bool:
    """True when distinct terms are never identified (trivial final kernel).

    For cont primes this matches the complete-flag criterion (the flag of
    the matrix has members of every dimension); for other primes kernel
    triviality is the defining property used here.
    """
    return final_kernel(P).is_trivial()
