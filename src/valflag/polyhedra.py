"""Exact polyhedral geometry over the scalar field.

Inequality systems carry weak and strict rows; Fourier-Motzkin elimination
decides feasibility exactly.  ``fm_feasible`` also back-substitutes a sample
point, for ``GammaPolyhedron.sample``; ``is_neighborhood``, ``in_cone``
and ``GammaPolyhedron.is_empty`` read only the answer and skip
back-substitution.  ``filters.farkas_certify`` eliminates its violated
system once, split on the target row so that the rows built without it
decide the constraints' meet, and reads off either the sample point or the
multipliers of the final contradiction.
Each elimination runs in the field its rows come from, chosen once per
system: ``Fraction``s when every entry is rational, as on every Γ-rational
polyhedron and every Farkas system, and ``Scalar``s when some entry has a
square root, as on a flag with an irrational vertex.  Both fields compare,
hash and sign the same rational values alike, so the choice changes the
Python type of the values and never the values; points leave as
``Scalar``s.
Rows under elimination are scaled so that the last nonzero entry of each
normal, the one it is eliminated on, is 1 or -1; two rows then combine by
addition.  Each row carries two bitmasks over the input rows: a label,
which drops redundant combinations by Chernikov's rule, and the support of
its multipliers, from which one elimination reads the implicit equalities
that give a polyhedron's dimension.  It also carries its origin, the rows
it was built from and its scale, from which ``_weights`` reads the
multipliers themselves.  On top of that sit Γ-rational
polyhedra (integer normals, rational right-hand sides), finite unions of
them, rational sets of tropical polynomials, and the simplicial flags read
off defining matrices, with the neighborhood test that drives filter
membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DimensionError, DomainError, expect
from .prime import DefiningMatrix, EqualityVerdict, Prime, canonicalize, classify, decide_equal, CONT
from .linalg import field_rank
from .scalars import ONE, Scalar, ScalarLike, ZERO, dot, exact_int, exact_rational, exact_rows, exact_vector, simplest_between
from .tropical import TropPolynomial

# A system row (normal, rhs, strict); an entry is an int, a Fraction or a
# Scalar.
Row = tuple[Sequence[ScalarLike], ScalarLike, bool]


class IneqSystem:
    """Rows ⟨x, normal⟩ ≤ rhs (weak) or < rhs (strict) in d variables."""

    __slots__ = ("d", "rows")

    def __init__(self, d: int, rows: Sequence[Row] = ()):
        self.d = exact_int(d, "variable count", 0)
        self.rows: list[tuple[tuple[Scalar, ...], Scalar, bool]] = []
        for row in exact_rows(rows, 3, "system row (normal, rhs, strict)"):
            self.add(*row)

    def add(
        self,
        normal: Sequence[ScalarLike],
        rhs: ScalarLike,
        strict: bool = False,
    ) -> None:
        coeffs = exact_vector(normal, "normal")
        if len(coeffs) != self.d:
            raise DimensionError(
                f"row of length {len(coeffs)} in a {self.d}-variable system"
            )
        if strict is not True and strict is not False:
            raise DomainError(f"strict must be a bool, got {strict!r}")
        self.rows.append((coeffs, Scalar.coerce(rhs), strict))


# -- the field of an elimination ----------------------------------------------

# An element of the field a system is eliminated in.
Value = Fraction | Scalar


def _as_fraction(x: ScalarLike) -> Fraction:
    """A rational int, Fraction or Scalar as a Fraction."""
    if isinstance(x, Scalar):
        return x.rational_part()
    return x if isinstance(x, Fraction) else Fraction(x)


def _fraction_sign(q: Fraction) -> int:
    return (q.numerator > 0) - (q.numerator < 0)


class _Field(NamedTuple):
    """The field a system is eliminated in: its zero and one, its sign test,
    and the reader that takes an entry, or any rational, into it."""

    zero: Value
    one: Value
    sign: Callable[[Value], int]
    read: Callable[[ScalarLike], Value]


_FRACTIONS = _Field(Fraction(0), Fraction(1), _fraction_sign, _as_fraction)
# sign is looked up on each call, as x.sign() would be, so that a wrapper
# put on Scalar.sign later (perfbench's tracer) still sees every call
_SCALARS = _Field(ZERO, ONE, methodcaller("sign"), Scalar.coerce)


def _field(rows: Sequence[Row]) -> _Field:
    """Fractions when every entry of the rows is rational, else Scalars."""
    for coeffs, rhs, _ in rows:
        for x in (rhs, *coeffs):
            if isinstance(x, Scalar) and not x.is_rational():
                return _SCALARS
    return _FRACTIONS


def _field_of(x: Value) -> _Field:
    """The field that a value under elimination lies in."""
    return _SCALARS if isinstance(x, Scalar) else _FRACTIONS


# -- Fourier-Motzkin elimination ----------------------------------------------

# A row under elimination: (normal, rhs, strict, label, support, origin),
# its entries in the field of its system.  label and support are bitmasks
# over the input rows; origin is (factor, i) for input row i and
# (factor, (pos, neg)) for the sum of two rows of the level before, and the
# row is factor times that.
_MaskedRow = tuple[tuple[Value, ...], Value, bool, int, int, tuple]


def _normalize_row(
    coeffs: tuple[Value, ...],
    rhs: Value,
    strict: bool,
    label: int,
    support: int,
    source: int | tuple[_MaskedRow, _MaskedRow],
    field: _Field,
) -> _MaskedRow:
    """The row scaled so that its last nonzero entry is 1 or -1; the
    inverse it is scaled by is the factor of its origin."""
    one = field.one
    pivot = next((x for x in reversed(coeffs) if x), one)
    size = pivot if field.sign(pivot) > 0 else -pivot
    if size == one:
        return (coeffs, rhs, strict, label, support, (one, source))
    inv = one / size
    return (
        tuple(x * inv if x else x for x in coeffs),
        rhs * inv,
        strict,
        label,
        support,
        (inv, source),
    )


def _dedup(
    rows: list[_MaskedRow], sign: Callable[[Value], int], split: int = 0
) -> list[_MaskedRow]:
    """One row per normal and class (rows come with last nonzero entry ±1:
    one key per ray; a row's class is whether its support meets split): the
    tightest, labelled with the intersection of the merged labels; its
    support is the union over exact ties.  sign is the field's sign test."""
    best: dict[tuple[tuple[Value, ...], bool], _MaskedRow] = {}
    for row in rows:
        coeffs, rhs, strict, label, support, origin = row
        key = (coeffs, support & split != 0)
        seen = best.get(key)
        if seen is None:
            best[key] = row
            continue
        _, old_rhs, old_strict, old_label, old_support, old_origin = seen
        label &= old_label
        diff = sign(rhs - old_rhs)
        if diff < 0 or (diff == 0 and strict and not old_strict):
            best[key] = (coeffs, rhs, strict, label, support, origin)
        elif diff == 0 and strict == old_strict:
            best[key] = (
                coeffs, rhs, strict, label, support | old_support, origin
            )
        else:
            best[key] = (
                coeffs, old_rhs, old_strict, label, old_support, old_origin
            )
    return list(best.values())


def _eliminate(
    d: int, rows: Sequence[Row], split: int = 0
) -> tuple[list[_MaskedRow], list[tuple[list[_MaskedRow], list[_MaskedRow]]]]:
    """Fourier-Motzkin elimination of every variable of the rows, d of
    them, last to first.

    Returns the final rows (all with zero normal, so at most one final row
    per class after _dedup, see split below) and, per variable k, the rows
    with coefficient 1 and -1 on x_k when it was eliminated.  Rows at
    level k are zero beyond x_k, so a positive and a negative one combine
    as their sum, strict when either parent is.  Another positive scaling
    would keep every answer: rows on one ray share a scale in _dedup, and
    zero normals are read only through the signs of their right-hand
    sides.

    The field is chosen once, from the entries: every row is read into
    Fractions when every entry is rational (an int, a Fraction or a Scalar
    without radicals), and into Scalars otherwise.  The choice cannot
    change an answer.  A rational value is the same number in either
    field; a Fraction and a rational Scalar of that value compare equal,
    hash alike and have the same sign; and the elimination applies the
    same operations to the same values in either.  So _dedup keys the same
    rows in the same order and keeps the same rows, labels, supports and
    origins, and the back-substituted point and the multipliers are the
    same numbers.

    Each row carries two masks over the input rows.  Its support is the
    set of input rows with a positive multiplier in it: the union of its
    parents' supports.  Its label drives Chernikov's rule: after s
    eliminations, a combined row whose label has more than s + 1 bits is
    dropped.  This is sound.  The multiplier vectors λ of the rows at
    level s form the cone {λ ≥ 0, λA_elim = 0} over the s eliminated
    columns, whose extreme rays have at most s + 1 nonzero entries.  Every
    row is a positive combination of the rows of those rays, hence implied
    by them (a strict input row with positive weight lies in some ray with
    positive weight, so strictness is implied too).  Each extreme ray is
    an extreme ray of the level before with zero coefficient on the
    eliminated variable, or a combination of one positive and one negative
    such ray.  By induction each ray's row is dominated (same normal, rhs
    no larger, strict if it is) by a kept row whose label is a subset of
    the ray's support: combining two dominating rows dominates the
    combination, and _dedup labels a merged row with the intersection of
    the labels, so the dominating row is never dropped.  Hence every level
    describes the same projection as without pruning, and back-substitution
    meets the same intervals and picks the same point.

    Supports reach every implicit equality of a feasible system: a row
    on a chain that ends in 0 <= 0 meets only exact ties in _dedup (a
    strictly tighter row with its normal would combine along the same
    chain into 0 < 0 or 0 <= negative, making the system infeasible), and
    exact ties take the union of the supports.

    Each row's origin names the rows it was built from and the scale
    _normalize_row applied, so _weights reads off the nonnegative
    multipliers λ with row = Σ λ_i·input_i, exactly: the row that _dedup
    keeps carries the origin of the rhs and strictness it keeps.  On an
    infeasible system a final row reads 0 <= negative or 0 < 0, and its
    multipliers are a Farkas certificate of infeasibility.

    split is a mask over the input rows (0 for one class).  A row's class
    is whether its support meets split, and _dedup merges rows only within
    a class.  A row avoiding split has parents that both avoid it, so the
    rows of that class are built, merged and pruned among themselves
    exactly as in the elimination of the input rows outside split alone:
    its final row decides that subsystem.  Chernikov's argument holds in
    each class, since a kept row dominating a ray is replaced only by a
    row of its own class that dominates it, with a label no larger.  Every
    level therefore still describes the projection of the whole system,
    and back-substitution picks the same point.  When the rows outside
    split are consistent and the whole system is not, the final row of
    the other class is the contradiction, and its weight on some split row
    is positive.  It need not be the unsplit run's final row: labels are
    intersected within a class only, so the classes prune differently.
    """
    field = _field(rows)
    zero, _, sign, read = field
    work = _dedup([
        _normalize_row(
            tuple(map(read, c)), read(r), s, 1 << i, 1 << i, i, field
        )
        for i, (c, r, s) in enumerate(rows)
    ], sign, split)
    levels: list[tuple[list[_MaskedRow], list[_MaskedRow]]] = [([], [])] * d
    for k in range(d - 1, -1, -1):
        max_bits = d - k + 1
        # rows with entry 0, 1 and -1 on x_k, indexed by that entry's sign
        parts: tuple[list[_MaskedRow], ...] = ([], [], [])
        for row in work:
            parts[sign(row[0][k])].append(row)
        combined, pos, neg = parts
        levels[k] = (pos, neg)
        tail = (zero,) * (d - k)
        for prow in pos:
            pc, pr, ps, pl, pm, _ = prow
            pc = pc[:k]
            for nrow in neg:
                nc, nr, ns, nl, nm, _ = nrow
                label = pl | nl
                if label.bit_count() > max_bits:
                    continue
                coeffs = tuple(x + y for x, y in zip(pc, nc)) + tail
                combined.append(_normalize_row(
                    coeffs, pr + nr, ps or ns, label, pm | nm, (prow, nrow),
                    field,
                ))
        work = _dedup(combined, sign, split)
    return work, levels


def _weights(
    row: _MaskedRow, count: int, memo: Optional[dict[int, list[Value]]] = None
) -> list[Value]:
    """The multipliers λ of the count input rows with row = Σ λ_i·input_i,
    read off the row's origins (see _eliminate), in the row's field.  memo
    holds the rows already walked in this call, by identity."""
    if memo is None:
        memo = {}
    w = memo.get(id(row))
    if w is None:
        factor, source = row[5]
        if isinstance(source, int):
            w = [_field_of(factor).zero] * count
            w[source] = factor
        else:
            p, n = source
            w = [
                factor * (x + y)
                for x, y in zip(_weights(p, count, memo), _weights(n, count, memo))
            ]
        memo[id(row)] = w
    return w


def _consistent(final: list[_MaskedRow]) -> bool:
    for _, rhs, strict, _, _, _ in final:
        if rhs < 0 or (strict and not rhs):
            return False
    return True


def _feasible(system: IneqSystem) -> bool:
    """Fourier-Motzkin feasibility without a sample point."""
    return _consistent(_eliminate(system.d, system.rows)[0])


def fm_feasible(
    system: IneqSystem,
) -> tuple[bool, Optional[tuple[Scalar, ...]]]:
    """Fourier-Motzkin feasibility with an exact sample point.

    Variables are eliminated by _eliminate, with Chernikov pruning, and a
    consistent system's point is read off by _back_substitute and returned
    as Scalars, whichever field the elimination ran in.  Callers that need
    only the answer skip the back-substitution: _feasible (in_cone),
    is_neighborhood and GammaPolyhedron.is_empty.
    """
    expect(system, IneqSystem, "system")
    final, levels = _eliminate(system.d, system.rows)
    if not _consistent(final):
        return False, None
    return True, tuple(map(Scalar.coerce, _back_substitute(levels)))


def _back_substitute(
    levels: list[tuple[list[_MaskedRow], list[_MaskedRow]]],
) -> tuple[Value, ...]:
    """The sample point of a consistent elimination, first variable first,
    in the field of its rows.

    The bounds collected at each level are back-substituted, preferring
    simple rational values inside open intervals: a row
    ±x_k + <c, x> <= rhs bounds x_k by ±(rhs - <c, x>), with no division.
    """
    # the field of the rows; with no row at any level every coordinate is
    # 0, in either field
    read = next(
        (_field_of(rows[0][1]).read for level in levels for rows in level if rows),
        _FRACTIONS.read,
    )
    point: list[Value] = []
    for pos, neg in levels:
        upper: Optional[tuple[Value, bool]] = None
        lower: Optional[tuple[Value, bool]] = None
        for coeffs, rhs, strict, _, _, _ in pos:
            bound = _residual(rhs, coeffs, point)
            if upper is None or bound < upper[0] or (
                bound == upper[0] and strict and not upper[1]
            ):
                upper = (bound, strict)
        for coeffs, rhs, strict, _, _, _ in neg:
            bound = -_residual(rhs, coeffs, point)
            if lower is None or bound > lower[0] or (
                bound == lower[0] and strict and not lower[1]
            ):
                lower = (bound, strict)
        point.append(read(_pick_value(lower, upper)))
    return tuple(point)


def _residual(rhs: Value, coeffs: Sequence[Value], point: Sequence[Value]) -> Value:
    """rhs - <c, x> over the coordinates x that point has fixed."""
    for x, c in zip(point, coeffs):
        if c:
            rhs = rhs - x * c
    return rhs


def _pick_value(
    lower: Optional[tuple[Value, bool]], upper: Optional[tuple[Value, bool]]
) -> Value | int:
    """A value between the bounds: a bound itself, or a rational (an int
    or a Fraction) that _back_substitute reads into the field."""
    if lower is None and upper is None:
        return 0
    if lower is None:
        hi, strict = upper
        if not strict:
            return hi
        f = math.floor(hi)
        return f if f < hi else f - 1
    if upper is None:
        lo, strict = lower
        if not strict:
            return lo
        return math.floor(lo) + 1
    lo, hi = lower[0], upper[0]
    if lo == hi:
        return lo
    return simplest_between(lo, hi)


# -- Γ-rational polyhedra -----------------------------------------------------


class GammaPolyhedron:
    """{x : ⟨x, u_i⟩ ≤ γ_i} with integral normals and rational bounds."""

    __slots__ = ("n", "rows")

    def __init__(
        self,
        n: int,
        rows: Sequence[tuple[Sequence[int], Fraction | int]] = (),
    ):
        self.n = exact_int(n, "dimension", 0)
        clean = []
        for u, gamma in exact_rows(rows, 2, "polyhedron row (normal, bound)"):
            u = exact_vector(u, "normal", lambda x: exact_int(x, "normal entry"))
            if len(u) != n:
                raise DimensionError(
                    f"normal of length {len(u)} in dimension {n}"
                )
            clean.append((u, exact_rational(gamma, "right-hand side")))
        self.rows: tuple[tuple[tuple[int, ...], Fraction], ...] = tuple(clean)

    def _system_rows(self) -> list[Row]:
        """The rows as weak system rows, integer normals and Fraction
        bounds as they are."""
        return [(u, gamma, False) for u, gamma in self.rows]

    def system(self) -> IneqSystem:
        return IneqSystem(self.n, self._system_rows())

    def contains(self, point: Sequence[ScalarLike]) -> bool:
        p = exact_vector(point, "point")
        if len(p) != self.n:
            raise DimensionError("point dimension mismatch")
        for u, gamma in self.rows:
            if (dot(p, u) - Scalar.rational(gamma)).sign() > 0:
                return False
        return True

    def is_empty(self) -> bool:
        return not _consistent(_eliminate(self.n, self._system_rows())[0])

    def sample(self) -> Optional[tuple[Scalar, ...]]:
        return fm_feasible(self.system())[1]

    def intersection(self, other: "GammaPolyhedron") -> "GammaPolyhedron":
        if expect(other, GammaPolyhedron, "other").n != self.n:
            raise DimensionError("intersecting polyhedra of different dimension")
        return GammaPolyhedron(self.n, list(self.rows) + list(other.rows))

    def dim(self) -> int:
        """Dimension of the polyhedron; -1 when empty.

        One Fourier-Motzkin pass.  A row is an implicit equality when some
        nonnegative combination with a positive weight on it reads
        0 <= 0; those rows are the union of the supports of the final
        rows with right-hand side 0 (see _eliminate).  The dimension is n
        minus the rank of their normals.
        """
        final, _ = _eliminate(self.n, self._system_rows())
        if not _consistent(final):
            return -1
        support = 0
        for _, rhs, _, _, mask, _ in final:
            if not rhs:
                support |= mask
        eq_normals = [
            [Fraction(x) for x in u]
            for i, (u, _) in enumerate(self.rows)
            if support >> i & 1
        ]
        return self.n - field_rank(eq_normals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaPolyhedron):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __repr__(self) -> str:
        return f"GammaPolyhedron(n={self.n}, rows={list(self.rows)!r})"


def _polyhedron(piece) -> GammaPolyhedron:
    if not isinstance(piece, GammaPolyhedron):
        raise DomainError(f"a polyhedral set piece must be a GammaPolyhedron, got {piece!r}")
    return piece


class GammaPolyhedralSet:
    """Finite union of Γ-rational polyhedra in a common ambient space."""

    __slots__ = ("n", "pieces")

    def __init__(self, pieces: Sequence[GammaPolyhedron]):
        pieces = exact_vector(pieces, "polyhedral set pieces", _polyhedron)
        if not pieces:
            raise DomainError("a polyhedral set needs at least one piece")
        n = pieces[0].n
        if any(p.n != n for p in pieces):
            raise DimensionError("pieces live in different dimensions")
        self.n = n
        self.pieces = pieces

    def contains(self, point: Sequence[ScalarLike]) -> bool:
        return any(p.contains(point) for p in self.pieces)

    def __repr__(self) -> str:
        return f"GammaPolyhedralSet({list(self.pieces)!r})"


# -- rational sets ------------------------------------------------------------


def rational_set(
    f0: TropPolynomial,
    others: Sequence[TropPolynomial] = (),
    homog: bool = False,
) -> GammaPolyhedralSet:
    """The region {x : f0(x) ≥ f_i(x) for all i} as a union of polyhedra.

    One piece per term u of f0, requiring that term to dominate every term
    of every f_i; a point of the region lies in the piece of any term of
    f0 maximal there, so the union is exact.  With homog=True the region
    lives in (r, x) ∈ ℝ≥0 x N_ℝ and the coefficient exponents are scaled
    by r; rows are cleared to integer normals with zero right-hand side.
    For a cont prime P, filter_member(P, rational_set(f0, F)) is a member
    exactly when compare(P, f, f0) is not GREATER for every f in F.
    """
    n = expect(f0, TropPolynomial, "f0").n
    others = exact_vector(
        others, "others", lambda g: expect(g, TropPolynomial, "polynomial")
    )
    for g in others:
        if g.n != n:
            raise DimensionError("polynomials in different variable counts")
    ambient = n + 1 if homog else n
    # r ≥ 0, the one row every homogenized piece carries
    cone = [((-1,) + (0,) * n, Fraction(0))] if homog else []
    if f0.is_zero():
        if all(g.is_zero() for g in others):
            return GammaPolyhedralSet([GammaPolyhedron(ambient, cone)])
        empty = GammaPolyhedron(ambient, [((0,) * ambient, Fraction(-1))])
        return GammaPolyhedralSet([empty])
    pieces = []
    for ev0 in f0.exponents():
        rows: list[tuple[tuple[int, ...], Fraction]] = []
        for g in others:
            for ev in g.exponents():
                du = tuple(a - b for a, b in zip(ev.u, ev0.u))
                dgamma = ev.gamma - ev0.gamma
                if homog:
                    den = dgamma.denominator
                    rows.append(
                        ((dgamma.numerator,) + tuple(x * den for x in du),
                         Fraction(0))
                    )
                else:
                    rows.append((du, -dgamma))
        pieces.append(GammaPolyhedron(ambient, rows + cone))
    return GammaPolyhedralSet(pieces)


# -- flags --------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """Simplicial flag: member i is base + cone(dirs[:i]) (polyhedra kind)
    or cone(base, dirs[:i]) (cones kind, living in ℝ≥0 x N_ℝ)."""

    kind: str
    base: tuple[Scalar, ...]
    dirs: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.kind not in ("polyhedra", "cones"):
            raise DomainError(f"bad flag kind {self.kind!r}")
        object.__setattr__(self, "base", exact_vector(self.base, "flag base"))
        object.__setattr__(self, "dirs", exact_vector(
            self.dirs, "flag directions",
            lambda v: exact_vector(v, "flag direction"),
        ))
        if self.kind == "cones" and not self.base:
            raise DomainError("a cone flag needs a nonempty base generator")
        d = len(self.base)
        if any(len(v) != d for v in self.dirs):
            raise DimensionError("flag vectors of mixed dimension")
        vectors = [list(v) for v in self.dirs]
        if self.kind == "cones":
            vectors = [list(self.base)] + vectors
            if self.base[0].sign() < 0 or any(
                v[0].sign() < 0 for v in self.dirs
            ):
                raise DomainError(
                    "cone generators must have nonnegative first coordinate"
                )
        if field_rank(vectors) != len(vectors):
            raise DomainError("flag vectors are dependent; not simplicial")

    @property
    def d(self) -> int:
        return len(self.base)

    @property
    def length(self) -> int:
        return len(self.dirs)


def flag_from_matrix(P: Prime, kind: Optional[str] = None) -> Flag:
    """The simplicial flag of a canonical matrix.

    cones kind: generators are the rows themselves.  polyhedra kind (cont
    primes only): the leading coefficient column is stripped, giving the
    vertex from row 0 (whose coefficient entry is 1) and one direction per
    further row.
    """
    expect(P, Prime, "P")
    if kind is None:
        kind = "polyhedra" if classify(P) == CONT else "cones"
    rows = P.matrix.rows
    if kind == "cones":
        if not rows:
            raise DomainError("empty matrix has no cone flag")
        return Flag("cones", rows[0], tuple(rows[1:]))
    if kind != "polyhedra":
        raise DomainError(f"bad flag kind {kind!r}")
    if classify(P) != CONT:
        raise DomainError("polyhedra flag needs a cont prime")
    return Flag("polyhedra", rows[0][1:], tuple(r[1:] for r in rows[1:]))


def matrix_from_flag(F: Flag) -> DefiningMatrix:
    """Defining matrix whose flag is F (not canonicalized here)."""
    if expect(F, Flag, "flag").kind == "cones":
        return DefiningMatrix([list(F.base)] + [list(v) for v in F.dirs])
    one = Scalar.rational(1)
    rows = [[one] + list(F.base)]
    rows.extend([ZERO] + list(v) for v in F.dirs)
    return DefiningMatrix(rows)


def is_neighborhood(U: GammaPolyhedron, F: Flag) -> bool:
    """Does U meet the relative interior of every member of the flag?

    Member i is parametrized as base + Σ_{j<i} λ_j dirs_j with all λ_j > 0;
    U's rows become weak constraints on the λ and feasibility is checked
    per member.  Row ⟨x, u⟩ ≤ γ reads Σ_{j<i} λ_j·⟨dirs_j, u⟩ ≤ γ − ⟨base, u⟩
    there, so each row's values on the flag are computed once, and member i
    takes the first i of them.
    """
    expect(U, GammaPolyhedron, "U")
    if expect(F, Flag, "flag").kind != "polyhedra":
        raise DomainError("neighborhood test is for polyhedra flags")
    if U.n != F.d:
        raise DimensionError("polyhedron and flag dimensions differ")
    on_flag = [
        (tuple(dot(v, u) for v in F.dirs), Scalar.rational(gamma) - dot(F.base, u))
        for u, gamma in U.rows
    ]
    for i in range(F.length + 1):
        rows = [(values[:i], rhs, False) for values, rhs in on_flag]
        rows.extend(
            ((0,) * j + (-1,) + (0,) * (i - j - 1), 0, True) for j in range(i)
        )
        if not _consistent(_eliminate(i, rows)[0]):
            return False
    return True


def locally_equivalent(F: Flag, G: Flag) -> EqualityVerdict:
    """Do two flags have the same Γ-rational neighborhoods?

    Reduces to decide_equal on the canonical matrices built from the
    flags.
    """
    if expect(F, Flag, "flag").kind != expect(G, Flag, "flag").kind:
        raise DomainError("flags of different kinds")
    if F.d != G.d:
        raise DimensionError("flags in different ambient dimensions")
    A = canonicalize(matrix_from_flag(F))
    B = canonicalize(matrix_from_flag(G))
    return decide_equal(A, B)


# -- simplicialization --------------------------------------------------------


def _read_generator(g) -> tuple[Scalar, ...]:
    return exact_vector(g, "generator")


def _read_cones(cones) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
    return exact_vector(
        cones, "cones", lambda cone: exact_vector(cone, "cone", _read_generator)
    )


def in_cone(v: Sequence[ScalarLike], generators: Sequence[Sequence[ScalarLike]]) -> bool:
    """Is v a nonnegative combination of the generators?

    By Farkas' lemma v lies outside the cone exactly when some y has
    ⟨g, y⟩ ≥ 0 for every generator g and ⟨v, y⟩ < 0, so one elimination
    in the ambient variables decides it, with one row per generator.
    """
    vec = exact_vector(v, "vector")
    s = IneqSystem(len(vec))
    for g in exact_vector(generators, "generators", _read_generator):
        s.add([-x for x in g], ZERO)
    s.add(vec, ZERO, strict=True)
    return not _feasible(s)


def relative_interior_matrix(
    cones: Sequence[Sequence[Sequence[ScalarLike]]],
) -> DefiningMatrix:
    """Matrix with one relative-interior point per cone: the sum of its
    generators (a positive combination of all of them)."""
    rows = []
    for gens in _read_cones(cones):
        if not gens:
            raise DomainError("cone without generators")
        acc = gens[0]
        for g in gens[1:]:
            if len(g) != len(acc):
                raise DimensionError("generators of mixed dimension")
            acc = [a + x for a, x in zip(acc, g)]
        rows.append(acc)
    return DefiningMatrix(rows)


def simplicialize(
    cones: Sequence[Sequence[Sequence[ScalarLike]]],
) -> Flag:
    """Select one ray per cone to form a simplicial flag.

    The input must be a flag of cones: dim C_i = i+1 and each cone
    contains the previous one (validated by rank and cone-membership
    tests).  Ray 0 is the first nonzero generator of C_0, and ray i the
    first listed generator of C_i that is independent of the earlier
    choices.  Those i choices are independent vectors of C_{i-1}, which
    has dimension i, so they span it and ray i lies outside C_{i-1}.
    """
    gens_list = _read_cones(cones)
    if not gens_list:
        raise DomainError("empty cone list")
    if not all(gens_list):
        raise DomainError("cone without generators")
    d = len(gens_list[0][0])
    if any(len(g) != d for gens in gens_list for g in gens):
        raise DimensionError("generators of mixed dimension")
    for i, gens in enumerate(gens_list):
        if field_rank([list(g) for g in gens]) != i + 1:
            raise DomainError(f"cone {i} does not have dimension {i + 1}")
        if i > 0:
            for g in gens_list[i - 1]:
                if not in_cone(g, gens):
                    raise DomainError(
                        f"cone {i} does not contain cone {i - 1}"
                    )
    chosen = [next(g for g in gens_list[0] if any(g))]
    for gens in gens_list[1:]:
        chosen.append(
            next(g for g in gens if field_rank([*chosen, g]) == len(chosen) + 1)
        )
    return Flag(
        "cones", tuple(chosen[0]), tuple(tuple(g) for g in chosen[1:])
    )
