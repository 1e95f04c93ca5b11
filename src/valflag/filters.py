"""The filter of a cont prime on Γ-rational polyhedral sets.

The filter itself is infinite, so it is represented by its decision
procedure: a set belongs to it exactly when one of its pieces is a
neighborhood of the flag of the defining matrix, that is, meets the
relative interior of every flag member.  Half-space queries have a pure
lex fast path, containments of half-space intersections produce
multiplicative Farkas certificates or exact counterexample points from one
elimination, and the minimum member dimension is witnessed by an explicit
polyhedron, the final kernel's hyperplanes cut by a box around the flag
vertex.  Its membership is proved by one exact point in the relative
interior of each flag member, and its dimension by construction: its
inequalities are strict at the flag vertex, so the dimension is that of
the hyperplanes, n minus one field rank.  Neither needs an elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import DimensionError, DomainError, expect
from .linalg import field_rank
from .polyhedra import (
    Flag,
    GammaPolyhedralSet,
    GammaPolyhedron,
    _back_substitute,
    _consistent,
    _eliminate,
    _weights,
    flag_from_matrix,
    is_neighborhood,
)
from .prime import (
    CONT,
    EQUAL,
    GREATER,
    LESS,
    Prime,
    classify,
    final_kernel,
)
from .scalars import Scalar, dot, exact_int, exact_rational, exact_rows, exact_vector
from .tropical import ExponentVector


@dataclass(frozen=True)
class MembershipAnswer:
    """Filter membership result; piece_index names a piece that is itself
    a neighborhood of the flag (the constructive primeness witness)."""

    member: bool
    piece_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.member


@dataclass(frozen=True)
class FarkasCertificate:
    """Integers m ≥ 1, m_l ≥ 0 and rational b ≥ 0 with
    b + m·γ = Σ m_l·γ_l and m·u = Σ m_l·u_l, i.e. the multiplicative
    identity b·(aχ^u)^m = Π (a_l χ^{u_l})^{m_l} in log form."""

    m: int
    m_l: tuple[int, ...]
    b: Fraction

    def __post_init__(self):
        exact_int(self.m, "m", 1)
        object.__setattr__(self, "m_l", exact_vector(
            self.m_l, "m_l", lambda x: exact_int(x, "m_l entry", 0)
        ))
        if exact_rational(self.b, "b") < 0:
            raise DomainError("b must be nonnegative")

    def holds_for(
        self, constraints: Sequence[ExponentVector], target: ExponentVector
    ) -> bool:
        if len(constraints) != len(self.m_l):
            return False
        gamma = sum(
            (ml * c.gamma for ml, c in zip(self.m_l, constraints)),
            Fraction(0),
        )
        u = [0] * target.n
        for ml, c in zip(self.m_l, constraints):
            for j, x in enumerate(c.u):
                u[j] += ml * x
        return (
            self.m * target.gamma + self.b == gamma
            and all(self.m * x == y for x, y in zip(target.u, u))
        )


@dataclass(frozen=True)
class CounterexamplePoint:
    """A point of the constraint intersection where the target half-space
    inequality fails strictly."""

    point: tuple[Scalar, ...]


def filter_member(
    P: Prime, U: GammaPolyhedralSet | GammaPolyhedron
) -> MembershipAnswer:
    """Is the polyhedral set in the filter of P?

    Member exactly when some piece is a neighborhood of the flag;
    piece_index reports the first one.  On a rational set the answer is the
    polynomial preorder's: rational_set(f0, F) is a member exactly when
    compare(P, f, f0) is not GREATER for every f in F.
    """
    if classify(P) != CONT:
        raise DomainError("filter membership needs a cont prime")
    expect(U, (GammaPolyhedralSet, GammaPolyhedron), "U")
    if isinstance(U, GammaPolyhedron):
        U = GammaPolyhedralSet([U])
    flag = flag_from_matrix(P, "polyhedra")
    for idx, piece in enumerate(U.pieces):
        if is_neighborhood(piece, flag):
            return MembershipAnswer(True, idx)
    return MembershipAnswer(False)


def halfspace_member(P: Prime, a: ExponentVector) -> bool:
    """Is R(1, aχ^u) = {x : γ + ⟨x,u⟩ ≤ 0} in the filter?

    A pure lex comparison: true exactly when a ≤_P 1, that is, when the lex
    sign of C·a is not positive.
    """
    expect(P, Prime, "P")
    return P.matrix.sign_lex(expect(a, ExponentVector, "term")) <= 0


def halfspace_polyhedron(a: ExponentVector) -> GammaPolyhedron:
    """The half-space {x : ⟨x, u⟩ ≤ −γ} cut out by R(1, aχ^u)."""
    expect(a, ExponentVector, "term")
    return GammaPolyhedron(a.n, [(a.u, -a.gamma)])


def farkas_certify(
    constraints: Sequence[ExponentVector], target: ExponentVector
) -> FarkasCertificate | CounterexamplePoint:
    """Certificate or counterexample for ∩ R(1, a_l) ⊆ R(1, a).

    Requires the intersection to be nonempty.  One elimination of the
    violated system, the constraints ⟨x, u_l⟩ ≤ −γ_l together with
    ⟨x, −u⟩ < γ, settles both questions: split on the target row, it
    keeps one final row built without the target, which decides the meet,
    and one built with it (see polyhedra._eliminate).  When the meet's row
    is inconsistent the intersection is empty.  When every row is
    consistent, the back-substituted point satisfies every constraint and
    violates the target strictly, verified exactly.  Otherwise the target's
    row reads 0 ≤ negative or 0 < 0, and the multipliers behind it (affine
    Farkas lemma, read off by polyhedra._weights) are the certificate, with
    a positive target weight.  Scaled to target weight 1, the constraint
    weights r_l satisfy u = Σ r_l u_l and Σ r_l γ_l ≥ γ; m clears their
    denominators, m_l = m·r_l and b = Σ m_l γ_l − m·γ.  Every entry of
    the violated system is rational, so it is eliminated on Fractions read
    straight from the terms, and the point and the weights come out as
    Fractions; the point leaves as Scalars.
    """
    constraints = exact_vector(
        constraints, "constraints",
        lambda c: expect(c, ExponentVector, "constraint"),
    )
    n = expect(target, ExponentVector, "target").n
    if any(c.n != n for c in constraints):
        raise DimensionError("terms in different variable counts")
    violated = [(c.u, -c.gamma, False) for c in constraints]
    violated.append((tuple(-x for x in target.u), target.gamma, True))
    target_bit = 1 << len(constraints)
    final, levels = _eliminate(n, violated, target_bit)
    if not _consistent([row for row in final if not row[4] & target_bit]):
        raise DomainError("the constraint intersection is empty")
    if _consistent(final):
        point = _back_substitute(levels)
        if _value(target, point) <= 0:
            raise AssertionError("counterexample point satisfies the target")
        if any(_value(c, point) > 0 for c in constraints):
            raise AssertionError("counterexample point violates a constraint")
        return CounterexamplePoint(tuple(map(Scalar.coerce, point)))
    (contradiction,) = [row for row in final if row[4] & target_bit]
    *weights, target_weight = _weights(contradiction, len(violated))
    if target_weight <= 0:
        raise AssertionError("contradiction without a positive target weight")
    rationals = [w / target_weight for w in weights]
    m = lcm(*(q.denominator for q in rationals))
    m_l = tuple(int(q * m) for q in rationals)
    b = sum(
        (ml * c.gamma for ml, c in zip(m_l, constraints)), Fraction(0)
    ) - m * target.gamma
    cert = FarkasCertificate(m, m_l, b)
    if not cert.holds_for(constraints, target):
        raise AssertionError(f"certificate {cert} fails its identity")
    return cert


def _value(a: ExponentVector, point: Sequence) -> Fraction | Scalar:
    """γ + ⟨x, u⟩ at the point, the log of aχ^u there."""
    return a.gamma + sum(x * y for x, y in zip(point, a.u))


def mindim_witness(P: Prime) -> GammaPolyhedron:
    """A member polyhedron of minimum dimension.

    Each final-kernel basis element (α, u) gives a hyperplane
    ⟨x, u⟩ = −α; the hyperplanes are intersected with a box of side 6
    around the integer point nearest the flag vertex.  Membership is proved
    by points: with M = 1 + max ⌊|x|⌋ over the direction entries, L the
    flag length and ε = 1/(M·max(1, L) + 1), the point
    base + ε·(d_0 + … + d_{i−1}) lies in the relative interior of flag
    member i, on every hyperplane (C·(α, u) = 0), and less than 1 from the
    vertex, which is at least 2.5 inside the box; each point is checked
    exactly.  The dimension is proved by construction, with no
    elimination: every row is either half of an equality, its opposite row
    being present too, or strict at the flag vertex v (⟨v, u⟩ ≠ γ, a
    structural test with no sign refinement; contains has shown ≤).  A
    polyhedron with a point that is strict in every other row has the
    dimension of the affine space its equalities cut out, n minus the rank
    of their normals, which must be n minus the kernel rank.
    """
    if classify(P) != CONT:
        raise DomainError("minimum-dimension witness needs a cont prime")
    n = P.n
    K = final_kernel(P)
    rows: list[tuple[Sequence[int], Fraction]] = []
    for u, alpha in zip(K.lattice, K.ell):
        rows.append((u, -alpha))
        rows.append((tuple(-x for x in u), alpha))
    flag = flag_from_matrix(P, "polyhedra")
    for j, (lo, hi) in enumerate(_vertex_box(flag)):
        unit = [0] * n
        unit[j] = 1
        rows.append((tuple(unit), Fraction(hi)))
        rows.append((tuple(-x for x in unit), Fraction(-lo)))
    witness = GammaPolyhedron(n, rows)
    M = 1 + max(
        (max(x.floor(), (-x).floor()) for v in flag.dirs for x in v),
        default=0,
    )
    eps = Scalar.rational(Fraction(1, M * max(1, flag.length) + 1))
    point = list(flag.base)
    if not witness.contains(point):
        raise AssertionError("witness misses the flag vertex")
    for i, v in enumerate(flag.dirs, 1):
        point = [p + eps * x for p, x in zip(point, v)]
        if not witness.contains(point):
            raise AssertionError(f"witness misses flag member {i}")
    vertex = list(flag.base)
    present = set(witness.rows)
    normals = []
    for u, gamma in witness.rows:
        minus = tuple(-x for x in u)
        if (minus, -gamma) in present:
            if u > minus:  # one normal per pair
                normals.append([Fraction(x) for x in u])
        elif dot(vertex, u) == gamma:
            raise AssertionError(
                f"witness row {u} <= {gamma} is tight at the flag vertex "
                "and has no opposite row"
            )
    dim = n - field_rank(normals)
    if dim != n - K.rank:
        raise AssertionError(
            f"witness equalities leave dimension {dim}, not {n - K.rank}"
        )
    return witness


def _vertex_box(flag: Flag) -> list[tuple[int, int]]:
    """Per coordinate, the integer bounds of a box of side 6 centred on the
    integer point nearest the flag vertex (halves round up)."""
    half = Scalar.rational(Fraction(1, 2))
    centres = [(v + half).floor() for v in flag.base]
    return [(c - 3, c + 3) for c in centres]


def reconstruct_preorder(
    oracle: Callable[[ExponentVector], bool],
    pairs: Sequence[tuple[ExponentVector, ExponentVector]],
) -> list[str]:
    """Recover term comparisons from a half-space membership oracle.

    s ≤ t exactly when R(t, s) = R(1, s/t) is a member, so two oracle
    queries settle each pair.  A filter answers yes to at least one of
    them; both answers false mean the oracle is not a filter.
    """
    expect(oracle, Callable, "oracle")
    results = []
    for s, t in exact_rows(pairs, 2, "term pair"):
        expect(s, ExponentVector, "term")
        expect(t, ExponentVector, "term")
        le = oracle(s.sub(t))
        ge = oracle(t.sub(s))
        if le and ge:
            results.append(EQUAL)
        elif le:
            results.append(LESS)
        elif ge:
            results.append(GREATER)
        else:
            raise DomainError(
                "oracle rejected both R(1, s/t) and R(1, t/s); "
                "not a filter"
            )
    return results
