"""The filter of a cont prime on Γ-rational polyhedral sets.

The filter itself is infinite, so it is represented by its decision
procedure: a set belongs to it exactly when one of its pieces is a
neighborhood of the flag of the defining matrix.  Half-space queries have
a pure lex fast path, containments of half-space intersections produce
multiplicative Farkas certificates or exact counterexample points, and the
minimum member dimension is witnessed by an explicit polyhedron.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import DimensionError, DomainError
from .polyhedra import (
    Flag,
    GammaPolyhedralSet,
    GammaPolyhedron,
    IneqSystem,
    _back_substitute,
    _consistent,
    _eliminate,
    _feasible,
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
    min_filter_dim,
)
from .scalars import Scalar, dot, exact_int, exact_rational
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
        for x in self.m_l:
            exact_int(x, "m_l entry", 0)
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
    piece_index reports the first one.
    """
    if classify(P) != CONT:
        raise DomainError("filter membership needs a cont prime")
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
    return P.matrix.sign_lex(a) <= 0


def halfspace_polyhedron(a: ExponentVector) -> GammaPolyhedron:
    """The half-space {x : ⟨x, u⟩ ≤ −γ} cut out by R(1, aχ^u)."""
    return GammaPolyhedron(a.n, [(a.u, -a.gamma)])


def farkas_certify(
    constraints: Sequence[ExponentVector], target: ExponentVector
) -> FarkasCertificate | CounterexamplePoint:
    """Certificate or counterexample for ∩ R(1, a_l) ⊆ R(1, a).

    Requires the intersection to be nonempty.  One elimination of the
    violated system, the constraints ⟨x, u_l⟩ ≤ −γ_l together with
    ⟨x, −u⟩ < γ, settles containment.  When that system is consistent, its
    back-substituted point satisfies every constraint and violates the
    target strictly, verified exactly.  Otherwise its one final row reads
    0 ≤ negative or 0 < 0, and the multipliers behind it (affine Farkas
    lemma, read off by polyhedra._weights) are the certificate.  A zero
    target weight means the constraints alone are contradictory.  Scaled
    to target weight 1, the constraint weights r_l satisfy u = Σ r_l u_l
    and Σ r_l γ_l ≥ γ; m clears their denominators, m_l = m·r_l and
    b = Σ m_l γ_l − m·γ.
    """
    constraints = list(constraints)
    n = target.n
    if any(c.n != n for c in constraints):
        raise DimensionError("terms in different variable counts")
    meet = IneqSystem(n)
    for c in constraints:
        meet.add(c.u, -c.gamma)
    violated = IneqSystem(n, meet.rows)
    violated.add([-x for x in target.u], target.gamma, strict=True)
    final, levels = _eliminate(violated)
    if _consistent(final):
        point = _back_substitute(levels)
        value = Scalar.rational(target.gamma) + dot(list(point), target.u)
        assert value.sign() > 0
        for c in constraints:
            cv = Scalar.rational(c.gamma) + dot(list(point), c.u)
            assert cv.sign() <= 0
        return CounterexamplePoint(point)
    # every zero normal is one key in _dedup, so one row is left
    (contradiction,) = final
    *weights, target_weight = [
        w.as_rational() for w in _weights(contradiction, len(violated.rows))
    ]
    # A positive target weight still leaves the meet to check: _dedup may
    # keep a contradiction that uses the target over one that does not.
    if not target_weight or not _feasible(meet):
        raise DomainError("the constraint intersection is empty")
    rationals = [w / target_weight for w in weights]
    m = lcm(*(q.denominator for q in rationals))
    m_l = tuple(int(q * m) for q in rationals)
    b = sum(
        (ml * c.gamma for ml, c in zip(m_l, constraints)), Fraction(0)
    ) - m * target.gamma
    cert = FarkasCertificate(m, m_l, b)
    assert cert.holds_for(constraints, target)
    return cert


def mindim_witness(P: Prime) -> GammaPolyhedron:
    """A member polyhedron of minimum dimension.

    Each final-kernel basis element (α, u) gives a hyperplane
    ⟨x, u⟩ = −α that belongs to the filter (both bounding half-spaces do,
    since C·(α, u) = 0); the hyperplanes are intersected with a box of
    side 6 around the integer point nearest the flag vertex.  Membership
    and dimension are re-verified before returning.
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
    assert filter_member(P, witness).member
    assert witness.dim() == min_filter_dim(P)
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
    results = []
    for s, t in pairs:
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
