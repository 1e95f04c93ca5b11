import random
import time
from fractions import Fraction

import pytest

from valflag import (
    CounterexamplePoint,
    DefiningMatrix,
    DimensionError,
    DomainError,
    EQUAL,
    ExponentVector,
    FarkasCertificate,
    GammaPolyhedralSet,
    GammaPolyhedron,
    GREATER,
    LESS,
    Scalar,
    canonicalize,
    compare,
    compare_terms,
    farkas_certify,
    filter_member,
    halfspace_member,
    halfspace_polyhedron,
    min_filter_dim,
    mindim_witness,
    parse_term,
    rational_set,
    reconstruct_preorder,
)

from valflag import filters, polyhedra

from _oracles import (
    random_polynomial,
    random_prime,
    random_term,
    ref_dim,
    ref_farkas_certify,
)

R2 = Scalar.sqrt(2)
R3 = Scalar.sqrt(3)


def P(*rows):
    return canonicalize(DefiningMatrix(rows))


def ev(text, names=("x", "y")):
    return parse_term(text, list(names))


def point_polyhedron(coords):
    n = len(coords)
    rows = []
    for j, q in enumerate(coords):
        unit = [0] * n
        unit[j] = 1
        rows.append((tuple(unit), Fraction(q)))
        rows.append((tuple(-x for x in unit), -Fraction(q)))
    return GammaPolyhedron(n, rows)


# -- filter membership --------------------------------------------------------


def test_filter_member_origin():
    ans = filter_member(P([1, 0, 0]), point_polyhedron([0, 0]))
    assert ans.member and ans.piece_index == 0
    assert bool(ans)


def test_filter_member_rejects_rational_points_for_irrational_vertex():
    pr = P([1, R2, 0])
    for q in (0, 1, Fraction(3, 2), Fraction(7, 5)):
        assert not filter_member(pr, point_polyhedron([q, 0])).member


def test_filter_member_interval_on_axis():
    pr = P([1, R2, 0])
    segment = GammaPolyhedron(2, [
        ((1, 0), Fraction(2)), ((-1, 0), Fraction(0)),
        ((0, 1), Fraction(0)), ((0, -1), Fraction(0)),
    ])
    assert filter_member(pr, segment).member


def test_filter_member_needs_cont():
    with pytest.raises(DomainError):
        filter_member(P([0, 1, 0]), point_polyhedron([0, 0]))


def test_filter_member_reports_first_witnessing_piece():
    pr = P([1, 0, 0])
    far = point_polyhedron([5, 5])
    ans = filter_member(pr, GammaPolyhedralSet([far, point_polyhedron([0, 0])]))
    assert ans.member and ans.piece_index == 1
    assert not filter_member(pr, GammaPolyhedralSet([far, far])).member
    assert filter_member(pr, GammaPolyhedralSet([far, far])).piece_index is None


def test_rational_set_membership_is_the_polynomial_preorder():
    """rational_set(f0, F) is in P's filter exactly when every f in F has
    f ≤_P f0: a piece per term of f0, primeness for the union.  Zero
    polynomials occur on either side, and some members are found only at
    a later piece, which a filter_member that reads piece 0 alone misses."""
    rng = random.Random(405)
    members = later = zeros = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n, cont=True)
        f0 = random_polynomial(rng, n)
        F = [random_polynomial(rng, n) for _ in range(rng.randint(1, 2))]
        ans = filter_member(pr, rational_set(f0, F))
        assert ans.member == all(compare(pr, f, f0) != GREATER for f in F)
        members += ans.member
        later += bool(ans.member and ans.piece_index > 0)
        zeros += any(g.is_zero() for g in [f0, *F])
    assert members >= 100 and later >= 20 and zeros >= 100


# -- half-space queries -------------------------------------------------------


def test_halfspace_member_examples():
    assert halfspace_member(P([1, R2, R3]), ev("t^1*x^-1"))
    assert halfspace_member(P([1, R2, R3]), ev("t^0"))
    assert not halfspace_member(P([1, 0, 0], [0, 1, 0]), ev("x"))


def test_halfspace_polyhedron():
    U = halfspace_polyhedron(ev("t^-1*x"))
    assert U.rows == (((1, 0), Fraction(1)),)
    assert U.contains([1, 99])
    assert not U.contains([2, 0])


def test_halfspace_agrees_with_filter_member():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n, cont=True)
        a = random_term(rng, n)
        lex = halfspace_member(pr, a)
        geo = filter_member(pr, halfspace_polyhedron(a)).member
        assert lex == geo


# -- Farkas certificates ------------------------------------------------------


def test_farkas_product_certificate():
    cert = farkas_certify([ev("t^-1*x"), ev("t^-1*y")], ev("t^-2*x*y"))
    assert isinstance(cert, FarkasCertificate)
    assert cert.m == 1 and cert.m_l == (1, 1) and cert.b == 0
    assert cert.holds_for([ev("t^-1*x"), ev("t^-1*y")], ev("t^-2*x*y"))


def test_farkas_identity_containment():
    cert = farkas_certify([ev("t^-1*x")], ev("t^-1*x"))
    assert isinstance(cert, FarkasCertificate)
    assert cert.m == 1 and cert.m_l == (1,) and cert.b == 0


def test_farkas_counterexample():
    out = farkas_certify([ev("t^-1*x")], ev("t^-1*y"))
    assert isinstance(out, CounterexamplePoint)
    x, y = out.point
    # inside the constraint half-space, strictly outside the target one
    assert (x - 1).sign() <= 0
    assert (y - 1).sign() > 0


def test_farkas_slack_gives_positive_b():
    # {x <= 1} sits strictly inside {x <= 2}; the slack shows up in b
    cert = farkas_certify([ev("t^-1*x")], ev("t^-2*x"))
    assert isinstance(cert, FarkasCertificate)
    assert cert.m == 1 and cert.m_l == (1,) and cert.b == 1
    assert cert.holds_for([ev("t^-1*x")], ev("t^-2*x"))


def test_farkas_fractional_multipliers_cleared():
    cert = farkas_certify([ev("t^0*x^2")], ev("t^0*x"))
    assert isinstance(cert, FarkasCertificate)
    assert cert.m == 2 and cert.m_l == (1,)


def test_farkas_seven_term_certificate_is_fast():
    # Six constraints in three variables.  The certificate is checked by
    # its identity; the pinned value is the one the violated system's
    # contradiction gives.
    names = ["x", "y", "z"]
    terms = [
        parse_term(t, names)
        for t in (
            "t^-14*x^5*y^4*z^-2", "t^-7*x^-2*y^-1*z", "t^2*x^2*y*z^-3",
            "t^-11*x^-3*y^3", "t^3*x*y^-2*z^-2", "t^-5*x*y^3*z",
            "t^-6*y^2*z^3",
        )
    ]
    start = time.perf_counter()
    cert = farkas_certify(terms[1:], terms[0])
    assert time.perf_counter() - start < 1
    assert cert.holds_for(terms[1:], terms[0])
    assert cert == FarkasCertificate(
        35, (0, 16, 0, 65, 78, 10), Fraction(267)
    )


def test_farkas_empty_intersection_rejected():
    with pytest.raises(DomainError):
        farkas_certify([ev("t^1*x"), ev("t^1*x^-1")], ev("t^0"))
    # x <= 0 and x >= 1 read 0 <= -1.  With the target, x > 5 and x <= 0
    # read the tighter 0 < -5, but the elimination is split on the target
    # row and keeps both: the first, built without the target, refuses.
    with pytest.raises(DomainError):
        farkas_certify([ev("x"), ev("t^1*x^-1")], ev("t^-5*x"))


def test_farkas_certify_eliminates_once(monkeypatch):
    # one elimination settles the meet and the containment, on a contained
    # target, a violated one and an empty meet alike
    calls = []
    original = polyhedra._eliminate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyhedra, "_eliminate", counted)
    monkeypatch.setattr(filters, "_eliminate", counted)
    rng = random.Random(17)
    for kind, want in (
        ("contained", FarkasCertificate),
        ("violated", CounterexamplePoint),
        ("empty", type(None)),
    ):
        for _ in range(5):
            constraints, target = _farkas_instance(rng, 3, 5, kind)
            calls.clear()
            got = _certify_or_refuse(farkas_certify, constraints, target)
            assert type(got) is want
            assert len(calls) == 1


def _farkas_instance(rng, n, m, kind, tight=False):
    """m constraints in n variables, slack at a point x0 (none when tight),
    and a target: contained (a nonnegative combination of the constraints,
    loosened), violated at x0, random, or contained in an empty meet (one
    constraint negated and tightened)."""
    x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]

    def at_x0(u):
        return sum((x * e for x, e in zip(x0, u)), Fraction(0))

    constraints = []
    for _ in range(m):
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        gamma = -at_x0(u) - (0 if tight else Fraction(rng.randint(1, 4), 2))
        constraints.append(ExponentVector(gamma, u))
    if kind == "empty":
        c = rng.choice(constraints)
        gamma = -c.gamma + Fraction(rng.randint(1, 3), 2)
        constraints.append(ExponentVector(gamma, tuple(-x for x in c.u)))
        rng.shuffle(constraints)
    if kind == "violated":
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        target = ExponentVector(-at_x0(u) + Fraction(rng.randint(1, 4), 2), u)
    elif kind == "random":
        target = random_term(rng, n)
    else:
        lam = [rng.randint(0, 2) for _ in constraints]
        u = tuple(
            sum(l * c.u[j] for l, c in zip(lam, constraints)) for j in range(n)
        )
        gamma = sum((l * c.gamma for l, c in zip(lam, constraints)), Fraction(0))
        target = ExponentVector(gamma - Fraction(rng.randint(0, 3), 2), u)
    return constraints, target


def _certify_or_refuse(certify, constraints, target):
    try:
        return certify(constraints, target)
    except DomainError:
        return None


def test_farkas_agrees_with_three_elimination_oracle():
    # Up to six variables and twelve constraints: the verdict kind is the
    # oracle's, a counterexample point is the same point (one elimination
    # and back-substitution, as in the oracle), every certificate passes
    # holds_for, and both refuse the same empty meets.
    rng = random.Random(16)
    seen = {}
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        kind = rng.choice(("contained", "violated", "random", "empty"))
        constraints, target = _farkas_instance(rng, n, m, kind)
        got = _certify_or_refuse(farkas_certify, constraints, target)
        want = _certify_or_refuse(ref_farkas_certify, constraints, target)
        assert type(got) is type(want)
        if isinstance(got, CounterexamplePoint):
            assert repr(got.point) == repr(want.point)
        elif isinstance(got, FarkasCertificate):
            assert got.holds_for(constraints, target)
        seen[type(got)] = seen.get(type(got), 0) + 1
    assert min(seen.get(t, 0) for t in (
        FarkasCertificate, CounterexamplePoint, type(None)
    )) >= 30


def test_farkas_contained_certificate_is_fast():
    # Five variables and fourteen constraints: about 0.11 s on a 2-vCPU
    # machine, where ref_farkas_certify, which also eliminates the
    # multiplier system in one variable per constraint, takes about 0.63 s.
    # With every constraint tight at x0 the multiplier system is
    # degenerate: about 0.06 s here, and minutes and gigabytes for the
    # oracle.
    for seed, tight in ((10, False), (3, True)):
        constraints, target = _farkas_instance(
            random.Random(seed), 5, 14, "contained", tight
        )
        start = time.perf_counter()
        cert = farkas_certify(constraints, target)
        assert time.perf_counter() - start < 0.3
        assert cert.holds_for(constraints, target)


def test_farkas_dimension_check():
    with pytest.raises(DimensionError):
        farkas_certify([parse_term("t^0*x", ["x"])], ev("t^0*x*y"))


def test_certificate_validation():
    with pytest.raises(DomainError):
        FarkasCertificate(0, (), Fraction(0))
    with pytest.raises(DomainError):
        FarkasCertificate(1, (-1,), Fraction(0))
    with pytest.raises(DomainError):
        FarkasCertificate(1, (1,), Fraction(-1))
    cert = FarkasCertificate(1, (2,), Fraction(1))
    assert not cert.holds_for([ev("t^0*x")], ev("t^0*x"))
    assert not cert.holds_for([], ev("t^0*x"))


# -- minimum-dimension witnesses ------------------------------------------------


def test_mindim_witness_dimensions():
    table = [
        (P([1, 0, 0]), 0),
        (P([1, R2, 0]), 1),
        (P([1, R2, R3]), 2),
        (P([1, 0, 0], [0, 1, 0]), 1),
        (P([1, 0, 0], [0, 1, R2]), 2),
        (P([1, 0, 0], [0, 1, 0], [0, 0, 1]), 2),
    ]
    for pr, want in table:
        W = mindim_witness(pr)
        assert W.dim() == want == min_filter_dim(pr)
        assert filter_member(pr, W).member


def test_mindim_witness_origin_prime():
    W = mindim_witness(P([1, 0, 0]))
    assert W.contains([0, 0])
    assert not W.contains([0, Fraction(1, 7)])


def test_mindim_witness_segment_prime():
    W = mindim_witness(P([1, R2, 0]))
    assert W.contains([R2, 0])
    assert not W.contains([R2, Fraction(1, 9)])
    assert W.contains([Fraction(3, 2), 0])


def test_mindim_witness_needs_cont():
    with pytest.raises(DomainError):
        mindim_witness(P([0, 1, 0]))


def test_mindim_witness_random_primes():
    # filter_member, which runs is_neighborhood's eliminations, and the
    # unpruned ref_dim check the witness independently of the flag points
    # and the one-pass dim() that mindim_witness checks it with
    rng = random.Random(181)
    for _ in range(30):
        n = rng.randint(1, 4)
        pr = random_prime(rng, n, cont=True)
        W = mindim_witness(pr)
        assert filter_member(pr, W).member
        assert ref_dim(W) == min_filter_dim(pr)


def test_mindim_witness_needs_no_neighborhood_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_neighborhood called")

    monkeypatch.setattr(filters, "is_neighborhood", refuse)
    monkeypatch.setattr(polyhedra, "is_neighborhood", refuse)
    rng = random.Random(182)
    for _ in range(10):
        pr = random_prime(rng, rng.randint(1, 4), cont=True)
        assert mindim_witness(pr).dim() == min_filter_dim(pr)


# -- preorder reconstruction ----------------------------------------------------


def test_reconstruct_preorder_examples():
    pr = P([1, 0, 0], [0, 1, 0])
    oracle = lambda a: halfspace_member(pr, a)
    got = reconstruct_preorder(oracle, [
        (ev("t^1"), ev("x^2")),
        (ev("t^1"), ev("t^1")),
    ])
    assert got == [GREATER, EQUAL]


def test_reconstruct_matches_compare():
    rng = random.Random(240)
    for _ in range(15):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n, cont=True)
        pairs = [(random_term(rng, n), random_term(rng, n)) for _ in range(10)]
        got = reconstruct_preorder(lambda a: halfspace_member(pr, a), pairs)
        want = [compare_terms(pr, s, t) for s, t in pairs]
        assert got == want


def test_reconstruct_rejects_non_filter_oracle():
    always_no = lambda a: False
    with pytest.raises(DomainError):
        reconstruct_preorder(always_no, [(ev("t^1"), ev("t^2"))])


def test_reconstruct_handles_less():
    pr = P([1, 0, 0])
    got = reconstruct_preorder(
        lambda a: halfspace_member(pr, a), [(ev("t^-3"), ev("t^0"))]
    )
    assert got == [LESS]
