import random
from fractions import Fraction

import pytest

from valflag import (
    DefiningMatrix,
    DimensionError,
    DomainError,
    Flag,
    GammaPolyhedralSet,
    GammaPolyhedron,
    IneqSystem,
    NEG_INF,
    Scalar,
    TropPolynomial,
    canonicalize,
    decide_equal,
    flag_from_matrix,
    fm_feasible,
    in_cone,
    is_neighborhood,
    locally_equivalent,
    matrix_from_flag,
    parse_poly,
    rational_set,
    relative_interior_matrix,
    simplicialize,
)
from valflag.polyhedra import (
    _back_substitute,
    _consistent,
    _eliminate,
    _feasible,
    _weights,
)
from valflag.scalars import ONE, ZERO, dot

from _oracles import (
    naive_feasible,
    random_nonsimplicial_cones,
    random_polynomial,
    random_prime,
    random_scalar,
    ref_dim,
    ref_fm_feasible,
    ref_in_cone,
    ref_simplicial_rays,
)

R2 = Scalar.sqrt(2)
R3 = Scalar.sqrt(3)


def P(*rows):
    return canonicalize(DefiningMatrix(rows))


# -- Fourier-Motzkin ----------------------------------------------------------


def test_fm_contradiction():
    s = IneqSystem(1)
    s.add([1], 1, strict=True)   # x < 1
    s.add([-1], -1, strict=True)  # x > 1
    feasible, point = fm_feasible(s)
    assert not feasible and point is None


def test_fm_pinned_irrational_point():
    s = IneqSystem(1)
    s.add([1], R2)
    s.add([-1], -R2)
    feasible, point = fm_feasible(s)
    assert feasible
    assert point == (R2,)


def test_fm_open_interval_sample():
    s = IneqSystem(1)
    s.add([1], R2, strict=True)
    s.add([-1], -1, strict=True)
    feasible, (x,) = fm_feasible(s)
    assert feasible
    assert Scalar.rational(1) < x < R2
    assert x.is_rational()


def test_fm_equalities_with_strict_break():
    s = IneqSystem(1)
    s.add([1], 0)
    s.add([-1], 0)
    s.add([1], 0, strict=True)
    feasible, _ = fm_feasible(s)
    assert not feasible


def test_fm_unbounded_directions():
    s = IneqSystem(2)
    s.add([-1, 0], -5, strict=True)  # x > 5
    feasible, point = fm_feasible(s)
    assert feasible
    assert point[0] > 5


def test_fm_matches_naive_oracle():
    rng = random.Random(121)
    for _ in range(120):
        d = rng.randint(1, 3)
        nrows = rng.randint(0, 6)
        rows = []
        for _ in range(nrows):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
            rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            rows.append((coeffs, rhs, rng.random() < 0.4))
        s = IneqSystem(d)
        for coeffs, rhs, strict in rows:
            s.add(coeffs, rhs, strict=strict)
        feasible, point = fm_feasible(s)
        assert feasible == naive_feasible(rows, d)
        if feasible:
            for coeffs, rhs, strict in rows:
                slack = (Scalar.rational(rhs) - dot(point, coeffs)).sign()
                assert slack > 0 or (slack == 0 and not strict)


def _random_rows(rng, d, irrational, entry, max_rows):
    """Between d + 1 and max_rows rows with normal entries from entry and
    random right-hand sides, irrational ones only when irrational is set."""
    return [
        (
            tuple(entry(irrational) for _ in range(d)),
            random_scalar(rng, irrational_p=0.3 if irrational else 0),
            rng.random() < 0.4,
        )
        for _ in range(rng.randint(d + 1, max_rows))
    ]


def _feasible_against_unpruned_oracle(rng, entry, systems, max_d, max_rows):
    """fm_feasible on seeded systems in 2..max_d variables, alternately
    rational and irrational, against the unpruned oracle and _feasible;
    returns how many were feasible."""
    feasible_count = 0
    for i in range(systems):
        d = rng.randint(2, max_d)
        rows = _random_rows(rng, d, i % 2 == 1, entry, min(max_rows, 48 // d))
        system = IneqSystem(d, rows)
        feasible, point = fm_feasible(system)
        assert (feasible, point) == ref_fm_feasible(d, rows)
        assert _feasible(system) == feasible
        if feasible:
            feasible_count += 1
            for coeffs, rhs, strict in rows:
                slack = (rhs - dot(point, coeffs)).sign()
                assert slack > 0 or (slack == 0 and not strict)
    return feasible_count


def test_fm_matches_unpruned_oracle():
    # Up to 12 rows in up to five variables, entries in {-1, 0, 1} and
    # some irrational ones: enough rows per variable that Chernikov's rule
    # drops combinations.  The feasibility and the sample point must not
    # change, and the feasibility-only helper must give the same answer.
    rng = random.Random(7)

    def entry(irrational):
        r = rng.random()
        if r < 0.2:
            return ZERO
        if irrational and r < 0.3:
            return random_scalar(rng, irrational_p=1.0)
        return Scalar.rational(rng.randint(-1, 1))

    assert 30 <= _feasible_against_unpruned_oracle(rng, entry, 150, 5, 12) <= 120


def test_fm_off_unit_entries_match_unpruned_oracle():
    # Entries such as ±2, ±3/2, ±1/3 and irrational ones, so that almost
    # every row is scaled before its pivot is 1 or -1, on the input and
    # after each combination; the oracle scales no row that way and
    # divides in back-substitution.  Such rows seldom share a normal, so
    # the unpruned oracle keeps many more rows than with entries in
    # {-1, 0, 1}: at most four variables and nine rows.
    rng = random.Random(31)
    values = [Fraction(v) for v in (2, -2, 3, -3)] + [
        Fraction(3, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 3),
    ]

    def entry(irrational):
        r = rng.random()
        if r < 0.2:
            return ZERO
        if irrational and r < 0.45:
            return random_scalar(rng, irrational_p=1.0)
        return Scalar.rational(rng.choice(values))

    assert 30 <= _feasible_against_unpruned_oracle(rng, entry, 160, 4, 9) <= 130


def test_fm_rows_have_unit_pivots():
    # Combining two rows by addition is right only because each row at
    # level k is 1 or -1 on x_k and zero beyond it.
    rng = random.Random(47)

    def entry(irrational):
        r = rng.random()
        if r < 0.25:
            return ZERO
        if irrational and r < 0.45:
            return random_scalar(rng, irrational_p=1.0)
        return Scalar.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    checked = 0
    for i in range(120):
        d = rng.randint(1, 5)
        rows = _random_rows(rng, d, i % 2 == 1, entry, min(12, 48 // d))
        final, levels = _eliminate(IneqSystem(d, rows))
        for k, (pos, neg) in enumerate(levels):
            for side, unit in ((pos, ONE), (neg, -ONE)):
                for coeffs, _, _, _, _, _ in side:
                    assert coeffs[k] == unit
                    assert all(x == ZERO for x in coeffs[k + 1:])
                    checked += 1
        assert all(not any(coeffs) for coeffs, _, _, _, _, _ in final)
    assert checked >= 1000


def test_row_origins_give_exact_multipliers():
    # Every row under elimination, and the final contradiction of an
    # infeasible system, is the combination of the input rows with the
    # multipliers its origins give: nonnegative, positive only inside its
    # support (exact ties in _dedup unite supports but keep one origin),
    # and strict exactly when a strict input row has weight.
    rng = random.Random(53)

    def entry(irrational):
        r = rng.random()
        if r < 0.25:
            return ZERO
        if irrational and r < 0.4:
            return random_scalar(rng, irrational_p=1.0)
        return Scalar.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    checked = infeasible = 0
    for i in range(80):
        d = rng.randint(1, 4)
        rows = _random_rows(rng, d, i % 2 == 1, entry, min(10, 40 // d))
        final, levels = _eliminate(IneqSystem(d, rows))
        assert len(final) <= 1
        infeasible += not _consistent(final)
        for row in final + [r for pos, neg in levels for r in pos + neg]:
            coeffs, rhs, strict, _, support, _ = row
            weights = _weights(row, len(rows))
            assert all(w.sign() >= 0 for w in weights)
            assert all(support >> j & 1 for j, w in enumerate(weights) if w)
            assert strict == any(w and rows[j][2] for j, w in enumerate(weights))
            assert rhs == sum((w * r[1] for w, r in zip(weights, rows)), ZERO)
            for k in range(d):
                assert coeffs[k] == sum(
                    (w * r[0][k] for w, r in zip(weights, rows)), ZERO
                )
            checked += 1
    assert checked >= 500 and infeasible >= 20


def test_split_elimination_keeps_the_subsystem():
    # Split on the last rows, the rows built without them are those of the
    # elimination of the other rows alone: the same final rows, labels and
    # supports.  Every level still describes the whole projection, so the
    # answer and the sample point are those of the unsplit elimination,
    # and when only the split rows make the system infeasible, the final
    # row of their class is a contradiction that uses them.
    rng = random.Random(59)

    def entry(irrational):
        r = rng.random()
        if r < 0.25:
            return ZERO
        if irrational and r < 0.4:
            return random_scalar(rng, irrational_p=1.0)
        return Scalar.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    by_split_rows = 0
    for i in range(80):
        d = rng.randint(1, 4)
        rows = _random_rows(rng, d, i % 2 == 1, entry, min(10, 40 // d))
        kept = rng.randint(1, len(rows) - 1)
        split = (1 << len(rows)) - (1 << kept)
        final, levels = _eliminate(IneqSystem(d, rows), split)
        sub_final, _ = _eliminate(IneqSystem(d, rows[:kept]))
        whole, _ = _eliminate(IneqSystem(d, rows))
        sides = (
            [r for r in final if not r[4] & split],
            [r for r in final if r[4] & split],
        )
        assert len(sides[0]) <= 1 and len(sides[1]) <= 1
        assert [r[:5] for r in sides[0]] == [r[:5] for r in sub_final]
        assert _consistent(final) == _consistent(whole)
        if _consistent(final):
            assert _back_substitute(levels) == fm_feasible(IneqSystem(d, rows))[1]
        elif _consistent(sides[0]):
            by_split_rows += 1
            (row,) = sides[1]
            assert not _consistent([row])
            weights = _weights(row, len(rows))
            assert any(w.sign() > 0 for w in weights[kept:])
    assert by_split_rows >= 10


def test_ineq_system_rejects_bad_rows():
    with pytest.raises(DimensionError):
        IneqSystem(2).add([1], 0)


# -- Γ-rational polyhedra -----------------------------------------------------


def box(lo, hi):
    return GammaPolyhedron(2, [
        ((1, 0), Fraction(hi)), ((-1, 0), Fraction(-lo)),
        ((0, 1), Fraction(hi)), ((0, -1), Fraction(-lo)),
    ])


def test_polyhedron_validation():
    with pytest.raises(DomainError):
        GammaPolyhedron(1, [((Fraction(1, 2),), Fraction(0))])
    with pytest.raises(DomainError):
        GammaPolyhedron(2, [((True, 0), 1)])
    with pytest.raises(DomainError):
        GammaPolyhedron(1, [((1,), 0.1)])
    # a right-hand side is an int or a Fraction, never a bool or a string
    for gamma in [True, False, "1/2", "1e3", "0", None]:
        with pytest.raises(DomainError):
            GammaPolyhedron(1, [((1,), gamma)])
    assert GammaPolyhedron(1, [((1,), 2)]).rows == (((1,), Fraction(2)),)
    with pytest.raises(DimensionError):
        GammaPolyhedron(2, [((1,), Fraction(0))])
    with pytest.raises(DimensionError):
        GammaPolyhedron(2).contains([Scalar.rational(0)])


def test_polyhedron_contains_and_sample():
    U = box(1, 2)
    assert U.contains([R2, R3])
    assert not U.contains([Scalar.rational(0), R3])
    pt = U.sample()
    assert pt is not None and U.contains(pt)
    assert not U.is_empty()


def test_polyhedron_dim():
    assert box(1, 2).dim() == 2
    assert GammaPolyhedron(2).dim() == 2
    point = GammaPolyhedron(2, [
        ((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0),
    ])
    assert point.dim() == 0
    segment = GammaPolyhedron(2, [
        ((0, 1), 0), ((0, -1), 0), ((1, 0), 3), ((-1, 0), 0),
    ])
    assert segment.dim() == 1
    empty = GammaPolyhedron(2, [((1, 0), 0), ((-1, 0), -1)])
    assert empty.dim() == -1
    assert empty.is_empty()


def test_polyhedron_dim_matches_per_row_oracle():
    # Planted equalities: rows u_1, ..., u_j and -(u_1 + ... + u_j), all
    # tight at a rational point x0, force those normals to be equalities;
    # further rows are tight or slack at x0, and a shifted closing row
    # empties the polyhedron.
    rng = random.Random(8)
    seen = set()
    for _ in range(500):
        n = rng.randint(1, 4)
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]

        def row(u, slack=0):
            return u, sum((a * x for a, x in zip(u, x0)), Fraction(slack))

        rows = []
        for _ in range(rng.randint(0, 2)):
            group = [
                tuple(rng.randint(-1, 1) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            closing = tuple(-sum(col) for col in zip(*group))
            shift = -1 if rng.random() < 0.1 else 0
            rows.extend(row(u) for u in group)
            rows.append(row(closing, shift))
        for _ in range(rng.randint(0, 4)):
            u = tuple(rng.randint(-1, 1) for _ in range(n))
            rows.append(row(u, rng.choice((0, 0, 1, Fraction(1, 2)))))
        rng.shuffle(rows)
        U = GammaPolyhedron(n, rows)
        got = U.dim()
        assert got == ref_dim(U), U
        seen.add(got)
    assert seen == {-1, 0, 1, 2, 3, 4}


def test_polyhedron_intersection():
    left = GammaPolyhedron(2, [((1, 0), 1)])
    right = GammaPolyhedron(2, [((-1, 0), -1)])
    line = left.intersection(right)
    assert line.dim() == 1
    assert line.contains([Scalar.rational(1), R2])
    with pytest.raises(DimensionError, match="different dimension"):
        GammaPolyhedron(1).intersection(GammaPolyhedron(2))


def test_polyhedral_set():
    with pytest.raises(DomainError):
        GammaPolyhedralSet([])
    with pytest.raises(DimensionError):
        GammaPolyhedralSet([GammaPolyhedron(1), GammaPolyhedron(2)])
    U = GammaPolyhedralSet([box(0, 1), box(3, 4)])
    assert U.contains([Fraction(1, 2), Fraction(1, 2)])
    assert U.contains([Fraction(7, 2), Fraction(7, 2)])
    assert not U.contains([2, 2])


# -- rational sets ------------------------------------------------------------


def test_rational_set_halfplane():
    region = rational_set(
        TropPolynomial.unit(1), [parse_poly("t^-1*x", ["x"])]
    )
    assert len(region.pieces) == 1
    assert region.pieces[0].rows == (((1,), Fraction(1)),)
    # the polynomials are read once, so an iterator gives the same region
    region = rational_set(
        TropPolynomial.unit(1), iter([parse_poly("t^-1*x", ["x"])])
    )
    assert region.pieces[0].rows == (((1,), Fraction(1)),)


def test_rational_set_against_zero():
    region = rational_set(TropPolynomial.unit(2), [TropPolynomial.zero(2)])
    assert region.pieces[0].rows == ()
    assert region.contains([100, -100])


def test_rational_set_empty_f0():
    region = rational_set(TropPolynomial.zero(1), [TropPolynomial.unit(1)])
    assert region.pieces[0].is_empty()
    both_zero = rational_set(TropPolynomial.zero(1), [TropPolynomial.zero(1)])
    assert both_zero.contains([R2])


def test_rational_set_refuses_mixed_variable_counts():
    with pytest.raises(DimensionError, match="different variable counts"):
        rational_set(TropPolynomial.unit(1), [TropPolynomial.unit(2)])


def test_rational_set_homog_slice_is_zero_locus():
    region = rational_set(
        TropPolynomial.unit(1), [parse_poly("t^1", ["x"])], homog=True
    )
    piece = region.pieces[0]
    assert piece.contains([0, 7])
    assert not piece.contains([1, 0])
    assert not piece.contains([-1, 0])


def test_rational_set_matches_evaluation():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(1, 2)
        f0 = random_polynomial(rng, n)
        others = [random_polynomial(rng, n) for _ in range(rng.randint(0, 2))]
        region = rational_set(f0, others)
        for _ in range(12):
            x = [
                Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                for _ in range(n)
            ]
            v0 = f0.eval_at(x)
            dominated = True
            for g in others:
                vg = g.eval_at(x)
                if vg == NEG_INF:
                    continue
                if v0 == NEG_INF or not v0 >= vg:
                    dominated = False
                    break
            assert region.contains(x) == dominated


def test_rational_set_homog_restricts_to_affine():
    rng = random.Random(88)
    for _ in range(25):
        n = rng.randint(1, 2)
        f0 = TropPolynomial.term(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            tuple(rng.randint(-2, 2) for _ in range(n)),
        )
        others = [
            TropPolynomial.term(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                tuple(rng.randint(-2, 2) for _ in range(n)),
            )
            for _ in range(rng.randint(1, 2))
        ]
        flat = rational_set(f0, others)
        lifted = rational_set(f0, others, homog=True)
        for _ in range(10):
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
            assert flat.contains(x) == lifted.contains([Fraction(1)] + x)


def test_rational_set_homog_is_the_cone_over_the_affine_set():
    """(r, x) with r > 0 lies in the homogenized set exactly when x/r lies
    in the affine set, and no point with r < 0 does, also when every
    polynomial is zero."""
    rng = random.Random(61)
    all_zero = 0
    for _ in range(200):
        n = rng.randint(1, 2)
        f0 = random_polynomial(rng, n)
        others = [random_polynomial(rng, n) for _ in range(rng.randint(0, 2))]
        all_zero += f0.is_zero() and all(g.is_zero() for g in others)
        flat = rational_set(f0, others)
        lifted = rational_set(f0, others, homog=True)
        for _ in range(6):
            r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
            assert lifted.contains([r] + x) == flat.contains([xi / r for xi in x])
            assert not lifted.contains([-r] + x)
    assert all_zero >= 5


# -- flags --------------------------------------------------------------------


def test_flag_from_matrix_examples():
    F = flag_from_matrix(P([1, R2, 0], [0, 0, 1]))
    assert F.kind == "polyhedra"
    assert F.base == (R2, ZERO)
    assert F.dirs == ((ZERO, Scalar.rational(1)),)

    point = flag_from_matrix(P([1, R2, R3]))
    assert point.base == (R2, R3)
    assert point.dirs == ()

    ray = flag_from_matrix(P([0, 1, 0]))
    assert ray.kind == "cones"
    assert ray.base == (ZERO, Scalar.rational(1), ZERO)
    assert ray.dirs == ()


def test_flag_kind_constraints():
    with pytest.raises(DomainError):
        flag_from_matrix(P([0, 1, 0]), kind="polyhedra")
    with pytest.raises(DomainError, match="empty matrix has no cone flag"):
        flag_from_matrix(canonicalize(DefiningMatrix([], n=2)), kind="cones")
    with pytest.raises(DomainError, match="bad flag kind 'bad'"):
        flag_from_matrix(P([1, 0]), kind="bad")
    with pytest.raises(DomainError):
        Flag("spirals", (ZERO,), ())
    with pytest.raises(DomainError):
        Flag("polyhedra", (ZERO, ZERO), ((Scalar.rational(1), ZERO), (Scalar.rational(2), ZERO)))
    with pytest.raises(DomainError):
        Flag("cones", (Scalar.rational(-1), ZERO), ())
    with pytest.raises(DimensionError):
        Flag("polyhedra", (ZERO, ZERO), ((Scalar.rational(1),),))
    with pytest.raises(DomainError):
        Flag("cones", (), ())


def test_flag_reads_its_vectors_exactly():
    # ints, Fractions and scalar strings become Scalars, so a flag built
    # from plain numbers drives the neighborhood test
    F = Flag("polyhedra", (1, "sqrt(2)"), ((Fraction(1, 2), 0),))
    assert F.base == (Scalar.rational(1), Scalar.sqrt(2))
    assert F.dirs == ((Scalar.rational(Fraction(1, 2)), ZERO),)
    box = GammaPolyhedron(2, [((1, 0), 2), ((-1, 0), 0), ((0, 1), 2), ((0, -1), -1)])
    assert is_neighborhood(box, F)
    assert is_neighborhood(box, Flag("polyhedra", (1, 2), ()))


def test_flag_matrix_round_trip():
    rng = random.Random(133)
    for _ in range(25):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n)
        kind = "polyhedra" if pr.matrix.rows and pr.matrix.rows[0][0] else "cones"
        if kind == "cones" and not pr.matrix.rows:
            continue
        F = flag_from_matrix(pr, kind=kind)
        back = canonicalize(matrix_from_flag(F))
        assert decide_equal(pr, back).equal


def test_is_neighborhood_examples():
    point_flag = flag_from_matrix(P([1, R2, R3]))
    assert is_neighborhood(box(1, 2), point_flag)
    halfplane = GammaPolyhedron(2, [((1, 0), 1)])
    assert not is_neighborhood(halfplane, point_flag)
    whale = flag_from_matrix(P([1, R2, 0], [0, 0, 1]))
    upper = GammaPolyhedron(2, [((0, -1), 0)])
    assert is_neighborhood(upper, whale)


def test_is_neighborhood_checks_kind():
    with pytest.raises(DomainError):
        is_neighborhood(box(0, 1), flag_from_matrix(P([0, 1, 0])))
    with pytest.raises(DimensionError):
        is_neighborhood(GammaPolyhedron(3), flag_from_matrix(P([1, 0, 0])))


def _neighborhood_by_differences(U, F):
    """base in U and U meets member_i minus member_{i-1} for every i."""
    if not U.contains(F.base):
        return False
    for i in range(1, F.length + 1):
        s = IneqSystem(i)
        for u, gamma in U.rows:
            coeffs = [dot(F.dirs[j], u) for j in range(i)]
            s.add(coeffs, Scalar.rational(gamma) - dot(F.base, u))
        for j in range(i):
            row = [ZERO] * j + [Scalar.rational(-1)] + [ZERO] * (i - j - 1)
            s.add(row, ZERO, strict=(j == i - 1))
        if not fm_feasible(s)[0]:
            return False
    return True


def test_is_neighborhood_formulations_agree():
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randint(1, 3)
        F = flag_from_matrix(random_prime(rng, n, cont=True))
        rows = []
        for _ in range(rng.randint(0, 4)):
            u = tuple(rng.randint(-2, 2) for _ in range(n))
            rows.append((u, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        U = GammaPolyhedron(n, rows)
        assert is_neighborhood(U, F) == _neighborhood_by_differences(U, F)


def test_locally_equivalent_examples():
    whale = flag_from_matrix(P([1, R2, 0], [0, 1, R3]))
    dolphin = flag_from_matrix(P([1, R2, 0], [0, 0, 1]))
    assert locally_equivalent(whale, dolphin).equal
    assert locally_equivalent(whale, whale).equal

    origin = flag_from_matrix(P([1, 0, 0]))
    shifted = flag_from_matrix(P([1, R2, 0]))
    verdict = locally_equivalent(origin, shifted)
    assert verdict.outcome == "Distinguished"

    with pytest.raises(DomainError):
        locally_equivalent(whale, flag_from_matrix(P([0, 1, 0])))
    with pytest.raises(DimensionError):
        locally_equivalent(origin, flag_from_matrix(P([1, 0])))


# -- simplicialization --------------------------------------------------------


def test_in_cone():
    assert in_cone([1, 1], [[1, 0], [0, 1]])
    assert not in_cone([-1, 0], [[1, 0], [0, 1]])
    assert in_cone([2, 0], [[1, 0]])
    assert in_cone([0, 0], [[1, 0]])
    assert in_cone([R2, ZERO], [[1, 0]])
    assert in_cone([0, 0], []) and not in_cone([1, 0], [])
    with pytest.raises(DimensionError):
        in_cone([1, 1], [[1, 0, 0]])


def test_in_cone_agrees_with_primal_oracle():
    # The dual system in the ambient variables against the primal one in
    # one variable per generator, on cones in up to four dimensions with
    # up to seven generators, irrational entries among them.  Vectors are
    # drawn inside (a combination of the generators, often on a face),
    # outside, or at random.
    rng = random.Random(61)
    inside = outside = 0
    for _ in range(500):
        d = rng.randint(1, 4)
        gens = [
            [random_scalar(rng, irrational_p=0.3) for _ in range(d)]
            for _ in range(rng.randint(1, 7))
        ]
        kind = rng.random()
        if kind < 0.5:
            v = [ZERO] * d
            for g in gens:
                c = Scalar.rational(rng.choice((0, 0, 1, 2, Fraction(1, 3))))
                v = [a + c * x for a, x in zip(v, g)]
        elif kind < 0.75:
            g = rng.choice(gens)
            v = [-x for x in g]
        else:
            v = [random_scalar(rng, irrational_p=0.3) for _ in range(d)]
        answer = in_cone(v, gens)
        assert answer == ref_in_cone(v, gens)
        inside += answer
        outside += not answer
    assert inside >= 150 and outside >= 100


def test_simplicialize_already_simplicial():
    F = simplicialize([[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]])
    assert F.kind == "cones"
    assert F.base == (Scalar.rational(1), ZERO, ZERO)
    assert F.dirs == ((ZERO, Scalar.rational(1), ZERO),)


def test_simplicialize_picks_first_outside_ray():
    F = simplicialize([
        [[1, 0, 0]],
        [[1, 0, 0], [1, 1, 0], [1, 2, 0]],
    ])
    assert F.dirs == ((Scalar.rational(1), Scalar.rational(1), ZERO),)


def test_simplicialize_redundant_generators_stay_equivalent():
    cones = [
        [[1, 0, 0]],
        [[1, 0, 0], [1, 1, 0], [2, 1, 0], [3, 1, 0]],
    ]
    F = simplicialize(cones)
    A = canonicalize(matrix_from_flag(F))
    B = canonicalize(relative_interior_matrix(cones))
    assert decide_equal(A, B).equal


def test_simplicialize_skips_a_zero_generator():
    F = simplicialize([[[0, 0], [1, 0]], [[1, 0], [0, 1]]])
    assert F.base == (Scalar.rational(1), ZERO)
    assert F.dirs == ((ZERO, Scalar.rational(1)),)
    assert simplicialize([[[0, 0], [2, 0]]]).base == (Scalar.rational(2), ZERO)


def test_simplicialize_validation():
    with pytest.raises(DomainError):
        simplicialize([])
    with pytest.raises(DomainError):
        simplicialize([[]])  # a cone without generators
    with pytest.raises(DomainError):
        simplicialize([[[1, 0], [0, 1]]])  # first cone must be a ray
    with pytest.raises(DomainError):
        # second cone misses the first one
        simplicialize([[[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]])
    with pytest.raises(DomainError):
        # rank does not grow
        simplicialize([[[1, 0]], [[1, 0], [2, 0]]])


def test_simplicialize_picks_as_with_cone_test():
    """The rank test alone picks the rays that a cone test before it
    picks: the earlier picks span the previous cone."""
    rng = random.Random(1213)
    skipped = 0
    for _ in range(400):
        cones = random_nonsimplicial_cones(rng)
        rays, k = ref_simplicial_rays(cones)
        F = simplicialize(cones)
        assert [F.base, *F.dirs] == [tuple(r) for r in rays]
        skipped += k
    assert skipped >= 100


def test_relative_interior_matrix():
    M = relative_interior_matrix([[[1, 0]], [[1, 0], [0, 1]]])
    assert M.rows == (
        (Scalar.rational(1), ZERO),
        (Scalar.rational(1), Scalar.rational(1)),
    )
    with pytest.raises(DomainError):
        relative_interior_matrix([[[1, 0]], []])
    # ragged generators are refused, not cut to the shorter length
    for ragged in ([[[1, 0], [1]]], [[[1], [1, 0]]]):
        with pytest.raises(DimensionError):
            relative_interior_matrix(ragged)
