"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (with its time limit where one
applies); run with -s to see all ten lines together.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from valflag import (
    CONT,
    CounterexamplePoint,
    DefiningMatrix,
    EQUAL,
    ExponentVector,
    FarkasCertificate,
    GammaPolyhedralSet,
    GammaPolyhedron,
    NON_CONTINUOUS,
    Scalar,
    TropPolynomial,
    canonicalize,
    classify,
    compare,
    compare_terms,
    decide_equal,
    farkas_certify,
    filter_member,
    flag_from_matrix,
    halfspace_member,
    halfspace_polyhedron,
    height,
    is_order,
    locally_equivalent,
    min_filter_dim,
    mindim_witness,
    reconstruct_preorder,
    relative_interior_matrix,
    simplicialize,
)
from valflag.scalars import dot

from _oracles import (
    grid_exponents,
    naive_feasible,
    random_nonsimplicial_cones,
    random_prime,
    random_term,
    transform_rows,
)

R2 = Scalar.sqrt(2)
R3 = Scalar.sqrt(3)
HALF = Scalar.rational(Fraction(1, 2))


def P(*rows):
    return canonicalize(DefiningMatrix(rows))


@contextmanager
def criterion(num, label, limit=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_time = limit is None or elapsed < limit
        timing = f" [{elapsed:.2f}s {'<' if in_time else '>='} {limit:.0f}s]" if limit else ""
        print(f"criterion {num:2d} ({label}): {'PASS' if ok and in_time else 'FAIL'}{timing}")
    if limit is not None:
        assert elapsed < limit


# -- 1 -------------------------------------------------------------------


def test_criterion_01_equal_primes_beyond_row_ops():
    with criterion(1, "equal primes beyond row-operation reach", limit=1.0):
        A = P([1, R2, 0], [0, 1, R3])
        B = P([1, R2, 0], [0, 0, 1])
        assert decide_equal(A, B).equal
        assert decide_equal(B, A).equal
        assert A != B


# -- 2 -------------------------------------------------------------------

# Row values stay below ~1e4 in magnitude, so float round-off (~1e-11)
# cannot cross this line; anything closer to zero is settled exactly.
EPS = 1e-6


def _float_rows(matrix):
    return [[x.approx() for x in row] for row in matrix.rows]


def _lex_sign(matrix, frows, w):
    vec = (float(w.gamma),) + w.u
    coeffs = None
    for row, frow in zip(matrix.rows, frows):
        v = sum(a * b for a, b in zip(frow, vec))
        if v > EPS:
            return 1
        if v < -EPS:
            return -1
        if coeffs is None:
            coeffs = [w.gamma, *w.u]
        s = dot(row, coeffs).sign()
        if s:
            return s
    return 0


def _grid_separator(A, B, grid):
    fa, fb = _float_rows(A.matrix), _float_rows(B.matrix)
    for w in grid:
        if _lex_sign(A.matrix, fa, w) != _lex_sign(B.matrix, fb, w):
            return w
    return None


def test_criterion_02_distinguishing_witnesses():
    with criterion(2, "distinguishing witnesses vs exponent grid", limit=30.0):
        verdict = decide_equal(P([1, 0, 0]), P([1, R2, 0]))
        assert verdict.outcome == "Distinguished"
        w = verdict.witness
        assert P([1, 0, 0]).matrix.sign_lex(w) != P([1, R2, 0]).matrix.sign_lex(w)

        rng = random.Random(202)
        grids = {n: list(grid_exponents(n, 3, 4)) for n in (1, 2, 3)}
        pairs = []
        for i in range(200):
            n = rng.randint(1, 3)
            A = random_prime(rng, n)
            if i < 100:
                B = canonicalize(transform_rows(rng, A.matrix))
            else:
                B = random_prime(rng, n)
            pairs.append((A, B))

        scanned = 0
        for i, (A, B) in enumerate(pairs):
            verdict = decide_equal(A, B)
            if i < 100:
                assert verdict.equal
            if not verdict.equal:
                w = verdict.witness
                assert A.matrix.sign_lex(w) != B.matrix.sign_lex(w)
                continue
            # the fast lex sign must agree with the exact one
            fa = _float_rows(A.matrix)
            for w in rng.sample(grids[A.n], 10):
                assert _lex_sign(A.matrix, fa, w) == A.matrix.sign_lex(w)
            # a false Equal would leave a separating vector in the grid
            assert _grid_separator(A, B, grids[A.n]) is None
            scanned += 1
        assert scanned >= 100
        # ... and the scan does catch unequal primes
        assert _grid_separator(P([1, 0, 0]), P([1, 1, 0]), grids[2]) is not None


# -- 3 -------------------------------------------------------------------


def test_criterion_03_min_dimension_table():
    with criterion(3, "minimum member dimension table", limit=1.0):
        table = [
            (P([1, 0, 0]), 0),
            (P([1, R2, 0]), 1),
            (P([1, R2, R3]), 2),
            (P([1, 0, 0], [0, 1, 0]), 1),
            (P([1, 0, 0], [0, 1, R2]), 2),
            (P([1, 0, 0], [0, 1, 0], [0, 0, 1]), 2),
        ]
        for prime, want in table:
            assert min_filter_dim(prime) == want
            assert mindim_witness(prime).dim() == want
            assert prime.n - height(prime) == want


# -- 4 -------------------------------------------------------------------


def test_criterion_04_total_order_detection():
    with criterion(4, "total-order detection"):
        assert is_order(P([1, R2, R3]))
        assert is_order(P([1, 0, 0], [0, 1, 0], [0, 0, 1]))
        two = P([1, 0, 0], [0, 1, 0])
        assert not is_order(two)
        y = ExponentVector(Fraction(0), (0, 1))
        unit = ExponentVector(Fraction(0), (0, 0))
        assert compare_terms(two, y, unit) == EQUAL


# -- 5 -------------------------------------------------------------------


def test_criterion_05_continuity_classification():
    with criterion(5, "continuity classification"):
        assert classify(P([0, 0, 1], [1, 0, 0])) == NON_CONTINUOUS


# -- 6 -------------------------------------------------------------------


def test_criterion_06_halfspace_agreement():
    with criterion(6, "half-space test agrees with filter membership", limit=60.0):
        rng = random.Random(606)
        disagreements = 0
        for _ in range(500):
            n = rng.randint(1, 3)
            prime = random_prime(rng, n, cont=True)
            a = random_term(rng, n)
            direct = halfspace_member(prime, a)
            via_filter = filter_member(prime, halfspace_polyhedron(a)).member
            if direct != via_filter:
                disagreements += 1
        assert disagreements == 0


# -- 7 -------------------------------------------------------------------


def _point_in_halfspace(point, term, strict_violation=False):
    val = dot(point, list(term.u)) + Scalar.rational(term.gamma)
    if strict_violation:
        return val.sign() > 0
    return val.sign() <= 0


def test_criterion_07_farkas_certificates():
    with criterion(7, "multiplicative certificates match containment", limit=60.0):
        rng = random.Random(707)
        done = 0
        while done < 200:
            n = rng.randint(1, 3)
            constraints = [random_term(rng, n) for _ in range(rng.randint(1, 3))]
            target = random_term(rng, n)
            meet = [([Fraction(c) for c in t.u], -t.gamma, False) for t in constraints]
            if not naive_feasible(meet, n):
                continue
            done += 1
            violating = meet + [([Fraction(-c) for c in target.u], target.gamma, True)]
            contained = not naive_feasible(violating, n)
            result = farkas_certify(constraints, target)
            if isinstance(result, FarkasCertificate):
                assert contained
                assert isinstance(result.m, int) and result.m >= 1
                assert all(isinstance(x, int) and x >= 0 for x in result.m_l)
                assert result.b >= 0
                # b * (a chi^u)^m termwise equals the constraint product
                lhs = target.scale(result.m)
                lhs = ExponentVector(lhs.gamma + result.b, lhs.u)
                rhs = ExponentVector(Fraction(0), (0,) * n)
                for t, mult in zip(constraints, result.m_l):
                    rhs = rhs.add(t.scale(mult))
                assert lhs == rhs
            else:
                assert isinstance(result, CounterexamplePoint)
                assert not contained
                p = result.point
                assert all(_point_in_halfspace(p, t) for t in constraints)
                assert _point_in_halfspace(p, target, strict_violation=True)


# -- 8 -------------------------------------------------------------------


def _flag_box(prime, base, rng, pad):
    rows = []
    for i, v in enumerate(base):
        c = (v + HALF).floor()
        e = [0] * prime.n
        e[i] = 1
        rows.append((tuple(e), Fraction(c + rng.randint(1, pad))))
        rows.append((tuple(-x for x in e), Fraction(rng.randint(1, pad) - c)))
    return GammaPolyhedron(prime.n, rows)


def test_criterion_08_filter_axioms():
    with criterion(8, "filter axioms with prime splitting", limit=60.0):
        rng = random.Random(808)
        for _ in range(20):
            n = rng.randint(1, 3)
            prime = random_prime(rng, n, cont=True)
            flag = flag_from_matrix(prime)
            # (1) nonempty: the minimum-dimension member really is one
            assert filter_member(prime, mindim_witness(prime)).member
            for _ in range(100):
                member_a = _flag_box(prime, flag.base, rng, 4)
                member_b = _flag_box(prime, flag.base, rng, 4)
                assert filter_member(prime, member_a).member
                assert filter_member(prime, member_b).member
                # (2) proper: a half-space missing the vertex is no member
                c0 = (flag.base[0] + HALF).floor()
                missing = GammaPolyhedron(
                    n, [((1,) + (0,) * (n - 1), Fraction(c0 - rng.randint(2, 5)))]
                )
                assert not filter_member(prime, missing).member
                # (3) closed under intersection
                meet = GammaPolyhedron(n, member_a.rows + member_b.rows)
                assert filter_member(prime, meet).member
                # (4) upward closed
                bigger = GammaPolyhedron(
                    n,
                    [(u, g + rng.randint(0, 3)) for u, g in member_a.rows],
                )
                assert filter_member(prime, bigger).member
                # (5) prime: a member union names a member piece
                pieces = [missing, member_a]
                rng.shuffle(pieces)
                answer = filter_member(prime, GammaPolyhedralSet(pieces))
                assert answer.member
                chosen = pieces[answer.piece_index]
                assert filter_member(prime, chosen).member


# -- 9 -------------------------------------------------------------------


def test_criterion_09_preorder_from_halfspace_oracle():
    with criterion(9, "preorder rebuilt from half-space oracle"):
        rng = random.Random(909)
        for _ in range(20):
            n = rng.randint(1, 3)
            prime = random_prime(rng, n, cont=True)
            pairs = [
                (random_term(rng, n), random_term(rng, n)) for _ in range(100)
            ]
            rebuilt = reconstruct_preorder(
                lambda ev: halfspace_member(prime, ev), pairs
            )
            direct = [
                compare(
                    prime,
                    TropPolynomial.from_exponent(s),
                    TropPolynomial.from_exponent(t),
                )
                for s, t in pairs
            ]
            assert rebuilt == direct


# -- 10 ------------------------------------------------------------------


def test_criterion_10_simplicialization():
    with criterion(10, "simplicialization is locally equivalent", limit=60.0):
        rng = random.Random(1010)
        for _ in range(50):
            cones = random_nonsimplicial_cones(rng)
            assert any(len(gens) > i + 1 for i, gens in enumerate(cones))
            simp = simplicialize(cones)
            assert all(len(v) == simp.d for v in simp.dirs)
            original = flag_from_matrix(
                canonicalize(relative_interior_matrix(cones)), "cones"
            )
            assert locally_equivalent(simp, original).equal
