import itertools
import random
from fractions import Fraction

from valflag import DefiningMatrix, Scalar, canonicalize
from valflag.linalg import (
    field_rank,
    hermite_form,
    in_lattice,
    independent_rows,
    integer_kernel,
    xgcd,
)

from _oracles import (
    field_rref,
    random_rational,
    reduce_against,
    ref_canonicalize,
    ref_independent_rows,
    ref_integer_kernel,
    ref_rank,
)


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (7, 0), (0, -5), (13, 13)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_integer_kernel_example():
    ker, coords = integer_kernel([[1, 1, 0], [0, Fraction(1, 2), 1]], _identity(3))
    assert ker == [[2, -2, 1]] or ker == [[-2, 2, -1]]
    assert coords == ker


def test_integer_kernel_zero_map():
    ker, coords = integer_kernel([[0, 0]], _identity(2))
    assert ker == coords == [[1, 0], [0, 1]]
    assert integer_kernel([[1, 0], [0, 1]], _identity(2)) == ([], [])


def test_integer_kernel_is_saturated():
    """Every integer solution lies in the lattice spanned by the basis."""
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(k)
        ]
        basis, _ = integer_kernel(rows, _identity(n))
        for vec in basis:
            assert all(sum(r[j] * vec[j] for j in range(n)) == 0 for r in rows)
        # random integer vectors in the kernel must have integer coordinates
        for _ in range(10):
            v = [rng.randint(-6, 6) for _ in range(n)]
            if all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows):
                assert in_lattice(basis, v) is not None


def test_integer_kernel_agrees_with_column_oracle():
    """On random Hermite bases, some of rank below n or empty, and random
    rational rows in basis coordinates, some zero and some cases with none,
    the kernel is the Hermite form of the column-operation kernel mapped
    through the basis, with the coordinates in_lattice reads."""
    rng = random.Random(23)
    seen = {"low_rank": 0, "empty_basis": 0, "no_rows": 0, "zero_row": 0, "changed": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        basis = hermite_form(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        )
        r = len(basis)
        rows = [
            [Fraction(0)] * r if rng.random() < 0.2 else [random_rational(rng) for _ in range(r)]
            for _ in range(rng.randint(0, 3))
        ]
        ker, coords = integer_kernel(rows, basis)
        ambient = [
            [sum(a * basis[d][j] for d, a in enumerate(v)) for j in range(n)]
            for v in ref_integer_kernel(rows, r)
        ]
        want = hermite_form(ambient)
        assert ker == want
        assert coords == [in_lattice(basis, row) for row in want]
        seen["low_rank"] += 0 < r < n
        seen["empty_basis"] += r == 0
        seen["no_rows"] += not rows
        seen["zero_row"] += any(not any(row) for row in rows) and r > 0
        seen["changed"] += ker != basis
    assert all(count >= 50 for count in seen.values()), seen


def test_hermite_form_example():
    assert hermite_form([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]


def test_hermite_form_canonical():
    """Row-equivalent integer matrices share one Hermite form."""
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        base = hermite_form(rows)
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        if len(shuffled) > 1:
            i, j = rng.sample(range(len(shuffled)), 2)
            m = rng.randint(-3, 3)
            shuffled[i] = [x + m * y for x, y in zip(shuffled[i], shuffled[j])]
        assert hermite_form(shuffled) == base
        # pivots positive, entries above a pivot reduced below it
        pivcols = []
        for row in base:
            c = next(i for i, x in enumerate(row) if x)
            assert row[c] > 0
            pivcols.append((c, row[c]))
        for i, (c, p) in enumerate(pivcols):
            for above in base[:i]:
                assert 0 <= above[c] < p


def test_in_lattice():
    basis = hermite_form([[1, 1], [0, 2]])
    assert in_lattice(basis, [3, 5]) == [3, 1]
    assert in_lattice(basis, [0, 1]) is None
    assert in_lattice([], [0, 0]) == []
    assert in_lattice([], [1, 0]) is None


def test_field_rref_fraction():
    mat, pivots = field_rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]])
    assert mat == [[1, 0], [0, 1]]
    assert pivots == [0, 1]
    mat, pivots = field_rref([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert mat == [[1, 2]]
    assert pivots == [0]


def test_field_rref_scalar():
    r2 = Scalar.sqrt(2)
    rows = [[r2, Scalar.rational(2)], [Scalar.rational(1), r2]]
    mat, pivots = field_rref(rows)
    # second row is sqrt(2)/2 times the first: rank 1
    assert pivots == [0]
    assert mat == [[Scalar.rational(1), r2]]
    assert field_rank(rows) == 1
    assert field_rank([[r2, Scalar.rational(2)], [Scalar.rational(1), Scalar.rational(3)]]) == 2


def test_reduce_against():
    mat, pivots = field_rref([[Fraction(1), Fraction(0), Fraction(2)]])
    out = reduce_against([Fraction(3), Fraction(1), Fraction(1)], mat, pivots)
    assert out == [0, 1, -5]
    rng = random.Random(2)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
        mat, pivots = field_rref(rows)
        probe = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        reduced = reduce_against(probe, mat, pivots)
        assert all(reduced[c] == 0 for c in pivots)


def _echelon_cases(rng):
    """Fraction and sqrt(2)/sqrt(3) matrices whose later rows repeat,
    combine or negate earlier ones, so kept leads of -1 meet nonzero
    entries below them."""
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)

    def entry(irrational):
        q = random_rational(rng, bound=3, den=2)
        if not irrational:
            return q
        return Scalar.rational(q) + r2._scale(random_rational(rng)) + r3._scale(
            random_rational(rng, bound=2, den=1)
        )

    for case in range(200):
        irrational = case % 2 == 1
        width = rng.randint(1, 5)
        rows = [
            [entry(irrational) for _ in range(width)]
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            f = random_rational(rng, bound=2, den=2)
            pick = rng.randrange(3)
            if pick == 0:
                rows.append(list(a))
            elif pick == 1:
                rows.append([-x for x in a])
            else:
                rows.append([x + f * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        yield rows


def _unit_lead_cases(rng):
    """The cases of _echelon_cases with zero entries put in and most rows
    divided by the absolute value of their lead, so that leads already at
    ±1 and zero entries reach independent_rows as they are."""
    for rows in _echelon_cases(rng):
        out = []
        for row in rows:
            row = [x * 0 if rng.random() < 0.3 else x for x in row]
            lead = next((x for x in row if x), None)
            if lead is not None and rng.random() < 0.7:
                row = [x / (-lead if lead < 0 else lead) for x in row]
            out.append(row)
        yield out


def test_echelon_agrees_with_rref_oracle():
    """independent_rows, field_rank and canonicalize against full RREF
    rebuilds, on Fraction and Scalar rows; entries keep their type."""
    rng = random.Random(13)
    negative_leads = unit_leads = 0
    for rows in itertools.chain(_echelon_cases(rng), _unit_lead_cases(random.Random(14))):
        kept = independent_rows(rows)
        want = ref_independent_rows(rows)
        assert kept == want
        assert [list(map(type, r)) for r in kept] == [list(map(type, r)) for r in want]
        unit_leads += sum(next((x for x in r if x), 0) in (1, -1) for r in rows)
        assert field_rank(rows) == len(kept) == ref_rank(rows)
        negative_leads += any(next(x for x in r if x) < 0 for r in kept)
        # make the coefficient column lexicographically nonnegative
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is not None and rows[i][0] < 0:
            rows[i] = [-x for x in rows[i]]
        M = DefiningMatrix(rows)
        assert canonicalize(M).matrix == ref_canonicalize(M)
    assert negative_leads > 50 and unit_leads > 300
