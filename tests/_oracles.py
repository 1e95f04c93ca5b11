"""Independent reference computations and random-input generators.

The LP oracle here deliberately shares nothing with the library's
Fourier-Motzkin engine: feasibility is decided by brute-force vertex
enumeration of a boxed, slack-augmented system over Fractions.

The scalar arithmetic oracle builds every result through the public
``Scalar(terms)``, which reduces arbitrary radicands by trial division.
Products hand it the unreduced key m*n, so they share nothing with the gcd
rule that ``Scalar.__mul__`` uses to stay reduced.

The sign oracle brackets a scalar by adding Fractions, one ``math.isqrt``
bound per radical, where ``Scalar._interval`` sums integer numerators over
one common denominator.

The equality-witness oracle searches integer boxes for a separating term,
where ``decide_equal`` constructs one from the stage covectors.

The lex oracle evaluates every term of a polynomial in full with plain
Scalar products and compares the value lists entry by entry, where the
library compares two terms by the sign of C·(a − b) and stops at the first
nonzero row.

The Fourier-Motzkin oracle eliminates with duplicate removal only, where
the library also drops rows by Chernikov's rule, and its dimension test
makes one row strict at a time, where ``GammaPolyhedron.dim`` reads the
implicit equalities off one elimination.

The echelon oracle rebuilds a full reduced row echelon form (RREF) after
every kept row and reduces each new row against it, dividing entry by
entry, where ``independent_rows`` reduces against the kept rows
themselves with one inverse per row.

The integer-kernel oracle eliminates columns by unimodular operations
that it records in a separate matrix, where ``integer_kernel`` reads the
kernel and its coordinates off one Hermite form of an augmented matrix.

The canonical-matrix oracle is the weaker rule by rank: independent rows
and at most one nonzero coefficient entry, all of them nonnegative, where
``Prime`` checks the normal form of ``canonicalize`` by a structural scan.

The simplicialization oracle skips every generator inside the previous
cone by a Fourier-Motzkin cone test before its rank test, where
``simplicialize`` runs the rank test alone.

The cone-membership oracle solves the primal system {λ ≥ 0, Σ λ_j g_j = v}
in one variable per generator, where ``in_cone`` eliminates the dual system
in the ambient variables.

The Farkas oracle eliminates a separate multiplier system
{r_l ≥ 0, u = Σ r_l u_l, Σ r_l γ_l ≥ γ} in one variable per constraint and
clears a point of it to integers, where ``farkas_certify`` reads the
multipliers off the contradiction that settles containment.

The term-text oracle splits the text on '+', '*' and '^' and reads each
piece with ``int``, where ``parse_poly`` walks the scalar grammar's cursor;
it merges repeated exponents in its own dict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from valflag import (
    CounterexamplePoint,
    EQUAL,
    GREATER,
    LESS,
    NEG_INF,
    DefiningMatrix,
    ParseError,
    DimensionError,
    DomainError,
    ExponentVector,
    FarkasCertificate,
    GammaPolyhedron,
    Prime,
    Scalar,
    TropPolynomial,
    canonicalize,
    final_kernel,
)
from valflag.linalg import xgcd
from valflag.polyhedra import IneqSystem, _feasible, fm_feasible
from valflag.scalars import ZERO, dot, simplest_between

RatRow = tuple[list[Fraction], Fraction, bool]


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Unique solution of a square rational system, or None."""
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col] != 0), None
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def naive_feasible(rows: list[RatRow], d: int, box: int = 10**5) -> bool:
    """Vertex-enumeration feasibility for rational systems.

    Strict rows get a shared slack variable delta; the system is feasible
    exactly when the boxed polytope {rows with slack, |x_j| <= box,
    0 <= delta <= 1} attains delta > 0.  Sound as long as all true
    vertices fall inside the box, which tiny random instances guarantee.
    """
    aug: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, rhs, strict in rows:
        aug.append((coeffs + [Fraction(1 if strict else 0)], rhs))
    for j in range(d):
        unit = [Fraction(0)] * (d + 1)
        unit[j] = Fraction(1)
        aug.append((unit[:], Fraction(box)))
        aug.append(([-x for x in unit], Fraction(box)))
    delta_up = [Fraction(0)] * d + [Fraction(1)]
    aug.append((delta_up, Fraction(1)))
    aug.append(([-x for x in delta_up], Fraction(0)))
    best = None
    for subset in combinations(range(len(aug)), d + 1):
        mat = [aug[i][0] for i in subset]
        rhs = [aug[i][1] for i in subset]
        point = solve_square(mat, rhs)
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= r
            for coeffs, r in aug
        ):
            delta = point[d]
            if best is None or delta > best:
                best = delta
    return best is not None and best > 0


# -- Fourier-Motzkin without pruning ------------------------------------------

ScalarRow = tuple[tuple[Scalar, ...], Scalar, bool]


def _ref_normalize(row: ScalarRow) -> ScalarRow:
    coeffs, rhs, strict = row
    lead = next((x for x in coeffs if x), None)
    if lead is None:
        return row
    if lead.sign() < 0:
        lead = -lead
    return tuple(x / lead for x in coeffs), rhs / lead, strict


def _ref_dedup(rows: list[ScalarRow]) -> list[ScalarRow]:
    best: dict[tuple[Scalar, ...], tuple[Scalar, bool]] = {}
    for row in rows:
        coeffs, rhs, strict = _ref_normalize(row)
        seen = best.get(coeffs)
        if seen is None:
            best[coeffs] = (rhs, strict)
            continue
        diff = (rhs - seen[0]).sign()
        if diff < 0 or (diff == 0 and strict and not seen[1]):
            best[coeffs] = (rhs, strict)
    return [(c, r, s) for c, (r, s) in best.items()]


def _ref_pick(lower, upper) -> Scalar:
    if lower is None and upper is None:
        return ZERO
    if lower is None:
        hi, strict = upper
        if not strict:
            return hi
        f = hi.floor()
        return Scalar.rational(f if Scalar.rational(f) < hi else f - 1)
    if upper is None:
        lo, strict = lower
        return lo if not strict else Scalar.rational(lo.floor() + 1)
    lo, hi = lower[0], upper[0]
    if lo == hi:
        return lo
    return Scalar.rational(simplest_between(lo, hi))


def ref_fm_feasible(
    d: int, rows: list[ScalarRow]
) -> tuple[bool, tuple[Scalar, ...] | None]:
    """Fourier-Motzkin that keeps every combination up to duplicate
    normals, with the library's back-substitution rule for the point."""
    work = _ref_dedup(list(rows))
    levels = [([], [])] * d
    for k in range(d - 1, -1, -1):
        zero = [r for r in work if r[0][k].sign() == 0]
        pos = [r for r in work if r[0][k].sign() > 0]
        neg = [r for r in work if r[0][k].sign() < 0]
        levels[k] = (pos, neg)
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                a, nb = pc[k], -nc[k]
                zero.append((
                    tuple(x * nb + y * a for x, y in zip(pc, nc)),
                    pr * nb + nr * a,
                    ps or ns,
                ))
        work = _ref_dedup(zero)
    for _, rhs, strict in work:
        s = rhs.sign()
        if s < 0 or (strict and s == 0):
            return False, None
    point: list[Scalar] = []
    for k in range(d):
        pos, neg = levels[k]
        upper = lower = None
        for coeffs, rhs, strict in pos:
            bound = (rhs - dot(point, coeffs[:k])) / coeffs[k]
            if upper is None or (bound - upper[0]).sign() < 0 or (
                bound == upper[0] and strict and not upper[1]
            ):
                upper = (bound, strict)
        for coeffs, rhs, strict in neg:
            bound = (rhs - dot(point, coeffs[:k])) / coeffs[k]
            if lower is None or (bound - lower[0]).sign() > 0 or (
                bound == lower[0] and strict and not lower[1]
            ):
                lower = (bound, strict)
        point.append(_ref_pick(lower, upper))
    return True, tuple(point)


def ref_dim(U: GammaPolyhedron) -> int:
    """Dimension by one feasibility test per row: a row is an implicit
    equality when making it strict empties the polyhedron."""

    def rows(strict_row: int) -> list[ScalarRow]:
        return [
            (
                tuple(Scalar.rational(x) for x in u),
                Scalar.rational(gamma),
                i == strict_row,
            )
            for i, (u, gamma) in enumerate(U.rows)
        ]

    if not ref_fm_feasible(U.n, rows(-1))[0]:
        return -1
    eq_normals = [
        [Fraction(x) for x in U.rows[i][0]]
        for i in range(len(U.rows))
        if not ref_fm_feasible(U.n, rows(i))[0]
    ]
    return U.n - ref_rank(eq_normals)


# -- echelon forms by full RREF rebuilds ---------------------------------------


def field_rref(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over an exact field; (rows, pivot columns).

    Generic: entries need +, -, *, / and truthiness.  Zero rows are
    dropped.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                factor = mat[r][c]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(c)
        rank += 1
    return mat[:rank], pivots


def ref_rank(rows) -> int:
    return len(field_rref(rows)[0])


def reduce_against(row, rref_rows, pivots):
    """Subtract the unique combination of rref_rows matching row on the
    pivot columns; the result has zeros there."""
    out = list(row)
    for base, c in zip(rref_rows, pivots):
        factor = out[c]
        if factor:
            out = [x - factor * y for x, y in zip(out, base)]
    return out


def ref_independent_rows(rows) -> list[list]:
    """Each row reduced against the RREF of the rows kept before it; zero
    rows dropped, survivors divided by the absolute value of their lead."""
    kept: list[list] = []
    rref: list[list] = []
    pivots: list[int] = []
    for row in rows:
        red = reduce_against(row, rref, pivots)
        lead = next((x for x in red if x), None)
        if lead is None:
            continue
        scale = -lead if lead < 0 else lead
        kept.append([x / scale for x in red])
        rref, pivots = field_rref(kept)
    return kept


def ref_integer_kernel(rows, n: int) -> list[list[int]]:
    """A basis of the full integer kernel {m in Z^n : A m = 0}, by column
    operations that carry their own unimodular matrix U: every row of A is
    cleared to integers, each row's entries right of the last pivot column
    are folded into one by gcd steps, and U's columns past the pivots span
    the kernel, saturated by construction."""
    A = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        A.append([int(f * den) for f in fracs])
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(c0: int, c1: int, a: int, b: int, c: int, d: int) -> None:
        # (col c0, col c1) <- (a*col c0 + b*col c1, c*col c0 + d*col c1)
        for M in (A, U):
            for row in M:
                x, y = row[c0], row[c1]
                row[c0] = a * x + b * y
                row[c1] = c * x + d * y

    col = 0
    for r in range(len(A)):
        if col >= n:
            break
        nz = [c for c in range(col, n) if A[r][c]]
        if not nz:
            continue
        c0 = nz[0]
        for c in nz[1:]:
            g, s, t = xgcd(A[r][c0], A[r][c])
            a0, a1 = A[r][c0] // g, A[r][c] // g
            colop(c0, c, s, t, -a1, a0)
        if c0 != col:
            colop(col, c0, 0, 1, 1, 0)
        col += 1
    return [[U[i][c] for i in range(n)] for c in range(col, n)]


def ref_canonicalize(matrix) -> DefiningMatrix:
    """The canonical matrix of ``canonicalize``, by RREF rebuilds."""
    if not isinstance(matrix, DefiningMatrix):
        matrix = DefiningMatrix(matrix)
    if not matrix.first_column_ok():
        raise DomainError("invalid matrix: first column lexicographically < 0")
    rows = [list(r) for r in matrix.rows]
    pivot_i = next((i for i, r in enumerate(rows) if r[0].sign()), None)
    if pivot_i is not None:
        c0 = rows[pivot_i][0]
        rows[pivot_i] = [x / c0 for x in rows[pivot_i]]
        for i in range(pivot_i + 1, len(rows)):
            ci = rows[i][0]
            if ci:
                rows[i] = [
                    x - ci * y for x, y in zip(rows[i], rows[pivot_i])
                ]
    return DefiningMatrix(ref_independent_rows(rows), n=matrix.n)


def ref_weakly_canonical(matrix: DefiningMatrix) -> bool:
    """Independent rows, coefficient entries >= 0 and at most one nonzero."""
    signs = [row[0].sign() for row in matrix.rows]
    if any(s < 0 for s in signs) or sum(signs) > 1:
        return False
    return ref_rank(matrix.rows) == len(matrix.rows)


# -- simplicialization with the cone test --------------------------------------


def ref_simplicial_rays(cones) -> tuple[list[list[Scalar]] | None, int]:
    """The rays simplicialize picks, by a selection loop that skips each
    generator of C_i lying in C_{i-1} before the rank test; None when some
    cone adds no independent ray.  Also returns how many generators the
    cone test skipped."""
    gens_list = [
        [[Scalar.coerce(x) for x in g] for g in cone] for cone in cones
    ]
    chosen = [gens_list[0][0]]
    skipped = 0
    for i in range(1, len(gens_list)):
        pick = None
        for g in gens_list[i]:
            if ref_in_cone(g, gens_list[i - 1]):
                skipped += 1
                continue
            if ref_rank(chosen + [g]) == i + 1:
                pick = g
                break
        if pick is None:
            return None, skipped
        chosen.append(pick)
    return chosen, skipped


# -- cone membership and Farkas certificates by primal systems -----------------


def ref_in_cone(v, generators) -> bool:
    """Is v a nonnegative combination of the generators?  Feasibility of
    the primal system, one variable per generator."""
    gens = [[Scalar.coerce(x) for x in g] for g in generators]
    vec = [Scalar.coerce(x) for x in v]
    m = len(gens)
    s = IneqSystem(m)
    for t in range(len(vec)):
        coeffs = [g[t] for g in gens]
        s.add(coeffs, vec[t])
        s.add([-c for c in coeffs], -vec[t])
    for j in range(m):
        s.add([ZERO] * j + [Scalar.rational(-1)] + [ZERO] * (m - j - 1), ZERO)
    return _feasible(s)


def ref_farkas_certify(constraints, target):
    """farkas_certify by three eliminations: the violated system for a
    counterexample point, the meet for emptiness, then the multiplier
    system, whose back-substituted point is cleared to integers."""
    constraints = list(constraints)
    n = target.n
    meet = IneqSystem(n)
    for c in constraints:
        meet.add(c.u, -c.gamma)
    violated = IneqSystem(n, meet.rows)
    violated.add([-x for x in target.u], target.gamma, strict=True)
    breaks, point = fm_feasible(violated)
    if breaks:
        return CounterexamplePoint(point)
    if not _feasible(meet):
        raise DomainError("the constraint intersection is empty")
    multipliers = IneqSystem(len(constraints))
    for j in range(n):
        coeffs = [c.u[j] for c in constraints]
        multipliers.add(coeffs, target.u[j])
        multipliers.add([-x for x in coeffs], -target.u[j])
    multipliers.add([-c.gamma for c in constraints], -target.gamma)
    for l in range(len(constraints)):
        row = [0] * len(constraints)
        row[l] = -1
        multipliers.add(row, 0)
    ok, r = fm_feasible(multipliers)
    assert ok, "containment held but the multiplier system is infeasible"
    rationals = [x.as_rational() for x in r]
    m = math.lcm(*(q.denominator for q in rationals))
    m_l = tuple(int(q * m) for q in rationals)
    b = sum(
        (ml * c.gamma for ml, c in zip(m_l, constraints)), Fraction(0)
    ) - m * target.gamma
    return FarkasCertificate(m, m_l, b)


# -- scalar arithmetic through the reducing constructor -----------------------


def ref_add(a: Scalar, b: Scalar) -> Scalar:
    terms = dict(a.items())
    for n, q in b.items():
        terms[n] = terms.get(n, 0) + q
    return Scalar(terms)


def ref_neg(a: Scalar) -> Scalar:
    return Scalar({n: -q for n, q in a.items()})


def ref_sub(a: Scalar, b: Scalar) -> Scalar:
    return ref_add(a, ref_neg(b))


def ref_scale(a: Scalar, q: Fraction) -> Scalar:
    return Scalar({n: c * q for n, c in a.items()})


def ref_mul(a: Scalar, b: Scalar) -> Scalar:
    terms: dict[int, Fraction] = {}
    for m, qm in a.items():
        for n, qn in b.items():
            terms[m * n] = terms.get(m * n, 0) + qm * qn
    return Scalar(terms)


def ref_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b by multiplying both by conjugates until b is rational."""
    num, den = a, b
    while den.radicals():
        r = min(den.radicals())
        p = next(d for d in range(2, r + 1) if r % d == 0)
        conj = Scalar({n: (-q if n % p == 0 else q) for n, q in den.items()})
        num, den = ref_mul(num, conj), ref_mul(den, conj)
    return ref_scale(num, 1 / den.as_rational())


# -- signs by Fraction brackets ----------------------------------------------


def ref_interval(a: Scalar, prec: int) -> tuple[Fraction, Fraction]:
    """lo <= a <= hi, each sqrt(n) bracketed to within 2**-prec."""
    lo = hi = Fraction(0)
    for n, q in a.items():
        if n == 1:
            lo += q
            hi += q
            continue
        t = math.isqrt(n << (2 * prec))
        slo, shi = Fraction(t, 1 << prec), Fraction(t + 1, 1 << prec)
        if q >= 0:
            lo += q * slo
            hi += q * shi
        else:
            lo += q * shi
            hi += q * slo
    return lo, hi


def ref_sign_floor(a: Scalar) -> tuple[int, int]:
    """(sign, floor) of a by doubling the bracket precision from 64."""
    sign = floor = None
    prec = 64
    while sign is None or floor is None:
        lo, hi = ref_interval(a, prec)
        if sign is None:
            if not a.items():
                sign = 0
            elif lo > 0:
                sign = 1
            elif hi < 0:
                sign = -1
        if floor is None and math.floor(lo) == math.floor(hi):
            floor = math.floor(lo)
        prec *= 2
    return sign, floor


# -- equality witnesses by search ---------------------------------------------


def ref_covector_witness(
    A: Prime, B: Prime, n: int, max_candidates: int
) -> ExponentVector | None:
    """Search Z^n (gamma = 0) for a term with differing lex signs: the basis
    vectors and their negations first, then growing integer boxes.

    Returns None once max_candidates terms have been tried, so a thin
    disagreement cone costs a bounded search instead of a hang.
    """

    def candidates():
        for d in range(n):
            unit = tuple(1 if i == d else 0 for i in range(n))
            yield unit
            yield tuple(-x for x in unit)
        bound = 1
        while True:
            for u in product(range(-bound, bound + 1), repeat=n):
                if max(abs(x) for x in u) == bound:
                    yield u
            bound += 1

    for _, u in zip(range(max_candidates), candidates()):
        w = ExponentVector(Fraction(0), u)
        if A.matrix.sign_lex(w) != B.matrix.sign_lex(w):
            return w
    return None


# -- lex values of whole polynomials ------------------------------------------


def _ref_value(P: Prime, ev: ExponentVector) -> list[Scalar]:
    """C·(gamma, u), each row summed from plain Scalar products."""
    point = [Scalar.rational(ev.gamma)] + [Scalar.rational(e) for e in ev.u]
    return [
        sum((x * y for x, y in zip(row, point)), ZERO)
        for row in P.matrix.rows
    ]


def _ref_lex_cmp(a: list[Scalar], b: list[Scalar]) -> int:
    for x, y in zip(a, b):
        s = (x - y).sign()
        if s:
            return s
    return 0


def ref_phi(P: Prime, f: TropPolynomial):
    """The lex maximum of C·(gamma, u) over the terms of f, every term
    evaluated in full; NEG_INF for the zero polynomial."""
    if P.n != f.n:
        raise DimensionError(f"polynomial in {f.n} variables, prime has {P.n}")
    if f.is_zero():
        return NEG_INF
    best = None
    for ev in f.exponents():
        value = _ref_value(P, ev)
        if best is None or _ref_lex_cmp(value, best) > 0:
            best = value
    return best


def ref_compare(P: Prime, f: TropPolynomial, g: TropPolynomial) -> str:
    """Lex comparison of the two ref_phi values."""
    pf, pg = ref_phi(P, f), ref_phi(P, g)
    if pf is NEG_INF and pg is NEG_INF:
        return EQUAL
    if pf is NEG_INF:
        return LESS
    if pg is NEG_INF:
        return GREATER
    s = _ref_lex_cmp(pf, pg)
    return LESS if s < 0 else GREATER if s > 0 else EQUAL


# -- random generators --------------------------------------------------------


def random_rational(rng: random.Random, bound: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def random_scalar(
    rng: random.Random, radicands=(2, 3), irrational_p: float = 0.5
) -> Scalar:
    s = Scalar.rational(random_rational(rng))
    if rng.random() < irrational_p:
        r = rng.choice(radicands)
        s = s + Scalar.sqrt(r)._scale(random_rational(rng))
    return s


def random_prime(
    rng: random.Random, n: int, k: int | None = None, cont: bool | None = None
) -> Prime:
    """Canonicalize a random matrix with a valid coefficient column."""
    if k is None:
        k = rng.randint(0, n)
    rows = []
    c_row = 0 if cont else rng.randint(0, k)
    for i in range(k + 1):
        c = Fraction(rng.randint(1, 3)) if i == c_row else Fraction(0)
        if cont is None and rng.random() < 0.3:
            c = Fraction(0)
        rows.append(
            [Scalar.rational(c)] + [random_scalar(rng) for _ in range(n)]
        )
    P = canonicalize(DefiningMatrix(rows, n=n))
    if cont and (not P.matrix.rows or P.matrix.rows[0][0].sign() <= 0):
        return random_prime(rng, n, k, cont)
    return P


def equal_beyond_row_operations(rng: random.Random, A: Prime) -> Prime:
    """A with one row appended that vanishes on A's final kernel K, so the
    preorder stays A's; the row is no combination of A's rows unless those
    already span every row that vanishes on K.

    The row ρ is drawn at the columns that are no lead of K's generators,
    (1, 0) in product kind and (ell_j, m_j) with m_j in Hermite form, and
    solved at the leads, last generator first: a lead is the lead of m_j
    (column 0 for (1, 0)), generator j is zero between column 0 and its
    lead, and the leads right of it are already set."""
    K = final_kernel(A)
    if K.kind == "graph":
        gens = [(e, *m) for e, m in zip(K.ell, K.lattice)]
    else:
        gens = [(1,) + (0,) * A.n] + [(0, *m) for m in K.lattice]
    leads = [next((c for c in range(1, A.n + 1) if g[c]), 0) for g in gens]
    rho = [
        ZERO if c in leads else random_scalar(rng, irrational_p=0.7)
        for c in range(A.n + 1)
    ]
    for g, c in reversed(list(zip(gens, leads))):
        rho[c] = -dot(rho, g)._scale(Fraction(1) / g[c])
    return canonicalize(DefiningMatrix([*A.matrix.rows, rho], n=A.n))


def random_cone(rng: random.Random, d: int, m: int):
    """m integer generators in d variables with entries in -3..3, and a
    vector: half the time a combination of them with weights in 0..2,
    otherwise drawn like a generator."""
    gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)]
    if rng.random() < 0.5:
        weights = [rng.randint(0, 2) for _ in gens]
        v = [sum(w * g[j] for w, g in zip(weights, gens)) for j in range(d)]
    else:
        v = [rng.randint(-3, 3) for _ in range(d)]
    return v, gens


def random_farkas_instance(rng: random.Random, n: int, m: int, kind: str, tight: bool = False):
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


def random_radical_matrix(rng: random.Random) -> DefiningMatrix:
    """A defining matrix with n <= 4, at most 5 rows and entries a + b*sqrt(r)
    for r in {2, 3, 5, 6, 7}, b drawn for half the entries and 0 for the
    rest; some rows repeat an earlier one, and the first row with a nonzero
    coefficient entry is made positive there."""
    n = rng.randint(1, 4)
    rows: list[list[Scalar]] = []
    for _ in range(rng.randint(1, 5)):
        if rows and rng.random() < 0.2:
            rows.append(list(rng.choice(rows)))
            continue
        rows.append([
            Scalar({
                1: rng.randint(-3, 3),
                rng.choice((2, 3, 5, 6, 7)): (
                    rng.randint(-3, 3) if rng.random() < 0.5 else 0
                ),
            })
            for _ in range(n + 1)
        ])
    first = next((r for r in rows if r[0]), None)
    if first is not None and first[0].sign() < 0:
        first[:] = [-x for x in first]
    return DefiningMatrix(rows, n=n)


def random_nonsimplicial_cones(rng: random.Random) -> list[list[list[Fraction]]]:
    """A flag of cones C_0 ⊂ … ⊂ C_{k-1}, dim C_i = i+1, in dimension 2 or
    3, where C_i lists rays 0..i and up to two redundant generators in
    shuffled order, and at least one cone has a redundant generator."""
    d = rng.choice([2, 3])
    length = rng.randint(1, d)
    rays = []
    while len(rays) < length:
        v = [Fraction(rng.randint(0, 3))]
        v += [Fraction(rng.randint(-3, 3)) for _ in range(d - 1)]
        if any(v) and ref_rank(rays + [v]) == len(rays) + 1:
            rays.append(v)
    cones = []
    redundant = False
    for i in range(length):
        gens = [list(v) for v in rays[: i + 1]]
        extras = rng.randint(0, 2)
        if i == length - 1 and not redundant:
            extras = max(extras, 1)
        for _ in range(extras):
            if i == 0:
                m = rng.randint(2, 3)
                gens.append([m * x for x in rays[0]])
            else:
                j = rng.randint(0, i - 1)
                a, b = rng.randint(1, 3), rng.randint(1, 3)
                gens.append(
                    [a * x + b * y for x, y in zip(rays[j], rays[i])]
                )
            redundant = True
        rng.shuffle(gens)
        cones.append(gens)
    return cones


def random_term(rng: random.Random, n: int, bound: int = 3) -> ExponentVector:
    return ExponentVector(
        random_rational(rng, bound=bound),
        tuple(rng.randint(-bound, bound) for _ in range(n)),
    )


def random_polynomial(rng: random.Random, n: int) -> TropPolynomial:
    """Zero to three terms, exponents in [-2, 2] and coefficient exponents
    q/1 or q/2 with |q| <= 3; a quarter of the draws are zero."""
    return TropPolynomial(n, [
        (
            tuple(rng.randint(-2, 2) for _ in range(n)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        )
        for _ in range(rng.randint(0, 3))
    ])


def transform_rows(rng: random.Random, matrix: DefiningMatrix) -> DefiningMatrix:
    """Apply random order-preserving row operations: positive scalings and
    adding multiples of a row to rows below it."""
    rows = [list(r) for r in matrix.rows]
    if not rows:
        return matrix
    for _ in range(4):
        i = rng.randrange(len(rows))
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        rows[i] = [x._scale(scale) for x in rows[i]]
        if len(rows) > 1:
            src = rng.randrange(len(rows) - 1)
            dst = rng.randrange(src + 1, len(rows))
            f = random_rational(rng, bound=2, den=2)
            rows[dst] = [
                x + y._scale(f) for x, y in zip(rows[dst], rows[src])
            ]
    return DefiningMatrix(rows, n=matrix.n)


def grid_exponents(n: int, bound: int, max_den: int):
    """All exponent vectors with rational coefficient of denominator up to
    max_den and every entry in [-bound, bound]."""
    gammas = sorted(
        {
            Fraction(p, q)
            for q in range(1, max_den + 1)
            for p in range(-bound * q, bound * q + 1)
        }
    )
    for u in product(range(-bound, bound + 1), repeat=n):
        for g in gammas:
            yield ExponentVector(g, u)


def ref_parse_poly(text: str, names) -> TropPolynomial:
    """The term grammar by splitting; every error is reported at the start
    of the term that holds it."""
    names = list(names)
    n = len(names)
    stripped = text.strip()
    if stripped == "0":
        return TropPolynomial.zero(n)
    merged: dict[tuple[int, ...], Fraction] = {}
    pos = 0
    for chunk in stripped.split("+"):
        gamma = Fraction(0)
        u = [0] * n
        piece = chunk.strip()
        if not piece:
            raise ParseError("empty term", text, pos)
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError("empty factor", text, pos)
            base, _, exp = factor.partition("^")
            base = base.strip()
            exp = exp.strip()
            try:
                if base == "t":
                    if not exp:
                        raise ParseError("t requires an exponent", text, pos)
                    num, slash, den = exp.partition("/")
                    gamma += Fraction(int(num), int(den) if slash else 1)
                elif base in names:
                    u[names.index(base)] += int(exp) if exp else 1
                else:
                    raise ParseError(f"unknown factor {base!r}", text, pos)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad exponent {exp!r}", text, pos) from exc
        u = tuple(u)
        if u not in merged or gamma > merged[u]:
            merged[u] = gamma
        pos += len(chunk) + 1
    return TropPolynomial(n, merged)


def ref_parse_term(text: str, names) -> ExponentVector:
    """A text whose terms merge into one is read as that term."""
    poly = ref_parse_poly(text, names)
    if not poly.is_term():
        raise ParseError(f"expected a single term, got {len(poly)}", text, 0)
    return poly.the_term()
