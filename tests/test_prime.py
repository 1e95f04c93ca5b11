import random
import time
from fractions import Fraction

import pytest

from valflag import (
    CONT,
    COEFFICIENT_BLIND,
    EQUAL,
    GREATER,
    LESS,
    NON_CONTINUOUS,
    DefiningMatrix,
    DimensionError,
    DomainError,
    EqualityVerdict,
    ExponentVector,
    KernelSubgroup,
    NEG_INF,
    Prime,
    Scalar,
    TropPolynomial,
    canonicalize,
    classify,
    compare,
    compare_terms,
    decide_equal,
    final_kernel,
    halfspace_member,
    height,
    is_order,
    min_filter_dim,
    parse_poly,
    phi,
)
from valflag import prime as prime_module

from _oracles import (
    grid_exponents,
    random_prime,
    random_radical_matrix,
    random_scalar,
    random_term,
    ref_canonicalize,
    ref_compare,
    ref_covector_witness,
    ref_phi,
    ref_weakly_canonical,
    transform_rows,
)

R2 = Scalar.sqrt(2)
R3 = Scalar.sqrt(3)


def P(*rows):
    return canonicalize(DefiningMatrix(rows))


# -- canonicalization ---------------------------------------------------------


def test_canonicalize_examples():
    got = P([2, R2._scale(2), 0], [1, R2, 5])
    assert got.matrix.rows == ((Scalar.rational(1), R2, Scalar.rational(0)),
                               (Scalar.rational(0), Scalar.rational(0), Scalar.rational(1)))
    fixed = P([1, R2, 0], [0, 0, 1])
    assert fixed.matrix.rows == got.matrix.rows
    dropped = P([1, 0, 0], [2, 0, 0])
    assert dropped.matrix.rows == ((Scalar.rational(1), Scalar.rational(0), Scalar.rational(0)),)
    # equal normal forms hash alike, so primes key dicts and sets
    assert P([1, 0]) == P([2, 0]) and hash(P([1, 0])) == hash(P([2, 0]))


def test_canonicalize_rejects_negative_first_column():
    with pytest.raises(DomainError):
        canonicalize(DefiningMatrix([[0, 1, 0], [-1, 0, 0]]))
    with pytest.raises(DomainError):
        canonicalize(DefiningMatrix([[-2, 1, 1]]))


def test_canonicalize_is_idempotent():
    rng = random.Random(71)
    for _ in range(30):
        A = random_prime(rng, rng.randint(1, 3))
        assert canonicalize(A.matrix) == A


def test_canonicalize_preserves_lex_signs():
    rng = random.Random(101)
    for _ in range(10):
        n = rng.randint(1, 3)
        M = transform_rows(rng, random_prime(rng, n).matrix)
        C = canonicalize(M)
        for _ in range(100):
            w = random_term(rng, n)
            assert M.sign_lex(w) == C.matrix.sign_lex(w)


def test_radical_matrices_all_canonicalize():
    """Entries over sqrt(2), sqrt(3), sqrt(5), sqrt(6) and sqrt(7) carry four
    primes, within the radical cap, so every matrix completes, although
    canonical entries can carry up to 15 radicals."""
    rng = random.Random(7)
    wide = 0
    for i in range(3000):
        M = random_radical_matrix(rng)
        C = canonicalize(M).matrix
        wide += any(len(x.radicals()) > 8 for row in C.rows for x in row)
        if i % 50 == 0:
            assert C == ref_canonicalize(M)
    assert wide >= 300


def test_transform_rows_keeps_a_matrix_without_rows():
    M = canonicalize([[0, 0, 0]]).matrix
    assert not M.rows
    assert transform_rows(random.Random(0), M) == M


def test_prime_validation():
    with pytest.raises(DomainError, match="expected a DefiningMatrix"):
        Prime([[1]])
    with pytest.raises(DomainError):
        Prime(DefiningMatrix([[1, 0], [2, 1]]))  # two nonzero coefficients
    with pytest.raises(DomainError):
        Prime(DefiningMatrix([[1, 2, 0], [1, 2, 0]]))  # dependent rows
    with pytest.raises(DomainError):
        Prime(DefiningMatrix([[0, 1], [-1, 0]]))
    # weakly canonical (independent rows, one nonnegative coefficient
    # entry) but not the normal form of canonicalize
    with pytest.raises(DomainError):
        Prime(DefiningMatrix([[0, 2, 0]]))  # lead 2
    with pytest.raises(DomainError):
        Prime(DefiningMatrix([[2, 0, 1]]))  # coefficient entry 2
    with pytest.raises(DomainError):
        # second row not zero at the first row's lead
        Prime(DefiningMatrix([[0, 1, 1], [0, 1, 0]]))


def _prime_contract_cases(rng):
    """Random matrices, random_prime outputs and their row-transformed
    images."""
    entries = (-1, 0, 0, 1, 1, 2, R2)
    for _ in range(300):
        n = rng.randint(1, 3)
        yield DefiningMatrix(
            [[rng.choice(entries) for _ in range(n + 1)]
             for _ in range(rng.randint(0, 3))],
            n=n,
        )
        A = random_prime(rng, n)
        yield A.matrix
        yield transform_rows(rng, A.matrix)


def test_prime_accepts_exactly_the_normal_forms():
    """Prime(M) succeeds exactly when M passes the weaker rank-based rule
    and canonicalize leaves it unchanged; canonical forms agree with the
    oracle, also where a coefficient entry below the first nonzero one is
    nonzero or negative."""
    rng = random.Random(1212)
    accepted = weak_refused = coefficient_below = negative_below = 0
    for M in _prime_contract_cases(rng):
        try:
            Prime(M)
            ok = True
        except DomainError:
            ok = False
        weak = ref_weakly_canonical(M)
        assert ok == (weak and canonicalize(M).matrix == M)
        accepted += ok
        weak_refused += weak and not ok
        if M.first_column_ok():
            assert canonicalize(M).matrix == ref_canonicalize(M)
            below = [r[0].sign() for r in M.rows if r[0]][1:]
            coefficient_below += bool(below)
            negative_below += -1 in below
    assert accepted >= 300
    assert weak_refused >= 100
    assert coefficient_below >= 100
    assert negative_below >= 30


def test_defining_matrix_validation():
    with pytest.raises(DimensionError):
        DefiningMatrix([[1, 0], [1, 0, 0]])
    with pytest.raises(DimensionError):
        DefiningMatrix([], n=None)
    assert DefiningMatrix([], n=2).n == 2
    assert DefiningMatrix([[1, 0, 0]]).n == 2
    assert not DefiningMatrix([[0, 1], [-1, 0]]).first_column_ok()
    assert DefiningMatrix([[0, 1], [1, 0]]).first_column_ok()


# -- phi and compare ----------------------------------------------------------


def test_phi_examples():
    pr = P([1, 0, 0], [0, 1, 0])
    names = ["x", "y"]
    assert phi(pr, parse_poly("t^1", names)) == [Scalar.rational(1), Scalar.rational(0)]
    assert phi(pr, parse_poly("x^2", names)) == [Scalar.rational(0), Scalar.rational(2)]
    assert phi(pr, parse_poly("t^1 + x^2", names)) == [Scalar.rational(1), Scalar.rational(0)]
    assert phi(pr, TropPolynomial.zero(2)) is NEG_INF


def test_compare_examples():
    pr = P([1, 0, 0], [0, 1, 0])
    names = ["x", "y"]
    assert compare(pr, parse_poly("t^1", names), parse_poly("x^2", names)) == GREATER
    f = parse_poly("t^1 + x*y", names)
    assert compare(pr, f, f) == EQUAL
    pr2 = P([1, R2, 0], [0, 1, R3])
    # phi values (sqrt(2), 1) vs (-1, 0): first entries already differ
    assert compare(pr2, parse_poly("x", names), parse_poly("t^-1", names)) == GREATER


def test_compare_zero_polynomial():
    pr = P([1, 0])
    z = TropPolynomial.zero(1)
    assert compare(pr, z, z) == EQUAL
    assert compare(pr, z, parse_poly("t^-5", ["x"])) == LESS
    assert compare(pr, parse_poly("x", ["x"]), z) == GREATER


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionError):
        compare(P([1, 0]), parse_poly("x", ["x", "y"]), parse_poly("x", ["x", "y"]))


def test_compare_is_total_and_multiplicative():
    """Term comparison is a total preorder compatible with multiplication."""
    rng = random.Random(303)
    for _ in range(20):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n)
        terms = [random_term(rng, n) for _ in range(6)]
        for a in terms:
            assert compare_terms(pr, a, a) == EQUAL
        for a in terms:
            for b in terms:
                ab = compare_terms(pr, a, b)
                ba = compare_terms(pr, b, a)
                swap = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
                assert ba == swap[ab]
                for c in terms:
                    assert compare_terms(pr, a.add(c), b.add(c)) == ab


def test_compare_transitive():
    rng = random.Random(73)
    for _ in range(15):
        n = rng.randint(1, 2)
        pr = random_prime(rng, n)
        terms = [random_term(rng, n) for _ in range(5)]
        for a in terms:
            for b in terms:
                for c in terms:
                    if (
                        compare_terms(pr, a, b) != GREATER
                        and compare_terms(pr, b, c) != GREATER
                    ):
                        assert compare_terms(pr, a, c) != GREATER


def test_phi_is_multiplicative_on_polys():
    rng = random.Random(47)
    names = ["x", "y"]
    for _ in range(25):
        pr = random_prime(rng, 2)
        f = TropPolynomial(2, [(tuple(rng.randint(-2, 2) for _ in range(2)),
                                Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(1, 3))])
        g = TropPolynomial(2, [(tuple(rng.randint(-2, 2) for _ in range(2)),
                                Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(1, 3))])
        pf, pg, pfg = phi(pr, f), phi(pr, g), phi(pr, f * g)
        assert pfg == [a + b for a, b in zip(pf, pg)]


def _prime_of_class(rng, n, k, cls):
    """A random prime of class cls from k + 1 rows; the coefficient entry
    sits in row 0 (cont), in a lower row (non-continuous) or nowhere."""
    c_row = None
    if cls == CONT:
        c_row = 0
    elif cls == NON_CONTINUOUS:
        c_row = rng.randint(1, k)
    rows = [
        [Scalar.rational(rng.randint(1, 3) if i == c_row else 0)]
        + [random_scalar(rng) for _ in range(n)]
        for i in range(k + 1)
    ]
    pr = canonicalize(DefiningMatrix(rows, n=n))
    return pr if classify(pr) == cls else _prime_of_class(rng, n, k, cls)


def _kernel_member(K, coeffs, gamma):
    """K.member, passing gamma only to the product kind, which takes one."""
    return K.member(coeffs, gamma) if K.kind == "product" else K.member(coeffs)


def test_lex_comparisons_agree_with_phi_oracle():
    """phi, compare, compare_terms and halfspace_member against whole-term
    evaluation, with top terms tied through the final kernel."""
    rng = random.Random(1019)
    unit = TropPolynomial.unit
    term = TropPolynomial.from_exponent
    for n in (1, 2, 3):
        for k in range(n + 1):
            classes = [CONT, COEFFICIENT_BLIND] + ([NON_CONTINUOUS] if k else [])
            for cls in classes:
                pr = _prime_of_class(rng, n, k, cls)
                K = final_kernel(pr)
                for _ in range(4):
                    terms = [random_term(rng, n) for _ in range(3)]
                    top = terms[0]
                    for t in terms[1:]:
                        if ref_compare(pr, term(t), term(top)) == GREATER:
                            top = t
                    # top + w ties with top, since C·w = 0
                    w = _kernel_member(
                        K,
                        [rng.randint(-2, 2) for _ in range(K.lattice_rank)],
                        Fraction(rng.randint(-2, 2)),
                    )
                    tied = terms + [top.add(w)]
                    assert compare_terms(pr, top, tied[-1]) == EQUAL
                    f = TropPolynomial(n, {t.u: t.gamma for t in tied})
                    g = TropPolynomial(n, {t.u: t.gamma for t in terms[1:]})
                    shifted = f * term(w)
                    zero = TropPolynomial.zero(n)
                    for h in (f, g, shifted, zero):
                        assert phi(pr, h) == ref_phi(pr, h)
                    for h1, h2 in [(f, g), (g, f), (f, shifted), (f, zero),
                                   (zero, g), (zero, zero), (f, unit(n))]:
                        assert compare(pr, h1, h2) == ref_compare(pr, h1, h2)
                    for a in tied:
                        ta = term(a)
                        want = ref_compare(pr, ta, unit(n)) != GREATER
                        assert halfspace_member(pr, a) == want
                        for b in tied:
                            tb = term(b)
                            assert compare_terms(pr, a, b) == ref_compare(pr, ta, tb)
                wide = random_term(rng, n + 1)
                wide_poly = term(wide)
                for call in (
                    lambda: phi(pr, wide_poly),
                    lambda: compare(pr, wide_poly, wide_poly),
                    lambda: compare(pr, unit(n), wide_poly),
                    lambda: compare_terms(pr, wide, wide),
                    lambda: compare_terms(pr, random_term(rng, n), wide),
                    lambda: halfspace_member(pr, wide),
                ):
                    with pytest.raises(DimensionError):
                        call()


# -- decide_equal -------------------------------------------------------------


def test_decide_equal_whale_dolphin():
    A = P([1, R2, 0], [0, 1, R3])
    B = P([1, R2, 0], [0, 0, 1])
    assert decide_equal(A, B).equal
    assert decide_equal(B, A).equal
    # yet no chain of row operations links them
    assert A != B


def test_decide_equal_distinguishes_weights():
    A = P([1, 0, 0])
    B = P([1, R2, 0])
    verdict = decide_equal(A, B)
    assert not verdict.equal
    assert verdict.witness == ExponentVector(Fraction(0), (1, 0))
    assert A.matrix.sign_lex(verdict.witness) == 0
    assert B.matrix.sign_lex(verdict.witness) == 1


def test_decide_equal_second_row_witness():
    A = P([1, 0, 0], [0, 1, 0])
    B = P([1, 0, 0], [0, 1, R2])
    verdict = decide_equal(A, B)
    assert verdict.outcome == "Distinguished"
    assert verdict.witness == ExponentVector(Fraction(0), (0, 1))
    assert A.matrix.sign_lex(verdict.witness) == 0
    assert B.matrix.sign_lex(verdict.witness) == 1


def test_decide_equal_mixed_coefficient_rows():
    """One side reaches its coefficient row while the other side's sits
    lower; the pure-coefficient term t^1 does not separate these, so the
    witness must carry a monomial part."""
    A = P([1, 0, 0])
    B = P([0, 1, 0], [1, 0, 0])
    t1 = ExponentVector(Fraction(1), (0, 0))
    assert A.matrix.sign_lex(t1) == B.matrix.sign_lex(t1) == 1
    verdict = decide_equal(A, B)
    assert not verdict.equal
    w = verdict.witness
    assert any(w.u)
    assert A.matrix.sign_lex(w) != B.matrix.sign_lex(w)


def test_decide_equal_one_sided():
    A = P([1, 0, 0], [0, 1, 0])
    B = P([1, 0, 0], [0, 1, 0], [0, 0, 1])
    verdict = decide_equal(A, B)
    assert not verdict.equal
    w = verdict.witness
    assert A.matrix.sign_lex(w) != B.matrix.sign_lex(w)


@pytest.mark.parametrize(
    "rows_a, rows_b, witness",
    [
        (([0, 1, R2], [0, 0, 1]), ([0, 1, R2],), None),
        (([0, 1, R2], [0, 0, 1], [1, 0, 0]), ([0, 1, R2],), (1, (0, 0))),
        (([0, 1, R2], [0, 0, 1], [1, 0, 0]), ([0, 1, R2], [1, 0, 0]), None),
        (([0, 1, R2], [1, 0, 0]), ([0, 1, R2], [0, 0, 1]), (1, (0, 0))),
    ],
)
def test_decide_equal_skips_rows_that_vanish_on_the_kernel(rows_a, rows_b, witness):
    # [0, 1, √2] leaves H = ℚ x {0}, on which [0, 0, 1] vanishes, so that
    # row is skipped wherever it stands and on either side
    if witness is None:
        expected = EqualityVerdict("Equal")
    else:
        gamma, u = witness
        expected = EqualityVerdict("Distinguished", ExponentVector(Fraction(gamma), u))
    A, B = P(*rows_a), P(*rows_b)
    assert decide_equal(A, B) == expected
    assert decide_equal(B, A) == expected


def test_decide_equal_rejects_raw_matrices():
    M = DefiningMatrix([[1, 0, 0]])
    with pytest.raises(DomainError):
        decide_equal(M, M)
    with pytest.raises(DimensionError):
        decide_equal(P([1, 0]), P([1, 0, 0]))


def test_decide_equal_reflexive_symmetric():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 3)
        A = random_prime(rng, n)
        B = random_prime(rng, n)
        assert decide_equal(A, A).equal
        assert decide_equal(A, B).equal == decide_equal(B, A).equal


def test_decide_equal_accepts_row_transformed():
    rng = random.Random(91)
    for _ in range(40):
        A = random_prime(rng, rng.randint(1, 3))
        B = canonicalize(transform_rows(rng, A.matrix))
        assert decide_equal(A, B).equal


def test_equal_normal_forms_answer_without_the_stage_walk(monkeypatch):
    """== primes are Equal before any stage is walked; primes equal only
    beyond row operations (criterion 1's kind) still walk the stages."""
    rng = random.Random(92)
    pairs = []
    for _ in range(40):
        A = random_prime(rng, rng.randint(1, 3))
        pairs.append((A, canonicalize(transform_rows(rng, A.matrix))))

    def no_walk(P):
        raise AssertionError("stage walk entered for == primes")

    stages = prime_module._stages
    monkeypatch.setattr(prime_module, "_stages", no_walk)
    for A, B in pairs:
        assert A == B
        assert decide_equal(A, B) == decide_equal(B, A) == EqualityVerdict("Equal")

    walked = []
    monkeypatch.setattr(
        prime_module, "_stages", lambda P: walked.append(P) or stages(P)
    )
    A = P([1, R2, 0], [0, 1, R3])
    B = P([1, R2, 0], [0, 0, 1])
    assert A != B
    assert decide_equal(A, B).equal and decide_equal(B, A).equal
    assert walked == [A, B]


def test_equal_verdicts_survive_grid_search():
    rng = random.Random(140)
    checked = 0
    while checked < 8:
        n = rng.randint(1, 2)
        A = random_prime(rng, n)
        B = random_prime(rng, n)
        verdict = decide_equal(A, B)
        if not verdict.equal:
            assert A.matrix.sign_lex(verdict.witness) != B.matrix.sign_lex(
                verdict.witness
            )
            continue
        checked += 1
        for w in grid_exponents(n, bound=2, max_den=3):
            assert A.matrix.sign_lex(w) == B.matrix.sign_lex(w)


def test_decide_equal_thin_cone():
    """First rows eps apart: their disagreement cone is so thin that the
    smallest separating term has entries near 1/sqrt(eps)."""
    for eps in (Fraction(1, 10**6), Fraction(1, 10**12)):
        A = P([0, 1, R2])
        B = P([0, 1, R2 + eps])
        for X, Y in ((A, B), (B, A)):
            start = time.perf_counter()
            verdict = decide_equal(X, Y)
            assert time.perf_counter() - start < 1
            assert verdict.outcome == "Distinguished"
            w = verdict.witness
            assert X.matrix.sign_lex(w) != Y.matrix.sign_lex(w)


def test_covector_witness_agrees_with_box_search():
    """Coefficient-blind pairs whose first rows are not positively
    proportional, so the first stage already disagrees on all of Z^n.

    The box search is bounded, and a cone thinner than its reach leaves it
    without a verdict; such a pair rests on the re-check in decide_equal.
    """
    rng = random.Random(211)
    basis_hits = constructed = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        first = [1] + [
            random_scalar(rng) / 4 if rng.random() < 0.7 else 0
            for _ in range(n - 1)
        ]
        nonzero = [j for j in range(n) if first[j]]
        # moving an entry off a row's only nonzero one keeps the rows apart
        d = rng.choice([i for i in range(n) if nonzero != [i]])
        eps = Fraction(rng.choice([-1, 1]), rng.choice([3, 7, 50]))
        moved = [x + eps if i == d else x for i, x in enumerate(first)]
        rows_a = [[0] + first, [0] + [random_scalar(rng) for _ in range(n)]]
        rows_b = [[0] + moved, [0] + [random_scalar(rng) for _ in range(n)]]
        A, B = P(*rows_a), P(*rows_b)
        verdict = decide_equal(A, B)
        assert verdict.outcome == "Distinguished"
        searched = ref_covector_witness(A, B, n, max_candidates=3000)
        if searched is None:
            continue
        if sum(abs(x) for x in searched.u) == 1:
            assert verdict.witness == searched
            basis_hits += 1
        else:
            for w in (verdict.witness, searched):
                assert A.matrix.sign_lex(w) != B.matrix.sign_lex(w)
            constructed += 1
    assert basis_hits >= 5 and constructed >= 20


def test_witness_is_the_first_separating_generator():
    """Pairs whose canonical first rows differ, so the first stage already
    disagrees on H = ℚ x Z^n, with any mix of coefficient entries 1 and 0.

    The witness is the first of t^±1, x_1^±1, ..., x_n^±1 whose two full
    lex signs differ, whenever one does; otherwise it is a cone point,
    which decide_equal re-checks.
    """
    rng = random.Random(311)
    checked = generator_hits = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        A, B = random_prime(rng, n), random_prime(rng, n)
        if not A.matrix.rows or not B.matrix.rows:
            continue
        if A.matrix.rows[0] == B.matrix.rows[0]:
            continue
        checked += 1
        zero = (0,) * n
        generators = [ExponentVector(Fraction(s), zero) for s in (1, -1)] + [
            ExponentVector(Fraction(0), tuple(s * (i == j) for i in range(n)))
            for j in range(n)
            for s in (1, -1)
        ]
        first = next(
            (
                w for w in generators
                if A.matrix.sign_lex(w) != B.matrix.sign_lex(w)
            ),
            None,
        )
        verdict = decide_equal(A, B)
        assert verdict.outcome == "Distinguished"
        if first is not None:
            assert verdict.witness == first
            generator_hits += 1
    assert checked >= 300 and generator_hits >= 250
    assert checked - generator_hits >= 20


def test_witness_members_of_kernel_subgroup():
    H = KernelSubgroup("graph", 2, ((1, 0), (0, 1)), (Fraction(0), Fraction(0)))
    assert H.contains(ExponentVector(Fraction(0), (3, -5)))
    assert not H.contains(ExponentVector(Fraction(1), (0, 0)))
    assert H.member([2, -1]) == ExponentVector(Fraction(0), (2, -1))
    with pytest.raises(DomainError):
        KernelSubgroup("graph", 1, ((1,),), (Fraction(0),)).member([1], Fraction(5))
    with pytest.raises(DomainError, match="one ell value per basis row"):
        KernelSubgroup("graph", 1, ((1,),), (1, 2))
    with pytest.raises(DomainError, match="lattice rows must have length n"):
        KernelSubgroup("product", 2, ((1,),))
    full = KernelSubgroup.full(2)
    assert full.rank == 3
    assert full.contains(ExponentVector(Fraction(7, 3), (1, 1)))
    assert full.member([1, 0], Fraction(5)) == ExponentVector(Fraction(5), (1, 0))


def test_member_refuses_coefficients_of_the_wrong_length():
    # one coefficient per basis vector: a short list is not padded with
    # zeros, and a long one is not cut
    for H, coeffs in (
        (KernelSubgroup.full(2), [1]),
        (KernelSubgroup.full(1), [1, 5, 7]),
        (KernelSubgroup.full(0), [0]),
        (KernelSubgroup("graph", 2, ((1, 1),), (Fraction(1, 2),)), []),
    ):
        with pytest.raises(DimensionError):
            H.member(coeffs)


def test_contains_refuses_vectors_of_the_wrong_length():
    # an exponent vector outside ℚ x Z^n is refused, not read as far as
    # the basis pivots reach
    for H, u in (
        (KernelSubgroup.full(2), (1,)),
        (KernelSubgroup.full(2), (1, 0, 0)),
        (KernelSubgroup("graph", 2, ((1, 1),), (Fraction(1, 2),)), (1,)),
        (KernelSubgroup("graph", 1, (), ()), (0, 0)),
    ):
        with pytest.raises(DimensionError):
            H.contains(ExponentVector(Fraction(0), u))


# -- final kernel and classification ------------------------------------------


def test_final_kernel_examples():
    K = final_kernel(P([1, 0, 0]))
    assert K.kind == "graph"
    assert K.lattice == ((1, 0), (0, 1))
    assert K.ell == (Fraction(0), Fraction(0))
    assert K.rank == 2

    assert final_kernel(P([1, R2, R3])).is_trivial()

    K = final_kernel(P([1, 0, 0], [0, 1, 0]))
    assert K.kind == "graph"
    assert K.lattice == ((0, 1),)
    assert K.ell == (Fraction(0),)
    assert K.rank == 1


def test_final_kernel_annihilates_matrix():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n)
        K = final_kernel(pr)
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in range(K.lattice_rank)]
            w = _kernel_member(K, coeffs, Fraction(rng.randint(-3, 3)))
            assert K.contains(w)
            assert pr.matrix.sign_lex(w) == 0


def test_classify_examples():
    assert classify(P([1, R2, R3])) == CONT
    assert classify(P([0, 0, 1], [1, 0, 0])) == NON_CONTINUOUS
    assert classify(P([0, 1, 0])) == COEFFICIENT_BLIND
    # no rows: every coefficient entry is zero
    assert classify(canonicalize(DefiningMatrix([], n=2))) == COEFFICIENT_BLIND


def test_min_filter_dim_table():
    assert min_filter_dim(P([1, 0, 0])) == 0
    assert min_filter_dim(P([1, R2, 0])) == 1
    assert min_filter_dim(P([1, R2, R3])) == 2
    assert min_filter_dim(P([1, 0, 0], [0, 1, 0])) == 1
    assert min_filter_dim(P([1, 0, 0], [0, 1, R2])) == 2
    assert min_filter_dim(P([1, 0, 0], [0, 1, 0], [0, 0, 1])) == 2


def test_min_filter_dim_needs_cont():
    with pytest.raises(DomainError):
        min_filter_dim(P([0, 1, 0]))
    with pytest.raises(DomainError):
        min_filter_dim(P([0, 0, 1], [1, 0, 0]))


def test_height_complements_min_dim():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 3)
        pr = random_prime(rng, n, cont=True)
        assert min_filter_dim(pr) == n - height(pr)


def test_is_order():
    assert is_order(P([1, R2, R3]))
    assert is_order(P([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]))
    assert not is_order(P([1, 0, 0], [0, 1, 0]))


def test_is_order_matches_term_identification():
    """A non-order prime identifies two distinct terms; an order never does."""
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 2)
        pr = random_prime(rng, n)
        K = final_kernel(pr)
        if is_order(pr):
            continue
        if K.lattice_rank:
            w = K.member([1] + [0] * (K.lattice_rank - 1))
        else:
            w = ExponentVector(Fraction(1), (0,) * n)
        unit = ExponentVector(Fraction(0), (0,) * n)
        assert w != unit
        assert compare_terms(pr, w, unit) == EQUAL


def test_row_op_normal_form_invariance():
    rng = random.Random(88)
    for _ in range(30):
        A = random_prime(rng, rng.randint(1, 3))
        assert canonicalize(transform_rows(rng, A.matrix)).matrix == A.matrix
