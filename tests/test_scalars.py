import itertools
import operator
import random
from fractions import Fraction

import pytest

from valflag import (
    CapacityError,
    DefiningMatrix,
    DomainError,
    ParseError,
    Scalar,
    format_scalar,
    parse_scalar,
    simplest_between,
)
from valflag.scalars import (
    DEFAULT_RADICAL_CAP,
    ONE,
    ZERO,
    _prime_mask,
    rational_part_basis,
    squarefree_split,
)

from _oracles import (
    random_rational,
    ref_add,
    ref_div,
    ref_interval,
    ref_mul,
    ref_neg,
    ref_scale,
    ref_sign_floor,
    ref_sub,
)


def test_parse_example():
    s = parse_scalar("1/2*sqrt(3) + 1")
    assert s.rational_part() == 1
    assert s.coefficient(3) == Fraction(1, 2)


def test_parse_reduces_radicands():
    assert parse_scalar("sqrt(8)") == Scalar.sqrt(2)._scale(2)
    assert format_scalar(parse_scalar("sqrt(8)")) == "2*sqrt(2)"
    assert parse_scalar("sqrt(9)") == Scalar.rational(3)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 + sqrt(x)")
    assert "column" in str(err.value)
    with pytest.raises(ParseError):
        parse_scalar("")
    # '²' is a digit to str.isdigit but not to int()
    for text in ["2 **", "²", "1/²", "sqrt(²)"]:
        with pytest.raises(ParseError):
            parse_scalar(text)


def test_format_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        terms = {1: Fraction(rng.randint(-9, 9), rng.randint(1, 7))}
        for r in (2, 3, 5):
            if rng.random() < 0.5:
                terms[r] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        s = Scalar(terms)
        assert parse_scalar(format_scalar(s)) == s


def test_field_arithmetic():
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)
    assert (r2 + 1) * (r2 - 1) == ONE
    assert r2 * r2 == Scalar.rational(2)
    assert r2 * r3 == Scalar.sqrt(6)
    assert (r2 + r3) * (r2 - r3) == Scalar.rational(-1)
    q = (r2 + 1) / (r2 - 1)
    assert q == Scalar.rational(3) + r2._scale(2)


def test_division_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        a = Scalar.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if rng.random() < 0.7:
            a = a + Scalar.sqrt(rng.choice((2, 3, 6)))._scale(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            )
        b = Scalar.sqrt(rng.choice((2, 3)))._scale(
            Fraction(rng.randint(1, 4))
        ) + Scalar.rational(rng.randint(-2, 2))
        if not b:
            continue
        assert (a / b) * b == a


def test_sign_exact():
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)
    # sqrt(2) + sqrt(3) = 3.1462..., so it straddles 3 and 63/20 = 3.15.
    assert (r2 + r3 - 3).sign() == 1
    assert (r2 + r3 - Scalar.rational(Fraction(63, 20))).sign() == -1
    assert (r2 - 2).sign() == -1
    assert (r2 + r3 - r2 - r3).sign() == 0
    assert ZERO.sign() == 0


def test_sign_matches_float_approx():
    rng = random.Random(23)
    for _ in range(300):
        s = Scalar.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        for r in (2, 3, 5):
            if rng.random() < 0.6:
                s = s + Scalar.sqrt(r)._scale(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                )
        approx = s.approx()
        if abs(approx) > 1e-9:
            assert s.sign() == (1 if approx > 0 else -1)


def test_sign_and_floor_agree_with_fraction_brackets():
    rng = random.Random(43)
    r2 = Scalar.sqrt(2)
    values = []
    # p - q*sqrt(2) for the convergents p/q of sqrt(2) is about 1/(3q), so
    # its sign and floor need brackets of about 2*log2(q) bits: up to 256
    # here (q near 2**100), two refinements past the first 64.
    p, q = 1, 1
    for _ in range(80):
        values.append(Scalar.rational(p) - r2._scale(q))
        values.append(r2._scale(Fraction(q, 5)) - Fraction(p, 5) + 7)
        p, q = p + 2 * q, p + q
    radicands = (1, 2, 3, 5, 6, 7)
    for _ in range(300):
        k = rng.randint(0, 4)
        values.append(Scalar({
            r: random_rational(rng, bound=20, den=9)
            for r in rng.sample(radicands, k)
        }))
    deep = 0
    for a in values:
        assert (a.sign(), a.floor()) == ref_sign_floor(a)
        for prec in (64, 128, 256):
            lo, hi, den = a._interval(prec)
            assert (Fraction(lo, den), Fraction(hi, den)) == ref_interval(a, prec)
        lo, hi, _ = a._interval(128)
        deep += lo <= 0 <= hi and bool(a)
    assert deep >= 20


def test_floor():
    assert Scalar.sqrt(2).floor() == 1
    assert (-Scalar.sqrt(2)).floor() == -2
    assert Scalar.rational(Fraction(5, 2)).floor() == 2
    assert Scalar.rational(Fraction(-5, 2)).floor() == -3
    assert (Scalar.rational(2) - Scalar.sqrt(2)).floor() == 0
    assert Scalar.rational(7).floor() == 7


def test_comparisons():
    assert Scalar.sqrt(2) < Scalar.sqrt(3)
    assert Scalar.sqrt(2) > 1
    assert Scalar.rational(2) >= 2
    assert not Scalar.sqrt(5) <= 2


def test_simplest_between():
    assert simplest_between(-Scalar.sqrt(2), ZERO) == -1
    assert simplest_between(
        Scalar.rational(Fraction(5, 4)), Scalar.rational(Fraction(3, 2))
    ) == Fraction(4, 3)
    assert simplest_between(ONE, Scalar.sqrt(2)) == Fraction(4, 3)
    assert simplest_between(Scalar.rational(-1), ONE) == 0


def test_simplest_between_is_minimal():
    """No rational with a smaller denominator fits strictly inside."""
    rng = random.Random(3)
    for _ in range(60):
        a = Scalar.rational(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        width = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        b = a + Scalar.rational(width)
        if rng.random() < 0.3:
            a = a + Scalar.sqrt(2)._scale(Fraction(1, 10))
            b = b + Scalar.sqrt(2)._scale(Fraction(1, 10))
        got = simplest_between(a, b)
        assert a < got < b
        for q in range(1, got.denominator):
            lo = a.approx() * q
            for p in range(int(lo) - 2, int(lo) + int(width * q) + 3):
                cand = Fraction(p, q)
                assert not (a < cand < b)


def test_radical_cap(monkeypatch):
    """The cap bounds the distinct primes under a scalar's square roots,
    not its number of radicals."""
    monkeypatch.delenv("VALFLAG_RADICAL_CAP", raising=False)
    assert DEFAULT_RADICAL_CAP == 6
    s = Scalar({p: Fraction(1) for p in [1, 2, 3, 5, 7, 11, 13]})
    assert len(s.radicals()) == 6
    # the square keeps the six primes: 21 radicals, the primes and their
    # 15 pairwise products
    assert len((s * s).radicals()) == 21
    with pytest.raises(CapacityError):
        s + Scalar.sqrt(17)
    with pytest.raises(CapacityError):
        Scalar.sqrt(2 * 3 * 5 * 7 * 11 * 13 * 17)
    monkeypatch.setenv("VALFLAG_RADICAL_CAP", "7")
    assert len((s + Scalar.sqrt(17)).radicals()) == 7
    assert Scalar.sqrt(510510).radicals() == [510510]
    monkeypatch.setenv("VALFLAG_RADICAL_CAP", "junk")
    with pytest.raises(CapacityError):
        s + Scalar.sqrt(17)


def test_operands_with_disjoint_primes_past_the_cap_raise(monkeypatch):
    monkeypatch.delenv("VALFLAG_RADICAL_CAP", raising=False)
    a = Scalar({2: 1, 3: 1, 5: 1})
    b = Scalar({7: 1, 11: 1, 13: 1, 17: 1})
    for op in (operator.add, operator.mul, operator.truediv):
        with pytest.raises(CapacityError):
            op(a, b)


def _assert_reduced(s):
    for n, q in s._terms.items():
        assert squarefree_split(n) == (1, n)
        assert type(q) is Fraction and q != 0
        assert _prime_mask(n) & ~s._primes == 0


def test_arithmetic_agrees_with_reducing_oracle():
    rng = random.Random(29)
    radicands = (1, 2, 3, 5, 6, 8, 12, 18)

    def draw():
        k = rng.choice((0, 1, 1, 2, 3, 4))
        return Scalar({r: random_rational(rng) for r in rng.sample(radicands, k)})

    for _ in range(400):
        a, b = draw(), draw()
        q = random_rational(rng)
        pairs = [
            (a + b, ref_add(a, b)),
            (a - b, ref_sub(a, b)),
            (a * b, ref_mul(a, b)),
            (-a, ref_neg(a)),
            (a._scale(q), ref_scale(a, q)),
            (a._scale(q.numerator), ref_scale(a, Fraction(q.numerator))),
            # a zero addend and a unit scale return the other operand
            (a + ZERO, ref_add(a, ZERO)),
            (ZERO + a, ref_add(ZERO, a)),
            (0 + a, ref_add(ZERO, a)),
            (a - ZERO, ref_sub(a, ZERO)),
            (sum([a]), ref_add(ZERO, a)),
            (a._scale(1), ref_scale(a, Fraction(1))),
            (a._scale(Fraction(1)), ref_scale(a, Fraction(1))),
        ]
        if b:
            pairs.append((a / b, ref_div(a, b)))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        for got, want in pairs:
            _assert_reduced(got)
            assert got == want and hash(got) == hash(want)


def test_products_agree_with_reducing_oracle():
    # products add up integer numerators over each operand's common
    # denominator; each result is reduced and hashes as the oracle's

    # the sqrt(6) terms cancel, and the rational result hashes as a Fraction
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)
    got = (r2 + r3) * (r2 - r3)
    _assert_reduced(got)
    assert got == -1 and got == Fraction(-1) and hash(got) == hash(Fraction(-1))
    assert (ZERO * (r2 + r3))._terms == {} and ((r2 + r3) * ZERO)._terms == {}
    for a, b, want in [
        (r2, r2, 2),
        (Scalar({2: Fraction(1, 3)}), Scalar({2: Fraction(3, 4)}), Fraction(1, 2)),
        (Scalar({6: Fraction(5, 7)}), Scalar({6: Fraction(-7, 5)}), -6),
        (r2 + r3, (r3 - r2)._scale(Fraction(1, 999_983)), Fraction(1, 999_983)),
    ]:
        got = a * b
        _assert_reduced(got)
        assert got == want and hash(got) == hash(want)
        assert got.is_rational() and got.as_rational() == want

    rng = random.Random(31)
    radicands = (1, 2, 3, 5, 6, 10, 15, 30)

    def draw():
        k = rng.choice((0, 1, 2, 3, 4))
        return Scalar({
            r: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for r in rng.sample(radicands, k)
        })

    draws = [(draw(), draw()) for _ in range(300)]
    for a, b in draws:
        for x, y in ((a, b), (a, ZERO), (ZERO, b)):
            got = x * y
            _assert_reduced(got)
            assert got == ref_mul(x, y) and hash(got) == hash(ref_mul(x, y))
    # a quotient multiplies by conjugates until the divisor is rational
    for a, b in draws:
        if b:
            got = a / b
            _assert_reduced(got)
            assert got == ref_div(a, b) and hash(got) == hash(ref_div(a, b))


def test_approx_does_not_depend_on_the_order_of_the_terms():
    terms = [(1, Fraction(49, 4)), (2, Fraction(33)), (3, Fraction(-15)),
             (6, Fraction(-3, 8))]
    values = {
        Scalar(dict(order)).approx() for order in itertools.permutations(terms)
    }
    assert len(values) == 1


def test_inexact_scalar_input_is_rejected():
    for terms in [{2.5: 1}, {True: 1}, {"2": 1}, {1: 0.1}, {2: 0.5}]:
        with pytest.raises(DomainError):
            Scalar(terms)
    for value in (0.1, True, False):
        with pytest.raises(DomainError):
            Scalar.coerce(value)
    with pytest.raises(DomainError):
        DefiningMatrix([[True, False, 1]])
    assert Scalar({8: Fraction(1, 2), 1: 3}) == Scalar.sqrt(2) + 3


def test_as_rational():
    assert Scalar.rational(Fraction(3, 4)).as_rational() == Fraction(3, 4)
    with pytest.raises(DomainError):
        Scalar.sqrt(2).as_rational()


def test_hash_consistency():
    a = parse_scalar("1 + sqrt(2)")
    b = Scalar.rational(1) + Scalar.sqrt(2)
    assert a == b and hash(a) == hash(b)
    assert Scalar({2: 1, 1: 1}) in {Scalar({1: 1, 2: 1})}
    # rational scalars agree with the ints and Fractions they equal
    assert 3 in {Scalar.rational(3)} and Scalar.rational(3) in {3}
    assert {Scalar.rational(Fraction(-5, 2)): 1}[Fraction(-5, 2)] == 1
    assert {Fraction(2, 3): 1}[parse_scalar("2/3")] == 1
    assert 0 in {ZERO} and Fraction(0) in {ZERO} and ZERO in {0}
    assert Scalar.sqrt(4) in {2} and 1 not in {Scalar.sqrt(2)}


def test_rational_part_basis():
    r2, r3 = Scalar.sqrt(2), Scalar.sqrt(3)
    rows = rational_part_basis([r2, r3])
    assert rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert rational_part_basis([Scalar.rational(5), ZERO]) == []
