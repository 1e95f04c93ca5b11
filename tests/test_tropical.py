import random
from fractions import Fraction

import pytest

from valflag import (
    DimensionError,
    DomainError,
    ExponentVector,
    NEG_INF,
    ParseError,
    Scalar,
    TropPolynomial,
    format_poly,
    parse_poly,
    parse_term,
)


def test_parse_term_example():
    ev = parse_term("t^-2*x^3*y^-1", ["x", "y"])
    assert ev.gamma == -2
    assert ev.u == (3, -1)


def test_parse_poly():
    f = parse_poly("t^1/2*x + y^2 + t^-1", ["x", "y"])
    assert f.items() == [
        ((0, 0), Fraction(-1)),
        ((0, 2), Fraction(0)),
        ((1, 0), Fraction(1, 2)),
    ]
    assert parse_poly("0", ["x"]).is_zero()
    # repeated factors multiply, so exponents add
    assert parse_term("x*x*t^1*t^2", ["x"]) == ExponentVector(3, (2,))


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("t^2*w", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("t", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x + ", ["x"])
    with pytest.raises(ParseError):
        parse_term("x + y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("t^1/0", ["x"])


def test_format_round_trip():
    rng = random.Random(31)
    names = ["x", "y", "z"]
    for _ in range(100):
        n = rng.randint(1, 3)
        f = TropPolynomial(
            n,
            [
                (
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                for _ in range(rng.randint(0, 4))
            ],
        )
        assert parse_poly(format_poly(f, names[:n]), names[:n]) == f


def test_duplicate_exponents_keep_max():
    f = TropPolynomial(1, [((2,), Fraction(1)), ((2,), Fraction(3))])
    assert f.items() == [((2,), Fraction(3))]


def test_semiring_axioms():
    rng = random.Random(13)

    def rand_poly(n):
        return TropPolynomial(
            n,
            [
                (
                    tuple(rng.randint(-2, 2) for _ in range(n)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(0, 3))
            ],
        )

    for _ in range(50):
        n = rng.randint(1, 3)
        f, g, h = rand_poly(n), rand_poly(n), rand_poly(n)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f + f == f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + TropPolynomial.zero(n) == f
        assert f * TropPolynomial.unit(n) == f
        assert f * TropPolynomial.zero(n) == TropPolynomial.zero(n)


def test_eval_matches_operations():
    """Evaluation is a semiring morphism to (max, +)."""
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = TropPolynomial(
            n,
            [
                (
                    tuple(rng.randint(-2, 2) for _ in range(n)),
                    Fraction(rng.randint(-4, 4)),
                )
                for _ in range(rng.randint(1, 3))
            ],
        )
        g = TropPolynomial(
            n,
            [
                (
                    tuple(rng.randint(-2, 2) for _ in range(n)),
                    Fraction(rng.randint(-4, 4)),
                )
                for _ in range(rng.randint(1, 3))
            ],
        )
        x = [
            Scalar.rational(rng.randint(-3, 3))
            + Scalar.sqrt(2)._scale(rng.randint(-1, 1))
            for _ in range(n)
        ]
        fs, gs = f.eval_at(x), g.eval_at(x)
        assert (f + g).eval_at(x) == max(fs, gs)
        assert (f * g).eval_at(x) == fs + gs


def test_eval_zero_polynomial():
    assert TropPolynomial.zero(2).eval_at([Scalar.rational(0)] * 2) == NEG_INF
    assert TropPolynomial.zero(2).eval_homog(
        Scalar.rational(1), [Scalar.rational(0)] * 2
    ) == NEG_INF


def test_eval_homog():
    f = parse_poly("t^2*x + y", ["x", "y"])
    x = [Scalar.rational(1), Scalar.rational(4)]
    assert f.eval_homog(Scalar.rational(1), x) == f.eval_at(x)
    assert f.eval_homog(Scalar.rational(0), x) == Scalar.rational(4)
    with pytest.raises(DomainError):
        f.eval_homog(Scalar.rational(-1), x)


def test_exponent_vector_ops():
    a = ExponentVector(Fraction(1, 2), (1, -1))
    b = ExponentVector(Fraction(1), (0, 2))
    assert a.add(b) == ExponentVector(Fraction(3, 2), (1, 1))
    assert a.sub(b) == ExponentVector(Fraction(-1, 2), (1, -3))
    assert a.scale(2) == ExponentVector(Fraction(1), (2, -2))
    with pytest.raises(DimensionError):
        a.add(ExponentVector(0, (1,)))


def test_inexact_exponents_are_rejected_not_truncated():
    for u in [(1.5, 0), (0, True), (Fraction(1), 0), ("1", 0)]:
        with pytest.raises(DomainError):
            ExponentVector(0, u)
        with pytest.raises(DomainError):
            TropPolynomial(2, {u: 1})
    with pytest.raises(DomainError):
        ExponentVector(0.5, (1, 0))
    with pytest.raises(DomainError):
        TropPolynomial(2, {(1, 0): 0.1})
    # exact input is kept as given
    assert ExponentVector(Fraction(1, 3), (2, -1)).u == (2, -1)
    assert str(TropPolynomial(2, {(1, 0): Fraction(1, 2)})) == "t^1/2*x"


def test_dimension_checks():
    with pytest.raises(DimensionError):
        TropPolynomial(2, [((1,), Fraction(0))])
    with pytest.raises(DimensionError):
        parse_poly("x", ["x"]) + parse_poly("x", ["x", "y"])
    with pytest.raises(DimensionError):
        parse_poly("x", ["x"]).eval_at([Scalar.rational(0)] * 2)
