import random
import re
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
from valflag.tropical import _read_terms

from _oracles import ref_parse_poly, ref_parse_term


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
    # a coefficient exponent is an int or a Fraction: neither a float nor
    # True (as 1) nor a string (as the number it spells) is read
    for gamma in [0.5, 0.1, True, False, "1/2", "1e3", None]:
        with pytest.raises(DomainError):
            ExponentVector(gamma, (1, 0))
        with pytest.raises(DomainError):
            TropPolynomial(2, {(1, 0): gamma})
        with pytest.raises(DomainError):
            TropPolynomial.term(gamma, (1, 0))
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


@pytest.mark.parametrize(
    "read, text, column",
    [
        (parse_term, "x*", 3),
        (parse_term, "t^1/0*x", 5),
        (parse_term, "x^", 3),
        (parse_term, "t^1/2*x^-y", 10),
        (parse_term, "x + t^1*x", 3),
        (parse_poly, "x + t^1*q", 9),
        (parse_poly, "x*y\n  + t^", 7),
    ],
)
def test_term_error_points_at_offending_character(read, text, column):
    with pytest.raises(ParseError) as info:
        read(text, ["x", "y"])
    error = info.value
    start = error.text.rfind("\n", 0, error.pos) + 1
    assert error.pos - start + 1 == column
    assert f"column {column})" in str(error)


def test_parse_term_refuses_several_written_terms():
    # the sum merges into one term, but a term argument is one term
    assert parse_poly("x + t^1*x", ["x"]) == parse_poly("t^1*x", ["x"])
    for text in ["x + t^1*x", "x + x", "x + y^"]:
        with pytest.raises(ParseError, match="single term"):
            parse_term(text, ["x", "y"])
    with pytest.raises(ParseError):
        parse_term("0", ["x"])


def test_signed_exponents_read_as_in_the_scalar_grammar():
    assert parse_term("t^+1*x^- 2", ["x"]) == ExponentVector(1, (-2,))
    assert parse_term("t ^ - 1 / 2 * y ^ +3", ["x", "y"]) == ExponentVector(
        Fraction(-1, 2), (0, 3)
    )
    # names are matched longest first
    names = ["x", "x1", "theta"]
    assert parse_term("x1^2*theta*t^1*x", names) == ExponentVector(1, (1, 2, 1))


def test_ambiguous_variable_names_are_refused():
    for names in [["x", "x"], ["t", "y"], ["x", ""], ["x y"], ["2"]]:
        for read in (parse_poly, parse_term):
            with pytest.raises(ParseError, match="variable name"):
                read("x", names)
        with pytest.raises(ParseError, match="variable name"):
            parse_poly("0", names)


def test_float_coefficient_and_inexact_variable_count_are_refused():
    with pytest.raises(DomainError):
        TropPolynomial.term(0.1, (1,))
    assert TropPolynomial.term(Fraction(1, 10), (1,)).items() == [
        ((1,), Fraction(1, 10))
    ]
    for n in [2.7, True, -1, "2"]:
        with pytest.raises(DomainError):
            TropPolynomial(n, {})


# -- the cursor reader against the split oracle ------------------------------

NAMES = ["x", "y", "x1", "theta"]
_SPACES = ["", "", "", " ", "  ", "\t"]
_JUNK = "+-*^/_ t x 0 1 2 ² ٣ q"
# spellings the split reader took and the scalar grammar refuses: an empty
# exponent (x^), digit-group underscores (x^1_0), a signed denominator (t^1/-2)
_OLD_ONLY = re.compile(r"\^\s*(?:[*+]|$)|\d_\d|/\s*-\d")


def _sp(rng):
    return rng.choice(_SPACES)


def _number(rng, fraction):
    text = rng.choice(["", "", "-", "-", "+"]) + rng.choice(["", "", "", " "])
    text += str(rng.randint(0, 12)) + rng.choice([""] * 30 + ["_0"])
    if fraction and rng.random() < 0.4:
        sign = rng.choice([""] * 12 + ["-", "+"])
        text += _sp(rng) + "/" + _sp(rng) + sign + str(rng.randint(0, 4))
    return text


def _factor(rng):
    if rng.random() < 0.4:
        return "t" + _sp(rng) + "^" + _sp(rng) + _number(rng, True)
    name = rng.choice(NAMES)
    r = rng.random()
    if r < 0.4:
        return name
    if r < 0.45:
        return name + _sp(rng) + "^"
    return name + _sp(rng) + "^" + _sp(rng) + _number(rng, False)


def _joined(rng, sep, parts):
    text = parts[0]
    for part in parts[1:]:
        text += _sp(rng) + sep + _sp(rng) + part
    return text


def _random_text(rng):
    """Terms with whitespace, signs, fractions, repeated factors and junk."""
    if rng.random() < 0.02:
        return rng.choice(["0", " 0 "])
    terms = [
        _joined(rng, "*", [_factor(rng) for _ in range(rng.randint(1, 3))])
        for _ in range(rng.choice([1, 1, 1, 2, 3]))
    ]
    if rng.random() < 0.1:
        # the same monomial again, which merges into one term
        terms.append(f"t^{rng.randint(-2, 2)}*{terms[0]}")
    text = _sp(rng) + _joined(rng, "+", terms) + _sp(rng)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:i] + rng.choice(_JUNK) + text[i:]
        else:
            text = text[:i] + text[i + 1 :]
    return text


def _unsigned(text):
    """The split reader's spelling of signed exponents: no '+' sign and no
    space after a sign."""
    return re.sub(
        r"\^(\s*)([+-])\s*",
        lambda m: "^" + m.group(1) + ("-" if m.group(2) == "-" else ""),
        text,
    )


def _accepted(read, text):
    try:
        return read(text, NAMES)
    except ParseError:
        return None


def test_reader_agrees_with_split_oracle():
    """Wherever both readers accept a text they return the same answer;
    every other text falls into a listed class."""
    rng = random.Random(1913)
    seen = {"agree": 0, "several terms": 0, "signed exponent": 0, "old only": 0}
    for _ in range(3000):
        text = _random_text(rng)
        for read, ref in ((parse_poly, ref_parse_poly), (parse_term, ref_parse_term)):
            new, old = _accepted(read, text), _accepted(ref, text)
            if new is not None and old is not None:
                assert new == old, text
                seen["agree"] += 1
            elif new is not None:
                # a '+' sign or a space after a sign in an exponent
                assert _unsigned(text) != text, text
                assert ref(_unsigned(text), NAMES) == new, text
                seen["signed exponent"] += 1
            elif old is not None:
                poly = _accepted(parse_poly, text)
                if read is parse_term and poly is not None:
                    assert len(_read_terms(text, NAMES)) > 1, text
                    assert TropPolynomial.from_exponent(old) == poly, text
                    seen["several terms"] += 1
                else:
                    assert _OLD_ONLY.search(text), text
                    seen["old only"] += 1
    assert seen["agree"] >= 500, seen
    assert seen["several terms"] >= 20, seen
    assert seen["signed exponent"] >= 20, seen
