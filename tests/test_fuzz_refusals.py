"""Seeded refusal fuzzing: every public constructor and container reader,
fed nested junk, returns or raises a ValflagError, and so does every parser,
fed junk as its text and as its name list and random strings over the
grammar's alphabet.
"""

import random
from fractions import Fraction

from valflag import (
    DefiningMatrix,
    ExponentVector,
    FarkasCertificate,
    Flag,
    GammaPolyhedralSet,
    GammaPolyhedron,
    IneqSystem,
    KernelSubgroup,
    Scalar,
    TropPolynomial,
    ValflagError,
    canonicalize,
    in_cone,
    parse_poly,
    parse_scalar,
    parse_term,
    relative_interior_matrix,
    simplicialize,
)

WORDS = ["", "1", "-2", "1/2", "sqrt(2)", "x", "bogus", "product", "graph",
         "polyhedra", "cones"]


def hashable_junk(rng):
    return rng.choice([
        lambda: rng.randint(-3, 12),
        lambda: rng.random() < 0.5,
        lambda: rng.choice([0.5, -1.0, float("nan")]),
        lambda: None,
        lambda: rng.choice(WORDS),
        lambda: rng.choice([b"", b"1", b"\xff"]),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        lambda: object(),
    ])()


def junk(rng, depth=3):
    """An int, bool, float, None, string, bytes, Fraction or object, or,
    while depth lasts, a tuple, list or dict of further junk."""
    if depth == 0 or rng.random() < 0.4:
        return hashable_junk(rng)
    size = rng.randint(0, 3)
    kind = rng.randrange(3)
    if kind == 2:
        return {hashable_junk(rng): junk(rng, depth - 1) for _ in range(size)}
    items = [junk(rng, depth - 1) for _ in range(size)]
    return tuple(items) if kind else items


TARGETS = {
    "Scalar": (Scalar, 1),
    "Scalar.rational": (Scalar.rational, 1),
    "ExponentVector": (ExponentVector, 2),
    "TropPolynomial": (TropPolynomial, 2),
    "DefiningMatrix": (DefiningMatrix, 2),
    "canonicalize": (canonicalize, 1),
    "KernelSubgroup": (KernelSubgroup, 4),
    "IneqSystem": (IneqSystem, 2),
    "GammaPolyhedron": (GammaPolyhedron, 2),
    "GammaPolyhedralSet": (GammaPolyhedralSet, 1),
    "Flag": (Flag, 3),
    "FarkasCertificate": (FarkasCertificate, 3),
    "in_cone": (in_cone, 2),
    "simplicialize": (simplicialize, 1),
    "relative_interior_matrix": (relative_interior_matrix, 1),
    "parse_scalar": (parse_scalar, 1),
    "parse_poly text": (lambda text: parse_poly(text, ["x", "y"]), 1),
    "parse_poly names": (lambda names: parse_poly("x + t^1", names), 1),
    "parse_term text": (lambda text: parse_term(text, ["x", "y"]), 1),
    "parse_term names": (lambda names: parse_term("x", names), 1),
}

ALPHABET = ["0", "1", "2", "7", "/", "+", "-", "*", "^", "(", ")", "sqrt",
            "t", "x", "y", "z", " ", ".", "_", "\n"]

PARSERS = {
    "parse_scalar": parse_scalar,
    "parse_poly": lambda text: parse_poly(text, ["x", "y"]),
    "parse_term": lambda text: parse_term(text, ["x", "y"]),
}


def escapes(calls):
    """(name, exception class) -> the first arguments that raised it, for
    every exception that is not a ValflagError."""
    found = {}
    for name, call, args in calls:
        try:
            call(*args)
        except ValflagError:
            pass
        except Exception as exc:
            found.setdefault((name, type(exc).__name__), args)
    return found


def test_junk_is_returned_or_refused():
    rng = random.Random(4)
    calls = [
        (name, call, [junk(rng) for _ in range(arity)])
        for name, (call, arity) in TARGETS.items()
        for _ in range(1500)
    ]
    assert escapes(calls) == {}


def test_random_strings_are_parsed_or_refused():
    rng = random.Random(5)
    calls = [
        (name, parse, ["".join(rng.choices(ALPHABET, k=rng.randint(0, 10)))])
        for name, parse in PARSERS.items()
        for _ in range(3000)
    ]
    assert escapes(calls) == {}
