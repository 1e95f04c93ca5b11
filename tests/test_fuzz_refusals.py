"""Seeded refusal fuzzing: every public function and class, fed nested junk
in each argument, returns or raises a ValflagError, also next to correctly
typed arguments, and so does every parser, fed random strings over the
grammar's alphabet.
"""

import inspect
import random
from fractions import Fraction

import valflag
from valflag import (
    CounterexamplePoint,
    DefiningMatrix,
    EqualityVerdict,
    ExponentVector,
    FarkasCertificate,
    Flag,
    GammaPolyhedralSet,
    GammaPolyhedron,
    IneqSystem,
    KernelSubgroup,
    MembershipAnswer,
    Prime,
    Scalar,
    TropPolynomial,
    ValflagError,
    canonicalize,
    classify,
    compare,
    compare_terms,
    decide_equal,
    farkas_certify,
    filter_member,
    final_kernel,
    flag_from_matrix,
    fm_feasible,
    format_exponent,
    format_poly,
    format_scalar,
    halfspace_member,
    halfspace_polyhedron,
    height,
    in_cone,
    is_neighborhood,
    is_order,
    locally_equivalent,
    matrix_from_flag,
    min_filter_dim,
    mindim_witness,
    parse_poly,
    parse_scalar,
    parse_term,
    phi,
    rational_set,
    reconstruct_preorder,
    relative_interior_matrix,
    simplest_between,
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


# correctly typed arguments, so that junk reaches every later argument too
P = canonicalize([[1, 0, 0], [0, 1, 0]])
TERM = ExponentVector(1, (1, 0))
POLY = parse_poly("x + t^1*y", ["x", "y"])
FLAG = flag_from_matrix(P)
BOX = GammaPolyhedron(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])

# name -> (call, arity); a name's first word is the public name it feeds
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
    "simplest_between": (simplest_between, 2),
    "Prime": (Prime, 1),
    "EqualityVerdict": (EqualityVerdict, 2),
    "MembershipAnswer": (MembershipAnswer, 2),
    "CounterexamplePoint": (CounterexamplePoint, 1),
    "format_scalar": (format_scalar, 1),
    "format_exponent": (format_exponent, 2),
    "format_exponent names": (lambda names: format_exponent(TERM, names), 1),
    "format_poly": (format_poly, 2),
    "format_poly names": (lambda names: format_poly(POLY, names), 1),
    "classify": (classify, 1),
    "final_kernel": (final_kernel, 1),
    "height": (height, 1),
    "is_order": (is_order, 1),
    "min_filter_dim": (min_filter_dim, 1),
    "mindim_witness": (mindim_witness, 1),
    "phi": (phi, 2),
    "phi polynomial": (lambda f: phi(P, f), 1),
    "compare": (compare, 3),
    "compare polynomials": (lambda f, g: compare(P, f, g), 2),
    "compare_terms": (compare_terms, 3),
    "compare_terms terms": (lambda a, b: compare_terms(P, a, b), 2),
    "decide_equal": (decide_equal, 2),
    "decide_equal B": (lambda B: decide_equal(P, B), 1),
    "flag_from_matrix": (flag_from_matrix, 2),
    "flag_from_matrix kind": (lambda kind: flag_from_matrix(P, kind), 1),
    "matrix_from_flag": (matrix_from_flag, 1),
    "is_neighborhood": (is_neighborhood, 2),
    "is_neighborhood U": (lambda U: is_neighborhood(U, FLAG), 1),
    "is_neighborhood flag": (lambda F: is_neighborhood(BOX, F), 1),
    "locally_equivalent": (locally_equivalent, 2),
    "locally_equivalent G": (lambda G: locally_equivalent(FLAG, G), 1),
    "fm_feasible": (fm_feasible, 1),
    "rational_set": (rational_set, 3),
    "rational_set others": (lambda others: rational_set(POLY, others), 1),
    "filter_member": (filter_member, 2),
    "filter_member U": (lambda U: filter_member(P, U), 1),
    "halfspace_member": (halfspace_member, 2),
    "halfspace_member term": (lambda a: halfspace_member(P, a), 1),
    "halfspace_polyhedron": (halfspace_polyhedron, 1),
    "farkas_certify": (farkas_certify, 2),
    "farkas_certify constraints": (lambda cs: farkas_certify(cs, TERM), 1),
    "farkas_certify target": (lambda t: farkas_certify([TERM], t), 1),
    "reconstruct_preorder": (reconstruct_preorder, 2),
    "reconstruct_preorder pairs": (
        lambda pairs: reconstruct_preorder(lambda a: halfspace_member(P, a), pairs),
        1,
    ),
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


def test_every_public_callable_is_fed_junk():
    fed = {name.split()[0] for name in TARGETS}
    public = {
        name for name in valflag.__all__
        if callable(obj := getattr(valflag, name))
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }
    assert public - fed == set()


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
