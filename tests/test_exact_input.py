"""Every public name that reads an exact value refuses an inexact one with a
ValflagError: a bool, a float, None, and a string wherever the scalar
grammar does not read one (where it does, "1.5" is a ParseError).  Where a
vector is expected, an int or a string is refused with a DomainError."""

from fractions import Fraction

import pytest

from valflag import (
    DefiningMatrix,
    DomainError,
    EqualityVerdict,
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
    classify,
    compare,
    compare_terms,
    farkas_certify,
    filter_member,
    final_kernel,
    flag_from_matrix,
    format_exponent,
    halfspace_member,
    height,
    in_cone,
    is_order,
    min_filter_dim,
    mindim_witness,
    parse_poly,
    parse_scalar,
    parse_term,
    phi,
    reconstruct_preorder,
    relative_interior_matrix,
    simplest_between,
    simplicialize,
)
from valflag.scalars import ONE, exact_int, exact_rational, exact_vector

BAD = (True, 1.5, None, "1.5")

READERS = {
    "Scalar radicand": lambda v: Scalar({v: 1}),
    "Scalar coefficient": lambda v: Scalar({2: v}),
    "Scalar.rational": Scalar.rational,
    "Scalar.sqrt": Scalar.sqrt,
    "Scalar.coerce": Scalar.coerce,
    "add": lambda v: ONE + v,
    "radd": lambda v: v + ONE,
    "sub": lambda v: ONE - v,
    "rsub": lambda v: v - ONE,
    "mul": lambda v: ONE * v,
    "truediv": lambda v: ONE / v,
    "rtruediv": lambda v: v / ONE,
    "lt": lambda v: ONE < v,
    "le": lambda v: ONE <= v,
    "gt": lambda v: ONE > v,
    "ge": lambda v: ONE >= v,
    "reflected lt": lambda v: v < ONE,
    "DefiningMatrix entry": lambda v: DefiningMatrix([[1, v]]),
    "DefiningMatrix n": lambda v: DefiningMatrix([], n=v),
    "IneqSystem d": lambda v: IneqSystem(v),
    "IneqSystem.add normal": lambda v: IneqSystem(1).add([v], 0),
    "IneqSystem.add rhs": lambda v: IneqSystem(1).add([1], v),
    "in_cone vector": lambda v: in_cone([v], [[1]]),
    "in_cone generator": lambda v: in_cone([1], [[v]]),
    "GammaPolyhedron n": lambda v: GammaPolyhedron(v),
    "GammaPolyhedron normal": lambda v: GammaPolyhedron(1, [((v,), 0)]),
    "GammaPolyhedron rhs": lambda v: GammaPolyhedron(1, [((1,), v)]),
    "GammaPolyhedron.contains": lambda v: GammaPolyhedron(1).contains([v]),
    "ExponentVector gamma": lambda v: ExponentVector(v, (1,)),
    "ExponentVector exponent": lambda v: ExponentVector(0, (v,)),
    "ExponentVector.scale": lambda v: ExponentVector(0, (1,)).scale(v),
    "TropPolynomial n": lambda v: TropPolynomial(v),
    "TropPolynomial exponent": lambda v: TropPolynomial(1, {(v,): 0}),
    "TropPolynomial coefficient": lambda v: TropPolynomial(1, {(1,): v}),
    "KernelSubgroup.member coefficient": lambda v: KernelSubgroup.full(1).member([v]),
    "KernelSubgroup n": lambda v: KernelSubgroup("product", v, ()),
    "KernelSubgroup lattice entry": lambda v: KernelSubgroup("product", 1, ((v,),)),
    "KernelSubgroup ell value": lambda v: KernelSubgroup("graph", 1, ((1,),), (v,)),
    "Flag base": lambda v: Flag("polyhedra", (v,), ()),
    "Flag direction": lambda v: Flag("polyhedra", (0,), ((v,),)),
    "Flag cone generator": lambda v: Flag("cones", (1, 0), ((0, v),)),
    "FarkasCertificate m": lambda v: FarkasCertificate(v, (), Fraction(0)),
    "FarkasCertificate m_l": lambda v: FarkasCertificate(1, (v,), Fraction(0)),
    "FarkasCertificate b": lambda v: FarkasCertificate(1, (), v),
    "simplest_between low": lambda v: simplest_between(v, 2),
    "simplest_between high": lambda v: simplest_between(0, v),
    # parser text is a str, and "1.5" is a ParseError
    "parse_scalar": parse_scalar,
    "parse_poly text": lambda v: parse_poly(v, ["x"]),
    "parse_term text": lambda v: parse_term(v, ["x"]),
}

# where a vector is expected, an int is no vector, and a string is not read
# one character per entry
NOT_A_VECTOR = {
    "DefiningMatrix rows": lambda v: DefiningMatrix(v),
    "DefiningMatrix row": lambda v: DefiningMatrix([v]),
    "IneqSystem rows": lambda v: IneqSystem(2, v),
    "IneqSystem.add normal": lambda v: IneqSystem(2).add(v, 0),
    "GammaPolyhedron rows": lambda v: GammaPolyhedron(2, v),
    "GammaPolyhedron normal": lambda v: GammaPolyhedron(2, [(v, 0)]),
    "GammaPolyhedralSet pieces": lambda v: GammaPolyhedralSet(v),
    "FarkasCertificate m_l": lambda v: FarkasCertificate(1, v, Fraction(0)),
    "GammaPolyhedron.contains": lambda v: GammaPolyhedron(2).contains(v),
    "Flag base": lambda v: Flag("polyhedra", v, ()),
    "Flag directions": lambda v: Flag("polyhedra", (0, 0), v),
    "Flag direction": lambda v: Flag("polyhedra", (0, 0), (v,)),
    "ExponentVector u": lambda v: ExponentVector(0, v),
    "TropPolynomial terms": lambda v: TropPolynomial(2, v),
    "TropPolynomial exponent": lambda v: TropPolynomial(2, {v: 0}),
    "TropPolynomial.term": lambda v: TropPolynomial.term(0, v),
    "KernelSubgroup.member": lambda v: KernelSubgroup.full(2).member(v),
    "KernelSubgroup lattice": lambda v: KernelSubgroup("product", 2, v),
    "KernelSubgroup lattice row": lambda v: KernelSubgroup("product", 2, (v,)),
    "KernelSubgroup ell": lambda v: KernelSubgroup("graph", 1, ((1,),), v),
    "in_cone vector": lambda v: in_cone(v, [(1, 0)]),
    "in_cone generators": lambda v: in_cone((1, 0), v),
    "in_cone generator": lambda v: in_cone((1, 0), [v]),
    "relative_interior_matrix cones": lambda v: relative_interior_matrix(v),
    "relative_interior_matrix generator": lambda v: relative_interior_matrix([[v]]),
    "simplicialize cones": lambda v: simplicialize(v),
    "simplicialize generator": lambda v: simplicialize([[v]]),
    "parse_poly names": lambda v: parse_poly("x", v),
    "parse_term names": lambda v: parse_term("x", v),
}

# readers for which one of BAD is a valid value: None is the default gamma
# of a product-kind member, and True a strict flag
OTHER_BAD = {
    "KernelSubgroup.member gamma": (
        lambda v: KernelSubgroup.full(1).member([1], v),
        (True, 1.5, "1.5"),
    ),
    "IneqSystem.add strict": (
        lambda v: IneqSystem(1).add([1], 0, strict=v),
        (1, 1.5, None, "no"),
    ),
}

# sizes: an int, but a negative one
NEGATIVE = {
    "GammaPolyhedron n": lambda v: GammaPolyhedron(v),
    "IneqSystem d": lambda v: IneqSystem(v),
    "DefiningMatrix n": lambda v: DefiningMatrix([], n=v),
    "TropPolynomial n": lambda v: TropPolynomial(v),
    "KernelSubgroup n": lambda v: KernelSubgroup("product", v, ()),
}

# row lists whose entries are not (normal, bound), (normal, rhs, strict) or
# (exponent, coefficient exponent) rows
NOT_A_ROW = {
    "GammaPolyhedron": (
        lambda row: GammaPolyhedron(2, [row]), (5, ((1, 0),), ((1, 0), 0, 0))
    ),
    "IneqSystem": (lambda row: IneqSystem(2, [row]), (5, ((1, 0), 0), "abc")),
    "TropPolynomial": (lambda row: TropPolynomial(2, [row]), (5, ((1, 0),), "ab")),
}

CASES = [
    pytest.param(read, value, id=f"{name}-{value!r}")
    for name, read in READERS.items()
    for value in BAD
] + [
    pytest.param(read, value, id=f"{name}-{value!r}")
    for name, (read, values) in OTHER_BAD.items()
    for value in values
] + [
    pytest.param(read, -1, id=f"{name}--1")
    for name, read in NEGATIVE.items()
]


@pytest.mark.parametrize("read, value", CASES)
def test_inexact_value_is_refused_with_a_valflag_error(read, value):
    with pytest.raises(ValflagError):
        read(value)


@pytest.mark.parametrize(
    "read, value",
    [
        pytest.param(read, value, id=f"{name}-{value!r}")
        for name, read in NOT_A_VECTOR.items()
        for value in (5, "12")
    ],
)
def test_non_vector_is_refused_with_a_domain_error(read, value):
    with pytest.raises(DomainError):
        read(value)


@pytest.mark.parametrize(
    "read, row",
    [
        pytest.param(read, row, id=f"{name}-{row!r}")
        for name, (read, rows) in NOT_A_ROW.items()
        for row in rows
    ],
)
def test_row_that_is_not_a_tuple_of_fields_is_refused_naming_it(read, row):
    with pytest.raises(DomainError) as info:
        read(row)
    assert repr(row) in str(info.value)


def test_parsers_name_what_they_refuse():
    with pytest.raises(DomainError, match="text to parse must be a str, got b'1'"):
        parse_scalar(b"1")
    with pytest.raises(DomainError, match="variable names must be a sequence, got 'xy'"):
        parse_poly("x*y", "xy")
    assert parse_poly("x*y", ("x", "y")) == parse_poly("x*y", iter(["x", "y"]))


def test_decision_functions_name_the_type_they_expect():
    P = canonicalize([[1, 0]])
    with pytest.raises(DomainError, match="P must be of type Prime, got 5"):
        classify(5)
    with pytest.raises(
        DomainError, match="U must be of type GammaPolyhedralSet or GammaPolyhedron"
    ):
        filter_member(P, 5)
    with pytest.raises(DomainError, match="constraint must be of type ExponentVector"):
        farkas_certify([5], ExponentVector(0, (1,)))
    with pytest.raises(DomainError, match="variable name must be of type str"):
        format_exponent(ExponentVector(0, (1,)), [5])


def test_readers_keep_exact_values():
    assert exact_int(-3, "x") == -3
    assert exact_rational(2, "x") == Fraction(2)
    assert exact_rational(Fraction(1, 3), "x") == Fraction(1, 3)
    assert exact_vector(range(2), "x", lambda e: exact_int(e, "e")) == (0, 1)
    assert exact_vector(iter(["1/2"]), "x") == (Scalar.rational(Fraction(1, 2)),)
    for value in (True, 1.5, None, "1", Fraction(1)):
        with pytest.raises(DomainError):
            exact_int(value, "x")
    # equality is no reader: it answers, also for a bool
    assert Scalar.rational(1) == True and Scalar.sqrt(2) != 1.5  # noqa: E712
    IneqSystem(1).add([1], 0, strict=True)
    H = KernelSubgroup("graph", 1, [[2]], [1])
    assert H.lattice == ((2,),) and H.ell == (Fraction(1),)
    assert FarkasCertificate(1, [2, 0], 0).m_l == (2, 0)


def test_refusals_of_caller_input_are_domain_errors():
    # also ValueErrors, for callers that catch those
    P = canonicalize([[1, 0]])
    ev = ExponentVector(0, (1,))
    for refuse in (
        lambda: Scalar.sqrt(-3),
        lambda: Scalar.sqrt(2).as_rational(),
        lambda: simplest_between(1, 1),
        lambda: TropPolynomial(1).the_term(),
        lambda: TropPolynomial(-1),
        lambda: GammaPolyhedron(-1),
        lambda: IneqSystem(-2),
        lambda: DefiningMatrix([], n=-3),
        lambda: KernelSubgroup("other", 1, ((1,),)),
        lambda: KernelSubgroup("product", 2, ((0, 0),)),
        lambda: KernelSubgroup("product", 2, ((1, 0), (1, 1))),
        lambda: KernelSubgroup("product", 2, ((-1, 0),)),
        lambda: EqualityVerdict("Equal", ExponentVector(0, (1,))),
        lambda: FarkasCertificate(0, (), Fraction(0)),
        lambda: Flag("cones", (), ()),
        lambda: relative_interior_matrix([[]]),
        lambda: TropPolynomial(2, None),
        lambda: GammaPolyhedralSet([[]]),
        lambda: GammaPolyhedralSet([GammaPolyhedron(1), 5]),
        lambda: Scalar(5),
        lambda: Scalar([(2, 1)]),
        lambda: parse_scalar(5),
        lambda: parse_scalar(b"1"),
        lambda: parse_poly("x", 5),
        lambda: parse_poly(5, ["x"]),
        lambda: parse_term(5, ["x"]),
        # typed arguments of the decision functions
        lambda: filter_member(P, 5),
        lambda: filter_member(5, P),
        lambda: farkas_certify([5], ev),
        lambda: halfspace_member(P, 5),
        lambda: compare(P, 5, 5),
        lambda: compare_terms(P, 5, 5),
        lambda: phi(P, 5),
        lambda: classify(5),
        lambda: mindim_witness(5),
        lambda: min_filter_dim(5),
        lambda: final_kernel(5),
        lambda: height(5),
        lambda: is_order(5),
        lambda: flag_from_matrix(5),
        lambda: reconstruct_preorder(5, 5),
    ):
        with pytest.raises(DomainError) as info:
            refuse()
        assert isinstance(info.value, ValueError)
