import ast
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from valflag import cli

SRC = Path(__file__).resolve().parents[1] / "src"

WHALE = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"], ["0", "1", "sqrt(3)"]]}
DOLPHIN = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"], ["0", "0", "1"]]}
SIMPLE = {"vars": ["x", "y"], "rows": [["1", "0", "0"]]}
WEIGHTED = {"vars": ["x", "y"], "rows": [["1", "sqrt(2)", "0"]]}
NONCONT = {"vars": ["x", "y"], "rows": [["0", "0", "1"], ["1", "0", "0"]]}
BLIND = {"vars": ["x", "y"], "rows": [["0", "1", "0"]]}
BOX = {
    "ineqs": [
        {"u": [1, 0], "gamma": "4"},
        {"u": [-1, 0], "gamma": "2"},
        {"u": [0, 1], "gamma": "3"},
        {"u": [0, -1], "gamma": "3"},
    ]
}
# canonical entries over six primes carry up to 32 radicals, within the cap
SIX_PRIMES = {"vars": ["x", "y", "z"], "rows": [
    [0, "sqrt(2) + sqrt(3)", "sqrt(5)", 1],
    [0, "sqrt(7)", "sqrt(11) + sqrt(2)", "sqrt(13)"],
    [1, "sqrt(6)", 1, "sqrt(3)"],
]}


def jfile(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def mfile(tmp_path, name, *rows):
    """A matrix file whose variables are x, y, z, as many as the rows need."""
    names = ["x", "y", "z"][:len(rows[0]) - 1]
    return jfile(tmp_path, name, {"vars": names, "rows": list(rows)})


# Re-checks of printed answers with plain fractions.  They use json, math
# and fractions alone, nothing from valflag or tests/_oracles.py, so a wrong
# answer cannot pass by sharing a fault with the code that printed it.


def certificate_holds(r, target, constraints):
    """m*u = sum m_l*u_l and b = sum m_l*gamma_l - m*gamma >= 0, for the
    (gamma, u) of the target and of the constraints as written."""
    m, m_l, b = r["m"], r["m_l"], Fraction(r["b"])
    ok = (type(m) is int and m >= 1 and len(m_l) == len(constraints)
          and all(type(x) is int and x >= 0 for x in m_l))
    ok = ok and all(
        m * target[1][j] == sum(x * c[1][j] for x, c in zip(m_l, constraints))
        for j in range(len(target[1])))
    b_want = sum(x * c[0] for x, c in zip(m_l, constraints)) - m * target[0]
    return ok and b == b_want >= 0


def ineq_rows(out):
    """The (normal, gamma) rows of a printed polyhedron."""
    return [(tuple(r["u"]), Fraction(r["gamma"]))
            for r in json.loads(out)["ineqs"]]


def holds_at_vertex(rows, vertex, tight_rows):
    """Every row holds at the vertex, and the rows tight there are exactly
    tight_rows: every other row is strict."""
    slack = [(u, g - sum(x * v for x, v in zip(u, vertex))) for u, g in rows]
    tight = sorted(u for u, s in slack if s == 0)
    return all(s >= 0 for _, s in slack) and tight == sorted(tight_rows)


def leads_with_hermite_basis(rows):
    """The first four rows are (1, 1, 1), (0, 2, -1), each with its negation,
    the Hermite basis of the kernel lattice -3a + b + 2c = 0: both normals
    lie in the kernel, the 2x2 minors of the pair have gcd 1 (the basis spans
    every integer point of the kernel), the leads are positive, the entry 1
    above the second pivot 2 is reduced, and each gamma is a/2."""
    want = [((1, 1, 1), Fraction(1, 2)), ((-1, -1, -1), Fraction(-1, 2)),
            ((0, 2, -1), Fraction(0)), ((0, -2, 1), Fraction(0))]
    (a, _), (b, _) = want[0], want[2]
    minors = [a[i] * b[j] - a[j] * b[i]
              for i in range(3) for j in range(i + 1, 3)]
    ok = rows[:4] == want
    ok = ok and all(-3 * u[0] + u[1] + 2 * u[2] == 0 for u in (a, b))
    ok = ok and math.gcd(*minors) == 1
    ok = ok and a[0] > 0 and b[0] == 0 and b[1] > 0 and 0 <= a[1] < b[1]
    return ok and all(g == Fraction(u[0], 2) for u, g in want)


def rational_set_pieces(f0, fs):
    """One piece per term (g0, u0) of f0: the rows t(x) <= t0(x), normal
    u - u0 and gamma g0 - g, over every term (g, u) of F."""
    return [[(tuple(b - a for a, b in zip(u0, u)), g0 - g) for g, u in fs]
            for g0, u0 in f0]


def sqrt2_sign(v):
    """The sign of a + b*sqrt(2), for v = (a, b)."""
    a, b = v
    if a * b >= 0:
        return (a > 0) - (a < 0) or (b > 0) - (b < 0)
    return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)


def lex_signs(M, term):
    """The signs of M's rows read on (gamma, u), entries (a, b) as above."""
    g, u = term
    vals = [tuple(sum(e[k] * x for e, x in zip(row, (g, *u))) for k in (0, 1))
            for row in M]
    return [sqrt2_sign(v) for v in vals]


def top_term(M, terms):
    """The lex-largest of the (gamma, u) terms under M, the first of ties."""
    best = terms[0]
    for t in terms[1:]:
        d = (t[0] - best[0], tuple(a - b for a, b in zip(t[1], best[1])))
        if next((s for s in lex_signs(M, d) if s), 0) > 0:
            best = t
    return best


def preorder_answer(M, fs, f0):
    """cmp F f0 under M from the top terms, and the index of f0's top term."""
    a, b = top_term(M, fs), top_term(M, f0)
    d = (a[0] - b[0], tuple(x - y for x, y in zip(a[1], b[1])))
    s = next((s for s in lex_signs(M, d) if s), 0)
    return "less" if s < 0 else "greater" if s > 0 else "equal", f0.index(b)


def row_values(rows, w):
    """Each row of a matrix read on w = (gamma, u)."""
    return [sum(c * x for c, x in zip(row, w)) for row in rows]


def run_python(*args):
    """This interpreter in a new process, with src first on the path."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


def test_canon_reduces_rows(tmp_path, capsys):
    # second row is the first plus an extra sqrt(3) tail; reduction leaves dolphin
    raw = jfile(tmp_path, "raw.json", {
        "vars": ["x", "y"],
        "rows": [["2", "2*sqrt(2)", "0"], ["1", "sqrt(2)", "sqrt(3)"]],
    })
    assert cli.main(["canon", raw]) == 0
    assert json.loads(capsys.readouterr().out) == DOLPHIN


def test_canon_idempotent_through_files(tmp_path, capsys):
    for name, matrix in [("whale", WHALE), ("six_primes", SIX_PRIMES)]:
        first = jfile(tmp_path, f"{name}.json", matrix)
        assert cli.main(["canon", first]) == 0
        out1 = capsys.readouterr().out
        second = tmp_path / "round.json"
        second.write_text(out1)
        assert cli.main(["canon", str(second)]) == 0
        assert capsys.readouterr().out == out1


def test_eq_equal(tmp_path, capsys):
    a = jfile(tmp_path, "a.json", WHALE)
    b = jfile(tmp_path, "b.json", DOLPHIN)
    assert cli.main(["eq", a, b]) == 0
    assert capsys.readouterr().out == "Equal\n"


def test_eq_distinguished(tmp_path, capsys):
    # both first rows read 1 on the coefficient direction t, so the witness
    # is the first generator t, x, y on which the lex signs differ, else a
    # point of the cone where the rows take opposite signs; x reads 0 on
    # [1,0,0] and sqrt(2) on [1,sqrt(2),0]
    a = jfile(tmp_path, "a.json", SIMPLE)
    b = jfile(tmp_path, "b.json", WEIGHTED)
    plain = mfile(tmp_path, "plain.json", [1, "0", 0])
    sqrt2 = mfile(tmp_path, "sqrt2.json", [1, "sqrt(2)", 0])
    half = mfile(tmp_path, "half.json", [1, "1/2", 0])
    third = mfile(tmp_path, "third.json", [1, "1/3", 0])
    for first, second, want in [
        (a, b, "x"), (plain, sqrt2, "x"), (sqrt2, plain, "x"),
        (half, third, "t^-2*x^5"), (third, half, "t^2*x^-5"),
    ]:
        assert cli.main(["eq", first, second]) == 1
        assert capsys.readouterr().out == f"Distinguished: {want}\n"
    # the cone point: [1,1/2,0] and [1,1/3,0] read 1/2 and -1/3 on (-2, 5, 0)
    rows = [(1, Fraction(1, 2), 0), (1, Fraction(1, 3), 0)]
    assert row_values(rows, (-2, 5, 0)) == [Fraction(1, 2), Fraction(-1, 3)]


def test_eq_witness_and_classification(tmp_path, capsys):
    # A*(gamma, u) reads (0, 1/3) and B*(gamma, u) reads (0, -1/5) on the
    # witness t^-3/2*x^3*y^-8, so the lex signs are +1 and -1; eq b a prints
    # the negated term
    A = [(1, Fraction(1, 2), 0), (0, 1, Fraction(1, 3))]
    B = [(1, Fraction(1, 2), 0), (0, 1, Fraction(2, 5))]
    a = mfile(tmp_path, "eq_a.json", [1, "1/2", 0], [0, 1, "1/3"])
    b = mfile(tmp_path, "eq_b.json", [1, "1/2", 0], [0, 1, "2/5"])
    assert cli.main(["eq", a, b]) == 1
    assert capsys.readouterr().out == "Distinguished: t^-3/2*x^3*y^-8\n"
    assert cli.main(["eq", b, a]) == 1
    assert capsys.readouterr().out == "Distinguished: t^3/2*x^-3*y^8\n"
    assert cli.main(["classify", a]) == 0
    assert capsys.readouterr().out == (
        "cont\nis_order: false\nheight: 1\nmin_filter_dim: 1\n"
    )
    w = (Fraction(-3, 2), 3, -8)
    assert row_values(A, w) == [0, Fraction(1, 3)]
    assert row_values(B, w) == [0, Fraction(-1, 5)]


def test_eq_equal_by_normal_form_and_beyond_row_operations(tmp_path, capsys):
    # a2 is a with row 0 doubled and then added to row 1, so both have one
    # canonical form and eq answers Equal from it.  b is equal to a beyond
    # row operations: on the kernel gamma = -u2/2, u1 = 0 of row 0 the
    # second rows read u2 and 2*u2, so eq walks the kernel stages.
    a = mfile(tmp_path, "same_a.json", [1, "sqrt(2)", "1/2"], [0, 1, 1])
    a2 = mfile(tmp_path, "same_a2.json",
               [2, "2*sqrt(2)", 1], [1, "1 + sqrt(2)", "3/2"])
    b = mfile(tmp_path, "same_b.json", [1, "sqrt(2)", "1/2"], [0, 3, 2])
    want = ('{"vars": ["x", "y"], '
            '"rows": [["1", "sqrt(2)", "1/2"], ["0", "1", "1"]]}\n')
    for m in (a, a2):
        assert cli.main(["canon", m]) == 0
        assert capsys.readouterr().out == want
    assert cli.main(["canon", b]) == 0
    assert capsys.readouterr().out.endswith('["0", "1", "2/3"]]}\n')
    for first, second in [(a, a2), (a2, a), (a, b), (b, a)]:
        assert cli.main(["eq", first, second]) == 0
        assert capsys.readouterr().out == "Equal\n"


def test_eq_dimension_mismatch(tmp_path, capsys):
    a = jfile(tmp_path, "a.json", SIMPLE)
    b = jfile(tmp_path, "b.json", {"vars": ["x"], "rows": [["1", "0"]]})
    assert cli.main(["eq", a, b]) == 3
    assert "error:" in capsys.readouterr().err


def test_classify_cont(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "cont\nis_order: true\nheight: 0\nmin_filter_dim: 2\n"
    )


def test_classify_non_continuous(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "non_continuous\nis_order: false\nheight: 1\nmin_filter_dim: null\n"
    )


def test_classify_coefficient_blind(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", BLIND)
    assert cli.main(["classify", m]) == 0
    assert capsys.readouterr().out == (
        "coefficient_blind\nis_order: false\nheight: 2\nmin_filter_dim: null\n"
    )


def test_flag_polyhedra(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    assert cli.main(["flag", m]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "polyhedra",
        "vertex": ["sqrt(2)", "0"],
        "dirs": [["1", "sqrt(3)"]],
    }


def test_flag_cones(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", BLIND)
    assert cli.main(["flag", m]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "cones",
        "base": ["0", "1", "0"],
        "dirs": [],
    }


def test_flag_kind_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["flag", m, "--kind", "polyhedra"]) == 3
    assert "cont" in capsys.readouterr().err


def test_member_yes(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", BOX)
    assert cli.main(["member", m, u]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "piece_index": 0}


def test_member_no(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"pieces": [{"ineqs": [{"u": [1, 0], "gamma": "-10"}]}]})
    assert cli.main(["member", m, u]) == 1
    assert json.loads(capsys.readouterr().out) == {"member": False, "piece_index": None}


def test_member_reports_witnessing_piece(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {
        "pieces": [{"ineqs": [{"u": [1, 0], "gamma": "-10"}]}, BOX],
    })
    assert cli.main(["member", m, u]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True, "piece_index": 1}


def test_member_of_rational_domain_is_the_polynomial_preorder(tmp_path, capsys):
    # the union is rational_set of f0 = x + t^-1*y and F = t^3*y + x*y, one
    # piece per term of f0, asking it to dominate each term of F.  It is in
    # the filter exactly when cmp F f0 is less or equal, and a member is
    # found at the piece of f0's top term.
    union = {"pieces": [
        {"ineqs": [{"u": [0, 0], "gamma": "-4"}, {"u": [1, 0], "gamma": "-1"}]},
        {"ineqs": [{"u": [-1, 1], "gamma": "-3"}, {"u": [0, 1], "gamma": "0"}]},
    ]}
    u = jfile(tmp_path, "union.json", union)
    m1 = mfile(tmp_path, "dominated.json", [1, "5", "-4"], [0, 0, 1])
    m2 = mfile(tmp_path, "dominating.json", [1, "sqrt(2)", "1/2"], [0, 1, 1])
    assert cli.main(["member", m1, u]) == 0
    assert json.loads(capsys.readouterr().out)["piece_index"] == 1
    assert cli.main(["cmp", m1, "t^3*y + x*y", "x + t^-1*y"]) == 0
    assert capsys.readouterr().out == "less\n"
    assert cli.main(["member", m2, u]) == 1
    capsys.readouterr()
    assert cli.main(["cmp", m2, "t^3*y + x*y", "x + t^-1*y"]) == 0
    assert capsys.readouterr().out == "greater\n"
    # (gamma, u) of the terms; matrix entries (a, b) read a + b*sqrt(2)
    f0 = [(Fraction(-1), (0, 1)), (Fraction(0), (1, 0))]  # t^-1*y, x
    fs = [(Fraction(3), (0, 1)), (Fraction(0), (1, 1))]   # t^3*y, x*y
    pieces = [[(tuple(r["u"]), Fraction(r["gamma"])) for r in p["ineqs"]]
              for p in union["pieces"]]
    assert pieces == rational_set_pieces(f0, fs)
    M1 = [[(1, 0), (5, 0), (-4, 0)], [(0, 0), (0, 0), (1, 0)]]
    M2 = [[(1, 0), (0, 1), (Fraction(1, 2), 0)], [(0, 0), (1, 0), (1, 0)]]
    assert preorder_answer(M1, fs, f0) == ("less", 1)
    assert preorder_answer(M2, fs, f0)[0] == "greater"


def test_cert_product(capsys):
    assert cli.main(["cert", "x*y", "x", "y"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1, 1], "b": "0"}


def test_cert_slack(capsys):
    assert cli.main(["cert", "t^-2*x", "t^-1*x"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "1"}


def test_cert_explicit_vars(capsys):
    assert cli.main(["cert", "--vars", "x,y", "x", "x"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "0"}


def test_cert_inferred_vars(capsys):
    # names come out sorted, so a is the first coordinate
    assert cli.main(["cert", "b", "a*b", "a^-1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1, 1], "b": "0"}
    # sqrt belongs to the scalar grammar, not to the term grammar, and a
    # name is any identifier, as in --vars
    for name in ["sqrt", "α"]:
        assert cli.main(["cert", name, name]) == 0
        assert json.loads(capsys.readouterr().out) == {"m": 1, "m_l": [1], "b": "0"}


def test_cert_seven_terms_holds_its_identity(capsys):
    # any certificate passes that satisfies the identity, re-checked on the
    # (gamma, u) of the terms as written
    start = time.perf_counter()
    assert cli.main([
        "cert", "--vars", "x,y,z", "t^-14*x^5*y^4*z^-2", "t^-7*x^-2*y^-1*z",
        "t^2*x^2*y*z^-3", "t^-11*x^-3*y^3", "t^3*x*y^-2*z^-2",
        "t^-5*x*y^3*z", "t^-6*y^2*z^3",
    ]) == 0
    assert time.perf_counter() - start < 20
    r = json.loads(capsys.readouterr().out)
    target = (-14, (5, 4, -2))
    constraints = [(-7, (-2, -1, 1)), (2, (2, 1, -3)), (-11, (-3, 3, 0)),
                   (3, (1, -2, -2)), (-5, (1, 3, 1)), (-6, (0, 2, 3))]
    assert certificate_holds(r, target, constraints), r


def test_cert_counterexample(capsys):
    assert cli.main(["cert", "y", "x"]) == 1
    assert json.loads(capsys.readouterr().out) == {"point": ["0", "1"]}


def test_cert_homog_rejected(capsys):
    assert cli.main(["cert", "--homog", "x", "x"]) == 3
    assert "R~" in capsys.readouterr().err


def test_cert_empty_meet(capsys):
    assert cli.main(["cert", "x", "t^1*x", "t^1*x^-1"]) == 3
    assert "empty" in capsys.readouterr().err


def test_cmp_prints_order(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", SIMPLE)
    assert cli.main(["cmp", m, "t^1*x", "t^2"]) == 0
    assert capsys.readouterr().out == "less\n"


def test_cmp_bad_polynomial(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", SIMPLE)
    assert cli.main(["cmp", m, "x +", "t^2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cert_refuses_a_sum_of_terms(capsys):
    # x + t^1*x merges into the single term t^1*x, but it is written as two
    assert cli.main(["cert", "x + t^1*x", "x"]) == 2
    assert "single term" in capsys.readouterr().err


def test_ambiguous_variable_names_exit_two(tmp_path, capsys):
    # a repeated name would bind every x to one index, and a variable t
    # would be printed as t^-1*t, which reads back as a coefficient
    repeated = jfile(tmp_path, "repeated.json",
                     {"vars": ["x", "x"], "rows": [["1", "0", "0"]]})
    reserved = jfile(tmp_path, "reserved.json",
                     {"vars": ["t", "y"], "rows": [["1", "sqrt(2)", "0"]]})
    # JSON null is not the name "None"
    null = jfile(tmp_path, "null.json", {"vars": [None], "rows": [["1", "0"]]})
    simple = jfile(tmp_path, "simple.json", SIMPLE)
    calls = [
        ["cmp", repeated, "x", "t^1"],
        ["canon", reserved],
        ["eq", simple, reserved],
        ["canon", null],
        ["cert", "--vars", "x,x", "x", "x"],
        ["cert", "--vars", "t,x", "x", "x"],
    ]
    for argv in calls:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "variable name" in captured.err


def test_mindim_polyhedron(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WEIGHTED)
    assert cli.main(["mindim", m]) == 0
    data = json.loads(capsys.readouterr().out)
    # the line y = 0 pinched out of a box around the vertex (sqrt(2), 0)
    assert data["ineqs"][:2] == [
        {"u": [0, 1], "gamma": "0"},
        {"u": [0, -1], "gamma": "0"},
    ]
    assert len(data["ineqs"]) == 6


def test_mindim_witness_holds_at_the_flag_vertex(tmp_path, capsys):
    # the flag has vertex (1/2, -7/3, 2) and direction (1, sqrt(2), 0), so
    # the kernel is the hyperplane z = 2: the rows tight at the vertex must
    # be exactly z <= 2 and -z <= -2 (dimension 2)
    m = mfile(tmp_path, "vertex.json",
              [1, "1/2", "-7/3", "2"], [0, "1", "sqrt(2)", "0"])
    assert cli.main(["mindim", m]) == 0
    rows = ineq_rows(capsys.readouterr().out)
    vertex = (Fraction(1, 2), Fraction(-7, 3), Fraction(2))
    assert holds_at_vertex(rows, vertex, [(0, 0, -1), (0, 0, 1)]), rows


def test_mindim_witness_leads_with_hermite_basis(tmp_path, capsys):
    # the row's sqrt(2) part is (-3, 1, 2), so the kernel lattice is
    # -3a + b + 2c = 0, and its Hermite basis leads the witness
    m = mfile(tmp_path, "hermite.json",
              [1, "1/2 - 3*sqrt(2)", "sqrt(2)", "2*sqrt(2)"])
    assert cli.main(["mindim", m]) == 0
    rows = ineq_rows(capsys.readouterr().out)
    assert leads_with_hermite_basis(rows), rows[:4]


def test_mindim_rejects_non_cont(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", NONCONT)
    assert cli.main(["mindim", m]) == 3
    assert "cont" in capsys.readouterr().err


def test_plot_pairs_exact_with_approx(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WEIGHTED)
    assert cli.main(["plot", m]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex"][0] == {"exact": "sqrt(2)", "approx": "1.41421356237"}
    assert data["vertex"][1] == {"exact": "0", "approx": "0"}
    assert data["dirs"] == []
    assert [p["exact"] for p in data["box"]] == ["-2", "4", "-3", "3"]


def test_plot_rejects_other_dimensions(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", {
        "vars": ["x", "y", "z"],
        "rows": [["1", "sqrt(2)", "sqrt(3)", "0"]],
    })
    assert cli.main(["plot", m]) == 2
    assert "n = 2" in capsys.readouterr().err


def test_missing_file(capsys):
    assert cli.main(["canon", "/nonexistent/matrix.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"vars": ["x"], "rows": [[')
    assert cli.main(["canon", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"vars": ["\xff"], "rows": []}')
    assert cli.main(["canon", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and "UTF-8" in err


def test_bad_scalar_string(tmp_path, capsys):
    # '²' is a digit to str.isdigit but not to int(); 1.5 is a JSON number
    for entry in ["bogus", "²", 1.5]:
        m = jfile(tmp_path, "m.json", {"vars": ["x"], "rows": [["1", entry]]})
        assert cli.main(["canon", m]) == 2
        assert f"error: {m}: row 1, entry 2: " in capsys.readouterr().err


def test_bad_gamma_names_file_piece_and_inequality(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    bad = {"u": [1, 0], "gamma": 1.5}
    for polyset, where in [
        ({"ineqs": [bad]}, "inequality 1"),
        ({"pieces": [BOX, {"ineqs": [BOX["ineqs"][0], bad]}]}, "piece 2: inequality 2"),
    ]:
        u = jfile(tmp_path, "u.json", polyset)
        assert cli.main(["member", m, u]) == 2
        assert f"error: {u}: {where}, gamma: " in capsys.readouterr().err


def test_row_length_mismatch(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", {"vars": ["x", "y"], "rows": [["1", "0"]]})
    assert cli.main(["canon", m]) == 2
    assert "3 entries" in capsys.readouterr().err


def test_irrational_rhs_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"ineqs": [{"u": [1, 0], "gamma": "sqrt(2)"}]})
    assert cli.main(["member", m, u]) == 2
    assert "rational" in capsys.readouterr().err


def test_non_integer_normal_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    for normal in ([1.5, 0], [True, 0], ["a", 0]):
        u = jfile(tmp_path, "u.json", {"ineqs": [{"u": normal, "gamma": "1"}]})
        assert cli.main(["member", m, u]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert u in err and "integers" in err


def test_json_of_the_wrong_shape_exits_two(tmp_path, capsys):
    c = jfile(tmp_path, "c.json", {"rows": []})
    assert cli.main(["canon", c]) == 2
    assert capsys.readouterr().err == (
        f'error: {c}: expected {{"vars": [...], "rows": [...]}}\n'
    )
    m = jfile(tmp_path, "m.json", WHALE)
    for polyset, want in [
        ({"pieces": [{"x": 1}]}, 'expected {"ineqs": [...]}'),
        ({"ineqs": [{"u": [1]}]}, 'inequality 1 needs "u" and "gamma"'),
    ]:
        u = jfile(tmp_path, "u.json", polyset)
        assert cli.main(["member", m, u]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {u}: {want}\n"


def test_empty_pieces_rejected(tmp_path, capsys):
    m = jfile(tmp_path, "m.json", WHALE)
    u = jfile(tmp_path, "u.json", {"pieces": []})
    assert cli.main(["member", m, u]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_unknown_verb(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_arguments(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "canon" in capsys.readouterr().out


def test_entry_point_runs_as_a_process(tmp_path):
    # __main__.py and the exit codes across the process boundary: 0 for an
    # answer, 1 for a negative one, 2 for bad input, 3 for a refused question
    whale = mfile(tmp_path, "two_vars.json", [1, "sqrt(2)", 0], [0, 1, "sqrt(3)"])
    noncont = jfile(tmp_path, "noncont.json", NONCONT)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"vars": ["\xff"], "rows": []}')
    assert run_python("-m", "valflag", "--help").returncode == 0
    done = run_python("-m", "valflag", "cmp", whale, "x*y + t^1", "t^2*y")
    assert (done.returncode, done.stdout) == (0, "less\n")
    done = run_python("-m", "valflag", "cert", "x*y", "x", "y")
    assert done.returncode == 0 and "m" in json.loads(done.stdout)
    assert run_python("-m", "valflag", "cert", "t^5*x", "x").returncode == 1
    # a cert argument is one written term, so a sum is refused even though
    # x + t^1*x merges into the one term t^1*x
    assert run_python("-m", "valflag", "cert", "x + t^1*x", "x").returncode == 2
    assert run_python("-m", "valflag", "canon", str(latin1)).returncode == 2
    assert run_python("-m", "valflag", "mindim", noncont).returncode == 3


def test_parser_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # Options set by one call must not leak into the next: --homog and
    # --kind return to their defaults, and a usage error leaves the parser
    # usable.
    noncont = jfile(tmp_path, "m.json", NONCONT)
    calls = [
        ["flag", "--kind", "bogus", noncont],
        ["cert", "--homog", "x", "x"],
        ["cert", "x", "x"],
        ["flag", "--kind", "polyhedra", noncont],
        ["flag", noncont],
    ]
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    first = [run(argv) for argv in calls]
    assert [code for code, _ in first] == [2, 3, 0, 3, 0]
    assert json.loads(first[2][1]) == {"m": 1, "m_l": [1], "b": "0"}
    assert json.loads(first[4][1])["kind"] == "cones"
    assert [run(argv) for argv in calls] == first
    assert len(builds) == 1


# Each patch breaks one piece of evidence; the check behind it must still
# raise when python -O has stripped every assert statement.
OPTIMIZED_EVIDENCE_SCRIPT = """
import sys
from valflag import (
    ExponentVector, Scalar, canonicalize, decide_equal, farkas_certify,
    filters, mindim_witness, parse_term, prime,
)

if __debug__:
    sys.exit("run with python -O")


def outcome(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return "returned"


# a point that satisfies the target x, so no counterexample
filters._back_substitute = lambda levels: (Scalar.rational(-100),)
print(outcome(lambda: farkas_certify(
    [parse_term("t^-5*x^-1", ["x"])], parse_term("x", ["x"]))))
# a box 10 away from the vertex
box = filters._vertex_box
filters._vertex_box = lambda flag: [(lo + 10, hi + 10) for lo, hi in box(flag)]
print(outcome(lambda: mindim_witness(canonicalize([[1, "sqrt(2)", 0]]))))
# the zero term, on which every lex sign is 0
prime._separating_member = lambda A, B, H, a, b: ExponentVector(0, (0, 0))
print(outcome(lambda: decide_equal(
    canonicalize([[1, 0, 0]]), canonicalize([[1, "sqrt(2)", 0]]))))
"""


def test_evidence_checks_hold_under_python_O():
    done = run_python("-O", "-c", OPTIMIZED_EVIDENCE_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["AssertionError"] * 3


def test_no_assert_statement_in_src():
    # python -O strips assert statements, and with them the re-check of
    # the evidence behind an answer
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "valflag").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
