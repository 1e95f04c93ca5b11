"""The four workloads: seeded inputs, the timed call of each operation, and
the independent check of its answer.

Each ``build_*`` function takes the freshly imported ``valflag`` package,
two random generators and a working directory, and returns the fixed list of
operations that one pass runs.  ``shape`` is the same under every seed and
draws the base instances: dimensions, row counts, which entries are
irrational, normals.  ``rng`` is seeded and moves each instance by a
symmetry of the problem (a signed permutation of the coordinates and an
integer translation) and draws the values that do not change how much work
an operation takes.  So every seed gives other inputs but the same work,
and a run's numbers do not depend on which seed drew a hard instance.

Operations look their valflag function up on the package or module at
call time, so the traced run sees them through its wrappers.  Numbers are
built as 4-tuples (see ``oracle``) and handed to valflag as Scalars; every
check reads the inputs from the tuples.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle as ex
from oracle import require

NAMES = ("x", "y", "z")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# -- random numbers and matrices ---------------------------------------------


def rand_q(rng: random.Random, bound: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def rand_nonzero_q(rng: random.Random, bound: int = 4, den: int = 3) -> Fraction:
    q = Fraction(0)
    while not q:
        q = rand_q(rng, bound, den)
    return q


def rand_number(rng: random.Random, p_irrational: float = 0.5) -> tuple:
    """a, a + b√2 or a + c√3 with small rationals."""
    x = ex.num(rand_q(rng))
    if rng.random() < p_irrational:
        part = rng.choice((1, 2))
        x = list(x)
        x[part] = rand_nonzero_q(rng)
        x = tuple(x)
    return x


def rand_u(rng: random.Random, n: int, bound: int = 3) -> tuple:
    u = (0,) * n
    while not any(u):
        u = tuple(rng.randint(-bound, bound) for _ in range(n))
    return u


def cont_rows(rng: random.Random, n: int, k: int, p_irrational=0.6) -> list:
    """A cont matrix: row 0 is (1, vertex), then k direction rows."""
    rows = [[ex.num(1)] + [rand_number(rng, p_irrational) for _ in range(n)]]
    for _ in range(k):
        rows.append([ex.num(0)] + [rand_number(rng, 0.5) for _ in range(n)])
    return rows


def row_ops(rng: random.Random, rows: list) -> list:
    """Random positive row scalings and downward row additions."""
    rows = [list(r) for r in rows]
    for _ in range(4):
        i = rng.randrange(len(rows))
        f = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        rows[i] = [ex.scale(x, f) for x in rows[i]]
        if len(rows) > 1:
            src = rng.randrange(len(rows) - 1)
            dst = rng.randrange(src + 1, len(rows))
            f = rand_q(rng, 2, 2)
            rows[dst] = [ex.add(x, ex.scale(y, f)) for x, y in zip(rows[dst], rows[src])]
    return rows


class Symmetry:
    """x -> S·x + t for a signed permutation S and an integer translation t.

    A term (γ, u) goes to (γ - <t, Su>, Su), a matrix row (c, ξ) to
    (c, Sξ + c·t) and a half-space <x, u> <= γ to <x, Su> <= γ + <t, Su>.
    Every term keeps its lex value, so answers stay as built and the work
    of deciding them stays the same.
    """

    def __init__(self, rng: random.Random, n: int, signs_only: bool = False):
        self.perm = list(range(n)) if signs_only else rng.sample(range(n), n)
        self.signs = [rng.choice((1, -1)) for _ in range(n)]
        self.t = [0 if signs_only else rng.randint(-3, 3) for _ in range(n)]

    def ints(self, u) -> tuple:
        return tuple(s * u[p] for s, p in zip(self.signs, self.perm))

    def row(self, row) -> list:
        c, xi = row[0], row[1:]
        return [c] + [ex.add(ex.scale(xi[p], s), ex.scale(c, t))
                      for s, p, t in zip(self.signs, self.perm, self.t)]

    def rows(self, rows) -> list:
        return [self.row(r) for r in rows]

    def term(self, gamma, u):
        u = self.ints(u)
        return gamma - sum(t * e for t, e in zip(self.t, u)), u

    def halfspaces(self, rows) -> list:
        out = []
        for u, gamma in rows:
            u = self.ints(u)
            out.append((u, gamma + sum(t * e for t, e in zip(self.t, u))))
        return out


def to_matrix(vf, rows: list):
    n = len(rows[0]) - 1
    return vf.DefiningMatrix([[vf.Scalar(ex.terms(x)) for x in r] for r in rows], n=n)


def dot_u(vertex: list, u) -> tuple:
    acc = ex.ZERO
    for x, e in zip(vertex, u):
        acc = ex.add(acc, ex.scale(x, e))
    return acc


# -- polyhedra around a vertex -----------------------------------------------


def box_rows(rng: random.Random, vertex: list, grow: int = 0) -> list:
    """A box with the vertex strictly inside: (u, gamma) rows."""
    rows = []
    for j, v in enumerate(vertex):
        f = ex.floor(v)
        e = tuple(1 if i == j else 0 for i in range(len(vertex)))
        lo = f - Fraction(rng.randint(1, 4), 2) - grow
        hi = f + 1 + Fraction(rng.randint(0, 4), 2) + grow
        rows.append((e, hi))
        rows.append((tuple(-x for x in e), -lo))
    return rows


def cover_rows(rng: random.Random, box: list, count: int) -> list:
    """Half-spaces with slanted normals that contain the whole box."""
    n = len(box) // 2
    hi = [box[2 * j][1] for j in range(n)]
    lo = [-box[2 * j + 1][1] for j in range(n)]
    rows = []
    for _ in range(count):
        u = rand_u(rng, n, 2)
        reach = sum(max(e * lo[j], e * hi[j]) for j, e in enumerate(u))
        rows.append((u, reach + Fraction(rng.randint(0, 3), 2)))
    return rows


def miss_rows(rng: random.Random, vertex: list) -> list:
    """One half-space {<x, u> <= gamma} that leaves the vertex out."""
    u = rand_u(rng, len(vertex), 2)
    gamma = ex.floor(dot_u(vertex, u)) - Fraction(rng.randint(1, 4), 2)
    return [(u, gamma)]


# -- filter ------------------------------------------------------------------


def build_filter(vf, shape: random.Random, rng: random.Random, workdir: Path) -> list:
    ops = []
    for n, count in ((1, 3), (2, 6), (3, 6)):
        for _ in range(count):
            rows = cont_rows(shape, n, shape.randint(1, n))
            vertex = rows[0][1:]
            box = box_rows(shape, vertex)
            sets = [
                ("box", [box], 0),
                ("meet", [box + box_rows(shape, vertex)], 0),
                ("enlarge", [box_rows(shape, vertex, grow=2) + cover_rows(shape, box, n)], 0),
                ("miss", [miss_rows(shape, vertex)], None),
                ("union", [miss_rows(shape, vertex), box_rows(shape, vertex)], 1),
            ]
            terms = [_halfspace_term(shape, vertex) for _ in range(3)]
            sym = Symmetry(rng, n)
            rows = sym.rows(rows)
            P = vf.canonicalize(to_matrix(vf, rows))
            for label, pieces, want in sets:
                U = vf.GammaPolyhedralSet(
                    [vf.GammaPolyhedron(n, sym.halfspaces(p)) for p in pieces])
                ops.append(Op(f"filter_member.{label}",
                              lambda P=P, U=U: vf.filter_member(P, U),
                              _member_check(want)))
            for term in terms:
                gamma, u = sym.term(*term)
                a = vf.ExponentVector(gamma, u)
                ops.append(Op("halfspace_member",
                              lambda P=P, a=a: vf.halfspace_member(P, a),
                              _halfspace_check(rows, gamma, u)))
    return ops


def _halfspace_term(rng: random.Random, vertex: list):
    """A random term, or one whose half-space passes through the vertex
    so that the direction rows decide it."""
    n = len(vertex)
    rational = [j for j, v in enumerate(vertex) if ex.is_rational(v)]
    if rational and rng.random() < 0.5:
        u = [0] * n
        while not any(u):
            u = [rng.randint(-2, 2) if j in rational else 0 for j in range(n)]
        return -dot_u(vertex, u)[0], tuple(u)
    return rand_q(rng, 6, 3), rand_u(rng, n)


def _member_check(want):
    def check(answer):
        require(answer.member == (want is not None), f"member should be {want is not None}")
        require(answer.piece_index == want, f"piece_index {answer.piece_index}, built {want}")
    return check


def _halfspace_check(rows, gamma, u):
    want = ex.lex_sign(rows, gamma, u) <= 0

    def check(answer):
        require(answer is want, f"halfspace_member {answer}, lex sign says {want}")
    return check


# -- equality ----------------------------------------------------------------


def build_equality(vf, shape: random.Random, rng: random.Random, workdir: Path) -> list:
    pairs = []
    for n, count in ((1, 3), (2, 6), (3, 6)):
        for _ in range(count):
            rows = cont_rows(shape, n, shape.randint(0, n))
            pairs.append(("row_ops", rows, row_ops(shape, rows), True))
    for n in (2, 2, 2, 3, 3, 3, 3, 3, 3):
        a, b = _beyond_row_ops_pair(shape, n)
        pairs.append(("beyond_row_ops", a, b, True))
    for n in (1, 1, 2, 2, 2, 3, 3, 3, 3):
        a = cont_rows(shape, n, shape.randint(0, n))
        b = cont_rows(shape, n, shape.randint(0, n))
        b[0][1] = ex.add(a[0][1], ex.num(rand_nonzero_q(shape)))
        b[0][2:] = a[0][2:]
        pairs.append(("distinct_vertex", a, b, False))
    for n in (2, 2, 2, 3, 3, 3):
        a, b = _wide_cone_pair(shape, n)
        pairs.append(("distinct_blind", a, b, False))
    pairs = [(kind, *_moved(rng, a, b), equal) for kind, a, b, equal in pairs]
    # [[0, 1, √2]] against [[0, 1, √2 + ε]], ε = 1/q with q drawn from each
    # run of equal search depth: the witness is (-3, 2) for q <= 11,
    # (-10, 7) for q <= 69 and (-17, 12) for q <= 408.
    for lo, hi in ((10, 11), (12, 69), (70, 200)):
        eps = Fraction(1, rng.randint(lo, hi))
        a = [[ex.num(0), ex.num(1), ex.num(0, 1)]]
        b = [[ex.num(0), ex.num(1), ex.num(eps, 1)]]
        if rng.random() < 0.5:
            a, b = b, a
        pairs.append(("thin_cone", a, b, False))
    ops = []
    for kind, a, b, equal in pairs:
        A, B = to_matrix(vf, a), to_matrix(vf, b)
        ops.append(Op(f"decide_equal.{kind}",
                      lambda A=A, B=B: vf.decide_equal(vf.canonicalize(A), vf.canonicalize(B)),
                      _verdict_check(a, b, equal)))
    return ops


def _moved(rng: random.Random, a, b):
    sym = Symmetry(rng, len(a[0]) - 1)
    return sym.rows(a), sym.rows(b)


def _beyond_row_ops_pair(rng: random.Random, n: int):
    """Equal primes that no row-operation chain links (criterion 1).

    Row 0 is (1, α_1, .., α_{n-1}, β) with α_j carrying independent
    irrational parts and β rational, so its kernel is
    {(-β·m, 0, .., 0, m)}.  A second row only matters through its last
    entry there; the other entries are free, and the last entry may be
    scaled by any s > 0.
    """
    radical = [1, 2]
    row0 = [ex.num(1)]
    for j in range(n - 1):
        x = list(ex.num(rand_q(rng)))
        x[radical[j]] = rand_nonzero_q(rng)
        row0.append(tuple(x))
    row0.append(ex.num(rand_q(rng)))
    y = rand_number(rng, 0.5)
    while not any(y):
        y = rand_number(rng, 0.5)
    s = Fraction(rng.randint(1, 5), rng.randint(1, 5))

    def second(last):
        return [ex.num(0)] + [rand_number(rng, 0.5) for _ in range(n - 1)] + [last]

    a = [row0, second(y)]
    b = [list(row0), second(ex.scale(y, s))]
    if rng.random() < 0.5:
        a.append([ex.num(0)] + [rand_number(rng, 0.5) for _ in range(n)])
    return a, b


def _wide_cone_pair(rng: random.Random, n: int):
    """Coefficient-blind primes whose first covectors are at least 30° from
    positively proportional, so the disagreement cone is wide."""
    while True:
        xa = [rand_number(rng, 0.7) for _ in range(n)]
        xb = [rand_number(rng, 0.7) for _ in range(n)]
        fa, fb = [ex.approx(x) for x in xa], [ex.approx(x) for x in xb]
        na = sum(x * x for x in fa) ** 0.5
        nb = sum(x * x for x in fb) ** 0.5
        if na and nb and sum(x * y for x, y in zip(fa, fb)) < 0.85 * na * nb:
            break
    a = [[ex.num(0)] + xa, [ex.num(1)] + [rand_number(rng) for _ in range(n)]]
    b = [[ex.num(0)] + xb, [ex.num(1)] + [rand_number(rng) for _ in range(n)]]
    return a, b


def _verdict_check(a, b, equal):
    def check(verdict):
        if equal:
            require(verdict.outcome == "Equal", f"built equal, got {verdict.outcome}")
            return
        require(verdict.outcome == "Distinguished", f"built distinct, got {verdict.outcome}")
        w = verdict.witness
        sa = ex.lex_sign(a, w.gamma, w.u)
        sb = ex.lex_sign(b, w.gamma, w.u)
        require(sa != sb, f"witness {w} has lex sign {sa} under both")
    return check


# -- certify -----------------------------------------------------------------


def farkas_instance(rng: random.Random, n: int, m: int, contained: bool):
    """Constraints strictly satisfied at a known interior point x0 and a
    target that is contained (a nonnegative integer combination of the
    constraints, loosened) or violated at x0.  Terms are (gamma, u)."""
    x0 = [rand_q(rng, 3, 2) for _ in range(n)]

    def at_x0(u):
        return sum((x * e for x, e in zip(x0, u)), Fraction(0))

    constraints = []
    for _ in range(m):
        u = rand_u(rng, n, 2)
        constraints.append((-at_x0(u) - Fraction(rng.randint(1, 4), 2), u))
    if contained:
        u = (0,) * n
        while not any(u):
            lam = [rng.randint(0, 2) for _ in range(m)]
            u = tuple(sum(l * c[1][j] for l, c in zip(lam, constraints)) for j in range(n))
        gamma = sum((l * c[0] for l, c in zip(lam, constraints)), Fraction(0))
        target = (gamma - Fraction(rng.randint(0, 3), 2), u)
    else:
        u = rand_u(rng, n, 2)
        target = (-at_x0(u) + Fraction(rng.randint(1, 4), 2), u)
    return constraints, target


def build_certify(vf, shape: random.Random, rng: random.Random, workdir: Path) -> list:
    ops = []
    for n, m, contained, count in (
        (2, 2, True, 3), (2, 3, True, 3), (2, 4, True, 2), (2, 5, True, 2),
        (3, 2, True, 2), (3, 3, True, 2), (3, 4, True, 3), (3, 5, True, 3),
        (2, 3, False, 3), (2, 5, False, 3), (3, 3, False, 3), (3, 5, False, 3),
    ):
        for _ in range(count):
            constraints, target = farkas_instance(shape, n, m, contained)
            # Sign flips only: FM eliminates the coordinates in order, so a
            # permutation changes its work, and a translation changes the
            # signs of the γ_l, which steer the multiplier system.
            sym = Symmetry(rng, n, signs_only=True)
            constraints = [sym.term(*c) for c in constraints]
            target = sym.term(*target)
            cs = [vf.ExponentVector(g, u) for g, u in constraints]
            t = vf.ExponentVector(*target)
            ops.append(Op(f"farkas_certify.n{n}m{m}.{'contained' if contained else 'violated'}",
                          lambda cs=cs, t=t: vf.farkas_certify(cs, t),
                          _farkas_check(vf, constraints, target, contained)))
    for n, count in ((1, 2), (2, 4), (3, 4)):
        for _ in range(count):
            rows = Symmetry(rng, n).rows(cont_rows(shape, n, shape.randint(0, n), p_irrational=0.4))
            P = vf.canonicalize(to_matrix(vf, rows))
            ops.append(Op("mindim_witness",
                          lambda P=P: vf.mindim_witness(P),
                          _mindim_check(vf, P, ex.stacked_rank(rows) - 1)))
    return ops


def _farkas_check(vf, constraints, target, contained):
    def check(result):
        if contained:
            require(isinstance(result, vf.FarkasCertificate), "built contained, got a point")
            require(ex.certificate_holds(constraints, target, result.m, result.m_l, result.b),
                    f"certificate {result} fails the integer re-check")
            return
        require(isinstance(result, vf.CounterexamplePoint), "built violated, got a certificate")
        point = [ex.from_scalar(x) for x in result.point]
        require(ex.counterexample_holds(constraints, target, point),
                f"point {result.point} fails the exact re-check")
    return check


def _mindim_check(vf, P, want):
    def check(witness):
        require(vf.min_filter_dim(P) == want, f"min_filter_dim {vf.min_filter_dim(P)}, rank says {want}")
        require(witness.dim() == want, f"witness dim {witness.dim()}, rank says {want}")
    return check


# -- cli ---------------------------------------------------------------------


def _cli_call(vf, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = vf.cli.main(argv)
    return rc, out.getvalue()


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _matrix_file(path: Path, rows) -> str:
    n = len(rows[0]) - 1
    return _write(path, {"vars": list(NAMES[:n]), "rows": [[ex.fmt(x) for x in r] for r in rows]})


def _poly_file(path: Path, pieces) -> str:
    return _write(path, {"pieces": [
        {"ineqs": [{"u": list(u), "gamma": str(g)} for u, g in p]} for p in pieces]})


def _term_text(gamma, u) -> str:
    parts = [f"t^{gamma}"] + [f"{NAMES[j]}^{e}" for j, e in enumerate(u) if e]
    return "*".join(parts)


def build_cli(vf, shape: random.Random, rng: random.Random, workdir: Path) -> list:
    ops = []

    def add(kind, argv, check):
        ops.append(Op(f"cli.{kind}", lambda argv=argv: _cli_call(vf, argv), check))

    for i in range(6):
        n = 2 + i % 2
        names = list(NAMES[:n])
        base = cont_rows(shape, n, shape.randint(0, n))
        other = cont_rows(shape, n, shape.randint(0, n))
        other[0][1] = ex.add(base[0][1], ex.num(rand_nonzero_q(shape)))
        vertex = base[0][1:]
        box = [box_rows(shape, vertex)]
        miss = [miss_rows(shape, vertex), miss_rows(shape, vertex)]
        certs = [(farkas_instance(shape, n, 3, c), c) for c in (True, False)]
        f = [(rand_q(shape, 6, 3), rand_u(shape, n)) for _ in range(2)]
        g = (rand_q(shape, 6, 3), rand_u(shape, n))
        sym = Symmetry(rng, n)
        rows = sym.rows(base)
        m = _matrix_file(workdir / f"m{i}.json", rows)
        raw = _matrix_file(workdir / f"r{i}.json", sym.rows(row_ops(shape, base)))
        add("canon", ["canon", raw], _canon_check(rng, rows))
        add("eq", ["eq", m, raw], _cli_eq_check(rows, rows, names, True))
        other = sym.rows(other)
        o = _matrix_file(workdir / f"o{i}.json", other)
        add("eq", ["eq", m, o], _cli_eq_check(rows, other, names, False))
        add("classify", ["classify", raw], _classify_check(rows))
        box = _poly_file(workdir / f"box{i}.json", [sym.halfspaces(p) for p in box])
        add("member", ["member", m, box], _cli_member_check(0))
        miss = _poly_file(workdir / f"miss{i}.json", [sym.halfspaces(p) for p in miss])
        add("member", ["member", m, miss], _cli_member_check(None))
        flip = Symmetry(rng, n, signs_only=True)
        for (constraints, target), contained in certs:
            constraints = [flip.term(*c) for c in constraints]
            target = flip.term(*target)
            argv = ["cert", "--vars", ",".join(names), _term_text(*target)]
            argv += [_term_text(*c) for c in constraints]
            add("cert", argv, _cli_cert_check(constraints, target, contained))
        f = [sym.term(*t) for t in f]
        g = sym.term(*g)
        add("cmp", ["cmp", m, " + ".join(_term_text(*t) for t in f), _term_text(*g)],
            _cli_cmp_check(rows, f, [g]))
        add("mindim", ["mindim", m], _cli_mindim_check(rows))
    return ops


def _canon_check(rng: random.Random, rows):
    probes = [(rand_q(rng, 6, 3), rand_u(rng, len(rows[0]) - 1)) for _ in range(8)]

    def check(result):
        rc, out = result
        require(rc == 0, f"canon exit {rc}")
        canon = [[ex.parse(x) for x in r] for r in json.loads(out)["rows"]]
        require(sum(1 for r in canon if ex.sign(r[0])) == 1, "canonical: one nonzero coefficient entry")
        require(all(ex.sign(r[0]) >= 0 for r in canon), "canonical: coefficient entries >= 0")
        for gamma, u in probes:
            require(ex.lex_sign(canon, gamma, u) == ex.lex_sign(rows, gamma, u),
                    f"canonical form orders ({gamma}, {u}) differently")
    return check


def _cli_eq_check(a, b, names, equal):
    def check(result):
        rc, out = result
        if equal:
            require((rc, out.strip()) == (0, "Equal"), f"eq printed {out.strip()!r}, exit {rc}")
            return
        require(rc == 1 and out.startswith("Distinguished: "), f"eq printed {out.strip()!r}")
        gamma, u = ex.parse_term(out.split(": ", 1)[1], names)
        require(ex.lex_sign(a, gamma, u) != ex.lex_sign(b, gamma, u), f"witness {out.strip()} does not separate")
    return check


def _classify_check(rows):
    n = len(rows[0]) - 1
    rank = ex.stacked_rank(rows)
    height = n + 1 - rank
    want = ["cont", f"is_order: {'true' if height == 0 else 'false'}",
            f"height: {height}", f"min_filter_dim: {rank - 1}"]

    def check(result):
        rc, out = result
        require(rc == 0 and out.split("\n")[:4] == want, f"classify printed {out!r}, want {want}")
    return check


def _cli_member_check(want):
    def check(result):
        rc, out = result
        got = json.loads(out)
        require(got == {"member": want is not None, "piece_index": want}, f"member printed {out.strip()}")
        require(rc == (0 if want is not None else 1), f"member exit {rc}")
    return check


def _cli_cert_check(constraints, target, contained):
    def check(result):
        rc, out = result
        got = json.loads(out)
        if contained:
            require(rc == 0 and "m" in got, f"cert printed {out.strip()}")
            b = ex.parse(got["b"])
            require(ex.is_rational(b), "slack b must be rational")
            require(ex.certificate_holds(constraints, target, got["m"], got["m_l"], b[0]),
                    f"certificate {out.strip()} fails the integer re-check")
            return
        require(rc == 1 and "point" in got, f"cert printed {out.strip()}")
        point = [ex.parse(x) for x in got["point"]]
        require(ex.counterexample_holds(constraints, target, point), f"point {out.strip()} fails the re-check")
    return check


def _cli_cmp_check(rows, f, g):
    def best(terms):
        values = [ex.lex_value(rows, gamma, u) for gamma, u in terms]
        top = values[0]
        for v in values[1:]:
            if ex.lex_cmp(v, top) > 0:
                top = v
        return top

    s = ex.lex_cmp(best(f), best(g))
    want = "less" if s < 0 else "greater" if s > 0 else "equal"

    def check(result):
        rc, out = result
        require((rc, out.strip()) == (0, want), f"cmp printed {out.strip()!r}, lex says {want}")
    return check


def _cli_mindim_check(rows):
    """The witness is kernel hyperplanes (row pairs u, -u) cut by a box:
    their normals must have rank n minus the minimum dimension."""
    n = len(rows[0]) - 1
    want = ex.stacked_rank(rows) - 1

    def check(result):
        rc, out = result
        require(rc == 0, f"mindim exit {rc}")
        ineqs = [(tuple(r["u"]), ex.parse(r["gamma"])) for r in json.loads(out)["ineqs"]]
        flat = {(u, g) for u, g in ineqs}
        equalities = [list(map(Fraction, u)) for u, g in ineqs
                      if (tuple(-x for x in u), ex.scale(g, -1)) in flat]
        require(ex.rational_rank(equalities) == n - want,
                f"mindim equalities have rank {ex.rational_rank(equalities)}, want {n - want}")
    return check


WORKLOADS = {
    "filter": build_filter,
    "equality": build_equality,
    "certify": build_certify,
    "cli": build_cli,
}
