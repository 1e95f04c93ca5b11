"""Exact checks made apart from valflag.

A number of Q(√2, √3) is a 4-tuple (a, b, c, d) of Fractions standing for
a + b√2 + √3(c + d√2) = a + b√2 + c√3 + d√6.  Signs are decided by
comparing squares, so nothing here relies on valflag's Scalar arithmetic:
valflag scalars are read only through ``Scalar.items()``.  Certificates
are re-checked in plain integers and Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

F0 = Fraction(0)
ZERO = (F0, F0, F0, F0)
_KEYS = (1, 2, 3, 6)


class Mismatch(Exception):
    """An answer of the program disagrees with an independent check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def num(a=0, b=0, c=0, d=0) -> tuple:
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def scale(x, q):
    return tuple(p * q for p in x)


def is_rational(x) -> bool:
    return not (x[1] or x[2] or x[3])


def _sign_q(q) -> int:
    return (q > 0) - (q < 0)


def _sign2(a: Fraction, b: Fraction) -> int:
    """Sign of a + b√2."""
    sa, sb = _sign_q(a), _sign_q(b)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def sign(x) -> int:
    """Sign of p + q√3 with p = a + b√2 and q = c + d√2."""
    a, b, c, d = x
    sp, sq = _sign2(a, b), _sign2(c, d)
    if sq == 0 or sp == sq:
        return sp or sq
    if sp == 0:
        return sq
    # p² - 3q², an element of Q(√2); it is never 0 because √3 ∉ Q(√2).
    t0 = a * a + 2 * b * b - 3 * (c * c + 2 * d * d)
    t1 = 2 * a * b - 6 * c * d
    return sp if _sign2(t0, t1) > 0 else sq


def approx(x) -> float:
    a, b, c, d = x
    return float(a) + float(b) * 2**0.5 + float(c) * 3**0.5 + float(d) * 6**0.5


def floor(x) -> int:
    k = math.floor(approx(x))
    while sign(sub(x, num(k))) < 0:
        k -= 1
    while sign(sub(x, num(k + 1))) >= 0:
        k += 1
    return k


def from_scalar(s) -> tuple:
    """Read a valflag Scalar through its public term list."""
    parts = dict.fromkeys(_KEYS, F0)
    for radicand, coeff in s.items():
        if radicand not in parts:
            raise Mismatch(f"radicand {radicand} outside Q(√2, √3)")
        parts[radicand] = Fraction(coeff)
    return tuple(parts[k] for k in _KEYS)


def terms(x) -> dict:
    """Radicand -> coefficient map, the form valflag's Scalar is built from."""
    return {k: q for k, q in zip(_KEYS, x) if q}


def fmt(x) -> str:
    """Text in valflag's scalar grammar."""
    out = []
    for k, q in zip(_KEYS, x):
        if not q:
            continue
        body = str(abs(q)) if k == 1 else f"{abs(q)}*sqrt({k})"
        if not out:
            out.append(body if q > 0 else f"-{body}")
        else:
            out.append(("+ " if q > 0 else "- ") + body)
    return " ".join(out) if out else "0"


_SCALAR_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(?:sqrt\((\d+)\)|(\d+(?:/\d+)?))"
)


def parse(text: str) -> tuple:
    """Read the scalar text the command line prints (and `fmt` writes)."""
    parts = dict.fromkeys(_KEYS, F0)
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _SCALAR_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise Mismatch(f"unreadable scalar {text!r}")
        sgn, coeff, radicand, rational = m.groups()
        q = Fraction(rational if rational else (coeff or 1))
        k = int(radicand) if radicand else 1
        if k not in parts:
            raise Mismatch(f"radicand {k} outside Q(√2, √3)")
        parts[k] += -q if sgn == "-" else q
        pos = m.end()
    return tuple(parts[k] for k in _KEYS)


def parse_term(text: str, names: Sequence[str]) -> tuple[Fraction, tuple]:
    """Read a printed term like `t^-3/2*x*y^-2` as (gamma, u)."""
    gamma, u = F0, [0] * len(names)
    for factor in text.strip().split("*"):
        base, _, exp = factor.partition("^")
        if base == "t":
            gamma += Fraction(exp)
        elif base in names:
            u[names.index(base)] += int(exp) if exp else 1
        else:
            raise Mismatch(f"unreadable term {text!r}")
    return gamma, tuple(u)


def row_value(row, gamma, u):
    """row · (gamma, u) for a row of numbers, gamma rational, u integral."""
    acc = scale(row[0], gamma)
    for x, e in zip(row[1:], u):
        if e:
            acc = add(acc, scale(x, e))
    return acc


def lex_sign(rows, gamma, u) -> int:
    """Sign of the first nonzero entry of C · (gamma, u)."""
    for row in rows:
        s = sign(row_value(row, gamma, u))
        if s:
            return s
    return 0


def lex_value(rows, gamma, u) -> list:
    return [row_value(row, gamma, u) for row in rows]


def lex_cmp(xs, ys) -> int:
    for x, y in zip(xs, ys):
        s = sign(sub(x, y))
        if s:
            return s
    return 0


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / p[col]
                work[i] = [x - f * y for x, y in zip(work[i], p)]
        rank += 1
    return rank


def stacked_rank(rows) -> int:
    """rank_Q of the 1, √2, √3 and √6 parts of a matrix, stacked."""
    return rational_rank(
        [[x[part] for x in row] for row in rows for part in range(4)]
    )


def certificate_holds(constraints, target, m, m_l, b) -> bool:
    """b + m·γ = Σ m_l·γ_l and m·u = Σ m_l·u_l, in integers and Fractions.

    constraints and target are (gamma, u) pairs.
    """
    if not (isinstance(m, int) and m >= 1 and len(m_l) == len(constraints)):
        return False
    if any(not isinstance(x, int) or x < 0 for x in m_l) or b < 0:
        return False
    gamma = sum((ml * g for ml, (g, _) in zip(m_l, constraints)), F0)
    n = len(target[1])
    u = [sum(ml * c[1][j] for ml, c in zip(m_l, constraints)) for j in range(n)]
    return b + m * target[0] == gamma and [m * x for x in target[1]] == u


def counterexample_holds(constraints, target, point) -> bool:
    """point (numbers) meets every γ_l + ⟨x, u_l⟩ ≤ 0 and breaks the target."""

    def value(g, u):
        acc = num(g)
        for x, e in zip(point, u):
            acc = add(acc, scale(x, e))
        return acc

    return sign(value(*target)) > 0 and all(
        sign(value(*c)) <= 0 for c in constraints
    )
