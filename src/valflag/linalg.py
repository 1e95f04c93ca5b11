"""Small exact linear algebra: integer kernels on a lattice, read off one
Hermite form, and echelon bases.

The integer routines use gcd-based unimodular operations (no floating
point, no modular tricks).  The field routines reduce each row against
the rows kept before it, one inverse per kept row, and work for any exact
field element supporting +, -, *, /, < 0 and truthiness (Fraction and
Scalar both qualify).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def integer_kernel(
    rows: Sequence[Sequence[Fraction | int]], basis: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """The sublattice {sum m_d basis_d : m in Z^r, A m = 0} of a lattice,
    as (its Hermite basis, each basis row's coordinates over basis).

    basis is r rows in Hermite form; the rational rows A are in basis
    coordinates and are cleared to integers, which keeps the kernel.  One
    Hermite form of the rows (A's column d | basis_d | e_d) gives both: its
    rows that are zero on A's columns span exactly the members A
    annihilates.  The basis_d are independent, so those rows' pivots lie in
    the basis part, which is the kernel's Hermite form, and their e part is
    the unique coordinates.
    """
    A = _integer_rows(rows)
    k, n = len(A), len(basis[0]) if basis else 0
    form = hermite_form([
        [a[d] for a in A] + list(b) + [int(i == d) for i in range(len(basis))]
        for d, b in enumerate(basis)
    ])
    kernel = [row for row in form if not any(row[:k])]
    return [row[k:k + n] for row in kernel], [row[k + n:] for row in kernel]


def hermite_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical (row-style) Hermite normal form basis of the row lattice.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Equal lattices produce identical output.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    n = len(work[0])
    done: list[list[int]] = []
    for c in range(n):
        pivot = None
        rest = []
        for row in work:
            if row[c] == 0:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            g, s, t = xgcd(pivot[c], row[c])
            a0, a1 = pivot[c] // g, row[c] // g
            new_pivot = [s * x + t * y for x, y in zip(pivot, row)]
            new_row = [-a1 * x + a0 * y for x, y in zip(pivot, row)]
            pivot = new_pivot
            if any(new_row):
                rest.append(new_row)
        work = rest
        if pivot is None:
            continue
        if pivot[c] < 0:
            pivot = [-x for x in pivot]
        for prev in done:
            q = prev[c] // pivot[c]
            if q:
                for j in range(n):
                    prev[j] -= q * pivot[j]
        done.append(pivot)
    return done


def in_lattice(basis_hnf: Sequence[Sequence[int]], v: Sequence[int]):
    """Coefficients of v over an HNF basis, or None if v is outside.

    Rows must be in Hermite form (staircase pivots), as produced by
    hermite_form.
    """
    rem = list(v)
    coeffs = []
    for row in basis_hnf:
        c = next(i for i, x in enumerate(row) if x)
        q, r = divmod(rem[c], row[c])
        if r:
            return None
        coeffs.append(q)
        for j in range(len(rem)):
            rem[j] -= q * row[j]
    if any(rem):
        return None
    return coeffs


def independent_rows(rows: Iterable[Sequence]) -> list[list]:
    """A basis of the row span in echelon form, built in insertion order.

    Each row is reduced against the rows kept so far: the entry at a kept
    row's lead column is cleared by subtracting that row, and since a kept
    lead is ±1 the factor is the entry signed by the lead.  A row that
    reduces to zero is dropped; a survivor is scaled by one inverse of the
    absolute value of its lead, so its lead becomes ±1.  A lead already at
    ±1 is kept unscaled, and zero entries are not multiplied.  Every kept
    row is zero at the lead columns of the rows kept before it, so the
    reduction leaves the one element of row + span(kept) that is zero at
    all of them, the same vector that reducing against a full RREF gives.
    """
    kept: list[list] = []
    leads: list[tuple[int, bool]] = []  # (column, lead is -1)
    for row in rows:
        out = list(row)
        for base, (c, negative) in zip(kept, leads):
            factor = out[c]
            if factor:
                if negative:
                    factor = -factor
                out = [x - factor * y for x, y in zip(out, base)]
        c = next((c for c, x in enumerate(out) if x), None)
        if c is None:
            continue
        negative = out[c] < 0
        if out[c] != (-1 if negative else 1):
            inv = 1 / (-out[c] if negative else out[c])
            out = [x * inv if x else x for x in out]
        kept.append(out)
        leads.append((c, negative))
    return kept


def field_rank(rows: Iterable[Sequence]) -> int:
    return len(independent_rows(rows))
