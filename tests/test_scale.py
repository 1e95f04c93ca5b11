"""A scale ladder: one seeded family per decision procedure and per
Fourier-Motzkin question, each a short ladder of sizes.

Each rung times the calls of the procedure it climbs and bounds their sum
by about ten times what they took when the rung landed (2 vCPUs, Python
3.11), so a cliff that comes back fails here rather than as a multi-minute
run on a decidable input.  Every answer is then re-checked, outside the
timed calls, by the oracles and evidence checks that stay affordable at the
rung's size; where an oracle would itself run into the cliff, the rung says
which check stands in for it.
"""

import random
import time

import pytest

from valflag import (
    GREATER,
    compare,
    decide_equal,
    farkas_certify,
    filter_member,
    final_kernel,
    flag_from_matrix,
    in_cone,
    min_filter_dim,
    mindim_witness,
    rational_set,
)

from _oracles import (
    equal_beyond_row_operations,
    random_cone,
    random_farkas_instance,
    random_polynomial,
    random_prime,
    random_term,
    ref_farkas_certify,
    ref_in_cone,
)


class Clock:
    """The summed wall time of the calls passed through it."""

    def __init__(self):
        self.spent = 0.0

    def __call__(self, call):
        start = time.perf_counter()
        out = call()
        self.spent += time.perf_counter() - start
        return out


@pytest.mark.parametrize("n, bound", [(4, 0.3), (6, 0.7), (8, 1.5)])
def test_lattice_side(n, bound):
    # canonicalize (inside random_prime), final_kernel and decide_equal on
    # full-height pairs, which are distinct, and on pairs equal beyond row
    # operations: a prime against itself with a row appended that
    # vanishes on its final kernel
    rng = random.Random(f"lattice:{n}")
    clock = Clock()
    for _ in range(10):
        A = clock(lambda: random_prime(rng, n, k=n))
        B = clock(lambda: random_prime(rng, n, k=n))
        verdict = clock(lambda: decide_equal(A, B))
        assert not verdict.equal
        w = verdict.witness
        assert A.matrix.sign_lex(w) != B.matrix.sign_lex(w)
        C = clock(lambda: random_prime(rng, n, k=rng.randint(0, n // 2)))
        D = equal_beyond_row_operations(rng, C)
        assert C != D
        assert clock(lambda: decide_equal(C, D)).equal
        assert clock(lambda: final_kernel(C)) == final_kernel(D)
        for _ in range(10):
            t = random_term(rng, n)
            assert C.matrix.sign_lex(t) == D.matrix.sign_lex(t)
    assert clock.spent < bound


@pytest.mark.parametrize("n, bound", [(4, 0.2), (6, 0.4), (8, 0.7), (10, 1.0)])
def test_mindim_witness(n, bound):
    # seed mindim:10:22 (rank 5, 30 rows) took more than 120 s while the
    # dimension was checked by an elimination; the witness proves its
    # dimension by construction since.  The elimination is the oracle up to
    # n = 8, and filter_member's up to n = 6; at n = 10 the witness's own
    # exact points and rank check stand in for both.
    clock = Clock()
    for seed in range(25):
        rng = random.Random(f"mindim:{n}:{seed}")
        P = random_prime(rng, n, k=rng.randint(0, n), cont=True)
        W = clock(lambda: mindim_witness(P))
        assert W.contains(flag_from_matrix(P, "polyhedra").base)
        if n <= 8:
            assert W.dim() == min_filter_dim(P)
        if n <= 6:
            assert filter_member(P, W).member
    assert clock.spent < bound


@pytest.mark.parametrize("n, bound", [(4, 0.06), (6, 0.2), (8, 0.2)])
def test_rational_set_membership(n, bound):
    rng = random.Random(f"rational:{n}")
    clock = Clock()
    for _ in range(10):
        P = random_prime(rng, n, cont=True)
        f0 = random_polynomial(rng, n)
        F = [random_polynomial(rng, n) for _ in range(2)]
        answer = clock(lambda: filter_member(P, rational_set(f0, F)))
        assert answer.member == all(compare(P, f, f0) != GREATER for f in F)
    assert clock.spent < bound


@pytest.mark.parametrize("d, m, bound", [(4, 8, 0.1), (5, 12, 0.6), (6, 16, 2.5)])
def test_in_cone(d, m, bound):
    rng = random.Random(f"cone:{d}:{m}")
    clock = Clock()
    for _ in range(5):
        v, gens = random_cone(rng, d, m)
        assert clock(lambda: in_cone(v, gens)) == ref_in_cone(v, gens)
    assert clock.spent < bound


@pytest.mark.parametrize(
    "n, m, bound", [(3, 8, 0.05), (4, 11, 0.2), (5, 14, 1.0), (6, 16, 6.0)]
)
def test_farkas_certify(n, m, bound):
    # contained targets, so every answer is a certificate that must hold
    # its identity; ref_farkas_certify agrees up to eleven constraints,
    # while its multiplier system in fourteen variables took gigabytes.
    # n = 6 with 16 constraints took 1.3-1.8 s, with a 50 MB process
    # peak, while the elimination ran on Scalars, and 0.6-0.8 s with 27 MB
    # on Fractions
    rng = random.Random(f"farkas:{n}:{m}")
    clock = Clock()
    for _ in range(3):
        constraints, target = random_farkas_instance(rng, n, m, "contained")
        cert = clock(lambda: farkas_certify(constraints, target))
        assert cert.holds_for(constraints, target)
        if m <= 11:
            assert ref_farkas_certify(constraints, target).holds_for(
                constraints, target
            )
    assert clock.spent < bound
