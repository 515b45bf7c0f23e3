"""Expected answers that do not come from the code under test.

H^2(G, A) for a trivial action of G on a finite abelian A follows from
the universal coefficient theorem:

    H^2(G, A) = Hom(H_2(G), A) + Ext(H_1(G), A),

with H_1(G) the abelianization and H_2(G) the Schur multiplier.  For
cyclic factors Hom(Z_m, Z_n) and Ext(Z_m, Z_n) are both Z_gcd(m, n).
The two tables below are the textbook values (Karpilovsky, "The Schur
Multiplier", 1987), keyed by catalog name.
"""

from math import gcd

# cyclic decomposition of the abelianization H_1(G)
ABELIANIZATION = {
    "Z2": (2,), "Z3": (3,), "Z4": (4,), "Z5": (5,), "Z6": (6,), "Z8": (8,),
    "K4": (2, 2), "Z2xZ4": (2, 4), "Z2xZ2xZ2": (2, 2, 2),
    "S3": (2,), "D4": (2, 2), "Q8": (2, 2), "D5": (2,),
    "A4": (3,), "S4": (2,), "A5": (), "SL25": (),
}

# cyclic decomposition of the Schur multiplier H_2(G)
SCHUR_MULTIPLIER = {
    "Z2": (), "Z3": (), "Z4": (), "Z5": (), "Z6": (), "Z8": (),
    "K4": (2,), "Z2xZ4": (2,), "Z2xZ2xZ2": (2, 2, 2),
    "S3": (), "D4": (2,), "Q8": (), "D5": (),
    "A4": (2,), "S4": (2,), "A5": (2,), "SL25": (),
}

# cyclic decomposition of the coefficient group
COEFFICIENTS = {"Z2": (2,), "Z3": (3,), "Z4": (4,), "Z5": (5,),
                "K4": (2, 2)}


def _prime_powers(n):
    out, p = [], 2
    while p * p <= n:
        q = 1
        while n % p == 0:
            q *= p
            n //= p
        if q > 1:
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def invariant_factors(orders):
    """The divisibility chain d1 | d2 | ... (ascending, no 1s) of a
    direct sum of cyclic groups of the given orders."""
    by_prime = {}
    for n in orders:
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    height = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * height
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            chain[height - 1 - i] *= q
    return tuple(chain)


def h2_invariant_factors(g1, g2):
    """Invariant factors of H^2(g2, g1), both given by catalog name."""
    orders = [gcd(m, n)
              for m in SCHUR_MULTIPLIER[g2] + ABELIANIZATION[g2]
              for n in COEFFICIENTS[g1]]
    return invariant_factors(o for o in orders if o > 1)


def h2_order(g1, g2):
    out = 1
    for d in h2_invariant_factors(g1, g2):
        out *= d
    return out
