"""Hopf's kernel K read off the one elimination of its rows by
back-substitution (cocycles._row_space), against the second, transposed
elimination kept in oracles.py: every generator solves every row, |K| is
the oracle's, and the two generate the same lattice.  On Hopf's systems
over every catalog quotient of order <= 60, where K4, Z2xZ4, Z2xZ2xZ2,
D4, A4, S4 and A5 keep pivots other than 1 at d = 4, 6, 8 and 12, and on
seeded random sparse systems."""

import random

import pytest

from centext import cocycles
from centext.catalog import catalog_names, get_group
from centext.cocycles import _hopf_system, _row_space
from centext.errors import InternalInconsistency
from centext.intlinalg import IntLattice
from oracles import transposed_kernel
from test_cocycles import contains

QUOTIENTS = [name for name in catalog_names() if get_group(name).order <= 60]
MODULI = (2, 3, 4, 6, 8, 9, 12)
NONUNIT = ("K4", "Z2xZ4", "Z2xZ2xZ2", "D4", "A4", "S4", "A5")


def assert_kernel(equations, ncols, d):
    """The checks on one system; returns its row lattice."""
    rows, kernel = _row_space(equations, ncols, d)
    for z in kernel:
        assert len(z) == ncols
        assert all(sum(c * z[u] for u, c in eq.items()) % d == 0
                   for eq in equations)
    kept, columns = transposed_kernel(equations, ncols, d)
    expected = columns.tail(len(kept))
    got = IntLattice(ncols, d, kernel)
    # |K| = d^(#free columns) prod g_p, and [Z^n : K] = d^n / |K|
    assert rows.index_in_ambient() * expected.index_in_ambient() == (
        d ** ncols)
    assert got.index_in_ambient() == expected.index_in_ambient()
    assert contains(got, expected) and contains(expected, got)
    # one generator per column whose pivot exceeds 1
    assert len(kernel) == sum(rows.pivot(c) > 1 for c in range(ncols))
    return rows


def test_quotients_reach_order_60():
    assert len(QUOTIENTS) == 18 and "A5" in QUOTIENTS


@pytest.mark.parametrize("d", MODULI)
@pytest.mark.parametrize("name", QUOTIENTS)
def test_hopf_kernel_matches_the_transposed_elimination(name, d):
    _, chords, equations = _hopf_system(get_group(name))
    rows = assert_kernel(equations, len(chords), d)
    nonunit = any(r[p] > 1 for p, r in rows.pivot_rows.items())
    assert nonunit == (name in NONUNIT and d in (4, 6, 8, 12))


def random_system(rng, d):
    """Up to 14 sparse rows over up to 12 unknowns, each entry drawn from
    -d..d, zeros included."""
    ncols = rng.randrange(1, 13)
    return [{u: rng.randrange(-d, d + 1)
             for u in rng.sample(range(ncols), rng.randrange(1, ncols + 1))}
            for _ in range(rng.randrange(15))], ncols


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("d", [4, 8, 12, 36])
def test_random_kernels_match_the_transposed_elimination(d, seed):
    rng = random.Random(f"{d}:{seed}")
    for _ in range(4):
        assert_kernel(*random_system(rng, d), d)


@pytest.mark.parametrize("d", [4, 8, 12, 36])
def test_random_systems_reach_nonunit_pivots(d):
    # the seeds of the test above
    systems = [random_system(rng, d) for seed in range(25)
               for rng in [random.Random(f"{d}:{seed}")] for _ in range(4)]
    assert any(r[p] > 1 for equations, ncols in systems
               for p, r in IntLattice(ncols, d, equations).pivot_rows.items())


def test_a_failed_step_raises(monkeypatch):
    # rows that are no Howell basis: (2, 1) mod 4 without (0, 2), so the
    # generator of the free column 1 leaves 2 z_0 = -1, which has no
    # solution
    class NotHowell(IntLattice):
        def __init__(self, ncols, modulus, rows=()):
            super().__init__(ncols, modulus)
            self.pivot_rows = {0: {0: 2, 1: 1}}
    monkeypatch.setattr(cocycles, "IntLattice", NotHowell)
    with pytest.raises(InternalInconsistency, match="back-substitution"):
        _row_space([], 2, 4)
