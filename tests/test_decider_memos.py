"""The upper and lower deciders on generator columns, and the memos they
keep on each cocycle: upper's column witness against the full-table
path, the orbit labels against the table walk, and the search state,
the is_cocycle verdict and the carrier kept per Cocycle2, all against
the earlier paths kept in oracles.py."""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import centext
from centext import cocycles, isotest
from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    Cocycle2,
    _class_key,
    _column_values,
    _keyed,
    _least_values,
    _solve_coordinate,
    are_cohomologous,
    compute_cocycle_space,
)
from centext.errors import ConditionsFailed
from centext.extensions import build_extension
from centext.groups import DEFAULT_LIMITS, enumerate_automorphisms
from centext.intlinalg import abelian_invariants
from centext.isotest import (
    _automorphism_pair_search,
    _orbit_label,
    lower_isomorphic,
    upper_isomorphic,
)
from oracles import (
    are_cohomologous_by_reduction,
    automorphism_pair_search_afresh,
    orbit_label_by_tables,
    upper_isomorphic_by_tables,
)

# the six census pairs of the benchmark, and its sampled pair
CENSUS_PAIRS = [("Z2", "K4"), ("Z4", "K4"), ("Z2", "D4"), ("Z2", "Q8"),
                ("Z2", "S3"), ("Z3", "Z3"), ("Z2", "Z2xZ2xZ2")]


def h2_order(g1, g2):
    """|H^2(g2, g1)| from the coordinates, before any representative is
    written out."""
    return math.prod(math.prod(_solve_coordinate(g2, d).factors)
                     for d in abelian_invariants(g1).invariant_factors)


# every catalog pair with abelian kernel and at most 64 classes
LABEL_PAIRS = [(a, b) for a in catalog_names() for b in catalog_names()
               if get_group(a).is_abelian
               and h2_order(get_group(a), get_group(b)) <= 64]


def representatives(pair):
    return compute_cocycle_space(*map(get_group, pair)).class_representatives


def fresh(e):
    """A copy of e with every memo empty."""
    return Cocycle2(g1=e.g1, g2=e.g2, table=e.table)


def images(cert):
    return None if cert is None else (
        cert.sigma.images, cert.rho.images, cert.t_witness.t.images)


@pytest.mark.parametrize("pair", CENSUS_PAIRS, ids=":".join)
def test_column_witness_matches_the_full_table_path(pair):
    exts = [build_extension(rep) for rep in representatives(pair)]
    positives = 0
    for src, tgt in itertools.product(exts, repeat=2):
        got = images(upper_isomorphic(src, tgt))
        assert got == images(upper_isomorphic_by_tables(src, tgt))
        positives += got is not None
    assert positives >= len(exts)


def test_label_pairs_cover_the_catalog():
    assert len(LABEL_PAIRS) == 191
    assert ("Z2", "Z2xZ2xZ2") in LABEL_PAIRS
    assert ("K4", "Z2xZ2xZ2") not in LABEL_PAIRS


@pytest.mark.parametrize("pair", LABEL_PAIRS + [("Z2", "Z2^4")],
                         ids=":".join)
def test_orbit_labels_match_the_table_walk(pair):
    if pair[1] == "Z2^4":
        z2 = get_group("Z2")
        pair = (z2, centext.direct_product(z2, get_group("Z2xZ2xZ2")))
        reps = compute_cocycle_space(*pair).class_representatives
        assert len(reps) == 1024
    else:
        pair = tuple(map(get_group, pair))
        reps = compute_cocycle_space(*pair).class_representatives
    label, oracle = _orbit_label(*pair, DEFAULT_LIMITS), \
        orbit_label_by_tables(*pair, DEFAULT_LIMITS)
    assert [label(rep) for rep in reps] == [oracle(rep) for rep in reps]
    assert [label(fresh(rep)) for rep in reps] == [oracle(rep)
                                                  for rep in reps]


# the census pairs with an orbit of two classes or more
ORDER_PAIRS = [pair for pair in CENSUS_PAIRS if pair != ("Z2", "S3")]


@pytest.mark.parametrize("pair", ORDER_PAIRS, ids=":".join)
def test_orbit_labels_do_not_depend_on_query_order(pair):
    # labels filled from an empty cache in reverse class order name each
    # orbit as the table walk does when filled in class order
    g1, g2 = map(get_group, pair)
    reps = representatives(pair)
    _orbit_label.cache_clear()
    label = _orbit_label(g1, g2, DEFAULT_LIMITS)
    backward = [label(fresh(rep)) for rep in reversed(reps)][::-1]
    oracle = orbit_label_by_tables(g1, g2, DEFAULT_LIMITS)
    assert backward == [oracle(rep) for rep in reps]
    assert len(set(backward)) < len(reps)


def search_calls(pair):
    """Per kind, the push and pull of the pair search, as the deciders
    call it."""
    values = _column_values(*map(get_group, pair))
    pull = _class_key(*map(get_group, pair))[1]
    return {"upper": (_keyed, lambda e, r: pull(e.table, r)),
            "lower": (lambda e, s: values(e.table, s),
                      lambda e, r: values(e.table, rho=r))}


SEARCH_CASES = [*itertools.product([("Z3", "Z3"), ("Z4", "K4"),
                                    ("Z2", "D4")], range(3)),
                (("Z2", "Z2xZ2xZ2"), 0)]


@pytest.mark.parametrize("pair,seed", SEARCH_CASES,
                         ids=[f"{':'.join(p)}-{s}" for p, s in SEARCH_CASES])
def test_kept_search_state_gives_the_first_pair(pair, seed):
    # fresh targets, so the state starts empty, met in a shuffled order
    reps = [fresh(rep) for rep in representatives(pair)]
    calls = [(kind, a, b) for kind in ("upper", "lower")
             for a, b in itertools.product(reps, repeat=2)]
    random.Random(seed).shuffle(calls)
    funcs = search_calls(pair)
    for kind, a, b in calls:
        push, pull = funcs[kind]
        got = _automorphism_pair_search(kind, push, pull, a, b,
                                        DEFAULT_LIMITS)
        want = automorphism_pair_search_afresh(push, pull, a, b,
                                               DEFAULT_LIMITS)
        assert got == want
    # each target keeps one state per kind, no more keys than rho keyed
    for b in reps:
        assert set(b._memo) <= {("upper", DEFAULT_LIMITS),
                                ("lower", DEFAULT_LIMITS)}
        for count, first in b._memo.values():
            assert len(first) <= count <= len(enumerate_automorphisms(b.g2))


class Colliding(tuple):
    """A key whose hash is one value for every key, so that the kept
    index lists each rho under one hash and only the exact check on a
    hit tells their keys apart."""

    def __hash__(self):
        return 0


@pytest.mark.parametrize("pair", [("Z3", "Z3"), ("Z4", "K4"), ("Z2", "D4")],
                         ids=":".join)
def test_colliding_hashes_give_the_first_pair(pair):
    reps = [fresh(rep) for rep in representatives(pair)]
    for kind, (push, pull) in search_calls(pair).items():
        colliding = (lambda e, s: Colliding(push(e, s)),
                     lambda e, r: Colliding(pull(e, r)))
        for a, b in itertools.product(reps, repeat=2):
            got = _automorphism_pair_search(("colliding", kind), *colliding,
                                            a, b, DEFAULT_LIMITS)
            assert got == automorphism_pair_search_afresh(
                push, pull, a, b, DEFAULT_LIMITS)
        for b in reps:
            count, index = b._memo[("colliding", kind), DEFAULT_LIMITS]
            assert set(index) <= {0} and sum(map(len, index.values())) == count


@pytest.mark.parametrize("pair", CENSUS_PAIRS, ids=":".join)
def test_are_cohomologous_through_both_checks(pair):
    # representatives that passed build_extension take the column check,
    # fresh copies the scan of the tables
    reps = representatives(pair)
    for rep in reps:
        build_extension(rep)
    copies = [fresh(rep) for rep in reps]
    assert all(rep._identity[0] for rep in reps)
    assert not any("_identity" in e.__dict__ for e in copies)
    for es in (reps, copies):
        for a, b in itertools.product(es, repeat=2):
            want = are_cohomologous_by_reduction(a, b)
            got = are_cohomologous(a, b)
            assert (got is None) == (want is None) == (a.table != b.table)
            assert got is None or got.t.images == want.t.images
    assert not any("_identity" in e.__dict__ for e in copies)


def test_is_cocycle_runs_once_per_cocycle(monkeypatch):
    calls = []

    def counted(g1, g2, table):
        calls.append(table)
        return checked(g1, g2, table)
    checked = cocycles.is_cocycle
    monkeypatch.setattr(cocycles, "is_cocycle", counted)
    reps = [fresh(rep) for rep in representatives(("Z2", "D4"))]
    for a, b in itertools.product(reps, repeat=2):
        upper_isomorphic(a, b)
        lower_isomorphic(a, b)
        are_cohomologous(a, b)
    for rep in reps:
        build_extension(rep)
    assert len(calls) == len(reps)
    assert sorted(calls) == sorted(rep.table for rep in reps)


def test_a_cocycle_argument_builds_one_carrier(monkeypatch):
    built = []

    def counted(e):
        built.append(e)
        return build_extension(e)
    monkeypatch.setattr(isotest, "build_extension", counted)
    reps = [fresh(rep) for rep in representatives(("Z2", "K4"))]
    for a, b in itertools.product(reps, repeat=2):
        upper_isomorphic(a, b)
        lower_isomorphic(a, b)
    assert sorted(map(id, built)) == sorted(map(id, reps))
    carrier = reps[1]._memo["carrier"]
    assert lower_isomorphic(reps[1], reps[1]).source is carrier
    assert upper_isomorphic(reps[1], reps[1]).target is carrier
    assert carrier.group == build_extension(reps[1]).group


def moved_walk(walk, vecs):
    """The witness walk with its first image moved: the map differs from
    a witness at one point only, never a homomorphism past order 2."""
    [values] = _least_values(walk, vecs)
    return [[1 - values[0], *values[1:]]]


def walked_pair(pair):
    """The first class pair whose upper certificate has a nonzero
    witness, so that the witness walk runs."""
    exts = [build_extension(rep) for rep in representatives(pair)]
    return next((s, t) for s, t in itertools.product(exts, repeat=2)
                if (cert := upper_isomorphic(s, t)) is not None
                and any(cert.t_witness.t.images))


@pytest.mark.parametrize("pair", [("Z2", "K4"), ("Z4", "K4"), ("Z2", "D4")],
                         ids=":".join)
def test_a_wrong_witness_walk_fails_inside_upper(pair, monkeypatch):
    src, tgt = walked_pair(pair)
    monkeypatch.setattr(cocycles, "_least_values", moved_walk)
    with pytest.raises(ConditionsFailed, match="not a coboundary witness"):
        upper_isomorphic(src, tgt)


def test_a_wrong_witness_walk_fails_inside_upper_under_optimization():
    script = "\n".join([
        "import sys",
        "from centext import ConditionsFailed, cocycles",
        "from centext.isotest import upper_isomorphic",
        "from test_decider_memos import moved_walk, walked_pair",
        "assert False",
        "src, tgt = walked_pair(('Z2', 'K4'))",
        "cocycles._least_values = moved_walk",
        "try:",
        "    upper_isomorphic(src, tgt)",
        "except ConditionsFailed as exc:",
        "    sys.exit(0 if 'not a coboundary witness' in str(exc) else 2)",
        "sys.exit(1)",
    ])
    src_dir = os.path.dirname(os.path.dirname(centext.__file__))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ,
                               "PYTHONPATH": f"{src_dir}{os.pathsep}{tests_dir}"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
