"""FiniteGroup.generators is the pair (1, y) wherever 1 lies in a
generating pair and the greedy sequence is longer, and every reader of
it (Light's test, the homomorphism and cocycle checks, condition 4's
screen, and Hopf's system and the generator columns behind H^2, the
class keys and the witnesses) needs only a set whose left-nested
products reach every element.  So every output must be that of the
greedy sequence: here against a fresh interpreter whose groups have
generators forced back to the greedy sequence, over the catalog pairs
with abelian kernel, |G2| <= 24 and at most 64 classes (the seven left
out have abelian quotients, whose generators do not change), and over
Z2:A5, Z2:S5 and Z2:PSL(2,7).  Both sides give per pair the H^2 factors, the
representatives' sha256, the witnesses and the are_cohomologous
verdicts on seeded shifts, and the upper, lower and g1g2 certificates,
and the bytes of two verify reports."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import centext
from centext import cli
from centext.catalog import (
    get_group,
    projective_special_linear_2_7,
    symmetric_group,
)
from centext.cocycles import (
    Cocycle2,
    apply_coboundary,
    are_cohomologous,
    compute_cocycle_space,
)
from centext.groups import GroupMap, SearchLimits
from centext.isotest import g1g2_isomorphic, lower_isomorphic, upper_isomorphic
from test_decider_memos import LABEL_PAIRS

LIMITS = SearchLimits(max_order=168)
QUOTIENTS = {"S5": lambda: symmetric_group(5),
             "PSL27": projective_special_linear_2_7}
PAIRS = [pair for pair in LABEL_PAIRS if get_group(pair[1]).order <= 24] + [
    ("Z2", "A5"), ("Z2", "S5"), ("Z2", "PSL27")]
REPORTS = (["verify", "--slow"], ["verify", "Z2:S4", "--max-order", "48"])

# run in a fresh interpreter: the greedy sequence in place of
# FiniteGroup.generators, set before any group is built
GREEDY = """\
import functools, json, sys
from centext.groups import FiniteGroup, _cayley_walk
greedy = functools.cached_property(
    lambda g: _cayley_walk(g.table, range(g.order), False)[0])
greedy.__set_name__(FiniteGroup, "generators")
FiniteGroup.generators = greedy
import test_generating_pair
json.dump(test_generating_pair.outputs(), sys.stdout)
"""


@functools.lru_cache(maxsize=None)
def _group(name):
    return QUOTIENTS[name]() if name in QUOTIENTS else get_group(name)


def pair_outputs(pair) -> dict:
    """The outputs over one pair that read generators, as JSON values."""
    g1, g2 = map(_group, pair)
    space = compute_cocycle_space(g1, g2)
    reps = space.class_representatives
    rng = random.Random(":".join(pair))
    sample = rng.sample(reps, min(len(reps), 4))
    cocycles = sample + [apply_coboundary(GroupMap(dom=g2, cod=g1, images=(
        0, *(rng.randrange(g1.order) for _ in range(g2.order - 1)))), e)
        for e in sample]

    def images(w):
        return None if w is None else list(w.t.images)

    def certificate(c):
        return None if c is None else c.to_dict()
    return {
        "factors": list(space.h2_invariant_factors),
        "sha256": hashlib.sha256(
            repr([e.table for e in reps]).encode()).hexdigest(),
        "witnesses": [images(are_cohomologous(a, b))
                      for a, b in itertools.product(cocycles, repeat=2)],
        "certificates": [
            certificate(decide(Cocycle2(g1=g1, g2=g2, table=a.table),
                               Cocycle2(g1=g1, g2=g2, table=b.table),
                               LIMITS))
            for decide in (upper_isomorphic, lower_isomorphic,
                           g1g2_isomorphic)
            for a, b in itertools.product(sample, repeat=2)],
    }


def outputs() -> dict:
    """The sha256 of each pair's outputs and of each verify report's
    bytes, and the length of generators on A5 and S5."""
    out = {":".join(pair): hashlib.sha256(json.dumps(
        pair_outputs(pair)).encode()).hexdigest() for pair in PAIRS}
    for argv in REPORTS:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(argv)
        out[" ".join(argv)] = [code, hashlib.sha256(
            text.getvalue().encode()).hexdigest()]
    out["lengths"] = [len(_group(name).generators) for name in ("A5", "S5")]
    return out


def test_the_pair_gives_the_outputs_of_the_greedy_sequence():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(centext.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", GREEDY], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([tests, src])})
    assert proc.returncode == 0, proc.stderr
    greedy, paired = json.loads(proc.stdout), outputs()
    assert (greedy.pop("lengths"), paired.pop("lengths")) == ([3, 4], [2, 2])
    assert len(paired) == len(PAIRS) + len(REPORTS)
    assert greedy == paired
