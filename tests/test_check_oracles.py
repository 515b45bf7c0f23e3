"""The per-isomorphism checks of verify_theorems against the earlier
paths they replaced: the component conditions, whose condition 4 is now
screened on generator columns and whose facts are decided once per class
pair on image arrays, against the full row-major scan; the trivial
components, read off slices of the image array, against the read of the
carrier layout and the earlier reader of the component arrays; and the
one extraction path of the lower, g1 and g2 kinds, which compares each
certificate's rebuilt map with the isomorphism, against the earlier
extractors: the per-map path that built a component matrix and decided
every fact afresh, the lower one that ran materialize() in full, and the
g1 and g2 ones that made no compare.  They are compared on every carrier
isomorphism of nine catalog pairs, with one facts dict per class pair as
verify_theorems keeps it, and the conditions and the lower path also on
single-image mutations of the components."""

import inspect
import random
from collections import Counter
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from centext import extensions
from centext.catalog import get_group
from centext.cocycles import compute_cocycle_space
from centext.errors import HypothesisNotVerified
from centext.extensions import (
    TRIVIAL_COMPONENTS,
    HomMatrix,
    _arrays,
    _component_groups,
    _condition_failures,
    build_extension,
    decompose_hom,
    hom_condition_failures,
    reconstruct_hom,
    trivial_components,
)
from centext.groups import GroupMap, enumerate_isomorphisms
from centext.isotest import (
    DEFAULT_VERIFY_PAIRS,
    _certificate,
    _necessary,
    necessary,
)
from oracles import (
    g1_necessary_by_require,
    g2_necessary_by_require,
    hom_condition_failures_by_scan,
    necessary_per_map,
    trivial_components_by_arrays,
    trivial_components_by_layout,
    lower_necessary_by_materialize,
    replace,
)

# the default verify pairs, and two with a larger kernel or quotient
VERIFY_PAIRS = DEFAULT_VERIFY_PAIRS + (("Z4", "K4"), ("Z3", "S3"))
COMPONENTS = ("phi11", "phi12", "phi21", "phi22")
# the earlier extractor of each kind the one path serves
REFERENCES = {"lower": lower_necessary_by_materialize,
              "g1": g1_necessary_by_require,
              "g2": g2_necessary_by_require}


@lru_cache(maxsize=None)
def carrier_isomorphisms(pair):
    """(src, tgt, phi, decompose_hom(src, tgt, phi), the kinds among
    lower, g1 and g2 that phi is of) for every carrier isomorphism
    between the class representatives of the pair."""
    g1, g2 = (get_group(name) for name in pair)
    exts = [build_extension(rep)
            for rep in compute_cocycle_space(g1, g2).class_representatives]
    return tuple(
        (src, tgt, phi, decompose_hom(src, tgt, phi),
         {kind for kind in REFERENCES if trivial_components(
             src, tgt, phi.images).issuperset(TRIVIAL_COMPONENTS[kind])})
        for src in exts for tgt in exts
        for phi in enumerate_isomorphisms(src.group, tgt.group))


def all_isomorphisms():
    return [case for pair in VERIFY_PAIRS
            for case in carrier_isomorphisms(pair)]


# one facts dict per class pair, by the identities of its two carriers
# (carrier_isomorphisms keeps them), shared by every test and mutation
PAIR_FACTS = {}


def facts_of(src, tgt):
    return PAIR_FACTS.setdefault((id(src), id(tgt)), {})


def extracted(kind, src, tgt, parts, facts, phi=None):
    """_necessary as verify_theorems calls it, then the certificate the
    public extractors hand back."""
    _necessary(kind, src, tgt, parts, facts, phi)
    return _certificate(kind, src, tgt, parts)


def with_image(m, component, x, v):
    """m with the image of x under one component map set to v."""
    old = getattr(m, component)
    images = list(old.images)
    images[x] = v
    return replace(m, **{component: GroupMap(dom=old.dom, cod=old.cod,
                                             images=tuple(images))})


def single_image_mutations(m):
    """m with one image of one component changed, at every point but
    the identity and to every other value, component by component."""
    for c in COMPONENTS:
        old = getattr(m, c)
        for x in range(1, old.dom.order):
            for v in range(old.cod.order):
                if v != old.images[x]:
                    yield c, with_image(m, c, x, v)


def outcome(extract, *args):
    """extract(*args), or the type and message of the error it raised."""
    try:
        return extract(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_conditions_equal_the_full_scan_on_every_isomorphism():
    # the public form, with facts of its own, and the shared facts of
    # each class pair
    cases = all_isomorphisms()
    assert len(cases) == 1824
    failing = 0
    for src, tgt, _, m, _ in cases:
        got = list(hom_condition_failures(m))
        assert got == list(hom_condition_failures_by_scan(m))
        assert list(_condition_failures(src, tgt, _arrays(m),
                                        facts_of(src, tgt))) == got
        failing += bool(got)
    # the Z2:D4 maps on which condition 1 fails for lack of the
    # quotient hypothesis
    assert failing == 64


def test_trivial_components_equal_the_layout_read():
    # the trivial components against the earlier read of the carrier
    # layout: on every carrier
    # isomorphism, and on seeded image arrays whose kernel copy and
    # section each take their images from everything, the indices below
    # |target.g2|, its multiples or {0}
    seen = Counter()
    for src, tgt, phi, _, _ in all_isomorphisms():
        got = trivial_components(src, tgt, phi.images)
        assert got == trivial_components_by_layout(src, tgt, phi.images)
        seen[got] += 1
    assert len(seen) == 7
    rng = random.Random(9173)
    for pair in VERIFY_PAIRS:
        exts = [build_extension(rep) for rep in compute_cocycle_space(
            *map(get_group, pair)).class_representatives]
        for _ in range(200):
            src, tgt = rng.choice(exts), rng.choice(exts)
            n, n2s, n2t = tgt.group.order, src.g2.order, tgt.g2.order
            pools = [range(n), range(n2t), range(0, n, n2t), [0]]
            kernel, section = rng.choice(pools), rng.choice(pools)
            images = [rng.randrange(n) for _ in range(src.group.order)]
            for i in range(0, src.group.order, n2s):
                images[i] = rng.choice(kernel)
            for i in range(n2s):
                images[i] = rng.choice(section)
            got = trivial_components(src, tgt, tuple(images))
            assert got == trivial_components_by_layout(src, tgt,
                                                       tuple(images))
            seen[got] += 1
    # every set of trivial components occurs
    assert len(seen) == 16


def test_trivial_components_equal_the_component_arrays():
    # the slice screens against the earlier reader, which built the four
    # component arrays and tested each for zero, on every carrier
    # isomorphism and on every single-entry change of one kernel-copy or
    # section image of the first few
    cases = all_isomorphisms()
    for src, tgt, phi, _, _ in cases:
        assert trivial_components(src, tgt, phi.images) == \
            trivial_components_by_arrays(src, tgt, phi.images)
    for src, tgt, phi, _, _ in cases[::40]:
        n2s = src.g2.order
        for i in (*range(1, n2s), *range(n2s, src.group.order, n2s)):
            for v in range(tgt.group.order):
                images = phi.images[:i] + (v,) + phi.images[i + 1:]
                assert trivial_components(src, tgt, images) == \
                    trivial_components_by_arrays(src, tgt, images)


def test_lower_extractor_equals_materialize_on_every_isomorphism():
    # the one path on every isomorphism of the lower, g1 and g2 kinds,
    # as verify_theorems calls it, on the component arrays with one facts
    # dict per class pair, and as the public extractor calls it: the
    # reference's and the per-map path's error type and message, or a
    # certificate whose map is the isomorphism
    done, failed = Counter(), Counter()
    for src, tgt, phi, m, kinds in all_isomorphisms():
        for kind in kinds:
            got = outcome(extracted, kind, src, tgt, _arrays(m),
                          facts_of(src, tgt), phi)
            assert got == outcome(REFERENCES[kind], src, tgt, m)
            assert got == outcome(necessary_per_map, kind, src, tgt, m, phi)
            assert outcome(necessary, kind, src, tgt, phi) == got
            if isinstance(got, tuple):
                failed[kind, got[0]] += 1
            else:
                assert reconstruct_hom(got.components()) == phi
                assert got.materialize() == phi
                done[kind] += 1
    assert done == {"lower": 255, "g1": 86, "g2": 14}
    # the Z2:D4 maps whose condition 1 fails, each an observation for
    # lack of the quotient hypothesis
    assert failed == {("g1", HypothesisNotVerified): 64}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checks_equal_the_earlier_ones_under_mutation(data):
    # one image of sigma, eta, delta or rho changed: the conditions
    # yield what the full scan yields, and on a lower-kind map the
    # extractor, given the unchanged isomorphism, what materialize gives
    pair = data.draw(st.sampled_from(VERIFY_PAIRS))
    cases = carrier_isomorphisms(pair)
    src, tgt, phi, m, kinds = cases[data.draw(
        st.integers(0, len(cases) - 1))]
    c = data.draw(st.sampled_from(COMPONENTS))
    old = getattr(m, c)
    x = data.draw(st.integers(1, old.dom.order - 1))
    shift = data.draw(st.integers(1, old.cod.order - 1))
    mutant = with_image(m, c, x, (old.images[x] + shift) % old.cod.order)
    expected = list(hom_condition_failures_by_scan(mutant))
    assert list(hom_condition_failures(mutant)) == expected
    facts = facts_of(src, tgt)
    assert list(_condition_failures(src, tgt, _arrays(mutant),
                                    facts)) == expected
    if "lower" in kinds and c != "phi12":
        assert outcome(extracted, "lower", src, tgt, _arrays(mutant), facts,
                       phi) == outcome(lower_necessary_by_materialize, src,
                                       tgt, mutant)


def unguarded_conditions():
    """hom_condition_failures on a copy of the conditions whose condition
    4 screen runs whatever condition 1 gave."""
    source = inspect.getsource(extensions._condition_failures)
    guarded = "if condition_1 and _fact("
    assert source.count(guarded) == 1
    namespace = dict(vars(extensions))
    exec(source.replace(guarded, "if _fact("), namespace)
    return lambda m: namespace["_condition_failures"](
        m.source, m.target, _arrays(m), {})


def test_every_mutation_of_the_z2_z4_isomorphisms():
    # all of them, so the fallback scan after a failed condition 1 runs;
    # without the guard the screen passes some maps whose difference of
    # cocycles is no cocycle, and drops their condition 4 failure
    unguarded = unguarded_conditions()
    after_condition_1 = missed = 0
    for src, tgt, phi, m, kinds in carrier_isomorphisms(("Z2", "Z4")):
        facts = facts_of(src, tgt)
        for c, mutant in single_image_mutations(m):
            expected = list(hom_condition_failures_by_scan(mutant))
            assert list(hom_condition_failures(mutant)) == expected
            assert list(_condition_failures(src, tgt, _arrays(mutant),
                                            facts)) == expected
            conditions = [fail[0] for fail in expected]
            after_condition_1 += conditions[:1] == [1] and 4 in conditions
            missed += list(unguarded(mutant)) != expected
            if "lower" in kinds and c != "phi12":
                assert outcome(extracted, "lower", src, tgt, _arrays(mutant),
                               facts, phi) == outcome(
                    lower_necessary_by_materialize, src, tgt, mutant)
    assert after_condition_1 and missed


def test_facts_are_kept_per_class_pair():
    # the identity's components on the Z2:Z4 carriers: the same four
    # arrays on every class pair, whose condition 4 holds exactly where
    # the two cocycles are equal; each pair's own facts give the full
    # scan's answer, while one pair's facts read on another give the
    # first pair's
    g1, g2 = get_group("Z2"), get_group("Z4")
    exts = [build_extension(rep) for rep in
            compute_cocycle_space(g1, g2).class_representatives]
    parts = {"phi11": tuple(range(2)), "phi12": (0,) * 4,
             "phi21": (0,) * 2, "phi22": tuple(range(4))}
    same, other = (exts[0], exts[0]), (exts[0], exts[1])
    answers = {}
    for src, tgt in (same, other):
        m = HomMatrix(source=src, target=tgt, **{
            c: GroupMap(dom=dom, cod=cod, images=parts[c])
            for c, (dom, cod) in _component_groups(src, tgt).items()})
        answers[src, tgt] = list(_condition_failures(src, tgt, parts, {}))
        assert answers[src, tgt] == list(hom_condition_failures_by_scan(m))
    assert answers[same] == [] and [c for c, _, _ in answers[other]] == [4]
    facts = {}
    assert list(_condition_failures(*same, parts, facts)) == []
    assert list(_condition_failures(*other, parts, facts)) == []
