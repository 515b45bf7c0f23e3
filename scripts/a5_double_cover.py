"""Extract the nontrivial order-120 tier by hand: read the double cover
of the order-60 simple group back as a central extension, transport its
cocycle onto the catalog copy of the quotient, and compare the twisted
carrier against the direct product.

Slow-ish (a few seconds); pass --enumerate to also count every
isomorphism of each carrier and confirm all of them fix the kernel copy.
"""

import argparse
import time

from centext.catalog import get_group, special_linear_2_5
from centext.cocycles import (are_cohomologous, make_cocycle,
                              trivial_cocycle)
from centext.extensions import build_extension, central_quotient_data
from centext.groups import SearchLimits, brute_force_isomorphism, center
from centext.isotest import simple_quotient_check

LIMITS = SearchLimits(max_order=256, max_search_nodes=50_000_000,
                      max_cocycle_unknowns=8192)


def involutions(g):
    return sum(1 for o in g.element_orders if o == 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--enumerate", action="store_true",
                        help="enumerate all isomorphisms per class")
    args = parser.parse_args()
    t0 = time.time()

    big = special_linear_2_5()
    zc = center(big)
    print(f"double cover: order {big.order}, center size {len(zc.members)}")

    kernel, quotient, eps, _ = central_quotient_data(big, zc.members)
    z2, a5 = get_group("Z2"), get_group("A5")
    psi = brute_force_isomorphism(quotient, a5, limits=LIMITS)
    chi = brute_force_isomorphism(kernel, z2, limits=LIMITS)
    assert psi is not None and chi is not None
    pinv = psi.inverse()
    moved = make_cocycle(z2, a5, [
        [chi(eps.table[pinv(y)][pinv(yp)]) for yp in range(a5.order)]
        for y in range(a5.order)])
    print(f"cocycle transported onto the catalog pair "
          f"({time.time() - t0:.1f}s)")

    triv = trivial_cocycle(z2, a5)
    distinct = are_cohomologous(triv, moved) is None
    print(f"classes distinct: {distinct}")

    e_direct = build_extension(triv)
    e_twist = build_extension(moved)
    print(f"involutions: direct {involutions(e_direct.group)}, "
          f"twisted {involutions(e_twist.group)}")
    same = brute_force_isomorphism(e_direct.group, e_twist.group,
                                   limits=LIMITS)
    print(f"carriers isomorphic: {same is not None}")
    back = brute_force_isomorphism(e_twist.group, big, limits=LIMITS)
    print(f"twisted carrier matches the double cover: {back is not None}")

    if args.enumerate:
        for tag, e in (("direct", e_direct), ("twisted", e_twist)):
            report = simple_quotient_check(e, e, LIMITS)
            print(f"{tag}: {report['isomorphism_count']} automorphisms, "
                  f"all kernel-preserving: "
                  f"{report['all_kernel_preserving']}")

    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
