"""Command-line front end over a JSON interchange format.

Subcommands: cohomology (class space report), extend (build a twisted
product), iso (decide one isomorphism kind, with certificate), verify
(the cross-validation harness), catalog (built-in groups).

Exit codes: 0 success (for iso: isomorphic in the requested kind),
1 negative verdict (for verify: discrepancies found), 2 validation
error, 3 size limit exceeded, 4 a decision needed the quotient
coboundary-triviality hypothesis and it was neither verifiable nor
asserted with --assume-sim-trivial.

Group arguments are catalog names or paths to JSON files holding
{"table": [[...]], "name": optional}.  Extension files hold {"g1", "g2",
"cocycle_table"} with groups given the same two ways, or {"g1", "g2",
"class_index"} to pick a cohomology class representative.  All output
is JSON with sorted keys, so identical inputs give identical bytes.
"""

import argparse
import json
import os
import sys

from .catalog import catalog_names, get_group, identify_group, \
    special_linear_2_5
from .cocycles import (
    are_cohomologous,
    compute_cocycle_space,
    make_cocycle,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
from .errors import (
    HypothesisNotVerified,
    NonAbelianUnsupported,
    SizeLimitExceeded,
)
from .extensions import (
    build_extension,
    central_quotient_data,
    decompose_hom,
    preserves_section_setwise,
)
from .groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    SearchLimits,
    brute_force_isomorphism,
    center,
    enumerate_isomorphisms,
)
from .isotest import (
    g1_isomorphic_necessary,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    g2_isomorphic_necessary,
    lower_isomorphic,
    upper_isomorphic,
    verify_theorems,
)

__all__ = ["main", "entry", "build_parser"]

ISO_MODES = ("plain", "upper", "lower", "g1", "g2", "g1g2")
DEFAULT_VERIFY_PAIRS = ("Z2:Z2", "Z2:Z4", "Z2:K4", "Z3:Z3")


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_group(spec) -> FiniteGroup:
    """A group from a catalog name, a JSON file path, or an inline dict."""
    if isinstance(spec, dict):
        return FiniteGroup.from_dict(spec)
    try:
        return get_group(spec)
    except KeyError:
        if os.path.exists(spec):
            return FiniteGroup.from_dict(_read_json(spec))
        raise KeyError(
            f"{spec!r} is neither a catalog name nor an existing file")


def _load_extension(path, limits):
    d = _read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: extension file must be a JSON object")
    for key in ("g1", "g2"):
        if key not in d:
            raise ValueError(f"{path}: missing {key!r}")
    g1 = _load_group(d["g1"])
    g2 = _load_group(d["g2"])
    if "class_index" in d:
        space = compute_cocycle_space(g1, g2, limits)
        k = int(d["class_index"])
        if not 0 <= k < len(space.class_representatives):
            raise ValueError(
                f"{path}: class_index {k} out of range "
                f"(the pair has {len(space.class_representatives)} classes)")
        cocycle = space.class_representatives[k]
    elif "cocycle_table" in d:
        cocycle = make_cocycle(g1, g2, d["cocycle_table"])
    else:
        raise ValueError(
            f"{path}: need either 'cocycle_table' or 'class_index'")
    return build_extension(cocycle)


def _emit(payload, output):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _limits(args) -> SearchLimits:
    if getattr(args, "max_order", None) is None:
        return DEFAULT_LIMITS
    return SearchLimits(max_order=args.max_order)


def _sim_status(g2, limits):
    """True / False when decidable, None when out of reach."""
    try:
        return sim_is_trivial(g2, limits)
    except (NonAbelianUnsupported, SizeLimitExceeded):
        return None


# ---------------------------------------------------------------------------
# subcommands


def cmd_cohomology(args) -> int:
    limits = _limits(args)
    g1 = _load_group(args.g1)
    g2 = _load_group(args.g2)
    space = compute_cocycle_space(g1, g2, limits)
    payload = {
        "g1": g1.to_dict(),
        "g2": g2.to_dict(),
        "z2_order": space.z2_order,
        "b2_order": space.b2_order,
        "h2_order": space.h2_order,
        "h2_invariant_factors": list(space.h2_invariant_factors),
        "class_count": len(space.class_representatives),
        "class_representatives": [
            [list(row) for row in rep.table]
            for rep in space.class_representatives],
    }
    _emit(payload, args.output)
    return 0


def cmd_extend(args) -> int:
    limits = _limits(args)
    g1 = _load_group(args.g1)
    g2 = _load_group(args.g2)
    if (args.cocycle is None) == (args.class_index is None):
        raise ValueError(
            "pass exactly one of a cocycle file or --class-index")
    if args.class_index is not None:
        space = compute_cocycle_space(g1, g2, limits)
        if not 0 <= args.class_index < len(space.class_representatives):
            raise ValueError(
                f"class index {args.class_index} out of range "
                f"({len(space.class_representatives)} classes)")
        cocycle = space.class_representatives[args.class_index]
    else:
        d = _read_json(args.cocycle)
        table = d["table"] if isinstance(d, dict) else d
        cocycle = make_cocycle(g1, g2, table)
    ext = build_extension(cocycle)
    name = identify_group(ext.group)
    payload = ext.to_dict()
    payload["identified_as"] = name
    _emit(payload, args.output)
    print(f"classification: {name if name else '(not in the catalog)'}",
          file=sys.stderr)
    return 0


def _decide_iso(mode, e1, e2, assume, limits):
    """Verdict, certificate dict or None, notes.

    plain, upper, g2 and g1g2 need no hypothesis.  lower decides the
    positive side by component search (unconditionally sound); its
    negative is settled by the hypothesis when verified or asserted, and
    by exhaustive carrier search otherwise.  g1 decides by exhaustive
    search with the kernel-component constraint as a post-filter, and
    extracts the structured certificate when the hypothesis allows.
    """
    notes = []
    if mode == "plain":
        phi = brute_force_isomorphism(e1.group, e2.group, limits=limits)
        if phi is None:
            return False, None, notes
        return True, {"kind": "plain", "phi": list(phi.images)}, notes

    if mode == "upper":
        cert = upper_isomorphic(e1, e2, limits)
        return cert is not None, cert.to_dict() if cert else None, notes

    if mode == "lower":
        cert = lower_isomorphic(e1, e2, limits)
        if cert is not None:
            return True, cert.to_dict(), notes
        sim = _sim_status(e1.g2, limits)
        if sim is True:
            notes.append("negative settled by the component search; the "
                         "quotient hypothesis is verified")
            return False, None, notes
        if assume:
            notes.append("negative rests on the asserted quotient "
                         "hypothesis")
            return False, None, notes
        try:
            for phi in enumerate_isomorphisms(e1.group, e2.group, limits):
                if preserves_section_setwise(e1, e2, phi):
                    notes.append(
                        "found by exhaustive search although the component "
                        "search came up empty; the quotient hypothesis "
                        "fails for this pair")
                    return True, {"kind": "lower",
                                  "phi": list(phi.images)}, notes
            notes.append("negative settled by exhaustive search")
            return False, None, notes
        except SizeLimitExceeded as exc:
            raise HypothesisNotVerified(
                "undecidable: the component search found nothing, its "
                "completeness needs the quotient hypothesis (not "
                "verifiable here), and exhaustive search exceeds the "
                "size limits; pass --assume-sim-trivial to accept the "
                "structured negative") from exc

    if mode == "g2":
        g1, g2 = e1.g1, e1.g2
        if g1.is_abelian and g2.is_abelian and g1.order == g2.order:
            cert = g2_isomorphic_equal_order(e1, e2, limits)
            return cert is not None, cert.to_dict() if cert else None, notes
        for phi in enumerate_isomorphisms(e1.group, e2.group, limits):
            if decompose_hom(e1, e2, phi).phi22.is_trivial():
                cert = g2_isomorphic_necessary(e1, e2, phi, limits)
                return True, cert.to_dict(), notes
        return False, None, notes

    if mode == "g1":
        for phi in enumerate_isomorphisms(e1.group, e2.group, limits):
            if decompose_hom(e1, e2, phi).phi11.is_trivial():
                sim = _sim_status(e1.g2, limits)
                if sim is True or assume:
                    cert = g1_isomorphic_necessary(
                        e1, e2, phi, assume_sim_trivial=assume, limits=limits)
                    return True, cert.to_dict(), notes
                notes.append(
                    "certificate left as the raw map: component "
                    "verification needs the quotient hypothesis "
                    "(pass --assume-sim-trivial)")
                return True, {"kind": "g1", "phi": list(phi.images)}, notes
        return False, None, notes

    if mode == "g1g2":
        cert = g1g2_isomorphic(e1, e2, limits)
        return cert is not None, cert.to_dict() if cert else None, notes

    raise ValueError(f"unknown mode {mode!r}")


def cmd_iso(args) -> int:
    limits = _limits(args)
    e1 = _load_extension(args.ext1, limits)
    e2 = _load_extension(args.ext2, limits)
    verdict, certificate, notes = _decide_iso(
        args.mode, e1, e2, args.assume_sim_trivial, limits)
    payload = {
        "mode": args.mode,
        "verdict": verdict,
        "assumed_sim_trivial": bool(args.assume_sim_trivial),
        "certificate": certificate,
        "notes": notes,
    }
    _emit(payload, args.output)
    return 0 if verdict else 1


def _slow_checks(limits) -> dict:
    """The order-120 tier: both cohomology classes over the simple
    order-60 quotient, realized concretely and separated."""
    big = special_linear_2_5()
    kernel, quotient, eps, _ = central_quotient_data(
        big, sorted(center(big).members))
    a5 = get_group("A5")
    psi = brute_force_isomorphism(a5, quotient, limits=limits)
    z2 = get_group("Z2")
    chi = brute_force_isomorphism(kernel, z2, limits=limits)
    transported = pushforward(chi, pullback(eps, psi))
    triv = trivial_cocycle(z2, a5)
    direct = build_extension(triv)
    twisted = build_extension(transported)
    checks = {
        "double_cover_order": big.order,
        "quotient_identified": psi is not None,
        "classes_distinct": are_cohomologous(triv, transported) is None,
        "carrier_profiles_differ": (
            direct.group.order_profile != twisted.group.order_profile),
        "twisted_carrier_matches_source": brute_force_isomorphism(
            twisted.group, big, limits=limits) is not None,
    }
    checks["all_passed"] = all(
        v is True for k, v in checks.items() if k != "double_cover_order")
    return checks


def cmd_verify(args) -> int:
    specs = args.pairs if args.pairs else list(DEFAULT_VERIFY_PAIRS)
    pairs, skipped = [], []
    for spec in specs:
        if ":" not in spec:
            raise ValueError(f"pair {spec!r} is not of the form G1:G2")
        a, b = spec.split(":", 1)
        g1, g2 = _load_group(a), _load_group(b)
        if g1.order * g2.order <= args.max_order:
            pairs.append((g1, g2))
        else:
            skipped.append(spec)
    report = verify_theorems(pairs=pairs, max_order=args.max_order,
                             limits=DEFAULT_LIMITS)
    report["skipped_pairs"] = skipped
    if args.slow:
        slow = _slow_checks(DEFAULT_LIMITS)
        report["slow_checks"] = slow
        if not slow["all_passed"]:
            report["discrepancies"].append(
                {"check": "slow_order_120_tier", "detail": slow})
    report["discrepancy_count"] = len(report["discrepancies"])
    _emit(report, args.output)
    return 1 if report["discrepancies"] else 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = []
        for name in catalog_names():
            g = get_group(name)
            rows.append({"name": name, "order": g.order,
                         "abelian": g.is_abelian})
        rows.sort(key=lambda r: (r["order"], r["name"]))
        _emit({"groups": rows}, args.output)
        return 0
    g = get_group(args.name)
    payload = g.to_dict()
    payload["abelian"] = g.is_abelian
    payload["center_order"] = len(center(g).members)
    _emit(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _add_output(p):
    p.add_argument("--output", help="write the JSON here instead of stdout")


def _add_max_order(p, default=None):
    p.add_argument("--max-order", type=int, default=default,
                   help="carrier order bound for searches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centext",
        description="Central extensions of finite groups: cohomology "
                    "class spaces, twisted products, and certified "
                    "isomorphism decisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology",
                       help="class space report for a group pair")
    p.add_argument("g1", help="coefficient group (catalog name or file)")
    p.add_argument("g2", help="base group (catalog name or file)")
    _add_output(p)
    _add_max_order(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("extend", help="build the twisted product")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("cocycle", nargs="?",
                   help="JSON file with the cocycle table")
    p.add_argument("--class-index", type=int, default=None,
                   help="use this cohomology class representative instead")
    _add_output(p)
    _add_max_order(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("iso", help="decide one isomorphism kind")
    p.add_argument("mode", choices=ISO_MODES)
    p.add_argument("ext1", help="extension JSON file")
    p.add_argument("ext2", help="extension JSON file")
    p.add_argument("--assume-sim-trivial", action="store_true",
                   help="assert the quotient coboundary-triviality "
                        "hypothesis where it cannot be verified")
    _add_output(p)
    _add_max_order(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify", help="cross-validation harness")
    p.add_argument("pairs", nargs="*",
                   help="pairs like Z2:K4 (default: the standard four)")
    p.add_argument("--max-order", type=int, default=16,
                   help="skip pairs whose carrier exceeds this order")
    p.add_argument("--slow", action="store_true",
                   help="add the order-120 double-cover checks")
    _add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="built-in groups")
    cat = p.add_subparsers(dest="action", required=True)
    pl = cat.add_parser("list")
    _add_output(pl)
    pl.set_defaults(func=cmd_catalog, action="list")
    ps = cat.add_parser("show")
    ps.add_argument("name")
    _add_output(ps)
    ps.set_defaults(func=cmd_catalog, action="show")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisNotVerified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
