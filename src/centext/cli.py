"""Command-line front end over a JSON interchange format.

Subcommands: cohomology (class space report), extend (build a twisted
product), iso (decide one isomorphism kind, with certificate), verify
(the cross-validation harness), catalog (built-in groups).

Exit codes:
  0 success (for iso: isomorphic in the requested kind);
  1 negative verdict (for verify: discrepancies found);
  2 validation error;
  3 a map-search size limit exceeded (never for cohomology, which runs
    no search);
  4 a lower negative cannot be settled: the component search found
    nothing, the quotient coboundary-triviality hypothesis that would
    make it complete fails for the quotient, and the exhaustive search
    that would replace it exceeds the size limits;
  5 a self-check of the library failed (errors.InternalInconsistency,
    printed as "error: internal: ..."), a defect of centext and not a
    verdict.

Group arguments are catalog names or paths to JSON files holding
{"table": [[...]], "name": optional string, "order": optional int
equal to the number of rows}.  Extension files hold
{"g1", "g2", "cocycle_table"} with groups given the same two ways, or
{"g1", "g2", "class_index"} to pick a cohomology class representative.
All output is JSON with sorted keys, so identical inputs give identical
bytes: exactly json.dumps(payload, indent=2, sort_keys=True) plus a
newline, written in one pass by _json_text, with a list of ints joined
at once rather than through json's pure-Python indenting encoder.
"""

import argparse
import json
import os
import sys
from functools import lru_cache

from .catalog import catalog_names, get_group, identify_group, \
    special_linear_2_5
from .cocycles import (
    Cocycle2,
    are_cohomologous,
    compute_cocycle_space,
    make_cocycle,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
from .errors import (
    GroupMismatch,
    HypothesisNotVerified,
    InternalInconsistency,
    SizeLimitExceeded,
)
from .extensions import (
    TRIVIAL_COMPONENTS,
    build_extension,
    central_quotient_data,
    trivial_components,
)
from .groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    SearchLimits,
    brute_force_isomorphism,
    center,
)
from .isotest import (
    DEFAULT_VERIFY_PAIRS,
    g1_isomorphic_necessary,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    g2_isomorphic_necessary,
    lower_isomorphic,
    upper_isomorphic,
    verify_theorems,
)

__all__ = ["main", "entry", "build_parser"]

ISO_MODES = tuple(k for k in TRIVIAL_COMPONENTS if k != "purely_nonabelian")


# ---------------------------------------------------------------------------
# I/O helpers


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_group(spec) -> FiniteGroup:
    """A group from a catalog name, a JSON file path, or an inline dict."""
    if isinstance(spec, dict):
        return FiniteGroup.from_dict(spec)
    if not isinstance(spec, str):
        raise ValueError(f"group {spec!r} is neither a name, a path nor "
                         "an object")
    try:
        return get_group(spec)
    except KeyError:
        if os.path.exists(spec):
            d = _read_json(spec)
            try:
                return FiniteGroup.from_dict(d)
            except ValueError as exc:
                raise ValueError(f"{spec}: {exc}") from None
        raise KeyError(
            f"{spec!r} is neither a catalog name nor an existing file")


def _load_extension(path):
    d = _read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: extension file must be a JSON object")
    groups = []
    for key in ("g1", "g2"):
        if key not in d:
            raise ValueError(f"{path}: missing {key!r}")
        try:
            groups.append(_load_group(d[key]))
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    g1, g2 = groups
    if "class_index" in d:
        k = d["class_index"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"{path}: class_index {k!r} is not an integer")
        cocycle = _class_representative(g1, g2, k, f"{path}: class_index")
    elif "cocycle_table" in d:
        cocycle = make_cocycle(g1, g2, d["cocycle_table"])
    else:
        raise ValueError(
            f"{path}: need either 'cocycle_table' or 'class_index'")
    return build_extension(cocycle)


def _class_representative(g1, g2, k, label):
    """Representative k of H^2(g2, g1), over g1 and g2 themselves rather
    than the groups a cached space carries; ValueError, prefixed by
    label, when k is out of range."""
    reps = compute_cocycle_space(g1, g2).class_representatives
    if not 0 <= k < len(reps):
        raise ValueError(f"{label} {k} out of range "
                         f"(the pair has {len(reps)} classes)")
    return Cocycle2(g1=g1, g2=g2, table=reps[k].table)


_encode_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
# the values written as they stand, with no indenting, by type: these
# four, and an empty list or dict
_INLINE = {str: _encode_str, int: str, bool: _JSON_CONSTANTS.__getitem__,
           type(None): _JSON_CONSTANTS.__getitem__}
_EMPTY = {list: "[]", dict: "{}"}


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    value indented at indent, in one pass.  The str-keyed dicts, lists,
    strings, ints, booleans and nulls of the reports are written here,
    strings by json's own ASCII escaping, a list of plain ints as one
    join, and a dict's str, int, bool and None values and empty lists
    and dicts inline.  Any other value (a tuple, a float, a dict with a
    key that is not a str) goes to json.dumps, re-indented, which is
    exact because json.dumps escapes every newline inside a string."""
    kind = type(value)
    if (write := _INLINE.get(kind)) is not None:
        return write(value)
    if kind in _EMPTY and not value:
        return _EMPTY[kind]
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        if set(map(type, value)) == {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    if kind is dict and set(map(type, value)) == {str}:
        return "{\n" + inner + sep.join([
            _encode_str(k) + ": " + (
                _INLINE[t](v) if (t := type(v)) in _INLINE
                else _EMPTY[t] if t in _EMPTY and not v
                else _json_text(v, inner))
            for k, v in sorted(value.items())]) + "\n" + indent + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + indent)


def _emit(payload, output):
    text = _json_text(payload) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cohomology(args) -> int:
    g1 = _load_group(args.g1)
    g2 = _load_group(args.g2)
    space = compute_cocycle_space(g1, g2)
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
    g1 = _load_group(args.g1)
    g2 = _load_group(args.g2)
    if (args.cocycle is None) == (args.class_index is None):
        raise ValueError(
            "pass exactly one of a cocycle file or --class-index")
    if args.class_index is not None:
        cocycle = _class_representative(g1, g2, args.class_index,
                                        "class index")
    else:
        d = _read_json(args.cocycle)
        if isinstance(d, dict) and "table" not in d:
            raise ValueError(f"{args.cocycle}: missing 'table'")
        cocycle = make_cocycle(g1, g2, d["table"] if isinstance(d, dict)
                               else d)
    ext = build_extension(cocycle)
    name = identify_group(ext.group)
    payload = ext.to_dict()
    payload["identified_as"] = name
    _emit(payload, args.output)
    print(f"classification: {name if name else '(not in the catalog)'}",
          file=sys.stderr)
    return 0


def _decide_iso(mode, e1, e2, limits):
    """Verdict, certificate dict or None, notes.

    Every mode but plain compares two extensions over one group pair,
    so a mismatched pair raises GroupMismatch before any search; a
    carrier isomorphism needs no common pair.  A structured decider
    answers upper, lower, g1g2, and g2 over abelian factor groups of
    equal order.  Other modes, and a lower
    negative that sim_is_trivial cannot settle, take the first carrier
    isomorphism of the mode's kind from the exhaustive search (lower
    raises HypothesisNotVerified past the limits); g1 and g2 extract
    their certificate from it, else keep the raw map with a note when
    the failed condition rests on the quotient hypothesis."""
    notes = []
    g1, g2 = e1.g1, e1.g2
    if mode != "plain" and (g1 != e2.g1 or g2 != e2.g2):
        raise GroupMismatch("extensions sit over different group pairs")
    decide = {"upper": upper_isomorphic, "lower": lower_isomorphic,
              "g1g2": g1g2_isomorphic}.get(mode)
    if (mode == "g2" and g1.is_abelian and g2.is_abelian
            and g1.order == g2.order):
        decide = g2_isomorphic_equal_order
    if decide is not None:
        cert = decide(e1, e2, limits)
        if cert is not None or mode != "lower":
            return cert is not None, cert.to_dict() if cert else None, notes
        if sim_is_trivial(g2):
            notes.append("negative settled by the component search; the "
                         "quotient hypothesis is verified")
            return False, None, notes

    forced = TRIVIAL_COMPONENTS[mode]
    try:
        phi = brute_force_isomorphism(
            e1.group, e2.group, limits=limits,
            constraint=lambda phi: trivial_components(
                e1, e2, phi.images).issuperset(forced))
    except SizeLimitExceeded as exc:
        if mode != "lower":
            raise
        raise HypothesisNotVerified(
            "the component search found nothing, its completeness "
            "needs the quotient hypothesis, which fails for this "
            "quotient, and exhaustive search exceeds the size "
            "limits") from exc
    if mode == "lower":
        notes.append("negative settled by exhaustive search" if phi is None
                     else "found by exhaustive search although the "
                     "component search came up empty; the quotient "
                     "hypothesis fails for this pair")
    if phi is None:
        return False, None, notes
    extract = {"g1": g1_isomorphic_necessary,
               "g2": g2_isomorphic_necessary}.get(mode)
    if extract is not None:
        try:
            return True, extract(e1, e2, phi).to_dict(), notes
        except HypothesisNotVerified as exc:
            notes.append(f"certificate left as the raw map: {exc}; the "
                         "quotient hypothesis fails here")
    return True, {"kind": mode, "phi": list(phi.images)}, notes


def cmd_iso(args) -> int:
    limits = (DEFAULT_LIMITS if args.max_order is None
              else SearchLimits(max_order=args.max_order))
    e1 = _load_extension(args.ext1)
    e2 = _load_extension(args.ext2)
    verdict, certificate, notes = _decide_iso(args.mode, e1, e2, limits)
    payload = {
        "mode": args.mode,
        "verdict": verdict,
        "certificate": certificate,
        "notes": notes,
    }
    _emit(payload, args.output)
    return 0 if verdict else 1


def _slow_checks(limits) -> dict:
    """The order-120 tier: both cohomology classes over the simple
    order-60 quotient, realized concretely and separated."""
    big = special_linear_2_5()
    kernel, quotient, eps, _ = central_quotient_data(big, center(big))
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
    specs = args.pairs or [":".join(p) for p in DEFAULT_VERIFY_PAIRS]
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
    payload["center_order"] = len(center(g))
    _emit(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _add_output(p):
    p.add_argument("--output", help="write the JSON here instead of stdout")


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
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("extend", help="build the twisted product")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("cocycle", nargs="?",
                   help="JSON file with the cocycle table")
    p.add_argument("--class-index", type=int, default=None,
                   help="use this cohomology class representative instead")
    _add_output(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("iso", help="decide one isomorphism kind")
    p.add_argument("mode", choices=ISO_MODES)
    p.add_argument("ext1", help="extension JSON file")
    p.add_argument("ext2", help="extension JSON file")
    _add_output(p)
    p.add_argument("--max-order", type=int, default=None,
                   help="order bound on both groups of every map search")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify", help="cross-validation harness")
    p.add_argument("pairs", nargs="*",
                   help="pairs like Z2:K4 (default: the standard seven)")
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


# parse_args keeps no state between calls, so one parser serves them all
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 5
    except HypothesisNotVerified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its key: print the key
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
