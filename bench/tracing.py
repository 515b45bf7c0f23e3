"""Spans around calls into each centext module, recorded from outside.

`Tracer.install()` replaces each listed public function with a wrapper
in every centext module that bound it by name, so that, say, the
`enumerate_automorphisms` imported into `isotest` is traced as well as
the one in `groups`.  Each call records a span [name, start, end,
parent span, op id, observation], the last one layer-specific.  Spans
stay in memory until the run ends; then `write_spans()` saves them and
`layer_metrics()` turns them into the per-layer metrics.
"""

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> what to observe about one call: f(args, result)
_OBSERVE = {
    "intlinalg.solve_linear_mod":
        lambda a, r: [a[0].rows, hash((a[0].data, tuple(a[1])))],
    "intlinalg.smith_normal_form": None,
    "intlinalg.abelian_invariants": None,
    "cocycles.compute_cocycle_space": None,
    "cocycles.are_cohomologous": lambda a, r: r is not None,
    "cocycles.is_cocycle": None,
    "groups.validate_group": None,
    "groups.enumerate_homs": lambda a, r: len(r),
    "groups.enumerate_isomorphisms": lambda a, r: len(r),
    "groups.enumerate_automorphisms": lambda a, r: [len(r), hash(a[0].table)],
    "groups.brute_force_isomorphism": lambda a, r: int(r is not None),
    "extensions.build_extension": None,
    "extensions.is_homomorphism_direct": None,
    "extensions.decompose_hom": None,
    "isotest.upper_isomorphic": lambda a, r: r is not None,
    "isotest.lower_isomorphic": lambda a, r: r is not None,
    "isotest.g1g2_isomorphic": None,
    "isotest.oracle_iso_survey": None,
    "isotest.verify_theorems": None,
    "catalog.identify_group": None,
    "cli.main": None,
}

# the four entry points of the one backtracking core, reported together
MAP_SEARCH = ("groups.enumerate_homs", "groups.enumerate_isomorphisms",
              "groups.enumerate_automorphisms",
              "groups.brute_force_isomorphism")

_HIT = ("cocycles.are_cohomologous", "isotest.upper_isomorphic",
        "isotest.lower_isomorphic")

# every per-layer metric, with its unit
LAYER_METRICS = {
    "intlinalg.solve_linear_mod.rows_max": "count",
    "intlinalg.solve_linear_mod.repeat_ratio": "ratio",
    "groups.map_search.calls": "count",
    "groups.map_search.self_s": "s",
    "groups.map_search.maps": "count",
    "groups.enumerate_automorphisms.calls": "count",
    "groups.enumerate_automorphisms.repeat_ratio": "ratio",
}
for _name in _OBSERVE:
    if _name not in MAP_SEARCH:
        LAYER_METRICS[_name + ".calls"] = "count"
        LAYER_METRICS[_name + ".self_s"] = "s"
for _name in _HIT:
    LAYER_METRICS[_name + ".hit_ratio"] = "ratio"


class Tracer:
    """Records spans for every call into the wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        # [name, start, end, parent index or -1, op id, observation]
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op = "setup"

    def install(self):
        """Wrap every listed function in every loaded centext module."""
        for span_name, observe in _OBSERVE.items():
            module_name, func_name = span_name.split(".")
            original = getattr(sys.modules["centext." + module_name],
                               func_name)
            wrapper = self._wrap(span_name, original, observe)
            for name, module in list(sys.modules.items()):
                if name != "centext" and not name.startswith("centext."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, span_name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [span_name, start, self.clock(),
                                parent, self.op, None]
                stack.pop()
                raise
            end = self.clock()
            stack.pop()
            spans[index] = [span_name, start, end, parent, self.op,
                            observe(args, result) if observe else None]
            return result
        return wrapper


def write_spans(path, spans):
    """One JSON line per span: name, start, end, parent, op id."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span[:5]) + "\n")


def layer_metrics(spans):
    """Per-layer metrics as {name: value}; see LAYER_METRICS.

    A span's self time is its duration minus that of its direct
    children.  groups.map_search counts only outermost calls into
    the search core (enumerate_automorphisms calls
    enumerate_isomorphisms) and sums self time over all of them."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, seen = Counter(), defaultdict(float), defaultdict(list)
    for i, (name, start, end, parent, _, obs) in enumerate(spans):
        own = end - start - child_time[i]
        if name == "groups.enumerate_automorphisms":
            calls[name] += 1
            seen[name].append(obs and obs[1])
        if name in MAP_SEARCH:
            self_s["groups.map_search"] += own
            if parent >= 0 and spans[parent][0] in MAP_SEARCH:
                continue
            name = "groups.map_search"
            obs = obs[0] if isinstance(obs, list) else obs
        else:
            self_s[name] += own
        calls[name] += 1
        seen[name].append(obs)

    out = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        values = [v for v in seen[layer] if v is not None]
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "self_s":
            out[metric] = self_s[layer]
        elif stat == "hit_ratio":
            out[metric] = _share(values)
        elif stat == "rows_max":
            out[metric] = max((v[0] for v in values), default=0)
        elif stat == "maps":
            out[metric] = sum(values)
        elif stat == "repeat_ratio":
            keys = [v[1] if isinstance(v, list) else v for v in values]
            out[metric] = _share(_repeats(keys))
    return out


def _repeats(keys):
    """For each key, whether it occurred earlier in the sequence."""
    earlier = set()
    for key in keys:
        yield key in earlier
        earlier.add(key)


def _share(flags):
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0
