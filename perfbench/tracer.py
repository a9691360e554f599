"""Spans around the public calls into each thetatool layer, recorded from
outside the library by rebinding those calls to timing wrappers.

A span is ``[name, parent, start_ns, end_ns, error]``, kept in memory and
written out when the pass ends.  A call made while a span of the same name
is open is folded into the open one, so ``.calls`` counts the outermost
calls.  A layer's busy time is its self time: the span's duration minus the
part its child spans cover.  Spans are only recorded while the tracer is
enabled, which the worker does during set-up and inside each op, so the
answer checks that run after an op's clock has stopped are not traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.enabled = False
        self._stack: List[int] = []
        self._open: Counter = Counter()
        # computed counts per layer, e.g. restricted.restrict.pairings
        self.counts: Dict[str, int] = defaultdict(int)
        self._seen: Dict[str, dict] = defaultdict(dict)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled or self._open[name]:
            return fn(*args, **kwargs)
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[3] = time.perf_counter_ns()
            self._open[name] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """A stand-in for fn that records a span; ``count(tracer, args,
        result)`` adds computed counts after each traced call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.enabled and not self._open[name]
            result = self.call(name, fn, *args, **kwargs)
            if outer and count is not None:
                count(self, args, result)
            return result

        return traced

    def count_new(self, key: str, obj, amount: int) -> None:
        """Add amount to a count once per distinct result object, so that a
        cached result is counted once, when it was built."""
        seen = self._seen[key]
        if id(obj) not in seen:
            seen[id(obj)] = obj  # keeps obj alive, so its id stays unique
            self.counts[key] += amount

    # -- reading the spans back ---------------------------------------------------

    def self_times(self) -> List[int]:
        """Self time of each span in ns."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def summary(self) -> Dict[str, dict]:
        """Per span name: busy_s (self time), calls, and errors by type."""
        out: Dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s[0], {"busy_s": 0.0, "calls": 0, "errors": Counter()})
            row["busy_s"] += own / 1e9
            row["calls"] += 1
            if s[4]:
                row["errors"][s[4]] += 1
        return out

    def op_coverage(self) -> List[List[float]]:
        """For each op span, [its time in s, the share of it inside layer
        spans].  The wrappers cost about a microsecond a call, so the share
        of an op under a few milliseconds is bounded by their overhead."""
        own = self.self_times()
        return [
            [(s[3] - s[2]) / 1e9, 1 - own[i] / (s[3] - s[2])]
            for i, s in enumerate(self.spans)
            if s[0] == OP and s[3] > s[2]
        ]


def patch_function(tracer: Tracer, module, attr: str, name: str, count=None) -> None:
    """Rebind module.attr, and every other thetatool binding of the same
    function (``from .x import f`` copies), to a traced wrapper."""
    orig = getattr(module, attr)
    traced = tracer.wrap(name, orig, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "thetatool" or mod_name.startswith("thetatool."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)


def patch_method(tracer: Tracer, cls, attr: str, name: str, count=None) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from thetatool import cli, liealg, nilcomp, restricted, rootsys, satake, weylinv

    def pairings(t, args, rrs):
        t.count_new("restricted.restrict.pairings", rrs, len(rrs.doubled) ** 2)

    def ad_bytes(t, args, alg):
        t.count_new("liealg.build_algebra.ad_bytes", alg, 8 * alg.dim**3)

    def rank_solves(t, args, result):
        t.counts["liealg.centralizer_dims.rank_solves"] += 2

    def brackets(t, args, result):
        pair = args[0]
        k, p = pair.dim_k, pair.dim_p
        t.counts["liealg.check_grading.brackets"] += k * k + k * p + p * p

    patch_function(tracer, rootsys, "build_root_system", "rootsys.build_root_system")
    for attr in ("all_catalog_entries", "catalog_list", "catalog_lookup"):
        patch_function(tracer, satake, attr, "satake.catalog")
    patch_method(tracer, satake.SatakeInvolution, "theta_perm", "satake.theta_perm")
    patch_method(tracer, satake.SatakeInvolution, "kp_dimensions", "satake.kp_dimensions")
    patch_function(tracer, restricted, "restrict", "restricted.restrict", pairings)
    patch_function(tracer, weylinv, "invariant_degrees", "weylinv.invariant_degrees")
    patch_function(tracer, weylinv, "poincare_polynomial", "weylinv.poincare_polynomial")
    patch_function(tracer, nilcomp, "omega", "nilcomp.omega")
    patch_function(tracer, nilcomp, "component_count", "nilcomp.component_count")
    patch_function(tracer, liealg, "build_algebra", "liealg.build_algebra", ad_bytes)
    for attr in ("find_inner_coweight", "realize_inner", "realize_chevalley_involution"):
        patch_function(tracer, liealg, attr, "liealg.realize")
    patch_method(
        tracer, liealg.SymmetricPairRealization, "centralizer_dims",
        "liealg.centralizer_dims", rank_solves,
    )
    patch_method(
        tracer, liealg.SymmetricPairRealization, "random_p_element", "liealg.random_p_element"
    )
    patch_method(
        tracer, liealg.SymmetricPairRealization, "check_grading",
        "liealg.check_grading", brackets,
    )
    patch_function(tracer, cli, "build_report", "cli.build_report")
