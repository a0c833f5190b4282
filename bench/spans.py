"""Span tracing of maxstop from outside, by wrapping module attributes.

Callers look functions up as module attributes at call time, so replacing
every binding of a function (the defining name and each `from . import`
copy, e.g. both `walkdist.max_marginals` and `dpsolver.max_marginals`) with
a recording wrapper sees every call without touching the library.  A span
is (function, start, end, parent span); spans stay in memory and are
summarized once the traced pass has ended.  A group's self time is the
time in its spans minus the time in their child spans of other functions,
so nested calls inside one group are counted once.  Time the benchmark
spends inside a span on its own work (the probe kernel of worker.py) is
recorded as an excluded child span, which no group counts.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# group -> "module.function" names recorded under it
GROUPS = {
    "walkdist.law": ("walkdist._forward_laws", "walkdist.joint_pmf", "walkdist.max_marginals"),
    "walkdist.check": (
        "walkdist.reflection_check", "walkdist.time_reversal_check",
        "walkdist.check_key_inequality", "walkdist.check_corollary",
        "walkdist.d_value", "walkdist.g_value",
    ),
    "dpsolver.solve": ("dpsolver.solve",),
    "dpsolver.evaluate": ("dpsolver.evaluate_policy",),
    "oracle": ("oracle.enumerate_optimum", "oracle.cross_validate", "oracle.tie_class_signatures"),
    "rewards.classify": ("rewards.classify",),
    "coupling.mc": ("coupling.mc_rule_value",),
    "coupling.rng": ("coupling._rng",),
    "brownian.quad": (
        "brownian.expect_joint", "brownian.g_bm", "brownian.dtilde_bm", "brownian.d_bm",
        "brownian.check_bm_key_inequality", "brownian.check_bm_corollary",
        "brownian.joint_density",
    ),
    "brownian.mc": (
        "brownian.mc_bm_rule_values", "brownian.mc_bm_rule_value",
        "brownian.sample_max_endpoint", "brownian._rng",
    ),
    "cli": ("cli.main",),
}


# work counts taken from return values at the same boundaries
COUNTERS = {
    "dpsolver.solve": ("dpsolver.states", lambda rep: len(rep.policy.decisions)),
    "coupling.mc_rule_value": ("coupling.replications", lambda est: est.replications),
    # grid rules share one set of paths: replications x steps per call
    "brownian.mc_bm_rule_values": (
        "brownian.path_steps",
        lambda ests: max((e.replications * e.steps for e in ests if e.steps), default=0),
    ),
}


class Tracer:
    def __init__(self):
        self.names = [name for names in GROUPS.values() for name in names]
        self.group_of = [g for g, names in GROUPS.items() for _ in names]
        self.spans = []  # [function index, start, end, parent index]
        self.returns = []  # return values of walkdist functions
        self.counts = {key: 0 for key, _fn in COUNTERS.values()}
        self._stack = []
        self._originals = []

    def install(self, package: str = "maxstop"):
        """Wrap every binding of every traced function in the package's modules."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for idx, name in enumerate(self.names):
            mod_name, attr = name.split(".")
            orig = getattr(sys.modules[f"{package}.{mod_name}"], attr, None)
            if orig is None:  # gone from the library: its spans read as zero
                continue
            wrapper = self._wrap(idx, orig, keep_return=mod_name == "walkdist",
                                 counter=COUNTERS.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._originals.append((mod, key, orig))

    def exclude(self, t0: float, t1: float):
        """Record [t0, t1] as time of no layer, taken out of the open span's self time."""
        self.spans.append([-1, t0, t1, self._stack[-1] if self._stack else -1])

    def uninstall(self):
        for mod, key, orig in self._originals:
            setattr(mod, key, orig)
        self._originals.clear()

    def _wrap(self, idx: int, fn, keep_return: bool, counter):
        spans, stack, returns, counts = self.spans, self._stack, self.returns, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(me)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_return:
                returns.append(out)
            if counter:
                counts[counter[0]] += counter[1](out)
            return out

        return wrapper

    def summary(self) -> dict:
        """Per-group self time and span count, and per-function totals."""
        child = [0.0] * len(self.spans)
        for _fid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        groups = {g: {"self_s": 0.0, "spans": 0} for g in GROUPS}
        functions = {}
        for (fid, t0, t1, _parent), inner in zip(self.spans, child):
            if fid < 0:
                continue
            g = groups[self.group_of[fid]]
            g["self_s"] += (t1 - t0) - inner
            g["spans"] += 1
            fn = functions.setdefault(self.names[fid], {"calls": 0, "total_s": 0.0})
            fn["calls"] += 1
            fn["total_s"] += t1 - t0
        return {
            "groups": groups,
            "functions": functions,
            "counts": self.counts,
            "max_bits": max_bits(self.returns),
        }


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    best = 0
    seen = set()
    todo = list(values)
    while todo:
        v = todo.pop()
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, (list, tuple)):
            if id(v) not in seen:
                seen.add(id(v))
                todo.extend(v)
        elif isinstance(v, dict):
            if id(v) not in seen:
                seen.add(id(v))
                todo.extend(v.values())
        elif hasattr(v, "entries"):  # JointLaw
            todo.append(v.entries)
        elif hasattr(v, "lhs"):  # InequalityReport
            todo.extend((v.lhs, v.rhs))
    return best
