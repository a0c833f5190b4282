"""One fresh process runs one pass of a workload.

Usage (from run.py): python3 -I bench/worker.py ROOT WORKLOAD SEED SMALL MODE
with MODE one of "setup" (stop once the jobs are ready), "plain" or "traced".

The process imports maxstop from ROOT/src, builds the job inputs, prints
"ready", times SETUP_PROBES runs of the probe kernel, runs every job once
through the public API, then prints one JSON line: the pass time, the probe
times, peak RSS, the _forward_laws cache size before and after the pass,
each job's outputs and, when traced, the span summary.  A setup process
prints only the probe times.  A fresh process per pass keeps the library's
process-wide caches (walkdist._forward_laws, brownian._GL_CACHE) from
carrying over.

The probe kernel is a fixed pure-Python rational recurrence that imports
nothing from maxstop.  Its time measures how fast the machine runs Python
at that moment: on a shared host, other tenants slow a process down by up
to 2x for stretches of milliseconds to minutes.  A pass runs it at both
ends and, from a SIGALRM interval timer, every PROBE_PERIOD_S during the
pass; the pass time excludes the probes, and so do the spans of a traced
pass.  run.py divides each pass and set-up time by the mean probe time of
its process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

PROBE_PERIOD_S = 0.1
SETUP_PROBES = 10
_PROBE_P = Fraction(3, 7)
_PROBE_Q = 1 - _PROBE_P


def probe() -> float:
    """Time one run of the probe kernel: 40 steps of a rational binomial recurrence.

    The collector is off while it runs, so a collection of the library's
    heap never lands in a probe; the kernel makes no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    row = [Fraction(1)]
    for _ in range(40):
        new = [Fraction(0)] * (len(row) + 1)
        for k, v in enumerate(row):
            new[k] += v * _PROBE_Q
            new[k + 1] += v * _PROBE_P
        row = new
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def _import_maxstop(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import maxstop

    if not os.path.abspath(maxstop.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"maxstop imported from {maxstop.__file__}, not from {src}")
    return maxstop


def _prepare(job: dict, ms) -> dict:
    """Build the library inputs of a job (part of set-up, not of the pass)."""
    kind = job["kind"]
    if kind.startswith("cli_"):
        argv = [kind[4:], "--p", job["p"], "--N", str(job["N"]), "--reward", job["reward"]]
        if kind == "cli_evaluate":
            argv += ["--policy", job["policy"]]
        return {"argv": argv}
    if kind == "reflection":
        return {"w": ms.walkdist.WalkParams(Fraction(job["p"]), job["n"])}
    if kind == "key_inequality":
        return {
            "w": ms.walkdist.WalkParams(Fraction(job["p"]), job["n"]),
            "f": ms.cli.parse_reward(job["reward"], horizon=job["horizon"]),
        }
    if kind == "quadrature":
        return {"f": ms.rewards.exp_decay_reward(job["sigma"])}
    if kind == "mc_walk":
        n = job["n"]
        policies = {
            "tau0": lambda: ms.dpsolver.policy_tau0(n),
            "tauN": lambda: ms.dpsolver.policy_tauN(n),
            "stop-at-max": lambda: ms.dpsolver.policy_stop_at_max(n, job["from_step"]),
        }
        return {
            "w": ms.walkdist.WalkParams(Fraction(job["p"]), n),
            "f": ms.cli.parse_reward(job["reward"], horizon=n),
            "policy": policies[job["policy"]](),
        }
    if kind == "mc_bm":
        return {
            "model": ms.brownian.BmModel(
                lam=job["lam"], T=job["T"],
                mc=ms.brownian.McConfig(steps=job["steps"], replications=job["replications"]),
            ),
            "f": ms.rewards.exp_decay_reward(job["sigma"]),
            "rules": [_bm_rule(r, ms) for r in job["rules"]],
        }
    raise ValueError(f"unknown job kind {kind!r}")


def _bm_rule(text: str, ms):
    """'tau0', 'tauT' or 'drawdown:a', as on the bm-mc command line."""
    kind, _, arg = text.partition(":")
    if kind == "drawdown":
        return ms.brownian.BmRule("drawdown_threshold", float(arg))
    return ms.brownian.BmRule(kind)


def _run(job: dict, inp: dict, ms) -> dict:
    """Run one job and return its outputs as JSON-ready values."""
    kind = job["kind"]
    if kind.startswith("cli_"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ms.cli.main(inp["argv"])
        return {"exit_code": code, "report": buf.getvalue()}
    if kind == "reflection":
        return {
            "reflection": ms.walkdist.reflection_check(inp["w"]),
            "time_reversal": ms.walkdist.time_reversal_check(inp["w"]),
        }
    if kind == "key_inequality":
        w, f, i = inp["w"], inp["f"], job["i"]
        flags = ms.rewards.classify(f, horizon=job["horizon"])
        key = ms.walkdist.check_key_inequality(w, f, i)
        cor = ms.walkdist.check_corollary(w, f, i)
        return {
            "flags": {k: getattr(flags, k) for k in (
                "nonincreasing", "convex", "strictly_convex",
                "strictly_decreasing", "constant", "linear")},
            "key": {"lhs": str(key.lhs), "rhs": str(key.rhs), "strict": key.strict},
            "corollary": {"lhs": str(cor.lhs), "rhs": str(cor.rhs), "strict": cor.strict},
        }
    if kind == "quadrature":
        t, x, lam, f = job["t"], job["x"], job["lam"], inp["f"]
        g = ms.brownian.g_bm(t, x, lam, f)
        key = ms.brownian.check_bm_key_inequality(t, x, lam, f)
        return {
            "g": [g.value, g.error],
            "key": [key.lhs, key.rhs, key.quad_error_bound],
            "verdict": key.verdict,
        }
    if kind == "mc_walk":
        w, f, pol = inp["w"], inp["f"], inp["policy"]
        est = ms.coupling.mc_rule_value(job["seed"], w, f, pol, job["replications"])
        exact = ms.dpsolver.evaluate_policy(w, f, pol)
        return {"mc": [est.estimate, est.stderr, est.replications], "exact": str(exact)}
    if kind == "mc_bm":
        ests = ms.brownian.mc_bm_rule_values(job["seed"], inp["model"], inp["f"], inp["rules"])
        return {"estimates": [[r, e.estimate, e.stderr] for r, e in zip(job["rules"], ests)]}
    raise ValueError(f"unknown job kind {kind!r}")


def main(argv: list) -> int:
    root, workload, seed, small, mode = argv
    sys.path.insert(0, os.path.join(root, "bench"))
    import specs
    from spans import Tracer

    ms = _import_maxstop(root)
    import maxstop.cli  # noqa: F401  (the package does not import its CLI)

    jobs = specs.WORKLOADS[workload](int(seed), small=small == "1")
    inputs = [_prepare(job, ms) for job in jobs]
    laws = getattr(ms.walkdist, "_forward_laws", None)

    def laws_cached():
        return laws.cache_info().currsize if laws else None

    cache_before = laws_cached()
    print("ready", flush=True)
    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    if mode == "setup":
        sys.stdout.write(json.dumps({"setup_probes": setup_probes}) + "\n")
        return 0

    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    probes = [probe()]

    def on_alarm(signum, frame):
        start = time.perf_counter()
        probes.append(probe())
        if tracer:
            tracer.exclude(start, time.perf_counter())

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    outputs = []
    t0 = time.perf_counter()
    for job, inp in zip(jobs, inputs):
        try:
            outputs.append(_run(job, inp, ms))
        except Exception as exc:  # a failing job is reported, the pass goes on
            traceback.print_exc(file=sys.stderr)
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0 - sum(probes[1:])
    probes.append(probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    import numpy

    result = {
        "wall_s": wall,
        "probes": probes,
        "setup_probes": setup_probes,
        "peak_rss_mb": rss_mb,
        "pid": os.getpid(),
        "laws_cached_before": cache_before,
        "laws_cached_after": laws_cached(),
        "numpy": numpy.__version__,
        "outputs": outputs,
    }
    if tracer:
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
