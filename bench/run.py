"""Benchmark of maxstop: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact_large --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  One client runs a closed loop: each pass of the workload is a
fresh single-threaded worker process (BLAS/OpenMP pinned to one thread)
that sets up, runs every job once, and exits; the next pass starts when
the previous one has returned, and each pass is followed by one set-up-only
process for a second set-up sample.  Passes repeat while the next one fits
in --seconds (at least MIN_PASSES of each mode).  Every job's outputs are
checked against references computed in this process without importing
maxstop (see checks.py).

--trace 0 reports the end-to-end metrics:
  wall_norm_s  time of one pass, set-up excluded, at probe speed: the median
               over passes
  setup_s      process start to first job ready (interpreter, import,
               inputs), at probe speed: the median over every process of
               the run
  peak_rss_mb  peak resident memory of a worker: the median over passes
  passed_ratio jobs whose checks all passed / jobs attempted
"At probe speed" means scaled to a machine on which the probe kernel of
worker.py takes PROBE_SCALE_S: a time is multiplied by PROBE_SCALE_S over
the mean probe time of its own process, sampled through the pass (every
0.1 s and at both ends) or right after set-up.  On a shared machine other
tenants slow a process down by up to 2x, in stretches from milliseconds to
minutes; the probe slows down with it, so the ratio keeps the program's
cost and drops the machine's load.  Over ten seeds per workload on a
2-CPU VM, the quartile distance over the median of the median pass was
0.12-0.20 in raw time and 0.023-0.029 at probe speed; of set-up, 0.09-0.13
raw and 0.05-0.06 at probe speed.  The raw times print with the samples.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see spans.py), each the median over traced passes with times at
probe speed, plus the tracing overhead, the median traced pass time minus
the median untraced one; the untraced end-to-end numbers print on the line
before.  Earlier lines give machine info, the samples, and the
inputs and failed checks of every failing job.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}, where correct means
no value check failed; claim checks (an error bound that does not bound
the error, a reward used as convex that is not) count in failed but not
against correct.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import specs  # noqa: E402

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_PASSES = 3
PROBE_SCALE_S = 0.005  # about the probe's fastest time on a 2-CPU Xeon VM
DEADLINE_S = 170.0  # stop starting work that could end after this

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _CONTRACT = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, small: bool, mode: str, deadline: float):
    """Run one worker process; return (setup seconds, its result or None)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           ROOT, workload, str(seed), "1" if small else "0", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **THREAD_PINNING})
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} pass of {workload} ran past the deadline")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} before finishing")
    return setup, json.loads(out.splitlines()[-1])


def at_probe_speed(seconds: float, probes: list) -> float:
    return seconds * PROBE_SCALE_S / statistics.fmean(probes)


def layer_metrics(trace: dict, bound_violations: int) -> dict:
    g = trace["groups"]
    fn = trace["functions"]
    counts = trace["counts"]
    return {
        "walkdist.law_s": g["walkdist.law"]["self_s"],
        "walkdist.check_s": g["walkdist.check"]["self_s"],
        "walkdist.calls": g["walkdist.law"]["spans"] + g["walkdist.check"]["spans"],
        "walkdist.max_bits": trace["max_bits"],
        "dpsolver.solve_self_s": g["dpsolver.solve"]["self_s"],
        "dpsolver.evaluate_self_s": g["dpsolver.evaluate"]["self_s"],
        "dpsolver.states": counts["dpsolver.states"],
        "oracle.self_s": g["oracle"]["self_s"],
        "oracle.calls": g["oracle"]["spans"],
        "rewards.classify_s": g["rewards.classify"]["self_s"],
        "coupling.mc_s": g["coupling.mc"]["self_s"],
        "coupling.rng_setup_s": g["coupling.rng"]["self_s"],
        "coupling.replications": counts["coupling.replications"],
        "brownian.quad_s": g["brownian.quad"]["self_s"],
        "brownian.density_evals": fn.get("brownian.joint_density", {}).get("calls", 0),
        "brownian.bound_violations": bound_violations,
        "brownian.mc_s": g["brownian.mc"]["self_s"],
        "brownian.path_steps": counts["brownian.path_steps"],
        "cli.self_s": g["cli"]["self_s"],
    }


def traced_layers(traced_pass: dict) -> dict:
    """The per-layer metrics of one traced pass, its times at probe speed."""
    values = layer_metrics(
        traced_pass["trace"], sum(c.bound_violations for c in traced_pass["checks"])
    )
    scale = at_probe_speed(1.0, traced_pass["probes"])
    return {k: v * scale if PER_LAYER[k] == "s" else v for k, v in values.items()}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run the closed loop and return the result plus everything printed before it."""
    jobs = specs.WORKLOADS[workload](seed, small=small)
    refs = [checks.references(job) for job in jobs]

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    modes = ["plain", "traced"] if trace else ["plain"]
    passes, setups, spent = [], [], []
    while True:
        now = time.perf_counter()
        if spent:
            typical = statistics.median(spent)
            if len(passes) >= MIN_PASSES * len(modes) and now - start + typical > seconds:
                break
            if now + 1.5 * max(spent) > deadline:
                break
        mode = modes[len(passes) % len(modes)]
        setup, res = spawn(workload, seed, small, mode, deadline)
        # one more set-up-only process per pass spreads set-up samples over the run
        setup_only, probed = spawn(workload, seed, small, "setup", deadline)
        setups += [(setup, res["setup_probes"]), (setup_only, probed["setup_probes"])]
        spent.append(time.perf_counter() - now)
        res["mode"] = mode
        res["checks"] = [checks.check_job(j, o, r) for j, o, r in zip(jobs, res["outputs"], refs)]
        passes.append(res)

    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(c.failed for p in passes for c in p["checks"])
    correct = not any(c.value_failures for p in passes for c in p["checks"])
    failing = []
    for idx, job in enumerate(jobs):
        bad = [p["checks"][idx] for p in passes if p["checks"][idx].failed]
        if bad:
            failing.append({"failed_job": {
                "workload": workload, "seed": seed, "index": idx, "inputs": job,
                "passes_failed": len(bad), "value_failures": bad[0].value_failures,
                "claim_failures": bad[0].claim_failures,
            }})

    for p in passes:
        p["wall_norm_s"] = at_probe_speed(p["wall_s"], p["probes"])
    plain = [p for p in passes if p["mode"] == "plain"]
    setups_norm = [at_probe_speed(s, probes) for s, probes in setups]
    end_to_end = {
        "wall_norm_s": statistics.median(p["wall_norm_s"] for p in plain),
        "setup_s": statistics.median(setups_norm),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "passed_ratio": 1 - failed / attempted,
    }
    values = end_to_end
    if trace:
        traced = sorted((p for p in passes if p["mode"] == "traced"),
                        key=lambda p: p["wall_norm_s"])
        per_pass = [traced_layers(p) for p in traced]
        values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p["wall_norm_s"] for p in traced)
                                      - end_to_end["wall_norm_s"])
    units = PER_LAYER if trace else END_TO_END
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "platform": platform.platform(), "thread_pinning": THREAD_PINNING,
        "load": "closed loop, 1 client, 1 worker process per pass",
        "src_lines": src_lines(),
    }
    samples = {
        "probe_scale_s": PROBE_SCALE_S,
        "passes": [
            {**{k: p[k] for k in ("mode", "wall_s", "wall_norm_s", "peak_rss_mb", "pid",
                                  "laws_cached_before", "laws_cached_after")},
             "probes": len(p["probes"]), "probe_mean_s": statistics.fmean(p["probes"])}
            for p in passes
        ],
        "setup_s_raw": [s for s, _ in setups],
        "setup_s_norm": setups_norm,
    }
    lines = [{"info": info}, *failing, {"samples": samples}]
    if trace:
        lines.append({"end_to_end_untraced": {
            k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()
        }})
        lines.append({"trace_functions_median_pass": traced[len(traced) // 2]["trace"]["functions"]})
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return {"lines": lines, "result": result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(json.dumps(line, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
