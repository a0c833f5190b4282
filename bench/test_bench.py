"""Self-test of the benchmark: python3 -m pytest bench -q

Runs every workload at a tiny size, untraced and traced, and checks that
the result carries every metric of BENCHMARK.json with its unit, that a
failing reference check lowers passed_ratio, that passes never share the
law cache, and that the two exact references agree with each other.
"""

import json
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import specs  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(specs.WORKLOADS)


@pytest.mark.parametrize("workload", list(specs.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = run.measure(workload, seed=3, seconds=0, trace=trace, small=True)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(out["lines"], default=str)

    # every pass is a fresh process that starts with an empty law cache
    passes = out["lines"][-3 if trace else -1]["samples"]["passes"]
    assert len({p["pid"] for p in passes}) == len(passes)
    assert all(p["laws_cached_before"] == 0 for p in passes)
    if workload != "stochastic":
        assert all(p["laws_cached_after"] > 0 for p in passes)


def test_a_failing_reference_check_lowers_passed_ratio(monkeypatch):
    base = run.measure("exact_large", seed=3, seconds=0, trace=False, small=True)
    real = checks.references

    def wrong(job):
        ref = real(job)
        ref["tau0"] += 1
        ref["tauN"] += 1
        return ref

    monkeypatch.setattr(checks, "references", wrong)
    bad = run.measure("exact_large", seed=3, seconds=0, trace=False, small=True)
    ratio = lambda out: out["result"]["metrics"]["passed_ratio"]["value"]  # noqa: E731
    assert ratio(bad) == 0.0 < ratio(base)
    assert not bad["result"]["correct"]
    failing = [line["failed_job"] for line in bad["lines"] if "failed_job" in line]
    assert len(failing) == len(specs.exact_large(3, small=True))
    assert all(f["inputs"] and f["value_failures"] for f in failing)


def test_excluded_time_counts_in_no_layer():
    tracer = spans.Tracer()

    def law_pass():
        start = time.perf_counter()
        time.sleep(0.05)  # stands in for a probe run from the timer
        tracer.exclude(start, time.perf_counter())

    idx = tracer.names.index("walkdist.joint_pmf")
    tracer._wrap(idx, law_pass, keep_return=False, counter=None)()
    law = tracer.summary()["groups"]["walkdist.law"]
    assert law["spans"] == 1 and 0 <= law["self_s"] < 0.04


def test_known_defects_are_flagged():
    # exp_decay_table(1) is not convex on {0..33}; g_bm(0.5, 0.25, 1) breaks its bound
    assert not checks.shape_flags(checks.reward_values("exp_decay_table:1", 33))["convex"]
    assert checks.shape_flags(checks.reward_values("exp_decay_table:1", 28))["convex"]
    job = {"kind": "quadrature", "t": 0.5, "x": 0.25, "lam": 1.0, "sigma": 1.0}
    ref = checks.references(job)
    # g_bm's output at this point; the key inequality side matches its reference
    out = {"g": [0.46724090042923133, 9.763501054280221e-08],
           "key": [ref["key_rhs"] + 0.1, ref["key_rhs"], 1e-7], "verdict": "strict"}
    c = checks.check_job(job, out, ref)
    assert c.bound_violations == 1 and c.claim_failures and not c.value_failures


@pytest.mark.parametrize("n", range(13))
def test_path_enumeration_matches_the_reflection_closed_form(n):
    assert checks.path_counts(n) == checks.closed_form_counts(n)
    law = checks.joint_law(Fraction(3, 7), n)
    assert sum(law.values()) == 1
