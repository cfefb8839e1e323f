"""Checks of the benchmark itself: repeatable work counts and oracles that bite.

Run from the repository root:  python -m pytest bench/test_bench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Work counts that later changes quote as counts; each must repeat exactly.
PINNED = {
    "sweep": ("expr.eval_array.points", "quadrature.panels", "certify.triples",
              "harness.parses_per_case"),
    "modulus": ("expr.eval_array.points", "certify.triples",
                "chains.max_feasible_c.certify_calls"),
    "chains": ("expr.eval_array.points", "quadrature.panels"),
}


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _, _ in LAYER_METRICS]
    for name, unit, _ in LAYER_METRICS:
        if unit != "s" and not name.startswith("trace."):
            assert first["metrics"][name] == second["metrics"][name], name
    for name in PINNED[workload]:
        assert first["metrics"][name]["value"] > 0, name
    wall = first["metrics"]["trace.pass_s"]["value"]
    for name, unit, _ in LAYER_METRICS:
        if unit == "s":
            assert first["metrics"][name]["value"] <= wall, name


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# --------------------------------------------------------------------------
# Each oracle accepts today's answer and rejects a perturbed one
# --------------------------------------------------------------------------

def _edit(output, edit):
    code, out, err = output
    doc = json.loads(out)
    edit(doc)
    return code, json.dumps(doc), err


def test_sweep_oracle_rejects_perturbed_reports():
    op = workloads.sweep_ops(5)[0]
    output = op.run()
    assert workloads.check_sweep(output) is None
    assert json.loads(output[1])["violations"], "want a cycle op with violations"

    def miscount(doc):
        doc["outputs"]["holds"]["dragomir_mond"] += 1

    def theorem1_violation(doc):
        doc["outputs"]["holds"]["theorem1"] -= 1
        doc["outputs"]["violated"]["theorem1"] += 1
        doc["violations"].append(dict(doc["violations"][0], kind="theorem1"))

    def wrong_family(doc):
        doc["violations"][0]["family"] = "exp_quadratic"

    for edit in (miscount, theorem1_violation, wrong_family):
        assert workloads.check_sweep(_edit(output, edit)) is not None, edit.__name__
    code, out, err = output
    assert workloads.check_sweep((0, out, err)) is not None
    assert workloads.check_sweep((code, out + " ", err), first=(code, out)) is not None


def _modulus_fns():
    fns = workloads.modulus_functions(np.random.default_rng(0))
    pick = {}
    for fn in fns:
        key = fn.family if fn.family != "scaled_power" else ("neg" if fn.log_convex else "pos")
        pick.setdefault(key, fn)
    return pick


def _cli(command, fn):
    return workloads.call_cli([command, "--f", fn.text, "--a", repr(fn.a), "--b", repr(fn.b), "--json"])


def test_certify_oracle_rejects_perturbed_certificates():
    fns = _modulus_fns()
    for key in ("exp_quadratic", "neg"):
        fn = fns[key]
        output = _cli("certify", fn)
        assert workloads.check_certify(fn, output) is None, key
        c_star = json.loads(output[1])["outputs"]["c_star"]
        high = _edit(output, lambda d: d["outputs"].update(c_star=c_star * (1 + 2e-3)))
        assert workloads.check_certify(fn, high) is not None, key
        flipped = _edit(output, lambda d: d["outputs"].update(status="certified_zero"))
        assert workloads.check_certify(fn, flipped) is not None, key

    fn = fns["pos"]
    output = _cli("certify", fn)
    assert workloads.check_certify(fn, output) is None
    wrong = _edit(output, lambda d: d["outputs"].update(status="certified_positive"))
    assert workloads.check_certify(fn, wrong) is not None

    fn = fns["log_affine"]
    output = _cli("certify", fn)
    assert workloads.check_certify(fn, output) in (None, workloads.KNOWN_LOG_AFFINE)
    for status, c_star in (("certified_positive", 0.5), ("not_log_convex", -1.0)):
        wrong = _edit(output, lambda d: d["outputs"].update(status=status, c_star=c_star))
        assert workloads.check_certify(fn, wrong) not in (None, workloads.KNOWN_LOG_AFFINE)


def test_log_affine_certify_ops_are_probes_not_timed_ops():
    def log_affine_certify(op):
        return op.label.startswith("certify exp(") and "x^2" not in op.label

    probes = workloads.probes("modulus", 0)
    assert len(probes) == dict(workloads.MODULUS_MIX)["log_affine"]
    assert all(log_affine_certify(op) for op in probes)
    assert not any(log_affine_certify(op) for op in workloads.build("modulus", 0))
    assert workloads.probes("sweep", 0) == workloads.probes("chains", 0) == []


def test_maxc_oracle_rejects_perturbed_answers():
    fns = _modulus_fns()
    for key in ("exp_quadratic", "neg", "log_affine"):
        fn = fns[key]
        output = _cli("maxc", fn)
        assert workloads.check_maxc(fn, output) is None, key
        max_c = json.loads(output[1])["outputs"]["max_c"]
        for moved in (max_c * (1 + 1e-4) + 1e-6, max_c * (1 - 1e-4) - 1e-6):
            wrong = _edit(output, lambda d: d["outputs"].update(max_c=moved))
            assert workloads.check_maxc(fn, wrong) is not None, key

    fn = fns["pos"]
    output = _cli("maxc", fn)
    assert workloads.check_maxc(fn, output) is None
    assert workloads.check_maxc(fn, (0, '{"outputs": {"max_c": 0.5}}', "")) is not None


def test_chains_oracle_rejects_perturbed_results():
    for op in workloads.chains_ops(5)[:2]:  # one power, one exponential
        output = op.run()
        assert op.check(output) is None, op.label
        quad = output[0]
        off = dataclasses.replace(quad, value=quad.value + 10 * quad.error_estimate + 1e-6 * abs(quad.value))
        assert op.check((off,) + output[1:]) is not None, op.label
        for i in range(1, 4):
            failed = output[:i] + (dataclasses.replace(output[i], holds=False),) + output[i + 1:]
            assert op.check(failed) is not None, op.label
        t2 = dataclasses.replace(output[4], holds_corrected=False)
        assert op.check(output[:4] + (t2,)) is not None, op.label
