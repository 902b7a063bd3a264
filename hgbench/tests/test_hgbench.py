"""Tests of the benchmark itself: ``python3 -m pytest hgbench/tests``."""

import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hgineq  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    out = harness.run_untraced(hgineq, workload, seed=3, seconds=0.0, import_s=0.0, tiny=True)
    assert out.problems == [] and out.failed == 0 and out.attempted > 0
    assert set(out.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) for v, _ in out.metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_is_correct_and_reports_every_per_layer_metric(workload):
    out = harness.run_traced(hgineq, workload, seed=3, seconds=0.0, tiny=True)
    assert out.problems == [] and out.failed == 0
    metrics = out.metrics
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    box_calls = metrics["quadrature.integrate_box.calls"][0]
    if workload == "radial_corpus":
        assert box_calls == 0
    if workload == "cold_deep":
        assert metrics["calculus.sphere_measure.misses"][0] > 0
    else:
        assert metrics["calculus.sphere_measure.misses"][0] == 0
        assert metrics["calculus.sphere_measure.setup_misses"][0] > 0


def test_wrappers_are_restored_after_a_traced_run():
    before = hgineq.calculus.integrate_box, hgineq.norms.QuasiNormSpec.__call__
    harness.run_traced(hgineq, "radial_corpus", seed=0, seconds=0.0, tiny=True)
    assert (hgineq.calculus.integrate_box, hgineq.norms.QuasiNormSpec.__call__) == before


def test_cold_deep_cycles_share_no_inputs():
    wl = workloads.build(hgineq, "cold_deep", seed=0, tiny=True)
    inputs = [{op.label for unit in units for op in unit if op.kind != "sigma"}
              for units in (wl.reference, wl.cycle(0), wl.cycle(1))]
    assert all(inputs)
    assert all(a.isdisjoint(b) for a, b in itertools.combinations(inputs, 2))


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for section in ("end_to_end", "per_layer") for m in SPEC[section])


def _report():
    group = hgineq.parse_group("r:3")
    norm = hgineq.default_norm(group)
    f = hgineq.make_corpus(group, norm, hgineq.CorpusSpec(count=1, seed=0))[0]
    return hgineq.ckn_report(group, norm, f, 2.0, 0.0, 1.0)


def test_checker_accepts_a_real_report_and_rejects_a_planted_violation():
    rep = _report()
    assert checks.report_problems(rep) == []
    bad = dataclasses.replace(rep, lhs=rep.rhs + 2.0 * rep.margin + 1e-3 * rep.rhs)
    assert bad.satisfied  # the planted report still claims to hold
    assert any("violated" in p for p in checks.report_problems(bad))


def test_rerun_check_flags_a_changed_result():
    rep = _report()
    rerun = harness.RerunCheck([[None], [None, None]])
    assert not rerun.changed(1, 1, rep) and not rerun.changed(1, 1, rep)
    assert rerun.changed(1, 1, dataclasses.replace(rep, lhs=rep.lhs * (1 + 1e-15)))
    assert not rerun.changed(1, 0, dataclasses.replace(rep, lhs=2 * rep.lhs))


def test_checker_rejects_a_perturbed_sigma():
    group = hgineq.parse_group("heis1")
    exact = checks.closed_form_sigma(group, "koranyi")
    assert exact == pytest.approx(math.pi**2 / 2)
    assert checks.sigma_problems("heis1", exact * (1 + 1e-4), exact) == []
    assert checks.sigma_problems("heis1", exact * (1 + 1e-2), exact)
    assert checks.closed_form_sigma(group, "max_scaled") == 4.0 * 8.0


def test_checker_rejects_a_scan_entry_below_the_sharp_constant():
    group = hgineq.parse_group("r:3")
    scan = hgineq.sharpness_scan(group, hgineq.default_norm(group), 2.0, 0.0, 1.0,
                                 schedule=((1e-2, 1e2),))
    assert checks.scan_problems(scan) == []
    entry = dict(scan.entries[0], attained=scan.target * 0.9)
    assert checks.scan_problems(dataclasses.replace(scan, entries=(entry,)))


def test_run_without_source_exits_2_and_prints_no_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "cold_deep", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_run_all_reports_a_workload_without_result_and_goes_on(monkeypatch, capsys):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
    good = json.dumps({"meta": {"problems": []}}) + "\n" + json.dumps(result) + "\n"
    procs = iter([subprocess.CompletedProcess([], 1, "", "Traceback: boom\n")]
                 + [subprocess.CompletedProcess([], 0, good, "")] * 2)
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: next(procs))
    assert run.main(["--seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert f"{run.WORKLOADS[0]}: no result" in out
    assert f"{run.WORKLOADS[-1]}: correct=True" in out
