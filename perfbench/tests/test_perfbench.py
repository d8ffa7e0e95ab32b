"""Tests of the benchmark itself: statistics helpers, host-speed
normalisation, span accounting, output checks fed wrong references, and a
minimal run of every workload.

    python3 -m pytest perfbench/tests

The minimal runs start real interpreters and take a couple of minutes.
"""

import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import types

import pytest

import reference
import run
import stats
import tracer
import worker
import workloads
from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- statistics -----------------------------------------------------------

def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0]
    assert stats.median(values) == 4.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_is_the_sample_with_ten_beyond_it():
    values = [float(v) for v in range(20)]
    random.Random(0).shuffle(values)
    value, percentile, n = stats.tail(values)
    assert (value, n) == (9.0, 20)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * 9 / 19)


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, n = stats.tail([3.0] + [10.0] * 10)
    assert (value, percentile, n) == (3.0, 0.0, 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# --- host-speed normalisation ---------------------------------------------

def test_normalised_time_scales_by_the_mean_of_the_references_around_it():
    ref = reference.Reference("unit", 0.5, lambda: None)
    assert ref.normalised(1.0, 0.5, 0.5) == pytest.approx(1.0)
    # a host running at half speed doubles both the operation and the reference
    assert ref.normalised(2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert ref.normalised(1.0, 0.5, 1.5) == pytest.approx(0.5)


def test_references_run_and_the_kernel_is_deterministic():
    assert reference.kernel() == reference.kernel()
    assert reference.KERNEL.timed() > 0.0
    assert reference.COLD_START.timed() > 0.0


def test_references_are_paired_with_what_the_operations_do():
    assert workloads.CliCold.reference is reference.COLD_START
    assert workloads.AngleSweep.reference is reference.KERNEL
    assert workloads.FitFilm.reference is reference.KERNEL


def test_measure_brackets_every_operation_with_the_reference():
    cycle = [("a", lambda: 1, lambda out: []), ("b", lambda: 2, lambda out: ["wrong"])]
    fixed = reference.Reference("fixed", 1.0, lambda: None)
    workload = types.SimpleNamespace(cycle=lambda: cycle, reference=fixed)
    result = worker.measure(workload, seconds=0.0, min_samples=4)
    samples = result["samples"]
    assert [sample[0] for sample in samples] == ["a", "b", "a", "b"]
    for _, seconds, before, after, norm in samples:
        assert norm == fixed.normalised(seconds, before, after)
    # the reference after one operation is the reference before the next
    assert [s[2] for s in samples[1:]] == [s[3] for s in samples[:-1]]
    assert (result["attempted"], result["failed"]) == (4, 2)


def test_end_to_end_gates_normalised_times_and_shows_raw_ones():
    # ops of about 1 s on a host at half speed: normalised, about 0.5 s
    samples = [["op", 1.0 + 0.01 * i, 0.04, 0.04, 0.5 + 0.005 * i] for i in range(20)]
    fake = {"untraced": {"samples": samples}, "peak_rss_mb": 100.0,
            "reference": "kernel", "reference_nominal_s": 0.02}
    setups = [{"setup_s": 2.0 * v, "setup_norm_s": v} for v in (1.0, 2.0, 3.0)]
    metrics, shown, _ = run.end_to_end(setups, fake)
    assert set(metrics) == set(run.END_TO_END)
    assert (metrics["setup_s"], shown["setup_raw_s"]) == (2.0, 4.0)
    assert (metrics["wall_norm_s"], shown["wall_s"]) == (pytest.approx(0.5475),
                                                         pytest.approx(1.095))
    assert (metrics["wall_norm_tail_s"], shown["wall_tail_s"]) == (pytest.approx(0.545),
                                                                   pytest.approx(1.09))
    assert shown["host.ref_s"] == 0.04


# --- span accounting ------------------------------------------------------

def test_summary_self_times_and_model_calls():
    spans = [
        ["fit.solve", 0.0, 10.0, -1, {"nfev": 3, "converged": 2, "starts": 3}],
        ["tmm.stack_response", 1.0, 4.0, 0, {"layer_points": 600}],
        ["materials.epsilon", 1.0, 2.0, 1, {"points": 200}],
        ["tmm.stack_response", 20.0, 21.0, -1, {"layer_points": 600}],
    ]
    out = tracer.summarize(spans)
    assert out["tmm.stack_response_s"] == 4.0
    assert out["tmm.self_s"] == 3.0
    assert out["fit.solve_s"] == 10.0
    assert out["fit.self_s"] == 7.0
    assert out["tmm.calls"] == 2
    assert out["fit.model_calls"] == 1
    assert out["tmm.layer_points"] == 1200
    assert out["materials.points"] == 200
    assert out["fit.nfev"] == 3
    assert out["fit.converged_starts_ratio"] == pytest.approx(2 / 3)
    assert out["tmm.points_per_s"] == 300.0


def test_spans_from_another_process_keep_their_parents():
    spans = tracer.Tracer()
    spans.extend([["fit.solve", 0.0, 1.0, -1, None]])
    spans.extend([["fit.solve", 0.0, 2.0, -1, None], ["tmm.stack_response", 0.5, 1.0, 0, None]])
    assert [s[3] for s in spans.take()] == [-1, -1, 1]


# --- output checks fed a wrong reference ----------------------------------

def one_cycle(workload):
    return worker.measure(workload, seconds=0.0, min_samples=1)


def test_fit_check_with_wrong_reference_fails(tmp_path):
    ref = workloads.FitRef(targets=1)
    workload = workloads.FitFilm(ROOT, str(tmp_path), seed=0, ref=ref)
    workload.setup()
    assert one_cycle(workload)["failed"] == 0
    hidden = dict(ref.hidden, **{"materials.pvac.oscillators[0].k0": 1700.0})
    workload.ref = dataclasses.replace(ref, hidden=hidden)
    run = one_cycle(workload)
    assert (run["attempted"], run["failed"]) == (1, 1)
    assert "k0" in run["problems"][0]


def test_angle_check_with_wrong_reference_fails(tmp_path):
    ref = dataclasses.replace(workloads.AngleRef(), splitting0_cm1=150.0)
    workload = workloads.AngleSweep(ROOT, str(tmp_path), seed=0, ref=ref)
    workload.setup()
    run = one_cycle(workload)
    assert (run["attempted"], run["failed"]) == (1, 1)
    assert "0 deg splitting" in run["problems"][0]


def test_cli_field_map_must_be_finite_and_match_the_first_cycle(tmp_path):
    workload = workloads.CliCold(ROOT, str(tmp_path), seed=0)
    workload.out = str(tmp_path)
    csv = tmp_path / "field_map.csv"
    ok = types.SimpleNamespace(returncode=0, stderr="")
    csv.write_text("# angle_deg = 0.0\nk_cm1,z_nm,intensity\n1500.0,-200.0,nan\n")
    assert workload.check_field_map(ok) == ["field-map: intensity not finite and >= 0"]
    workload.first_digest.clear()
    csv.write_text("# angle_deg = 0.0\nk_cm1,z_nm,intensity\n1500.0,-200.0,0.5\n")
    assert workload.check_field_map(ok) == []
    csv.write_text("# angle_deg = 0.0\nk_cm1,z_nm,intensity\n1500.0,-200.0,0.25\n")
    assert workload.check_field_map(ok) == ["field_map.csv: bytes differ from the first cycle"]


def test_cli_checks_reject_wrong_splitting_and_exit_codes(tmp_path):
    workload = workloads.CliCold(ROOT, str(tmp_path), seed=0,
                                 ref=workloads.CliRef(t_splitting_cm1=170.0))
    workload.out = str(tmp_path)
    summary = {"channels": {"T": {"splitting": {"splitting_cm1": 163.4}}}}
    for name in ("summary.json", "analysis.json"):
        (tmp_path / name).write_text(json.dumps(summary))
    (tmp_path / "spectrum.csv").write_text("k_cm1,T,R,A\n")
    ok = types.SimpleNamespace(returncode=0, stderr="")
    assert any("T splitting 163.4" in p for p in workload.check_simulate(ok))
    assert workload.check_analyze(ok) == []
    crashed = types.SimpleNamespace(returncode=3, stderr="physics error: boom")
    assert workload.check_estimate(crashed) == ["estimate: exit 3: physics error: boom"]


# --- whole runs -----------------------------------------------------------

def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in benchmark_spec()["workloads"]])
def test_minimal_run_emits_every_named_metric(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert "error_rate" in proc.stdout and "provenance" in proc.stdout


def test_run_outside_a_source_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "fit-film", "--seconds", "1", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
