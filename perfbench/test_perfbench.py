"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import cProfile
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layerprof  # noqa: E402
import run  # noqa: E402
import repro  # noqa: E402


def _profile_synthetic():
    profiler = cProfile.Profile()
    job = run.JobSpec(campaign="test", case="synthetic", index=0,
                      params={"tasks": 300, "workers": 4}, seed=3)
    profiler.enable()
    try:
        result = run.execute_job(job)
    finally:
        profiler.disable()
    assert result.ok, result.error
    return layerprof.LayerProfile(profiler, bench_dirs=[HERE])


def test_layer_shares_sum_to_one_on_the_synthetic_case():
    profile = _profile_synthetic()
    shares = profile.shares()
    assert set(shares) == set(layerprof.BUCKETS)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    profiled = sum(row[2] for row in profile.stats.values())
    assert profile.total_s == pytest.approx(profiled, rel=1e-9)
    assert profile.self_s["sim"] > 0
    assert profile.self_s["sim.bandwidth"] > 0
    assert profile.calls("sim/bandwidth.py", "transfer") == 300


def test_bandwidth_and_metrics_files_are_split_out_of_their_packages():
    root = Path(repro.__file__).resolve().parent
    expected = {
        "sim/bandwidth.py": "sim.bandwidth",
        "sim/environment.py": "sim",
        "storage/metrics.py": "storage.metrics",
        "storage/pagecache.py": "storage",
        "campaign/dist/queue.py": "campaign.dist",
        "campaign/jobs.py": "campaign",
        "campaign/obs/metrics.py": "campaign",
        "core/wrapper.py": "core",
        "__init__.py": "other",
    }
    for relpath, layer in expected.items():
        assert layerprof.layer_of(str(root / relpath)) == layer, relpath
    assert layerprof.layer_of(json.__file__) is None


def test_builtins_are_charged_to_the_calling_layer():
    profile = _profile_synthetic()
    checked = 0
    for func, row in profile.stats.items():
        callers = row[4]
        if func[0] == "~" and callers and all(
                caller[0].endswith("sim/bandwidth.py") for caller in callers):
            weights = profile._layer_weights(func)
            assert weights == pytest.approx({"sim.bandwidth": 1.0}), func
            checked += 1
    assert checked > 0


def test_output_check_trips_on_a_perturbed_value():
    expected = run.load_expected()["imagenet-lustre"]
    keys = run.TRAINING_CHECKED
    assert run.matches(dict(expected), expected, keys)
    assert not run.matches(dict(expected, fit_time=expected["fit_time"]
                                * (1 + 1e-6)), expected, keys)
    assert not run.matches(dict(expected, posix_reads=expected["posix_reads"]
                                + 1), expected, keys)
    assert not run.matches({}, expected, keys)


def test_repeats_that_differ_in_one_bit_fail():
    def rep(fit_time):
        return run.Rep(wall_s=1.0, job_s=[1.0], attempted=1, errors=0,
                       outputs={"fit_time": fit_time})

    reps = [rep(1.5), rep(1.5), rep(1.5000000000000002)]
    run.check_reps("imagenet-lustre", 7, reps, {})
    assert [r.failed for r in reps] == [0, 0, 1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert declared == (run.PER_LAYER if trace else run.END_TO_END)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "platform-grid",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
