"""Ablation A1: overhead with and without DXT detailed tracing.

The paper's discussion notes that "detailed timeline tracing can be
optionally discarded if not required" to reduce overhead.  This ablation
runs the same profiled workload with DXT on and off and quantifies the
saving (it must be positive, because the per-segment collection and
TraceViewer conversion disappear, while the counter-level statistics stay
available).
"""

import pytest

from benchmarks.conftest import report, run_once
from repro.core import TfDarshanOptions
from repro.darshan import DarshanConfig
from repro.tools import PaperComparison
from repro.workloads import run_malware_case

SCALE = 0.04
BATCH = 32


def _run_both():
    with_dxt = run_malware_case(
        scale=SCALE, batch_size=BATCH, threads=1, profile="epoch", seed=1,
        tf_darshan_options=TfDarshanOptions(export_mode="full"))
    without_dxt = run_malware_case(
        scale=SCALE, batch_size=BATCH, threads=1, profile="epoch", seed=1,
        tf_darshan_options=TfDarshanOptions(
            darshan=DarshanConfig(enable_dxt=False), export_mode="full"))
    baseline = run_malware_case(scale=SCALE, batch_size=BATCH, threads=1,
                                profile="none", seed=1)
    return with_dxt, without_dxt, baseline


def test_ablation_dxt_tracing_overhead(benchmark):
    with_dxt, without_dxt, baseline = run_once(benchmark, _run_both)

    overhead_with = 100.0 * (with_dxt.fit_time / baseline.fit_time - 1.0)
    overhead_without = 100.0 * (without_dxt.fit_time / baseline.fit_time - 1.0)

    comparisons = [
        PaperComparison("DXT off reduces tf-Darshan overhead",
                        "lower overhead without detailed tracing",
                        f"{overhead_without:.2f} % vs {overhead_with:.2f} %",
                        overhead_without < overhead_with),
        PaperComparison("counter statistics still available without DXT",
                        "profiling still works",
                        f"{without_dxt.io_profile.posix_opens} opens profiled",
                        without_dxt.io_profile is not None
                        and without_dxt.io_profile.posix_opens > 0),
        PaperComparison("bandwidth estimate unaffected by DXT", "same value",
                        f"{with_dxt.posix_bandwidth / 1e6:.1f} vs "
                        f"{without_dxt.posix_bandwidth / 1e6:.1f} MB/s",
                        abs(with_dxt.posix_bandwidth - without_dxt.posix_bandwidth)
                        / with_dxt.posix_bandwidth < 0.15),
    ]
    report("Ablation A1: DXT tracing overhead", comparisons)
    assert all(c.matches for c in comparisons)
