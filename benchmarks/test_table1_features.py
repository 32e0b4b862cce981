"""Table I: capability comparison of stock Darshan vs tf-Darshan.

The table is qualitative; the benchmark demonstrates each row by exercising
the corresponding capability on a small workload: both tools use the same
POSIX/STDIO/DXT modules, both are transparent to the workload, only
tf-Darshan can start/stop and analyse at runtime, stock Darshan reports only
after the whole application finishes (its log is then analysed
post-execution), and tf-Darshan additionally exports TensorBoard data.
"""

import pytest

from benchmarks.conftest import report, run_once
from repro.darshan import DarshanLog, PreloadedDarshan
from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice
from repro.posix import SimulatedOS
from repro.tfmini import TFRuntime, io_ops
from repro.tools import PaperComparison
from repro.core import TfDarshanSession, last_profile


def _platform():
    env = Environment()
    image = SimulatedOS(env)
    image.mount("/data", LocalFilesystem(
        env, StreamingDevice(env, "ssd", read_bandwidth=400e6, latency=40e-6)))
    for i in range(32):
        image.vfs.create_file(f"/data/f{i:03d}.bin", size=120_000)
    runtime = TFRuntime(env, image, cpu_cores=4, gpus=[])
    return env, image, runtime


def _exercise(tmp_path):
    results = {}

    # --- stock Darshan: preload at start, log at exit, post-hoc analysis ----
    env, image, runtime = _platform()
    darshan = PreloadedDarshan(env, image.symbols)
    darshan.install()

    def stock_workload():
        for i in range(32):
            yield from io_ops.read_file(runtime, f"/data/f{i:03d}.bin")

    env.run(until=env.process(stock_workload()))
    log_path = str(tmp_path / "stock.darshan.gz")
    darshan.finalize(log_path)
    log = DarshanLog.read(log_path)
    results["stock_modules"] = log.modules()
    results["stock_opens"] = log.module_totals("POSIX")["POSIX_OPENS"]
    results["stock_dxt"] = "DXT_POSIX" in log.dxt_records

    # --- tf-Darshan: runtime attach, in-situ analysis, TensorBoard export ---
    env, image, runtime = _platform()
    session = TfDarshanSession(runtime, logdir=str(tmp_path / "tb"))

    def tf_workload():
        # Profiling starts and stops *during* execution (runtime start/stop).
        for i in range(10):
            yield from io_ops.read_file(runtime, f"/data/f{i:03d}.bin")
        yield from session.start()
        for i in range(10, 25):
            yield from io_ops.read_file(runtime, f"/data/f{i:03d}.bin")
        window = yield from session.stop()
        for i in range(25, 32):
            yield from io_ops.read_file(runtime, f"/data/f{i:03d}.bin")
        return window

    window = env.run(until=env.process(tf_workload()))
    results["tfdarshan_window_opens"] = window.io_profile.posix_opens
    results["tfdarshan_in_situ"] = window.io_profile.posix_read_bandwidth > 0
    results["tfdarshan_exports"] = list(
        (tmp_path / "tb").glob("*")) if (tmp_path / "tb").exists() else []
    results["tfdarshan_modules"] = sorted(
        runtime.tf_darshan.attachment.core.modules)
    return results


def test_table1_feature_comparison(benchmark, tmp_path):
    results = run_once(benchmark, _exercise, tmp_path)

    comparisons = [
        PaperComparison("modules (both tools)", "POSIX, STDIO, DXT",
                        ",".join(results["tfdarshan_modules"]) + "+DXT",
                        results["stock_modules"] == ["POSIX", "STDIO"]
                        and results["stock_dxt"]),
        PaperComparison("transparent to the workload", "yes / yes", "yes / yes",
                        results["stock_opens"] == 32),
        PaperComparison("runtime start/stop", "Darshan: no, tf-Darshan: yes",
                        f"window saw {results['tfdarshan_window_opens']}/32 opens",
                        results["tfdarshan_window_opens"] == 15),
        PaperComparison("log analysis", "post-execution vs in-situ",
                        "in-situ bandwidth available",
                        results["tfdarshan_in_situ"]),
        PaperComparison("outputs", "Darshan log vs log+protobuf",
                        f"{len(results['tfdarshan_exports'])} TensorBoard files",
                        len(results["tfdarshan_exports"]) >= 3),
    ]
    report("Table I: Darshan vs tf-Darshan", comparisons)
    assert all(c.matches for c in comparisons)
