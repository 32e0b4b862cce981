"""Tests for log serialization, the pydarshan-style reader and the
extraction API that tf-Darshan depends on."""

import pytest

from repro.darshan import (
    CounterRecord,
    DarshanLog,
    DxtRecord,
    DxtSegment,
    darshan_record_id,
    get_dxt_records,
    get_module_records,
    get_runtime_info,
    lookup_record_name,
    resolve_names,
)
from repro.posix import SimBytes
from tests.darshan.conftest import read_file_like_tf, run


@pytest.fixture
def traced(darshan, os_image, env):
    """Run a small mixed read/write workload under Darshan."""
    for i in range(4):
        os_image.vfs.create_file(f"/data/in{i}.bin", size=200_000 + i * 50_000)

    def proc():
        for i in range(4):
            yield from read_file_like_tf(os_image, f"/data/in{i}.bin")
        stream = yield from os_image.call("fopen", "/data/model.ckpt", "wb")
        for _ in range(5):
            yield from os_image.call("fwrite", stream, SimBytes(123_000))
        yield from os_image.call("fclose", stream)

    run(env, proc())
    return darshan


# -- extraction API ------------------------------------------------------------

def test_get_module_records_returns_copies(traced):
    records = get_module_records(traced.core, "POSIX")
    assert len(records) == 4
    rid = next(iter(records))
    records[rid].counters["POSIX_READS"] = 10**9
    # The live module record is untouched (extraction copies buffers).
    assert traced.posix_module.records[rid].counters["POSIX_READS"] < 10**9


def test_get_module_records_unknown_module_is_empty(traced):
    assert get_module_records(traced.core, "MPI-IO") == {}


def test_get_dxt_records(traced):
    dxt = get_dxt_records(traced.core, "POSIX")
    assert len(dxt) == 4
    total_segments = sum(rec.segment_count for rec in dxt.values())
    # Each input file: one data read + one zero-length read.
    assert total_segments == 8


def test_every_counter_mutator_moves_the_stamp_and_copies_carry_it():
    rec = CounterRecord(1, 0, ("C",), ("F",))
    for name, *args in (("inc", "C"), ("maximum", "C", 0),
                        ("fset_first", "F", 1.0), ("fset_max", "F", 0.0),
                        ("fadd", "F", 0.5), ("note_access_size", 7),
                        ("finalize_common_accesses", "C")):
        before = rec.stamp
        getattr(rec, name)(*args)
        assert rec.stamp > before, name
        assert rec.copy().stamp == rec.stamp
    assert "stamp" not in rec.as_dict()


def test_dxt_stamp_grows_with_every_add_kept_or_dropped():
    rec = DxtRecord(1)
    for _ in range(4):
        before = rec.stamp
        rec.add(DxtSegment("read", 0, 10, 0.0, 1.0), max_segments=2)
        assert rec.stamp == before + 1
        assert rec.copy().stamp == rec.stamp
    assert rec.dropped_segments == 2
    assert "stamp" not in rec.as_dict()


def test_lookup_record_name_round_trip(traced):
    rid = darshan_record_id("/data/in0.bin")
    assert lookup_record_name(traced.core, rid) == "/data/in0.bin"
    assert lookup_record_name(traced.core, 12345) is None
    names = resolve_names(traced.core, [rid, 12345])
    assert names[rid] == "/data/in0.bin"
    assert names[12345] is None


def test_runtime_info_reports_file_counts(traced):
    info = get_runtime_info(traced.core)
    assert info.enabled is True
    assert "POSIX" in info.modules and "STDIO" in info.modules
    assert info.file_counts["POSIX"] == 4
    assert info.file_counts["STDIO"] == 1
    assert info.total_files == 4


# -- log writing / reading --------------------------------------------------------

def test_log_round_trip(tmp_path, traced):
    log = traced.finalize(str(tmp_path / "run.darshan.gz"))
    loaded = DarshanLog.read(str(tmp_path / "run.darshan.gz"))
    assert loaded.modules() == ["POSIX", "STDIO"]
    assert loaded.module_totals("POSIX") == log.module_totals("POSIX")
    assert loaded.module_totals("STDIO")["STDIO_WRITES"] == 5
    assert loaded.header["nprocs"] == 1
    assert "DXT_POSIX" in loaded.dxt_records
    assert len(loaded.dxt_records["DXT_POSIX"]) == 4


def test_log_rejects_foreign_files(tmp_path):
    import gzip
    import json

    path = tmp_path / "bogus.gz"
    with gzip.open(path, "wb") as handle:
        handle.write(json.dumps({"magic": "nope"}).encode())
    with pytest.raises(ValueError):
        DarshanLog.read(str(path))


def test_log_module_totals_and_ioops(traced):
    log = DarshanLog.from_core(traced.core)
    totals = log.module_totals("POSIX")
    assert totals["POSIX_OPENS"] == 4
    assert totals["POSIX_READS"] == 8
    ioops = log.agg_ioops("POSIX")
    assert ioops["opens"] == 4
    assert ioops["reads"] == 8
    stdio_ops = log.agg_ioops("STDIO")
    assert stdio_ops["writes"] == 5


def test_log_read_size_histogram(traced):
    log = DarshanLog.from_core(traced.core)
    hist = log.read_size_histogram("POSIX")
    # 4 data reads in the 100K-1M bucket, 4 zero-length reads in 0-100.
    assert hist["100K_1M"] == 4
    assert hist["0_100"] == 4


def test_log_file_sizes(traced):
    log = DarshanLog.from_core(traced.core)
    sizes = log.file_sizes("POSIX")
    assert sizes["/data/in0.bin"] == 200_000
    assert sizes["/data/in3.bin"] == 350_000


def test_log_time_totals_positive(traced):
    log = DarshanLog.from_core(traced.core)
    times = log.module_time_totals("POSIX")
    assert times["POSIX_F_READ_TIME"] > 0
    assert times["POSIX_F_META_TIME"] > 0


def test_log_summary_contains_key_lines(traced):
    log = DarshanLog.from_core(traced.core)
    text = log.summary()
    assert "# module POSIX: 4 records" in text
    assert "POSIX\tPOSIX_OPENS\t4" in text


def test_partial_module_marked_in_log(env, os_image):
    from repro.darshan import DarshanConfig, PreloadedDarshan

    darshan = PreloadedDarshan(env, os_image.symbols,
                               DarshanConfig(max_records_per_module=1))
    darshan.install()
    for i in range(3):
        os_image.vfs.create_file(f"/data/f{i}", size=100)

    def proc():
        for i in range(3):
            fd = yield from os_image.call("open", f"/data/f{i}")
            yield from os_image.call("close", fd)

    run(env, proc())
    log = DarshanLog.from_core(darshan.core)
    assert "POSIX" in log.partial_modules


def test_finalize_marks_runtime_disabled(traced):
    traced.finalize()
    info = get_runtime_info(traced.core)
    assert info.enabled is False
