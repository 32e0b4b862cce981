"""Counter records have Darshan's layout: two flat 8-byte arrays, named
through views."""

import json
from array import array

import pytest

from repro.darshan import CounterRecord
from repro.darshan.counters import (
    POSIX_COUNTERS,
    POSIX_F_COUNTERS,
    POSIX_LAYOUT,
)
from tests.darshan.conftest import read_file_like_tf, run


@pytest.fixture
def records(darshan, os_image, env):
    """The finalized POSIX and STDIO records of a small read/write run."""
    for i in range(3):
        os_image.vfs.create_file(f"/data/in{i}.bin", size=150_000 + i * 1_000)

    def proc():
        for i in range(3):
            yield from read_file_like_tf(os_image, f"/data/in{i}.bin")
        stream = yield from os_image.call("fopen", "/data/model.ckpt", "wb")
        for _ in range(3):
            yield from os_image.call("fwrite", stream, 40_000)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    darshan.posix_module.finalize()
    return (list(darshan.posix_module.records.values())
            + list(darshan.stdio_module.records.values()))


def test_posix_record_is_two_flat_arrays_of_8_byte_counters(records):
    posix = [rec for rec in records if rec.layout is POSIX_LAYOUT]
    assert len(posix) == 3
    for rec in posix:
        assert isinstance(rec.values, array) and rec.values.typecode == "q"
        assert isinstance(rec.fvalues, array) and rec.fvalues.typecode == "d"
        assert len(rec.values.tobytes()) == 8 * len(POSIX_COUNTERS)
        assert len(rec.fvalues.tobytes()) == 8 * len(POSIX_F_COUNTERS)
        assert list(rec.counters) == list(POSIX_COUNTERS)
        assert list(rec.counters.values()) == rec.values.tolist()
        assert rec.counters["POSIX_READS"] == 2


def test_counters_view_writes_through_and_rejects_unknown_names(records):
    rec = records[0]
    rec.counters["POSIX_READS"] = 10**12
    rec.fcounters["POSIX_F_READ_TIME"] = 2.5
    assert rec.values[POSIX_LAYOUT.index["POSIX_READS"]] == 10**12
    assert rec.fvalues[POSIX_LAYOUT.findex["POSIX_F_READ_TIME"]] == 2.5
    with pytest.raises(KeyError):
        rec.counters["POSIX_NO_SUCH_COUNTER"] = 1
    with pytest.raises(KeyError):
        rec.counters["STDIO_OPENS"]
    with pytest.raises(KeyError):
        rec.fcounters["POSIX_READS"]
    assert "POSIX_NO_SUCH_COUNTER" not in rec.counters
    assert rec.counters.get("POSIX_NO_SUCH_COUNTER", -1) == -1
    assert len(rec.counters) == len(POSIX_COUNTERS)


def test_from_dict_round_trips_a_record(records):
    assert {rec.layout.prefix for rec in records} == {"POSIX", "STDIO"}
    for rec in records:
        data = json.loads(json.dumps(rec.as_dict()))
        again = CounterRecord.from_dict(data)
        assert again.layout is rec.layout
        assert (again.record_id, again.rank) == (rec.record_id, rec.rank)
        assert again.values == rec.values and again.fvalues == rec.fvalues
        assert again.as_dict() == rec.as_dict()

