"""Regression pin: the FsTransport cache layout never drifts.

``tests/regression/data/seed_cache`` was written by the *pre-transport*
``ResultCache`` (one canonical-JSON file per result at
``<root>/<key[:2]>/<key>.json``, plus the scheduling priors of a since
retired cost model in ``costmodel.json`` beside the entries) and is
checked in verbatim.  The transport-backed cache must keep serving it —
existing cache directories on users' machines are the contract — and
must keep *producing* byte-identical files for the same logical records,
so directories written today stay readable by whatever comes next.
"""

import shutil
from pathlib import Path

import pytest

from repro.campaign import ResultCache, SweepSpec, open_cache
from repro.campaign.dist import Broker

SEED_CACHE = Path(__file__).parent / "data" / "seed_cache"

#: The exact spec whose four jobs were cached by the seed-era writer.
SPEC = SweepSpec(name="layout-pin", case="synthetic",
                 base={"rate": 150.0},
                 grid={"workers": [1, 2], "tasks": [4, 8]})


@pytest.fixture()
def jobs():
    return SPEC.expand()


def _entry_files(root):
    return sorted(p.relative_to(root).as_posix()
                  for p in root.glob("*/*.json"))


def test_seed_era_cache_directory_is_served(jobs):
    """Every entry written before the transport seam still hits."""
    cache = ResultCache(SEED_CACHE)
    for i, job in enumerate(jobs):
        record = cache.get(job)
        assert record is not None, f"seed entry for job {i} went dark"
        assert record["result"]["metrics"]["makespan"] == 0.5 + i
        assert record["result"]["wall_time"] == 0.125 * (i + 1)
    assert cache.stats() == {"hits": 4, "misses": 0, "entries": 4}


def test_keys_and_paths_match_the_checked_in_layout(jobs):
    """Key derivation and the two-level fan-out are the layout: if either
    drifts, every existing cache directory silently goes cold."""
    cache = ResultCache(SEED_CACHE)
    expected = sorted(cache.storage_key(job) for job in jobs)
    assert expected == _entry_files(SEED_CACHE)
    for job in jobs:
        assert cache.path(job).is_file()


def test_rewritten_entries_are_byte_identical(tmp_path, jobs):
    """Putting the seed records through today's cache reproduces the
    checked-in files byte for byte (canonical JSON encoding included)."""
    seed = ResultCache(SEED_CACHE)
    fresh = ResultCache(tmp_path / "rewrite")
    for job in jobs:
        record = seed.get(job)
        payload = {"result": dict(record["result"])}
        path = fresh.put(job, payload)
        assert path.relative_to(fresh.root) == \
            seed.path(job).relative_to(seed.root)
        assert path.read_bytes() == seed.path(job).read_bytes()


def test_seed_era_costmodel_file_is_not_an_entry():
    """A seed-era directory still holds ``costmodel.json`` beside its
    entries; the cache leaves it alone and never counts it as an entry."""
    cache = ResultCache(SEED_CACHE)
    assert "costmodel.json" in cache.transport.list("")
    assert len(cache) == 4


def test_seed_era_directory_serves_through_a_broker(tmp_path, jobs):
    """A broker pointed at a copy of the seed-era directory serves the
    same entries over HTTP — old caches ride the new transports whole."""
    root = tmp_path / "seed-copy"
    shutil.copytree(SEED_CACHE, root)
    with Broker(data_dir=root) as broker:
        cache = open_cache(broker.url)
        assert len(cache) == 4
        for i, job in enumerate(jobs):
            record = cache.get(job)
            assert record is not None
            assert record["result"]["metrics"]["makespan"] == 0.5 + i
