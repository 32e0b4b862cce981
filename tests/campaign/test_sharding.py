"""Property tests for the shard router (``ShardedTransport``).

The sharding claim is an *equivalence* claim: a fleet of N stores behind
the router must be observationally identical to one store holding the
merged keyspace — for routing (total, stable, family-co-locating), for
scatter-gather reads (``list_page`` / ``get_many`` agree key-for-key,
including deletions between pages and continuation tokens that straddle
shard boundaries), and for the epoch handshake that turns a mis-shaped
fleet into a hard error instead of a silently split keyspace.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import SweepSpec
from repro.campaign.dist import (
    MemoryTransport,
    ShardedTransport,
    TransportError,
    WorkQueue,
)
from repro.campaign.dist.sharding import (
    EPOCH_KEY,
    fleet_epoch,
    routing_key,
    split_shard_urls,
)
from repro.campaign.dist.transport import transport_from_address
from repro.campaign.jobs import execute_job

_KEY_ALPHABET = string.ascii_lowercase + string.digits + "/-_."

keys_strategy = st.text(alphabet=_KEY_ALPHABET, min_size=1, max_size=40)


def _router(n=2, shards=None):
    shards = shards if shards is not None else [MemoryTransport()
                                                for _ in range(n)]
    return ShardedTransport(shards), shards


# -- routing: total, stable, pure ---------------------------------------------

@settings(max_examples=100, deadline=None)
@given(key=keys_strategy)
def test_routing_is_total_and_stable(key):
    """Every key routes to exactly one shard, and a *fresh* router over
    the same fleet shape gives the same answer — routing is a pure
    function of (ordered shard list, key), never of instance state."""
    router, shards = _router(3)
    index = router.shard_index(key)
    assert 0 <= index < 3
    again, _ = _router(3, shards=shards)
    assert again.shard_index(key) == index
    # Pure in the fleet *shape*, not the shard objects: a router over
    # three different stores maps the key identically.
    other, _ = _router(3)
    assert other.shard_index(key) == index


@settings(max_examples=100, deadline=None)
@given(job_key=st.text(alphabet="abcdef0123456789", min_size=1, max_size=16),
       priority=st.integers(min_value=0, max_value=9_999_999_999))
def test_job_document_family_co_locates(job_key, priority):
    """All documents of one job — record, ticket, claim, result, done
    marker, dead-letter — route to the same shard.  This is the property
    that keeps a shard-local ``POST /claim`` correct: the broker that
    claims a ticket must hold that job's immutable record too."""
    router, _ = _router(3)
    name = f"{priority:010d}-{job_key}"
    family = [
        f"jobs/{job_key}.json",
        f"pending/{name}.json",
        f"claims/{name}.json",
        f"results/{job_key}.json",
        f"done/{name}.json",
        f"dead/{job_key}.json",
    ]
    owners = {router.shard_index(key) for key in family}
    assert len(owners) == 1
    assert routing_key(f"pending/{name}.json") == job_key


def test_written_keyspace_partitions_across_shards():
    """Through the router every key lands on exactly one shard, and the
    shards' union is exactly the written keyspace."""
    router, shards = _router(2)
    written = sorted(f"p/{i:03d}.json" for i in range(64))
    for key in written:
        router.put(key, b"{}")
    per_shard = [shard.list("p/") for shard in shards]
    assert sorted(key for listing in per_shard for key in listing) == written
    for key in written:
        assert sum(key in listing for listing in per_shard) == 1
    assert all(per_shard), "64 keys must not all hash to one shard"
    assert router.list("p/") == written


# -- scatter-gather agrees with a single merged store -------------------------

def _mirror(keys):
    """The same keyspace on one store and on a 2-shard router."""
    single = MemoryTransport()
    router, _ = _router(2)
    for key in keys:
        single.put(key, b"{}")
        router.put(key, b"{}")
    return single, router


def _walk(transport, prefix, page_size, mutate_between=None):
    seen, start_after, pages = [], "", 0
    while True:
        page, token = transport.list_page(prefix, page_size,
                                          start_after=start_after)
        seen.extend(page)
        pages += 1
        if mutate_between is not None:
            mutate_between(pages)
        if token is None:
            return seen
        start_after = token


@pytest.mark.parametrize("page_size", [1, 2, 3, 7, 100])
def test_sharded_list_page_agrees_key_for_key(page_size):
    keys = sorted(f"p/{i:03d}.json" for i in range(23))
    single, router = _mirror(keys)
    assert _walk(router, "p/", page_size) == _walk(single, "p/", page_size)
    assert _walk(router, "p/", page_size) == keys


@settings(max_examples=60, deadline=None)
@given(start_after=st.text(alphabet=_KEY_ALPHABET, max_size=12),
       max_keys=st.integers(min_value=1, max_value=30))
def test_sharded_list_page_tokens_straddle_shard_boundaries(start_after,
                                                            max_keys):
    """Any resumption point — including tokens naming keys owned by one
    specific shard, or strings that are no key at all — yields the same
    page a single merged store would serve."""
    keys = sorted(f"p/{i:03d}.json" for i in range(23))
    single, router = _mirror(keys)
    assert (router.list_page("p/", max_keys, start_after=start_after)[0]
            == single.list_page("p/", max_keys, start_after=start_after)[0])


def test_sharded_list_page_deletions_between_pages():
    """Keys deleted between pages — on either shard, including the key
    the continuation token names — never skip or repeat survivors,
    exactly as on a single store."""
    keys = sorted(f"p/{i:03d}.json" for i in range(20))
    single, router = _mirror(keys)

    doomed = [keys[2], keys[3], keys[9], keys[15]]

    def killer(transport):
        def mutate(pages_served):
            if pages_served == 1:
                for key in doomed:
                    transport.delete(key)
        return mutate

    survivors = [key for key in keys if key not in doomed]
    single_seen = _walk(single, "p/", 3, mutate_between=killer(single))
    router_seen = _walk(router, "p/", 3, mutate_between=killer(router))
    assert router_seen == single_seen
    # Pagination contract: everything that survived the deletions and
    # was not already served is seen exactly once.
    assert [key for key in router_seen if key in survivors] == survivors


def test_sharded_list_page_token_key_deleted_mid_walk():
    """Deleting the exact key a token names (keyset tokens survive this
    by construction) behaves identically across router and single store."""
    keys = sorted(f"p/{i:03d}.json" for i in range(10))
    single, router = _mirror(keys)
    for transport in (single, router):
        page, token = transport.list_page("p/", 4)
        assert page == keys[:4] and token == keys[3]
        transport.delete(token)
        rest, _ = transport.list_page("p/", 100, start_after=token)
        assert rest == keys[4:]


@settings(max_examples=60, deadline=None)
@given(probe=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=1, max_size=25))
def test_sharded_get_many_agrees_key_for_key(probe):
    """``get_many`` over any mix of present and absent keys (duplicates
    included) returns exactly what one merged store returns, in order."""
    keys = sorted(f"p/{i:03d}.json" for i in range(23))
    single, router = _mirror(keys)
    wanted = [f"p/{i:03d}.json" for i in probe]  # i>22 -> absent
    assert router.get_many(wanted) == single.get_many(wanted)


# -- epoch / drain protocol ---------------------------------------------------

def test_epoch_mismatch_is_a_hard_error():
    """A shard stamped by a differently-shaped fleet refuses to serve a
    new router until drained: re-pointing it silently would split the
    keyspace.  The handshake is lazy — construction is free, the first
    routed operation stamps or raises."""
    shards = [MemoryTransport(), MemoryTransport()]
    ShardedTransport(shards).put("jobs/a.json", b"{}")  # stamps 2-epoch
    grown = ShardedTransport(shards + [MemoryTransport()])
    with pytest.raises(TransportError, match="different fleet epoch"):
        grown.get("jobs/a.json")
    shrunk = ShardedTransport([shards[0]])  # shrinking is just as wrong
    with pytest.raises(TransportError, match="different fleet epoch"):
        shrunk.list("jobs/")
    # Same shape, fresh router: welcome back.
    again = ShardedTransport(shards)
    assert again.get("jobs/a.json") is not None
    assert again.epoch == fleet_epoch(again.identities)


def test_drain_protocol_unsticks_a_resharded_fleet():
    """The documented drain recipe — delete ``meta/epoch`` on every
    shard — lets the same stores join a new fleet shape."""
    shards = [MemoryTransport(), MemoryTransport()]
    ShardedTransport(shards).put("jobs/a.json", b"{}")
    for shard in shards:
        assert shard.get(EPOCH_KEY) is not None
        shard.delete(EPOCH_KEY)
    grown = ShardedTransport(shards + [MemoryTransport()])
    assert grown.put("jobs/x.json", b"{}")


def test_epoch_stamp_heals_garbage():
    import json

    shards = [MemoryTransport(), MemoryTransport()]
    shards[0].put(EPOCH_KEY, b"\x00torn write, not JSON")
    router = ShardedTransport(shards)
    router.put("jobs/a.json", b"{}")  # first op runs the handshake
    stamped = json.loads(shards[0].get(EPOCH_KEY)[0])
    assert stamped["epoch"] == router.epoch


# -- claim semantics over mixed fleets ---------------------------------------

def test_sharded_claim_falls_back_client_side_and_drains():
    """Claim support is a static capability: a router over shards
    without a server-side claim advertises ``claim_first = None``, so the
    queue runs its client-side scan over the router from the start — and
    still claims and settles every job exactly once.  A router over live
    brokers advertises a callable ``claim_first``."""
    from repro.campaign.dist import HttpTransport
    from repro.campaign.dist.server import Broker

    brokers = [Broker().start(), Broker().start()]
    try:
        live = ShardedTransport([HttpTransport(b.url) for b in brokers])
        assert callable(live.claim_first)
        live.close()
    finally:
        for broker in brokers:
            broker.stop()
    router, _ = _router(2)
    assert router.claim_first is None
    spec = SweepSpec(name="sharded", case="synthetic", base={"rate": 150.0},
                     grid={"workers": [1, 2], "tasks": [4, 8]})
    queue = WorkQueue(transport=router, lease_seconds=30.0)
    jobs = spec.expand()
    queue.enqueue_grid(jobs)
    seen = []
    while True:
        item = queue.claim("w0")
        if item is None:
            break
        queue.complete(item, execute_job(item.job))
        seen.append(item.key)
    assert len(seen) == len(set(seen)) == len(jobs)
    assert queue.drained()


# -- sharded fleet dashboard --------------------------------------------------

def test_sharded_stats_cli_aggregates_and_renders_per_shard(capsys):
    """``dist.stats`` pointed at a comma-separated shard list renders one
    aggregate line plus one row per shard (instead of crashing on the
    URL, the pre-sharding behavior), and the per-shard pending counts sum
    to the aggregate."""
    import re

    from repro.campaign.dist import HttpTransport
    from repro.campaign.dist.server import Broker
    from repro.campaign.dist.stats import main as stats_main

    brokers = [Broker().start(), Broker().start()]
    try:
        router = ShardedTransport(
            [HttpTransport(b.url, retries=2, retry_delay=0.05)
             for b in brokers])
        queue = WorkQueue(transport=router, lease_seconds=30.0)
        spec = SweepSpec(name="sharded-stats", case="synthetic",
                         base={"rate": 150.0},
                         grid={"workers": [1, 2, 3], "tasks": [4, 8]})
        queue.enqueue_grid(spec.expand())  # 6 jobs
        router.close()

        fleet = ",".join(b.url for b in brokers)
        assert stats_main([fleet]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # aggregate + one row per shard
        assert "pending 6" in lines[0]
        per_shard = []
        for broker, row in zip(brokers, lines[1:]):
            assert row.strip().startswith(f"shard {broker.url}")
            per_shard.append(int(re.search(r"pending (\d+)", row).group(1)))
        assert sum(per_shard) == 6
    finally:
        for broker in brokers:
            broker.stop()


def test_sharded_stats_cli_rejects_mixed_address_lists(capsys):
    from repro.campaign.dist.stats import main as stats_main

    assert stats_main(["http://a:1,/not/a/url"]) == 2
    assert "not a broker URL" in capsys.readouterr().err


# -- address dispatch ---------------------------------------------------------

def test_split_shard_urls_accepts_only_full_url_lists():
    assert split_shard_urls("http://a:1,http://b:2") == [
        "http://a:1", "http://b:2"]
    assert split_shard_urls("http://a:1, https://b:2 ") == [
        "http://a:1", "https://b:2"]
    assert split_shard_urls("http://a:1") is None
    assert split_shard_urls("http://a:1,/some/dir") is None
    assert split_shard_urls("dir/with,comma") is None
    assert split_shard_urls("http://a:1,") is None  # one URL, stray comma


def test_transport_from_address_sharded_dispatch(tmp_path):
    from repro.campaign.dist import FsTransport, HttpTransport

    # Construction never touches the network (the epoch handshake is
    # lazy), so dispatch is testable offline like the other transports.
    sharded = transport_from_address(
        "http://a.invalid:1,http://b.invalid:2", retries=0)
    assert isinstance(sharded, ShardedTransport)
    assert sharded.address == "http://a.invalid:1,http://b.invalid:2"
    assert isinstance(transport_from_address("http://a.invalid:1"),
                      HttpTransport)
    assert isinstance(transport_from_address(tmp_path / "with,comma"),
                      FsTransport)
