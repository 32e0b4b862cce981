"""Generator frames on the simulated I/O path: one per layer that waits.

Every simulated call is a chain of generators joined by ``yield from``, and
CPython re-enters every frame of the chain on each resume.  A function on
the path is a generator only if it waits itself: it yields an event, or it
does work after a ``yield from`` returns.  A cost helper returns its
``Timeout`` for the caller to ``yield``, and a pure forwarder returns the
generator it wraps.

The tests wrap ``Environment.timeout`` and record, for each timeout created
inside a process, the names of the generator frames between it and
``Process._resume`` (innermost first).  The chains of one Lustre file name
the frames each layer adds; the frame total of a small imagenet job pins
the whole path.  A change that removes a frame lowers the constants here.
"""

import inspect
import sys

from repro.campaign.jobs import execute_job
from repro.campaign.spec import JobSpec
from repro.darshan import DarshanConfig, PreloadedDarshan
from repro.posix import SimulatedOS
from repro.sim import Environment, Process
from repro.storage import LustreFilesystem

_RESUME = Process._resume.__code__


def _record_chains(monkeypatch):
    """Patch ``Environment.timeout``; returns the list it fills with one
    tuple of generator-frame names per timeout created in a process."""
    chains = []
    timeout = Environment.timeout

    def recording_timeout(env, delay, value=None):
        names = []
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not _RESUME:
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                names.append(frame.f_code.co_name)
            frame = frame.f_back
        if frame is not None:
            chains.append(tuple(names))
        return timeout(env, delay, value)

    monkeypatch.setattr(Environment, "timeout", recording_timeout)
    return chains


def test_lustre_pread_adds_a_frame_only_where_a_layer_waits(monkeypatch):
    chains = _record_chains(monkeypatch)
    env = Environment()
    image = SimulatedOS(env, enable_page_cache=False)
    image.mount("/lustre", LustreFilesystem(env, n_osts=2))
    image.vfs.create_file("/lustre/f", size=4096)
    PreloadedDarshan(env, image.symbols, DarshanConfig()).install()

    def app():
        fd = yield from image.call("open", "/lustre/f")
        yield from image.call("pread", fd, 4096, 0)
        yield from image.call("close", fd)

    env.run(until=env.process(app()))
    assert [" < ".join(chain) for chain in chains] == [
        "open < wrap_open < app",
        "_mds_request < open < wrap_open < app",
        "wrap_open < app",
        "pread < wrap_pread < app",
        "_transfer < _do_read < pread < wrap_pread < app",
        "_io < _transfer < _do_read < pread < wrap_pread < app",
        "_io < _transfer < _do_read < pread < wrap_pread < app",
        "wrap_pread < app",
        "close < wrap_close < app",
        "close < close < wrap_close < app",
        "wrap_close < app",
    ]


def test_imagenet_job_suspends_a_pinned_number_of_frames(monkeypatch):
    chains = _record_chains(monkeypatch)
    job = JobSpec(campaign="depth", case="imagenet", index=0,
                  params={"scale": 0.002, "batch_size": 16, "threads": 4},
                  seed=1)
    assert execute_job(job).ok
    assert len(chains) == 4355
    assert sum(map(len, chains)) == 20516
