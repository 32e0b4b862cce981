"""A finished job's simulated world is freed by reference counting.

Ownership runs one way through the simulation: an object receives from its
owner the things it uses, never the owner itself.  So when
:func:`~repro.campaign.jobs.execute_job` returns, nothing of the job's
world (platform, runtime, Darshan core and modules, tf-Darshan attachment,
model, callbacks) is left for the cyclic collector.  A back-reference to an
owner shows up here as the types it keeps alive.
"""

import gc

import pytest

from repro.campaign import JobSpec, available_cases, execute_job

TINY_TRAINING = {"scale": 0.002, "steps": 2, "batch_size": 8, "threads": 2}

#: One tiny job per registered case, plus the paths a case's defaults skip.
JOBS = {
    "synthetic": ("synthetic", {"workers": 2, "tasks": 8}),
    "imagenet": ("imagenet", TINY_TRAINING),
    "imagenet-checkpoint": ("imagenet", dict(TINY_TRAINING,
                                             checkpoint_every=1)),
    "malware": ("malware", {"scale": 0.01, "steps": 2, "batch_size": 8,
                            "staging_threshold": 2 << 20}),
    "stream": ("stream", {"steps": 4, "batch_size": 8, "threads": 2,
                          "profile_every_steps": 2, "scale": 0.002}),
    "overhead": ("overhead", {"case": "imagenet", "profiler": "tfdarshan",
                              "steps": 2, "batch_size": 8, "scale": 0.002}),
    "overhead-tf": ("overhead", {"case": "imagenet", "profiler": "tf",
                                 "steps": 2, "batch_size": 8,
                                 "scale": 0.002}),
    "platform": ("platform", {"n_osts": 2, "files": 4, "file_kib": 512,
                              "readers": 2, "read_kib": 256}),
}


def test_every_registered_case_is_covered():
    cases = available_cases()
    assert len(cases) == 6
    assert {case for case, _params in JOBS.values()} == set(cases)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_finished_job_leaves_no_cyclic_garbage(name):
    case, params = JOBS[name]
    job = JobSpec(campaign="gc", case=case, index=0, params=dict(params),
                  seed=1)
    execute_job(job)  # warm-up: lazy imports and caches are not garbage
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = execute_job(job)
        assert result.ok, result.error
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        # Every repro type in the garbage, so an owner held in a cycle is
        # named even when its world's records outnumber it.
        kept = sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro.")})
        assert not gc.garbage, (f"{len(gc.garbage)} unreachable objects; "
                                f"repro types among them: {kept}")
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
