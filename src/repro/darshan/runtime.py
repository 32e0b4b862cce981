"""The Darshan runtime core (``darshan-core``).

:class:`DarshanCore` is the one place that builds Darshan.  It owns the
job-level metadata, the :class:`~repro.darshan.records.NameTable` mapping
record ids back to file paths, and its POSIX and STDIO instrumentation
modules, which it constructs with the environment, the configuration and
the name table they use, never with itself.
:meth:`DarshanCore.make_wrappers` merges the modules' wrappers, so stock
preloading (:mod:`repro.darshan.preload`) and tf-Darshan's runtime
attachment (:mod:`repro.core.attach`) each patch one mapping and install
the same wrappers by construction.  Ownership runs one way — nothing the
core holds refers back to it — so a finished run's Darshan state is freed
by reference counting.

In the non-MPI Darshan 3.2.0-pre that the paper uses, the core is normally
initialised by the library constructor and writes its log at process exit;
tf-Darshan's attachment additionally uses the extraction API in
:mod:`repro.darshan.extraction` to read live records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim import Environment
from repro.darshan.common import InstrumentationModule, Wrappers
from repro.darshan.posix_module import MODULE_NAME as POSIX, PosixModule
from repro.darshan.records import NameRecord, NameTable
from repro.darshan.stdio_module import MODULE_NAME as STDIO, StdioModule

#: Version string reported in log headers, matching the paper's base version.
DARSHAN_VERSION = "3.2.0-pre-repro"


@dataclass(frozen=True)
class DarshanConfig:
    """Tunable behaviour of the Darshan runtime (immutable, so one config
    can be shared by many runtimes).

    The defaults aim at the paper's configuration: DXT enabled, enough module
    memory to track every file of the ImageNet epoch, and per-operation
    instrumentation overhead of the order of a microsecond (Darshan is
    explicitly a low-overhead tool; the expensive part of tf-Darshan is the
    post-profiling analysis, modelled by
    :class:`~repro.core.config.TfDarshanCosts`).
    """

    #: Record individual I/O segments (DXT modules).
    enable_dxt: bool = True
    #: Maximum counter records kept per module before the log is marked partial.
    max_records_per_module: int = 1 << 20
    #: Maximum DXT segments kept per file record.
    max_dxt_segments_per_record: int = 1 << 16
    #: Simulated CPU time charged per wrapped I/O call (seconds).
    instrumentation_overhead: float = 1.0e-6
    #: Additional cost the first time a new file record is instantiated.
    record_creation_overhead: float = 4.0e-6
    #: Rank recorded in the records (the paper's runs are single-process).
    rank: int = 0
    #: Job identifier written into the log header.
    jobid: int = 4000000


class DarshanCore:
    """Darshan inside one process: its metadata, names and modules."""

    def __init__(self, env: Environment, config: Optional[DarshanConfig] = None):
        self.env = env
        self.config = config or DarshanConfig()
        self.enabled = True
        self.start_time = env.now
        self.end_time: Optional[float] = None
        names = self._names = NameTable()
        # POSIX first: the log and the patch order list the modules in
        # this order.
        self._modules: Dict[str, InstrumentationModule] = {
            POSIX: PosixModule(env, self.config, names),
            STDIO: StdioModule(env, self.config, names),
        }
        self.exe = "python train.py"
        self.metadata: Dict[str, str] = {"lib_ver": DARSHAN_VERSION}

    # -- modules -----------------------------------------------------------------
    def get_module(self, name: str) -> Optional[InstrumentationModule]:
        """Look up a module by name (None if absent)."""
        return self._modules.get(name)

    @property
    def modules(self) -> Dict[str, InstrumentationModule]:
        return dict(self._modules)

    def make_wrappers(self, real: Wrappers) -> Wrappers:
        """Every module's wrappers around the real bindings in ``real``."""
        wrappers: Wrappers = {}
        for module in self._modules.values():
            wrappers.update(module.make_wrappers(real))
        return wrappers

    # -- name records --------------------------------------------------------------
    def lookup_name(self, record_id: int) -> Optional[str]:
        """Resolve a record id back to its path (``None`` if unknown)."""
        return self._names.lookup(record_id)

    @property
    def name_records(self) -> Dict[int, NameRecord]:
        return dict(self._names)

    # -- lifecycle --------------------------------------------------------------------
    def shutdown(self) -> None:
        """Freeze the runtime (normally called at process exit)."""
        self.enabled = False
        self.end_time = self.env.now
        for module in self._modules.values():
            module.finalize()

    def job_header(self) -> Dict[str, object]:
        """Header fields written into the Darshan log."""
        end = self.end_time if self.end_time is not None else self.env.now
        return {
            "version": DARSHAN_VERSION,
            "jobid": self.config.jobid,
            "uid": 1000,
            "nprocs": 1,
            "start_time": self.start_time,
            "end_time": end,
            "run_time": max(0.0, end - self.start_time),
            "exe": self.exe,
            "metadata": dict(self.metadata),
        }
