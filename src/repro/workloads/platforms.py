"""The paper's two evaluation platforms as ready-to-use simulations.

*Greendog* is a workstation (8-core i7-7820X, 32 GB RAM, RTX 2060 SUPER)
with three storage tiers — HDD, SATA SSD and an Intel Optane 900p — running
ext4; the datasets live on the HDD.  *Kebnekaise* is an HPC cluster node
(2x Xeon Gold 6132 = 28 cores, 192 GB RAM, 2x V100) whose storage is a
Lustre parallel filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim import Environment
from repro.storage import (
    PageCache,
    StorageBackend,
    greendog_hdd_filesystem,
    greendog_optane_filesystem,
    greendog_ssd_filesystem,
    kebnekaise_lustre,
)
from repro.posix import SimulatedOS
from repro.tfmini import TFRuntime
from repro.tfmini.device import rtx2060, v100


@dataclass
class Platform:
    """A fully wired platform: environment, OS image, TF runtime, tiers."""

    name: str
    env: Environment
    os: SimulatedOS
    runtime: TFRuntime
    data_root: str
    backends: Dict[str, StorageBackend] = field(default_factory=dict)
    fast_tier: Optional[StorageBackend] = None
    rotational_data_tier: bool = False

    def drop_caches(self) -> None:
        """The paper's pre-run protocol on Greendog."""
        self.os.drop_caches()

    def devices(self):
        return self.os.devices()


def greendog(env: Optional[Environment] = None,
             cpu_cores: int = 8,
             read_buffer_size: int = 1 << 20) -> Platform:
    """The Greendog workstation: HDD data tier + SSD + Optane fast tier."""
    env = env or Environment()
    page_cache = PageCache(capacity_bytes=28 * (1 << 30))  # 32 GB minus OS
    os_image = SimulatedOS(env, page_cache=page_cache)
    hdd_fs = greendog_hdd_filesystem(env)
    ssd_fs = greendog_ssd_filesystem(env)
    optane_fs = greendog_optane_filesystem(env)
    os_image.mount("/data", hdd_fs)
    os_image.mount("/ssd", ssd_fs)
    os_image.mount("/optane", optane_fs)
    runtime = TFRuntime(env, os_image, cpu_cores=cpu_cores,
                        gpus=[rtx2060(env)], read_buffer_size=read_buffer_size,
                        name="greendog")
    return Platform(
        name="greendog",
        env=env,
        os=os_image,
        runtime=runtime,
        data_root="/data",
        backends={"hdd": hdd_fs, "ssd": ssd_fs, "optane": optane_fs},
        fast_tier=optane_fs,
        rotational_data_tier=True,
    )


def kebnekaise(env: Optional[Environment] = None,
               cpu_cores: int = 28,
               n_gpus: int = 2,
               n_osts: int = 8,
               read_buffer_size: int = 1 << 20) -> Platform:
    """A Kebnekaise compute node: 28 cores, two V100s, Lustre storage."""
    env = env or Environment()
    page_cache = PageCache(capacity_bytes=160 * (1 << 30))
    os_image = SimulatedOS(env, page_cache=page_cache)
    lustre = kebnekaise_lustre(env, n_osts=n_osts)
    os_image.mount("/lustre", lustre)
    runtime = TFRuntime(env, os_image, cpu_cores=cpu_cores,
                        gpus=[v100(env, i) for i in range(n_gpus)],
                        read_buffer_size=read_buffer_size, name="kebnekaise")
    return Platform(
        name="kebnekaise",
        env=env,
        os=os_image,
        runtime=runtime,
        data_root="/lustre",
        backends={"lustre": lustre},
        fast_tier=None,
        rotational_data_tier=False,
    )
