"""Per-layer attribution of host time from a ``cProfile`` run.

Every function's self time is charged to the layer whose source file it
lives in, a layer being a package under ``src/repro/``:

* ``sim/bandwidth.py`` is split out of ``sim`` as ``sim.bandwidth``,
  ``storage/metrics.py`` out of ``storage`` as ``storage.metrics``, and
  ``campaign/dist/`` out of ``campaign`` as ``campaign.dist``;
* a function outside the package (a builtin such as ``min`` or
  ``list.append``, the standard library, numpy) is charged to the layer
  that called it, split over its callers by the self time each call edge
  carries, and walked further up when the caller is outside too;
* the benchmark's own code, module-level code of ``repro`` itself, and
  outside code no layer called, land in ``other``.

So the ``self_s`` of all layers plus ``other`` add up to the profiled
total, and the shares add up to one.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

LAYERS = ("sim", "sim.bandwidth", "storage", "storage.metrics", "posix",
          "darshan", "core", "tfmini", "tools", "workloads", "campaign",
          "campaign.dist")
OTHER = "other"
BUCKETS = LAYERS + (OTHER,)

_SPLIT_FILES = {("sim", "bandwidth.py"): "sim.bandwidth",
                ("storage", "metrics.py"): "storage.metrics"}

# pstats keys functions by (filename, first line, name).
Func = Tuple[str, int, str]


def _repro_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def layer_of(filename: str, root: Optional[Path] = None) -> Optional[str]:
    """The layer a source file belongs to: a name from :data:`BUCKETS`, or
    ``None`` for code outside the ``repro`` package (charged to callers)."""
    root = root or _repro_root()
    try:
        parts = Path(filename).resolve().relative_to(root).parts
    except ValueError:
        return None
    if len(parts) < 2:
        return OTHER  # repro/__init__.py, repro/_version.py
    package = parts[0]
    if (package, parts[-1]) in _SPLIT_FILES:
        return _SPLIT_FILES[package, parts[-1]]
    if package == "campaign" and parts[1] == "dist":
        return "campaign.dist"
    return package if package in LAYERS else OTHER


class LayerProfile:
    """Self time per layer from one profile; see the module docstring."""

    def __init__(self, profile: cProfile.Profile,
                 bench_dirs: Iterable[Path] = ()):
        self.stats: Dict[Func, tuple] = pstats.Stats(profile).stats
        self._root = _repro_root()
        self._bench_dirs = tuple(str(Path(d).resolve()) for d in bench_dirs)
        self._files: Dict[str, Optional[str]] = {}
        self._weights: Dict[Func, Dict[str, float]] = {}
        self.self_s = self._attribute()

    def _own_layer(self, func: Func) -> Optional[str]:
        filename = func[0]
        if filename not in self._files:
            if filename == "~" or filename.startswith("<"):
                self._files[filename] = None  # builtins, frozen modules
            elif str(Path(filename).resolve()).startswith(self._bench_dirs):
                self._files[filename] = OTHER
            else:
                self._files[filename] = layer_of(filename, self._root)
        return self._files[filename]

    def _layer_weights(self, func: Func) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        layer = self._own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        cached = self._weights.get(func)
        if cached is not None:
            return cached
        self._weights[func] = {OTHER: 1.0}  # a recursive cycle stops here
        callers = self.stats[func][4] if func in self.stats else {}
        edges = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(edges.values())
        if total <= 0:  # no caller, or none took measurable time: by calls
            edges = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(edges.values())
        if total <= 0:
            return self._weights[func]
        out: Dict[str, float] = {}
        for caller, weight in edges.items():
            for layer, share in self._layer_weights(caller).items():
                out[layer] = out.get(layer, 0.0) + share * weight / total
        self._weights[func] = out
        return out

    def _attribute(self) -> Dict[str, float]:
        out = dict.fromkeys(BUCKETS, 0.0)
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for layer, share in self._layer_weights(func).items():
                out[layer] += tt * share
        return out

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def shares(self) -> Dict[str, float]:
        total = self.total_s
        return {layer: (value / total if total > 0 else 0.0)
                for layer, value in self.self_s.items()}

    def _matching(self, relpath: str, name: str):
        for func, row in self.stats.items():
            if func[2] == name and func[0].endswith(relpath):
                yield row

    def calls(self, relpath: str, name: str) -> int:
        """Call count of a (non-generator) function, e.g.
        ``calls("sim/bandwidth.py", "transfer")``."""
        return sum(row[1] for row in self._matching(relpath, name))

    def cumulative_s(self, relpath: str, name: str) -> float:
        """Host time spent in a function and everything it called."""
        return sum(row[3] for row in self._matching(relpath, name))

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.self_share`` for every bucket."""
        out: Dict[str, float] = {}
        for layer, share in self.shares().items():
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.self_share"] = share
        return out
