"""Span tracing of the ``sgsov`` layers from outside the program.

A :class:`Tracer` wraps every public function defined in each layer
module and, while installed, rebinds each wrapped name wherever the
package holds it: in every ``sgsov`` module that imported it by name
(``transfer`` in ``acceptance``, ``form_factor`` in ``pipeline``,
``form_factor_det_scale`` in ``cli``, ...) and in module-level lists and
dicts of functions (``acceptance.CRITERIA``, ``cli.COMMANDS``).  Each
call records one span: name, start, end and the enclosing span.  Spans
stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "sgsov"
#: The package's modules, used as the layers of the per-layer metrics.
LAYERS = (
    "model",
    "yang_baxter",
    "averages",
    "spectrum",
    "sov_basis",
    "observables",
    "pipeline",
    "acceptance",
    "cli",
)


class Tracer:
    """In-memory span recorder; use as a context manager around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

    def _wrap(self, name: str, fn):
        self.name_index[name] = len(self.names)
        self.names.append(name)
        name_id = self.name_index[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_ids.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def _wrapper_for(self, obj):
        return self._wrappers.get(obj) if inspect.isfunction(obj) else None

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrapper_for(obj)
                if wrapper is not None:
                    self._patches.append((module, attr, obj, True))
                    setattr(module, attr, wrapper)
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        wrapper = self._wrapper_for(item)
                        if wrapper is not None:
                            self._patches.append((obj, i, item, False))
                            obj[i] = wrapper
                elif isinstance(obj, dict):
                    for key, item in list(obj.items()):
                        wrapper = self._wrapper_for(item)
                        if wrapper is not None:
                            self._patches.append((obj, key, item, False))
                            obj[key] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for container, key, original, is_module in reversed(self._patches):
            if is_module:
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name id, start, end and parent index (-1 at top)."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since calls nest on a
        single thread.
        """
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        n_names = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=n_names)
        total = np.bincount(spans["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(spans["name_id"], weights=self_time, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.arrays()
        target = self.name_index[name]
        outer = self.name_index[ancestor]
        count = 0
        for idx in np.nonzero(spans["name_id"] == target)[0]:
            up = spans["parent"][idx]
            while up >= 0 and spans["name_id"][up] != outer:
                up = spans["parent"][up]
            count += up >= 0
        return count

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file, with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
