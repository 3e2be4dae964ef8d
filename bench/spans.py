"""In-memory spans around calls into the stateid modules, for the traced run.

The tracer replaces chosen public functions and methods of the stateid package
with wrappers, everywhere the function object is bound (its own module, every
module that imported it by name, the package namespace).  Each wrapper times
the call and files it under a layer.  Only the outermost call of a layer is
counted, so a layer's time is never counted twice when its functions call
each other (positive_part_projector calling hermitian_eig is one eigensolve).
Self time is a span's duration minus the time its direct child spans cover.

Spans are aggregated as they close: per layer a call count, total and self
time, the errors raised through it, and optionally the largest matrix
dimension or the bytes of the results.  Worker processes forked by run_batch
inherit the wrappers; their aggregates ride back to the parent on the chunk
result (see ``_Carry``).
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: dict = field(default_factory=dict)
    max_dim: int = 0
    nbytes: int = 0

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        for name, count in other.errors.items():
            self.errors[name] = self.errors.get(name, 0) + count
        self.max_dim = max(self.max_dim, other.max_dim)
        self.nbytes += other.nbytes


class Tracer:
    """Layer aggregates for one process; ``install`` patches the package."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[list[float]] = []   # child time covered, per open span
        self._open: set[str] = set()           # layers with an open span
        self._owner = os.getpid()
        self._seen: set = set()   # kept across reset: forked workers inherit the caches too

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def reset(self) -> None:
        self.layers = {}
        self._stack = []
        self._open = set()

    def _wrap(self, layer, fn, *, dim_of=None, bytes_of=None, counts=None, suffix=None):
        """Time fn under layer.

        dim_of(args) gives a matrix dimension to track the maximum of;
        bytes_of(result) adds to the layer's byte count; counts(args) decides
        whether a call is a span at all (the lift layer counts only cache
        misses); suffix(args) files the call under layer + suffix.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in tracer._open or (counts is not None and not counts(args)):
                return fn(*args, **kwargs)
            name = layer + suffix(args) if suffix is not None else layer
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._open.add(layer)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                dt = perf_counter() - t0
                tracer._open.discard(layer)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                s = tracer.stats(name)
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - frame[0]
                if dim_of is not None:
                    s.max_dim = max(s.max_dim, dim_of(args))
                if error is not None:
                    s.errors[error] = s.errors.get(error, 0) + 1
            if bytes_of is not None:
                tracer.stats(name).nbytes += bytes_of(result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "stateid" or name.startswith("stateid.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def patch_function(self, module, name: str, layer: str, **options) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        self._replace_everywhere(original, self._wrap(layer, original, **options))

    def patch_method(self, cls, name: str, layer: str, **options) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            return
        setattr(cls, name, self._wrap(layer, original, **options))

    def install(self) -> None:
        """Wrap the layer boundaries of the stateid package in this process."""
        from stateid import linalg, minerr, povm, protocol, simulate, symmetry, unambiguous

        def first_dim(args):
            return int(args[0].shape[0])

        def lift_is_cold(args):
            proto, node = args
            return id(node) not in getattr(proto, "_lift_cache", {})

        def lifted_bytes(result):
            return sum(op.nbytes for op in result.values())

        def first_call(tag):
            # toolkits are cached per process, so only a first call builds one
            def counts(args):
                key = (tag, *args)
                if key in self._seen:
                    return False
                self._seen.add(key)
                return True
            return counts

        for fn in ("build_toolkit", "bipartite_toolkit"):
            self.patch_function(symmetry, fn, "symmetry.toolkit", counts=first_call(fn))
        for method in ("to_system_major", "to_party_major"):
            self.patch_method(symmetry.BipartiteToolkit, method, "symmetry.regroup")
        for fn in ("hermitian_eig", "positive_part_projector", "psd_sqrt"):
            self.patch_function(linalg, fn, "linalg.eig", dim_of=first_dim)
        self.patch_method(povm.Povm, "validate", "povm.validate")
        self.patch_method(protocol.LoccProtocol, "lifted_kraus", "protocol.lift",
                          counts=lift_is_cold, bytes_of=lifted_bytes)
        self.patch_function(protocol, "effective_povm", "protocol.flatten",
                            suffix=lambda args: f"_{args[0].d_a}x{args[0].d_b}")
        self.patch_function(minerr, "locc_protocol", "minerr.protocol_build")
        self.patch_function(minerr, "locc_povm_element", "minerr.locc_element")
        self.patch_function(minerr, "max_success_eigenvalue_route", "minerr.eigen_route")
        self.patch_function(unambiguous, "locc_protocol", "unambiguous.protocol_build")
        self.patch_function(unambiguous, "separable_unamb_povm", "unambiguous.separable_povm")
        self.patch_function(simulate, "haar_state", "simulate.haar")
        for cls in (simulate.LoccTrialSpec, simulate.GlobalTrialSpec):
            self.patch_method(cls, "run", "simulate.trial")
        self._patch_chunk(simulate)

    def _patch_chunk(self, simulate) -> None:
        """Ship a forked worker's aggregates back with its chunk counts.

        run_batch sends _run_chunk to workers by reference, so the wrapper
        keeps the original's module and name; in a worker it starts from
        empty aggregates (the fork copied the parent's) and returns the counts
        as a tuple that merges the aggregates into the parent on unpickling.
        """
        original = getattr(simulate, "_run_chunk", None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def chunk(*args, **kwargs):
            if os.getpid() == tracer._owner:
                return original(*args, **kwargs)
            tracer.reset()
            counts = original(*args, **kwargs)
            return _Carry(counts, tracer.layers)

        self._replace_everywhere(original, chunk)


# The parent's tracer, which worker aggregates merge into on unpickling.
ACTIVE: Tracer | None = None


def activate() -> Tracer:
    global ACTIVE
    ACTIVE = Tracer()
    ACTIVE.install()
    return ACTIVE


def _merge_from_worker(counts: tuple, layers: dict) -> tuple:
    # runs in the parent's result-handling thread while run_batch waits
    if ACTIVE is not None:
        for name, stats in layers.items():
            ACTIVE.stats(name).merge(stats)
    return counts


class _Carry(tuple):
    """Chunk counts that carry a worker's layer aggregates across the pickle."""

    def __new__(cls, counts, layers):
        obj = super().__new__(cls, counts)
        obj.layers = layers
        return obj

    def __reduce__(self):
        return _merge_from_worker, (tuple(self), self.layers)
