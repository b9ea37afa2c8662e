"""The benchmark's workloads: ``predict``, ``shoot`` and ``manifold``.

A workload's constructor is its set-up (input preparation, flow
construction, warm-up).  ``make_input(i)`` returns operation ``i``'s input
as a pure function of the seed and ``i``, so two passes over the same
indices see identical inputs; ``execute`` is the timed operation and
``check`` verifies its output.
"""

from __future__ import annotations

from perfbench.tracing import Tracer


class Workload:
    name = ""
    #: Operations in one traced pass (a fixed count, so traced counts repeat).
    traced_ops = 0
    #: Operations per block when the traced and untraced passes alternate.
    trace_block = 1
    #: The timed loop stops only after a whole block of this many operations.
    loop_block = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.tr = Tracer(False)

    def bind(self, tracer: Tracer) -> None:
        self.tr = tracer

    def make_input(self, index: int):
        raise NotImplementedError

    def execute(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError


NAMES = ("predict", "shoot", "manifold")


def workload_class(name: str) -> type[Workload]:
    if name == "predict":
        from perfbench.workloads.predict import Predict
        return Predict
    if name == "shoot":
        from perfbench.workloads.shoot import Shoot
        return Shoot
    if name == "manifold":
        from perfbench.workloads.manifold import Manifold
        return Manifold
    raise KeyError(name)

