"""Closed-loop runner, latency statistics and set-up timing.

One caller issues operations back to back: the next operation starts only
after the previous one and its output check have finished.  Input
generation and checks are the benchmark's own work and stay outside the
per-operation latency, but inside the loop's time.  Every interval is kept
both as measured and normalized to the reference's speed (``cores.py``).
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench.cores import (
    REF_NOMINAL_S,
    allowed_cpus,
    best_reference,
    clock,
    normalized,
    pin_fastest,
    steady,
    unpin,
)
from perfbench.tracing import BENCH_PREFIX, Tracer

#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: A timed loop ends after this many times its normalized length in wall time.
WALL_CAP = 1.8

RUN_PY = Path(__file__).resolve().parent / "run.py"


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def tail_latency(samples) -> Tail:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond it.

    That is the ``TAIL_BEYOND + 1``-th largest sample, at percentile
    ``100 * (n - TAIL_BEYOND) / n``.  With ``2 * TAIL_BEYOND`` samples or
    fewer that sample would lie below the median, so the upper median is
    returned instead, with the count beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no latency samples")
    rank = n - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n // 2 + 1
    return Tail(xs[rank - 1], 100.0 * rank / n, n - rank, n)


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    #: ``elapsed`` and ``latencies`` at the reference's nominal speed.
    norm_elapsed: float = 0.0
    norm_latencies: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.elapsed

    @property
    def norm_ops_per_s(self) -> float:
        return self.completed / self.norm_elapsed


def _run_op(workload, tracer: Tracer, index: int, res: LoopResult) -> tuple[float, ...]:
    """Generate, execute and check operation ``index``, counting it in ``res``.

    Returns the clock times at which the operation's cycle started, the
    operation itself started and ended, and the cycle ended.
    """
    workload.bind(tracer)
    tracer.op_id = index
    start = clock()
    with tracer.span("bench.generate"):
        inp = workload.make_input(index)
    t0 = clock()
    try:
        with tracer.span("bench.op"):
            out = workload.execute(inp)
    except Exception as exc:  # an operation failing must not stop the loop
        t1 = clock()
        res.errors[type(exc).__name__] += 1
        ok = False
    else:
        t1 = clock()
        with tracer.span("bench.check"):
            ok = workload.check(inp, out)
        if not ok:
            res.errors["check"] += 1
    end = clock()
    res.attempted += 1
    res.failed += not ok
    res.elapsed += end - start
    res.latencies.append(t1 - t0)
    return start, t0, t1, end


def _normalize(res: LoopResult, cycles: list[tuple[float, ...]]) -> None:
    """Add the loop's cycle and operation times, normalized, to ``res``."""
    for start, t0, t1, end in cycles:
        res.norm_elapsed += normalized(start, end)
        res.norm_latencies.append(normalized(t0, t1))


def closed_loop(workload, tracer: Tracer, seconds: float) -> LoopResult:
    """Run operations ``0, 1, 2, ...`` back to back for ``seconds`` normalized seconds.

    The loop stops only after a whole block of ``workload.loop_block``
    operations, so every run holds the same mix of operations; as a safety
    net it also stops once ``WALL_CAP`` times ``seconds`` of wall time passed.
    """
    res, cycles = LoopResult(), []
    block = workload.loop_block
    with steady():
        start = clock()
        so_far = 0.0
        while len(cycles) % block or (so_far < seconds
                                      and clock() - start < WALL_CAP * seconds):
            cycles.append(_run_op(workload, tracer, len(cycles), res))
            so_far += normalized(cycles[-1][0], cycles[-1][3])
        _normalize(res, cycles)
    return res


def run_ops(workload, tracer: Tracer, start: int, stop: int, res: LoopResult) -> LoopResult:
    """Operations ``start .. stop-1`` back to back, added to ``res``."""
    with steady():
        cycles = [_run_op(workload, tracer, i, res) for i in range(start, stop)]
        _normalize(res, cycles)
    return res


def _child(workload: str, seed: int, *flags: str, stdin=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", *flags],
        stdin=stdin, stdout=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> None:
    """Wait for a child to exit (killing it after two minutes)."""
    try:
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class UntracedPeer:
    """The same workload in a second process, run untraced block by block.

    A process of its own gives the untraced operations their own package
    state, so neither pass profits from work the other one cached, and
    each sees the stream's own reuse.  Alternating blocks with the traced
    pass keeps drifts in machine speed out of the overhead ratio.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = _child(workload, seed, "--untraced-peer", stdin=subprocess.PIPE)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"untraced peer exited with {self.proc.returncode}")

    def run(self, start: int, stop: int) -> LoopResult:
        """Run operations ``start .. stop-1``; the totals so far."""
        self.proc.stdin.write(f"{start} {stop}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"untraced peer exited with {self.proc.poll()}")
        attempted, failed, elapsed, norm_elapsed = json.loads(line)
        return LoopResult(attempted, failed, elapsed, norm_elapsed=norm_elapsed)

    def close(self) -> None:
        self.proc.stdin.close()
        _finish(self.proc)


def serve_untraced(workload) -> None:
    """The peer's side: run the requested operation ranges untraced."""
    res, tracer = LoopResult(), Tracer(False)
    print("ready", flush=True)
    for line in sys.stdin:
        start, stop = map(int, line.split())
        run_ops(workload, tracer, start, stop, res)
        print(json.dumps([res.attempted, res.failed, res.elapsed, res.norm_elapsed]),
              flush=True)


def traced_pass(workload, peer: UntracedPeer, ops: int, block: int):
    """Operations ``0 .. ops-1`` traced here and untraced in ``peer``, block by block."""
    tracer, traced = Tracer(True), LoopResult()
    untraced = LoopResult()
    for start in range(0, ops, block):
        stop = min(start + block, ops)
        untraced = peer.run(start, stop)
        run_ops(workload, tracer, start, stop, traced)
    return untraced, traced, tracer


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Time from process start to ready-for-first-operation, per fresh process.

    Each repeat starts a new interpreter that imports the package, generates
    the workload's inputs, builds its flows and warms up, then reports ready.
    The child runs pinned to the CPU that is fastest when it starts; its
    time is returned as measured and at the reference's nominal speed, from
    the reference times on that CPU just before and just after it.
    """
    wall, norm = [], []
    cpus = allowed_cpus()
    try:
        for _ in range(repeats):
            before = pin_fastest(cpus)
            t0 = perf_counter()
            proc = _child(workload, seed, "--setup-only")
            try:
                line = proc.stdout.readline()
            finally:
                elapsed = perf_counter() - t0
                _finish(proc)
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up child exited with {proc.returncode}: {line!r}")
            after = best_reference()
            wall.append(elapsed)
            norm.append(elapsed * REF_NOMINAL_S * 2.0 / (before + after))
    finally:
        unpin(cpus)
    return wall, norm


def end_to_end_metrics(loop: LoopResult, setup_times: list[float],
                       setup_wall: list[float]) -> tuple[dict, dict, Tail]:
    """The end-to-end metrics, and the wall-clock figures beside them."""
    tail = tail_latency(loop.norm_latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "norm_ops_per_s": (loop.norm_ops_per_s, "1/s"),
        "norm_latency_p50_ms": (statistics.median(loop.norm_latencies) * 1e3, "ms"),
        "norm_latency_tail_ms": (tail.value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_latency(loop.latencies).value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_wall), "s"),
        "speed": (loop.norm_elapsed / loop.elapsed, "ratio"),
    }
    return metrics, wall, tail


def per_layer_metrics(tracer: Tracer, traced: LoopResult, untraced: LoopResult) -> dict:
    """Per-layer numbers from one traced pass, plus the tracing overhead."""
    self_t = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def busy(*names):
        return sum(self_t.get(n, 0.0) for n in names)

    def ncalls(*names):
        return sum(calls.get(n, 0) for n in names)

    layer_time = sum(t for name, t in self_t.items() if not name.startswith(BENCH_PREFIX))
    dyn_busy = busy("dynamics.find_subharmonic", "dynamics.trace_manifolds")
    rhs = counts.get("dynamics.rhs_evals", 0)
    fs_calls = ncalls("dynamics.find_subharmonic")
    images = counts.get("dynamics.trace_manifolds.strobe_images", 0)
    trace_rhs = counts.get("dynamics.trace_manifolds.rhs_evals", 0)
    trace_busy = busy("dynamics.trace_manifolds")
    queries = counts.get("predict.queries", 0)

    m = {
        "melnikov.h_hat_subharmonic.busy_s": (busy("melnikov.h_hat_subharmonic"), "s"),
        "melnikov.h_hat_subharmonic.calls": (ncalls("melnikov.h_hat_subharmonic"), "count"),
        "melnikov.h_hat.busy_s": (busy("melnikov.h_hat"), "s"),
        "melnikov.h_hat.calls": (ncalls("melnikov.h_hat"), "count"),
        "melnikov.j_integrals.busy_s": (busy("melnikov.j_integrals"), "s"),
        "melnikov.j_integrals.calls": (ncalls("melnikov.j_integrals"), "count"),
        "melnikov.splitting.busy_s": (busy("melnikov.splitting"), "s"),
        "melnikov.splitting.calls": (ncalls("melnikov.splitting"), "count"),
        "orbits.resonant_modulus.busy_s": (busy("orbits.resonant_modulus"), "s"),
        "orbits.resonant_modulus.calls": (ncalls("orbits.resonant_modulus"), "count"),
        "orbits.no_resonance": (counts.get("orbits.no_resonance", 0), "count"),
        "fourier.eval.busy_s": (busy("fourier.eval"), "s"),
        "fourier.eval.points": (counts.get("fourier.eval.points", 0), "count"),
        "fourier.harmonics": (counts.get("fourier.harmonics", 0), "count"),
        "bifurcation.curves.busy_s": (busy("bifurcation.curves"), "s"),
        "bifurcation.classify_stability.busy_s": (busy("bifurcation.classify_stability"), "s"),
        "bifurcation.degenerate_l": (counts.get("bifurcation.degenerate_l", 0), "count"),
        "pendulum.reduce.busy_s": (busy("pendulum.reduce"), "s"),
        "pendulum.prediction_curves.busy_s": (busy("pendulum.prediction_curves"), "s"),
        "predict.orbit_key_repeat_share": (
            counts.get("predict.repeats", 0) / queries if queries else 0.0, "ratio"),
        "predict.queries": (queries, "count"),
        "dynamics.find_subharmonic.busy_s": (busy("dynamics.find_subharmonic"), "s"),
        "dynamics.find_subharmonic.calls": (fs_calls, "count"),
        "dynamics.find_subharmonic.converged_ratio": (
            counts.get("dynamics.find_subharmonic.converged", 0) / fs_calls if fs_calls else 0.0,
            "ratio"),
        "dynamics.find_subharmonic.divergences": (
            counts.get("dynamics.find_subharmonic.divergences", 0), "count"),
        "dynamics.rhs_evals": (rhs, "count"),
        "dynamics.jac_evals": (counts.get("dynamics.jac_evals", 0), "count"),
        "dynamics.rhs_evals_per_op": (rhs / traced.attempted, "count"),
        "dynamics.us_per_rhs_eval": (dyn_busy / rhs * 1e6 if rhs else 0.0, "us"),
        "dynamics.trace_manifolds.busy_s": (trace_busy, "s"),
        "dynamics.trace_manifolds.strobe_images": (images, "count"),
        "dynamics.trace_manifolds.chains_ended": (
            counts.get("dynamics.trace_manifolds.chains_ended", 0), "count"),
        "dynamics.trace_manifolds.images_per_s": (
            images / trace_busy if trace_busy else 0.0, "1/s"),
        "dynamics.rhs_evals_per_image": (trace_rhs / images if images else 0.0, "count"),
        "bench.self_s": (traced.elapsed - layer_time, "s"),
        "bench.ops": (traced.attempted, "count"),
        "tracing.traced_ops_per_s": (traced.norm_ops_per_s, "1/s"),
        "tracing.untraced_ops_per_s": (untraced.norm_ops_per_s, "1/s"),
        "tracing.overhead_ratio": (traced.norm_ops_per_s / untraced.norm_ops_per_s, "ratio"),
    }
    return m


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
