"""Tests of the benchmark itself: inputs, statistics, checks and traced counts."""

from __future__ import annotations

import dataclasses
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import cores, harness
from perfbench.tracing import Tracer
from perfbench.workloads.manifold import Manifold
from perfbench.workloads.predict import Predict, make_query
from perfbench.workloads.shoot import Diverged, Shoot

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def predict():
    return Predict(1)


@pytest.fixture(scope="module")
def shoot():
    return Shoot(1)


@pytest.fixture(scope="module")
def manifold():
    return Manifold(1)


# -- inputs ------------------------------------------------------------------
def test_predict_inputs_follow_the_seed():
    a = [make_query(5, i) for i in range(60)]
    assert a == [make_query(5, i) for i in range(60)]
    assert a != [make_query(6, i) for i in range(60)]
    assert any(q.repeat for q in a) and not all(q.repeat for q in a)
    assert any(q.expect_error is not None for q in a + [make_query(5, i) for i in range(60, 200)])


def _shoot_inputs(w):
    return [(g, state.tolist(), closes) for g, state, closes in w.ops]


def test_shoot_inputs_follow_the_seed(shoot):
    assert _shoot_inputs(shoot) == _shoot_inputs(Shoot(1))
    other = _shoot_inputs(Shoot(2))
    assert _shoot_inputs(shoot) != other
    # The seed orders each census; every block holds the same solves.
    block = Shoot.loop_block
    for start in range(0, len(other), block):
        solves = [sorted(str(op[:2]) for op in ops[start:start + block])
                  for ops in (_shoot_inputs(shoot), other)]
        assert solves[0] == solves[1]


def test_manifold_inputs_follow_the_seed(manifold):
    inputs = [manifold.make_input(i) for i in range(20)]
    assert inputs == [Manifold(1).make_input(i) for i in range(20)]
    assert inputs != [Manifold(2).make_input(i) for i in range(20)]
    assert [inside for _, inside in inputs] == [i % 2 == 0 for i in range(20)]


# -- tail percentile -----------------------------------------------------------
@pytest.mark.parametrize("n", [21, 40, 100, 199, 1000, 12345])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]  # values 1..n, so a rank is its value
    tail = harness.tail_latency(samples)
    assert tail.value == n - 10
    assert sum(x > tail.value for x in samples) == tail.beyond == 10
    assert tail.percentile == pytest.approx(100.0 * (n - 10) / n)
    assert tail.samples == n


@pytest.mark.parametrize("n, value", [(1, 1.0), (3, 2.0), (12, 7.0), (20, 11.0)])
def test_tail_falls_back_to_the_upper_median_with_few_samples(n, value):
    tail = harness.tail_latency([float(x) for x in range(1, n + 1)])
    assert (tail.value, tail.beyond) == (value, n - value)


# -- checks reject corrupted outputs -------------------------------------------
def _valid_periodic_query():
    i = 0
    while True:
        q = make_query(3, i)
        if q.expect_error is None and q.key.k is not None and q.pendulum is not None:
            return q
        i += 1


def test_predict_check_rejects_a_shifted_slope(predict):
    q = _valid_periodic_query()
    out = predict.execute(q)
    assert predict.check(q, out)
    shifted = dataclasses.replace(out.curves[1], slope=out.curves[1].slope + 1e-6)
    assert not predict.check(q, dataclasses.replace(out, curves=[out.curves[0], shifted]))
    p, sp, plane = out.pendulum
    moved = dataclasses.replace(plane[0], slope=plane[0].slope * (1 + 1e-5))
    assert not predict.check(q, dataclasses.replace(out, pendulum=(p, sp, [moved, *plane[1:]])))


def test_predict_check_rejects_wrong_extrema_and_zeros(predict):
    q = _valid_periodic_query()
    out = predict.execute(q)
    prof = out.profile
    if not prof.is_zero:
        bad = dataclasses.replace(prof, hmax=prof.hmax * 1.01)
        assert not predict.check(q, dataclasses.replace(out, profile=bad))
    flipped = dataclasses.replace(out, values=np.abs(out.values) + 1.0)
    lo, hi = out.window
    if lo + 0.05 * (hi - lo) < out.nu_hat < hi - 0.05 * (hi - lo):
        assert not predict.check(q, flipped)


def test_predict_invalid_query_needs_its_documented_error(predict):
    i = 0
    while make_query(3, i).expect_error is None:
        i += 1
    q = make_query(3, i)
    out = predict.execute(q)
    assert isinstance(out, q.expect_error)
    assert predict.check(q, out)
    assert not predict.check(q, RuntimeError("other"))
    assert not predict.check(q, None)


def test_shoot_check_rejects_a_perturbed_orbit(shoot):
    shoot.bind(Tracer(False))
    inp = shoot.make_input(0)
    res = shoot.execute(inp)
    point = shoot.points[inp[1]]
    assert Shoot.check_orbit(point, res)
    moved = dataclasses.replace(res, initial_state=res.initial_state + 1e-5)
    assert not Shoot.check_orbit(point, moved)
    relabeled = dataclasses.replace(res, classification=type(res.classification).SADDLE)
    assert not Shoot.check_orbit(point, relabeled)
    assert not Shoot.check_census(point, [res])


def test_shoot_counts_a_divergent_seed_without_failing(shoot):
    tr = Tracer(True)
    shoot.bind(tr)
    slot = next(i for i, (g, _, _) in enumerate(shoot.ops) if g == 0)
    inp = shoot.make_input(slot)
    res = shoot.execute(inp)
    assert isinstance(res, Diverged)
    assert shoot.check(inp, res)
    assert tr.counts["dynamics.find_subharmonic.divergences"] == 1
    assert "dynamics.find_subharmonic.converged" not in tr.counts


def test_manifold_check_rejects_corrupted_traces(manifold):
    manifold.bind(Tracer(False))
    inp = manifold.make_input(0)
    assert inp[1]
    right, left, unstable, stable = manifold.execute(inp)
    assert manifold.check(inp, (right, left, unstable, stable))
    assert not manifold.check((inp[0], False), (right, left, unstable, stable))
    lowered = dataclasses.replace(
        stable, points=tuple((x, y - 1.0) for x, y in stable.points))
    assert not manifold.check(inp, (right, left, unstable, lowered))
    sink = dataclasses.replace(left, classification=type(left.classification).SINK)
    assert not manifold.check(inp, (right, sink, unstable, stable))


# -- traced run ----------------------------------------------------------------
@pytest.mark.parametrize("name, ops", [("predict", 40), ("shoot", 7), ("manifold", 2)])
def test_traced_counts_repeat_exactly(name, ops, predict, shoot, manifold):
    workload = {"predict": predict, "shoot": shoot, "manifold": manifold}[name]
    runs = []
    for _ in range(2):
        tracer = Tracer(True)
        traced = harness.run_ops(workload, tracer, 0, ops, harness.LoopResult())
        assert (traced.attempted, traced.failed) == (ops, 0)
        runs.append((dict(tracer.counts), tracer.calls()))
    assert runs[0] == runs[1]
    untraced = harness.run_ops(workload, Tracer(False), 0, ops, harness.LoopResult())
    metrics = harness.per_layer_metrics(tracer, traced, untraced)
    assert metrics["bench.ops"][0] == ops
    assert metrics["tracing.overhead_ratio"][0] > 0.0


def test_traced_pass_alternates_with_an_untraced_peer(predict):
    peer = harness.UntracedPeer("predict", 1)
    try:
        untraced, traced, tracer = harness.traced_pass(predict, peer, 10, 4)
    finally:
        peer.close()
    assert peer.proc.returncode == 0
    assert (untraced.attempted, untraced.failed) == (traced.attempted, traced.failed) == (10, 0)
    assert tracer.counts["predict.queries"] == 10


def test_self_time_subtracts_child_spans():
    tr = Tracer(True)
    tr.spans[:] = [("bench.op", 0.0, 10.0, -1, 0), ("melnikov.h_hat", 1.0, 4.0, 0, 0),
                   ("fourier.eval", 5.0, 6.0, 0, 0)]
    assert tr.self_times() == {"bench.op": 6.0, "melnikov.h_hat": 3.0, "fourier.eval": 1.0}


# -- speed normalization -------------------------------------------------------
def test_normalized_scales_by_the_probes_around_the_interval(monkeypatch):
    monkeypatch.setattr(cores, "_probe_at", [0.0, 1.0, 2.0, 9.0])
    monkeypatch.setattr(cores, "_probe_ref", [2.0, 4.0, 6.0, 8.0])
    monkeypatch.setattr(cores, "WINDOW_S", 1.0)
    nominal = cores.REF_NOMINAL_S
    # [1.2, 1.4] sees the probes from 0.2 to 2.4.
    assert cores.normalized(1.2, 1.4) == pytest.approx(0.2 * nominal / 5.0)
    # [0.5, 2.5] sees the probes at 0.0, 1.0 and 2.0.
    assert cores.normalized(0.5, 2.5) == pytest.approx(2.0 * nominal / 4.0)
    # No probe within a second of [4.0, 5.0]: the nearest one before counts.
    assert cores.normalized(4.0, 5.0) == pytest.approx(1.0 * nominal / 6.0)


class _Counter:
    """A workload of trivial operations, in blocks of three."""

    loop_block = 3

    def bind(self, tracer):
        pass

    def make_input(self, index):
        return index

    def execute(self, inp):
        return inp

    def check(self, inp, out):
        return inp == out


def test_closed_loop_runs_whole_blocks():
    res = harness.closed_loop(_Counter(), Tracer(False), 0.05)
    assert res.attempted >= 3 and res.attempted % 3 == 0 and res.failed == 0
    assert len(res.norm_latencies) == res.attempted and res.norm_elapsed > 0.0


def test_steady_probes_pauses_the_clock_and_restores_the_process():
    cpus = cores.allowed_cpus()
    handler = signal.getsignal(signal.SIGALRM)
    paused = cores._paused
    with cores.steady(every=0.05):
        t0 = cores.clock()
        while cores.clock() - t0 < 0.3:
            pass
        probes = list(cores._probe_ref)
    assert len(probes) >= 3 and all(r > 0.0 for r in probes)
    assert cores._paused > paused
    assert cores.allowed_cpus() == cpus
    assert signal.getsignal(signal.SIGALRM) is handler


# -- command line --------------------------------------------------------------
def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
