"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the closed loop for ``--seconds`` seconds and reports the
end-to-end metrics, whose times are normalized to a reference
computation's speed (see ``cores.py``), with the wall-clock figures beside
them; ``--trace 1`` runs a fixed number of operations traced, and the same
operations untraced in a second process in alternating blocks, and reports
the per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The package
is imported from ``src/`` next to this directory; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before NumPy loads, so the
# numbers measure the program rather than thread scheduling on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3

#: Where the traced run writes its spans (ignored by git).
TRACE_DIR = ROOT / ".perfbench_out"


def _parse(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--untraced-peer", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package() -> bool:
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import doublezero
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(doublezero.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported {doublezero.__file__}, not the copy in {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    if not _import_package():
        return 2
    from perfbench import harness
    from perfbench.tracing import Tracer
    from perfbench.workloads import NAMES, workload_class

    args = _parse(argv, NAMES)

    cls = workload_class(args.workload)
    if args.setup_only:
        cls(args.seed)
        print("ready", flush=True)
        return 0

    if args.untraced_peer:
        harness.serve_untraced(cls(args.seed))
        return 0

    if not args.trace:
        setup_wall, setup_times = harness.measure_setup(args.workload, args.seed, SETUP_REPEATS)
    workload = cls(args.seed)
    if args.trace:
        peer = harness.UntracedPeer(args.workload, args.seed)
        try:
            untraced, loop, tracer = harness.traced_pass(
                workload, peer, workload.traced_ops, workload.trace_block)
        finally:
            peer.close()
        metrics = harness.per_layer_metrics(tracer, loop, untraced)
        tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        failed = loop.failed + untraced.failed
        attempted = loop.attempted + untraced.attempted
    else:
        loop = harness.closed_loop(workload, Tracer(False), args.seconds)
        metrics, wall, tail = harness.end_to_end_metrics(loop, setup_times, setup_wall)
        failed, attempted = loop.failed, loop.attempted

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    if not args.trace:
        print(f"latency tails are p{tail.percentile:.2f} of {tail.samples} samples "
              f"({tail.beyond} beyond it)")
        print("wall clock, not normalized:")
        for name, (value, unit) in wall.items():
            print(f"  {name:42s} {value:16.6f} {unit}")
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times)
              + "; wall clock: " + ", ".join(f"{t:.4f}" for t in setup_wall))
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted}); "
          f"errors: {dict(loop.errors)}")
    correct = failed == 0 and attempted > 0
    print(json.dumps(harness.result_line(correct, attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
