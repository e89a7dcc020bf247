"""One benchmark repetition in a fresh interpreter.

    python bench/child.py WORKLOAD SEED SIZE MODE

MODE is "run" (timed part, tracing off), "trace" (timed part with the
per-layer tracer installed) or "setup" (set-up only).  Prints one JSON line:
"ready" is the time.monotonic() at which set-up ended and "setup_probe_s"
the machine's speed right after it (see speed.py).  After a timed part it
also holds wall_s (without the time the probe took), probe_s, peak_rss_mb,
every check and, when traced, the per-layer metrics.  Traced runs take no
probe, so that no layer's time holds any of it.
"""

import json
import resource
import sys
import time


def main() -> None:
    workload, seed, size, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    import workloads

    inputs = workloads.make_inputs(workload, seed, size)
    ready = time.monotonic()
    from speed import WINDOW, SpeedProbe

    probe = SpeedProbe()
    probe.burst()
    out = {"ready": ready, "setup_probe_s": probe.probe_s}
    if mode == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    probe.reset()
    if tracer is None:
        probe.start()
    t0 = time.perf_counter()
    try:
        checks = workloads.run(workload, inputs)
        wall = time.perf_counter() - t0
    finally:
        probe.stop()
    out["wall_s"] = wall - probe.spent_s
    if tracer is None:
        # a run shorter than the probe's period has too few samples
        if len(probe.samples) < WINDOW:
            probe.burst()
        out["probe_s"] = probe.probe_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["checks"] = checks
    if tracer is not None:
        out["layers"] = tracer.summary(workloads.CERTIFY_FIXTURES)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
