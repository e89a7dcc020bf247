"""Run one trq benchmark workload and print its metrics.

    python3 bench/run.py --workload tr-sweep --seed 1 --seconds 30 --trace 0

Run from the root of the repository.  Every repetition is a fresh child
process, because the engine keeps caches across calls (the gcd cache, sigma
series, derivative streams) that a one-shot user never hits.  Children run
one at a time with a fixed PYTHONHASHSEED, until the next one would end
after --seconds.  Before each child, set-up also runs on its own a few
times, so that setup_s is a median over many set-ups spread over the run.

With --trace 0 the metrics are wall_s, setup_s, peak_rss_mb (medians over
the untraced children) and pass_ratio.  wall_s and setup_s are rescaled to
a fixed reference speed of the machine, measured by a probe in the same
child during the same seconds (see speed.py); the report lines before the
result also give them as measured.  With --trace 1 each round runs one
untraced and one traced child; the metrics are the per-layer medians of the
traced children and trace.overhead, the ratio of their wall-time medians.
The last line of output is one JSON object; the lines before it are the
same report for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

HASH_SEED = "0"
SETUP_RUNS = 3  # per round, so that set-up is sampled across the whole run
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def _spawn(args, mode: str, start: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed), args.size, mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child of {args.workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child of {args.workload} exited with {proc.returncode}:\n{err[-4000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res.pop("ready") - t0
    return res


def _rescaled(child: dict, key: str, probe: str) -> float:
    return child[key] * REF_S / child[probe]


def measure(args) -> tuple[dict, list, list]:
    """Run the children; return the metrics, every check and the children."""
    start = time.monotonic()
    setups, untraced, traced = [], [], []
    while True:
        round_start = time.monotonic()
        if not args.trace:
            setups += [_spawn(args, "setup", start) for _ in range(SETUP_RUNS)]
        untraced.append(_spawn(args, "run", start))
        if args.trace:
            traced.append(_spawn(args, "trace", start))
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            break
    checks = [c for child in untraced + traced for c in child["checks"]]
    setups += untraced
    measured = {
        "wall_s": statistics.median(c["wall_s"] for c in untraced),
        "setup_s": statistics.median(c["setup_s"] for c in setups),
    }
    if args.trace:
        metrics = {
            name: statistics.median(c["layers"][name] for c in traced)
            for name in traced[0]["layers"]
        }
        # traced children take no probe: compare the times as measured
        metrics["trace.overhead"] = statistics.median(c["wall_s"] for c in traced) / measured["wall_s"]
    else:
        passed = sum(1 for c in checks if c[2])
        metrics = {
            "wall_s": statistics.median(_rescaled(c, "wall_s", "probe_s") for c in untraced),
            "setup_s": statistics.median(_rescaled(c, "setup_s", "setup_probe_s") for c in setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
            "pass_ratio": passed / len(checks),
        }
    return metrics, measured, checks, untraced + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trq" / "__init__.py").is_file():
        print(f"no trq sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    known = {(group, label) for group, labels in golden["known_failures"].items() for label in labels}
    try:
        metrics, measured, checks, children = measure(args)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1

    failed = [c for c in checks if not c[2]]
    unexpected = [c for c in failed if (c[0], c[1]) not in known]
    print(
        f"# trq benchmark workload={args.workload} seed={args.seed} trace={args.trace} size={args.size} "
        f"children={len(children)} python={platform.python_version()} machine={platform.machine()} "
        f"cpus={os.cpu_count()} platform={platform.platform()} PYTHONHASHSEED={HASH_SEED}"
    )
    for group, label, _passed, detail in failed:
        tag = "FAILED (known defect)" if (group, label) in known else "FAILED"
        print(f"# {tag} {group}: {label} {detail[:200]}")
    walls = " ".join(f"{c['wall_s']:.3f}" for c in children)
    print(f"# wall_s of each child as measured, untraced then traced: {walls}")
    probes = " ".join(f"{c['probe_s'] * 1e6:.0f}" for c in children if "probe_s" in c)
    print(f"# probe_s of each untraced child in us (reference {REF_S * 1e6:.0f} us): {probes}")
    for name, value in measured.items():
        print(f"# {name} as measured, median: {value:.6f} s")
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6f} {_unit(name)}")
    print(f"{'fail_ratio':<48} {len(failed) / len(checks):>16.6f} ratio ({len(failed)}/{len(checks)} checks)")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
