"""Run one workload of the Raqlet benchmark and print its metrics.

    python3 perfbench/run.py --workload reads --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The report lines say what ran (versions, nproc, git sha, seed, dataset
scale, op count per class), per-class p50s, the first failures, the
host-speed probe (:mod:`perfbench.probe`) and every metric with its unit,
scaled and raw; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, in reference-host
time.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile", "reads", "mutate", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.probe import REFERENCE_SECONDS, HostScale
    from perfbench.tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.register_objects()
    module = importlib.import_module(f"perfbench.{args.workload}_workload")
    try:
        run = module.run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()

    print("# env " + json.dumps(harness.environment(ROOT, run), sort_keys=True))
    for cls, latencies in harness.class_latencies(run, traced=False).items():
        if latencies:
            print(
                f"# class {cls} (raw): n={len(latencies)} p50={harness.p50(latencies) * 1e3:.3f} ms "
                f"p90={harness.p90(latencies) * 1e3:.3f} ms"
            )
    failures = [op for op in run.ops if op.failure is not None]
    reasons = {}
    for op in failures:
        reasons[op.failure] = reasons.get(op.failure, 0) + 1
    for reason, times in sorted(reasons.items(), key=lambda item: -item[1])[:10]:
        print(f"# failed x{times}: {reason}")
    scale = HostScale(run.probes, run.setup_probes)
    if tracer is None:
        raw = harness.end_to_end(run, HostScale([]))
        metrics = harness.end_to_end(run, scale)
    else:
        raw = harness.per_layer(run, tracer)
        metrics = harness.scaled(raw, scale.factor)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.dump(str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    seconds = [probed for _, probed in run.probes]
    print(
        f"# host probe: n={len(seconds)} mean={statistics.fmean(seconds) * 1e3:.3f} ms; "
        f"times scaled to a {REFERENCE_SECONDS * 1e3:g} ms probe (run factor {scale.factor:.4f})"
    )
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value:.6g} {unit} (raw {raw[name][0]:.6g})")
    print(json.dumps(harness.result_line(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
