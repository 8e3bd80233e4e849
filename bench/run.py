"""End-to-end benchmark of the postscore CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a fixed sequence of
real `postscore` subcommands (harness.WORKLOADS), each run as its own
subprocess (closed loop, one command at a time, one BLAS thread, all on one
CPU) on inputs that `postscore synth` makes from --seed.

--trace 0 measures the end-to-end metrics: `synth` runs three times (set-up,
median reported as setup_s; the three outputs must be byte-identical), then
the command sequence repeats, at least three times, in whole passes that end
within --seconds seconds. Wall time, CPU and peak RSS of each command come
from os.wait4 on that child alone; total_s and cpu_s sum each command's
median over the passes. A fixed reference command run before every other
command (probe.py, see harness.speed_probe) tracks the host's speed, which
drifts by a quarter over minutes on a shared machine; total_norm_s and
cpu_norm_s are total_s and cpu_s divided by that drift, and are the ones
BENCHMARK.json gates, with setup_s, peak_rss_mb and loocv_r.

--trace 1 replays all eight commands, on every workload, in-process through
the library calls the CLI makes, with a span around each call (see
layers.py), and reports the per-layer metrics.

Every command's outputs are checked (checks.py); a command that exits
non-zero, is killed or fails a check counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, and the
metrics BENCHMARK.json names for the mode. Above it, every metric measured
is printed with its unit and sample count: also each command's wall time
(train_s, evaluate_s, ...) and failed_ratio, which BENCHMARK.json does not
gate on because a ~1 s command's median of three varies too much between
runs on a small shared machine. The full report, with the environment and
every sample, goes to .bench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
from harness import ROOT, WORK, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "postscore" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no postscore source tree (src/postscore); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.update(harness.THREAD_ENV)  # before numpy loads, for the traced replay
    harness.pin_to_one_cpu()
    env = harness.child_env()
    load_before, steal_before = os.getloadavg(), harness.steal_seconds()

    if args.trace:
        import layers

        res = layers.traced_run(wl, args.seed, work, env)
    else:
        res = harness.measure(wl, args.seed, args.seconds, work, env)
    tally = res.pop("tally")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": harness.environment(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "steal_s": None if steal_before is None else harness.steal_seconds() - steal_before,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures, **res}
    (work / "result.json").write_text(json.dumps(info, indent=1, default=str) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} commands, {tally.failed} failed")
    for f in tally.failures:
        print(f"#   FAILED {f}")
    for name, m in res["metrics"].items():
        tail = m.get("tail")
        tail_txt = f" p{tail['p']:g}={tail['value']:.6g}" if tail else " (no tail: <20 samples)"
        print(f"#   {name} = {m['value']} {m['unit']} n={m['n']}{tail_txt}")
    print("# environment: " + json.dumps(info["environment"]))
    print(f"# loadavg before {load_before} after {info['loadavg_after']}; "
          f"CPU stolen by other guests: {info['steal_s']} s")

    names = checks.metric_names(ROOT, "per_layer" if args.trace else "end_to_end")
    out = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": res["metrics"][n]["value"], "unit": res["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
