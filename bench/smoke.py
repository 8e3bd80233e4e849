"""Smoke test of the benchmark harness at a tiny scale (about a minute).

    python3 bench/smoke.py

Run from the root of a source checkout. Asserts that:
- both modes print a last line with exactly correct/attempted/failed/metrics,
  every metric BENCHMARK.json names for that mode, with its unit, and no
  failed command;
- a truncated ranking.csv fails the output checks and counts as a failed
  command;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def run_bench(trace: int, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    args = ["--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(BENCH + args, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(trace: int) -> None:
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} has no numeric value"
    print(f"ok: trace={trace} emits all {len(expected)} metrics with units")


def check_corruption_counts() -> None:
    wl = harness.WORKLOADS["smoke"]
    work = harness.WORK / "smoke"
    inp, out = work / "in0", work / "pass"  # left behind by the trace=1 run
    assert not any(harness.check_pass(wl, inp, out).values()), "clean pass should pass its checks"
    ranking = out / "rank_words" / "ranking.csv"
    lines = ranking.read_text(encoding="utf-8").splitlines(keepends=True)
    ranking.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    errors = harness.check_pass(wl, inp, out)
    assert errors["rank_words"], "truncated ranking.csv passed its check"
    assert not any(v for k, v in errors.items() if k != "rank_words"), errors
    tally = harness.Tally()
    for stem, errs in errors.items():
        tally.record(stem, None, errs)
    assert (tally.attempted, tally.failed) == (len(harness.COMMANDS), 1), tally
    print(f"ok: truncated ranking.csv counted as failed ({errors['rank_words'][0]})")


def check_refuses_without_source() -> None:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(harness.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bare / "bench" / "run.py"), "--workload", "smoke",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "metrics" not in proc.stdout, proc.stdout
    print(f"ok: exits {proc.returncode} without a source tree")


if __name__ == "__main__":
    check_result(0)
    check_result(1)
    check_corruption_counts()
    check_refuses_without_source()
