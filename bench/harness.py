"""Workloads, child processes and measurement for the benchmark (see run.py)."""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 3  # so each command's median drops at least one outlier pass
COMMAND_TIMEOUT_S = 150.0
CURVE_LAMBDA = "0.001"
CURVE_BOOTSTRAP = 100  # the smallest replicate count postscore accepts
TFIDF_LAMBDA = "0.001"
# One BLAS thread in every command and in the traced replay. On a machine of
# two shared cores, two BLAS threads spin-wait on each other whenever another
# process takes a core: with a busy loop on one core, `curve` took 50% longer
# at two threads and 1% longer at one.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE = Path(__file__).resolve().parent / "probe.py"
# About the median wall time of one speed_probe() on the machine the benchmark
# was set on (2 shared cores of an Intel Xeon, where it ranged 0.40-0.62 s);
# it only sets the scale of total_norm_s and cpu_norm_s.
PROBE_NOMINAL_S = 0.5


# Command stems in run order; "<stem>_s" is the metric name where one exists.
COMMANDS = (
    "train",
    "evaluate",
    "evaluate_tfidf",
    "predict",
    "rank_words",
    "featurize",
    "aggregate",
    "curve",
)
TIMED_COMMANDS = tuple(c for c in COMMANDS if c != "aggregate")  # "<stem>_s" metrics

@dataclass(frozen=True)
class Workload:
    """One input shape and the commands timed on it. The shape decides
    which layer dominates; the traced run replays all of COMMANDS on every
    shape, so every per-layer metric exists on every workload. Why each
    shape was chosen is recorded in BENCHMARK.json."""

    synth: tuple  # postscore synth size arguments
    commands: tuple  # timed command stems, in COMMANDS order
    top_terms: int  # evaluate --vectorizer tfidf --top-terms
    n_max: int  # curve --n-max
    dominant: str  # span expected to dominate the commands below
    dominant_in: tuple


# Shapes, resized from the paper-scale ones so that set-up plus four or more
# passes of a workload's commands fit in about 40 s on a 2-core machine
# (every command pays ~0.55 s of interpreter start and import). Each keeps
# its named layer dominant in the traced replay (trace.dominant_share) and
# keeps LOOCV r within 0.1 of the ceiling on every seed. Every workload runs
# `evaluate`, for loocv_r.
# - wide-table: a table much larger than the posts, so parsing and hashing the
#   .vec dominate train, predict and rank-words (the loader and manifest
#   hashing); d=100 keeps LOOCV cheap, so text and LOOCV changes show no
#   change here.
# - many-posts: many short posts on a small table, so the JSONL read and
#   filter+tokenize dominate every command that reads posts, featurize reads
#   the same textproc layer, and LOOCV is 300 tiny (51x51) solves bound by
#   per-user overhead rather than flops.
# - wide-loocv: few posts per user at d=200, so grouped LOOCV (embedding,
#   tf-idf at k=200, and each curve point) dominates time and peak RSS.
# Left out: the 100k x 300 gate table and synth at 2,000 users x 20 posts with
# a 50k x 300 table (5-16 s per command or set-up, too long to repeat 22 times
# per check); tf-idf k=1000 at 2,000 users (OOM-killed at 7.7 GB today, and
# ~9.6 GB of per-user Grams at 1,200 users); curve --n-max 20 at 2,000 users
# (199 s).
WORKLOADS = {
    "wide-table": Workload(
        synth=("--vocab-size", "16000", "--dim", "100", "--users", "250", "--posts-per-user", "10"),
        commands=("train", "evaluate", "predict", "rank_words"),
        top_terms=100,
        n_max=2,
        dominant="embeddings.load_vec",
        dominant_in=("train", "predict", "rank_words"),
    ),
    "many-posts": Workload(
        synth=("--vocab-size", "3000", "--dim", "50", "--users", "300", "--posts-per-user", "20"),
        commands=("train", "evaluate", "predict", "featurize", "aggregate"),
        top_terms=100,
        n_max=3,
        dominant="textproc.clean",
        dominant_in=("train", "evaluate", "predict"),
    ),
    "wide-loocv": Workload(
        synth=("--vocab-size", "2000", "--dim", "200", "--users", "300", "--posts-per-user", "10"),
        commands=("evaluate", "evaluate_tfidf", "curve"),
        top_terms=200,
        n_max=2,
        dominant="model.loo_user_cv",
        dominant_in=("evaluate", "evaluate_tfidf", "curve"),
    ),
    # Tiny shape for bench/smoke.py only; not listed in BENCHMARK.json.
    "smoke": Workload(
        synth=("--vocab-size", "400", "--dim", "8", "--users", "120", "--posts-per-user", "10"),
        commands=COMMANDS,
        top_terms=20,
        n_max=2,
        dominant="textproc.clean",
        dominant_in=("train",),
    ),
}

NOISE_SD = 30.0  # synth default; sets the analytic ceiling below
LOOCV_CEILING = 100.0 / math.sqrt(100.0**2 + NOISE_SD**2)


def command_args(wl: Workload, inp: Path, out: Path) -> dict:
    """postscore argument lists per command stem; outputs go to out/<stem>."""
    posts, labels, vec = str(inp / "posts.jsonl"), str(inp / "labels.csv"), str(inp / "embeddings.vec")
    model = str(out / "train" / "model.json")
    training = ["--posts", posts, "--labels", labels]
    args = {
        "train": ["train", *training, "--embeddings", vec],
        "evaluate": ["evaluate", *training, "--embeddings", vec],
        "evaluate_tfidf": ["evaluate", *training, "--vectorizer", "tfidf",
                           "--top-terms", str(wl.top_terms), "--lambda", TFIDF_LAMBDA],
        "predict": ["predict", "--posts", posts, "--model", model, "--embeddings", vec],
        "rank_words": ["rank-words", "--model", model, "--embeddings", vec, "--posts", posts],
        "featurize": ["featurize", "--posts", posts],
        "aggregate": ["aggregate", "--predictions", str(out / "predict" / "predictions.csv"),
                      "--mapping", str(inp / "mapping.csv"), "--reference", str(inp / "reference.csv")],
        "curve": ["curve", *training, "--embeddings", vec, "--n-max", str(wl.n_max),
                  "--bootstrap", str(CURVE_BOOTSTRAP), "--lambda", CURVE_LAMBDA],
    }
    return {stem: a + ["--output-dir", str(out / stem)] for stem, a in args.items()}


def synth_args(wl: Workload, seed: int, out: Path) -> list:
    return ["synth", *wl.synth, "--seed", str(seed), "--output-dir", str(out)]


# ----------------------------------------------------------------- children


@dataclass
class Exec:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


def pin_to_one_cpu() -> None:
    """Run this process, and so every command and probe it starts, on one
    CPU. The cores of a shared host run at different speeds from moment to
    moment; on one core the probe and the commands see the same speed, and
    no command migrates between cores."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = {**os.environ, **THREAD_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list, log: Path, env: dict) -> Exec:
    """Run one `postscore` command; rusage is this child's alone (wait4)."""
    return run_child([sys.executable, "-m", "postscore", *args], log, env)


def run_child(argv: list, log: Path, env: dict) -> Exec:
    """Run one child process. It is reaped by a blocking wait4, which ends
    the timing the moment it exits (subprocess's own wait with a timeout
    polls, and rounds times to its 50 ms poll interval)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=f, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exec(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode)


def speed_probe(log: Path, env: dict) -> float:
    """Wall time of probe.py, a fixed command that starts Python, imports
    numpy and scipy and computes a little, as each postscore command does.

    The host's speed drifts by a quarter over minutes (other guests on the
    same cores; CPU time drifts with it, so it is not stolen time). The probe
    runs between the commands, so it sees the same host as they do, and
    total_norm_s / cpu_norm_s divide that drift out. Its inputs never change
    and it shares no code with the program.
    """
    ex = run_child([sys.executable, str(PROBE)], log, env)
    if ex.rc != 0:
        raise SystemExit(f"speed probe failed (exit {ex.rc}):\n{log.read_text(errors='replace')}")
    return ex.wall_s


# ---------------------------------------------------------------- summaries


def summarize(values: list) -> dict:
    """Median ("value") plus the highest listed percentile with >= 10 samples
    beyond it, and the sample count."""
    out = {"n": len(values), "value": statistics.median(values) if values else None}
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            k = min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)
            out["tail"] = {"p": p, "value": ordered[k]}
            break
    return out


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    try:
        import pandas  # noqa: F401  (its absence selects the slow .vec parser)

        env["pandas_imports"] = True
    except ImportError:
        env["pandas_imports"] = False
    return env


def steal_seconds():
    """CPU time the hypervisor gave to other guests so far (Linux only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


# ------------------------------------------------------------------- runs


@dataclass
class Tally:
    """Commands attempted and failed; a command fails once however many of
    its checks fail."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, ex: Exec | None, errors: list) -> bool:
        self.attempted += 1
        if ex is not None and ex.rc != 0:
            errors = [f"exit code {ex.rc}"] + errors
        self.failures.extend(f"{what}: {e}" for e in errors)
        self.failed += bool(errors)
        return not errors


def setup_inputs(wl: Workload, seed: int, work: Path, env: dict, tally: Tally) -> tuple:
    """synth SETUP_REPEATS times; returns (input dir, set-up wall times)."""
    times, first = [], None
    for rep in range(SETUP_REPEATS):
        out = work / f"in{rep}"
        ex = run_cli(synth_args(wl, seed, out), work / "logs" / f"synth{rep}.log", env)
        errors = []
        if ex.rc == 0:
            hashes = checks.manifest_output_hashes(out)
            if first is None:
                first = hashes
            elif hashes != first:
                errors.append("synth rerun outputs differ from the first run")
        if not tally.record(f"synth#{rep}", ex, errors) and ex.rc != 0:
            log = (work / "logs" / f"synth{rep}.log").read_text(errors="replace")
            raise SystemExit(f"set-up failed (postscore synth exit {ex.rc}):\n{log}")
        times.append(ex.wall_s)
        if rep:
            shutil.rmtree(out)
    return work / "in0", times


def check_pass(wl: Workload, inp: Path, out: Path, commands: tuple = COMMANDS) -> dict:
    """Output checks of the given commands for one pass; returns {stem: [errors]}."""
    facts = checks.InputFacts.read(inp)
    check = {
        "train": lambda: checks.check_train(out / "train", facts),
        "evaluate": lambda: checks.check_evaluate(out / "evaluate", facts, LOOCV_CEILING),
        "evaluate_tfidf": lambda: checks.check_evaluate(out / "evaluate_tfidf", facts, None),
        "predict": lambda: checks.check_predictions(out / "predict" / "predictions.csv", facts),
        "rank_words": lambda: checks.check_ranking(out / "rank_words" / "ranking.csv",
                                                   out / "train" / "model.json",
                                                   inp / "embeddings.vec", facts),
        "featurize": lambda: checks.check_features(out / "featurize" / "features.csv", facts),
        "aggregate": lambda: checks.check_institutions(out / "aggregate" / "institutions.csv", facts),
        "curve": lambda: checks.check_curve(out / "curve" / "curve.csv", wl.n_max),
    }
    return {stem: check[stem]() for stem in commands}


def run_pass(wl: Workload, inp: Path, out: Path, env: dict, tally: Tally, reference: dict,
             commands: tuple = COMMANDS, probes: list | None = None) -> dict:
    """One closed-loop pass of the given commands; returns {stem: Exec}.
    With a probes list, a speed_probe() time is appended to it before every
    other command."""
    args = command_args(wl, inp, out)
    execs = {}
    for i, stem in enumerate(commands):
        if probes is not None and i % 2 == 0:
            probes.append(speed_probe(out / "logs" / "probe.log", env))
        execs[stem] = run_cli(args[stem], out / "logs" / f"{stem}.log", env)
    errors = check_pass(wl, inp, out, commands)
    for stem in commands:
        if execs[stem].rc == 0:
            hashes = checks.manifest_output_hashes(out / stem)
            if reference.setdefault(stem, hashes) != hashes:
                errors[stem].append("output hashes differ from the first pass")
        tally.record(stem, execs[stem], errors[stem] if execs[stem].rc == 0 else [])
    return execs


def measure(wl: Workload, seed: int, seconds: float, work: Path, env: dict) -> dict:
    tally = Tally()
    inp, setup_times = setup_inputs(wl, seed, work, env, tally)
    passes, reference, probes = [], {}, []
    t0 = time.perf_counter()
    # Whole passes only, and none that would end past --seconds.
    while True:
        out = work / "pass"
        shutil.rmtree(out, ignore_errors=True)  # the last pass stays for inspection
        passes.append(run_pass(wl, inp, out, env, tally, reference, wl.commands, probes))
        if len(passes) == 1:
            loocv_r = checks.read_report_r(out / "evaluate" / "report.csv")
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    measured_s = time.perf_counter() - t0

    ok = [p for p in passes if all(e.rc == 0 for e in p.values())]
    samples = {f"{stem}_s": [p[stem].wall_s for p in passes if p[stem].rc == 0]
               for stem in TIMED_COMMANDS if stem in wl.commands}
    samples["setup_s"] = setup_times
    samples["total_s"] = [sum(e.wall_s for e in p.values()) for p in ok]
    samples["cpu_s"] = [sum(e.cpu_s for e in p.values()) for p in ok]
    samples["peak_rss_mb"] = [max(e.rss_mb for e in p.values()) for p in passes]
    detail = {}
    if "aggregate" in wl.commands:
        detail["aggregate_s"] = [p["aggregate"].wall_s for p in passes if p["aggregate"].rc == 0]
    for stem in wl.commands:
        detail[f"{stem}.cpu_s"] = [p[stem].cpu_s for p in passes]
        detail[f"{stem}.rss_mb"] = [p[stem].rss_mb for p in passes]
    units = {name: ("MB" if name.endswith("_mb") else "s") for name in samples}
    metrics = {name: dict(summarize(v), unit=units[name]) for name, v in samples.items()}
    # total_s and cpu_s: the sum over commands of each command's median over
    # the passes, so a burst of load on the host during one command of one
    # pass drops out instead of moving the whole pass's sum.
    for name, attr in (("total_s", "wall_s"), ("cpu_s", "cpu_s")):
        if ok:
            metrics[name]["value"] = sum(statistics.median(getattr(p[stem], attr) for p in ok)
                                         for stem in wl.commands)
    # The same two sums scaled to a host whose speed_probe() takes
    # PROBE_NOMINAL_S: a slower program moves these as much as the raw sums,
    # a slower host does not. BENCHMARK.json gates these two.
    host = statistics.median(probes) / PROBE_NOMINAL_S
    metrics["speed_probe_s"] = dict(summarize(probes), unit="s")
    for name in ("total", "cpu"):
        raw = metrics[f"{name}_s"]
        metrics[f"{name}_norm_s"] = {"n": raw["n"], "unit": "s",
                                     "value": raw["value"] / host if ok else None}
    metrics["peak_rss_mb"]["value"] = max(samples["peak_rss_mb"], default=None)
    metrics["loocv_r"] = {"n": 1, "value": loocv_r, "unit": "r"}
    metrics["failed_ratio"] = {"n": tally.attempted, "value": tally.failed / tally.attempted,
                               "unit": "ratio"}
    return {
        "tally": tally,
        "metrics": metrics,
        "detail": {k: summarize(v) for k, v in detail.items()},
        "samples": {**samples, **detail, "speed_probe_s": probes},
        "passes": len(passes),
        "measured_s": measured_s,
    }
