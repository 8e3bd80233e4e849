"""Check that two source trees give the same bytes on the benchmark's commands.

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC [WORKLOAD ...]

PARENT_SRC and CHANGE_SRC are the roots of two source trees of postscore, a
checkout or a `git archive` of one; each tree's ``src`` goes on PYTHONPATH.
WORKLOAD is a name from ``bench/harness.py``; by default, the workloads
BENCHMARK.json lists.

For each workload it runs ``synth --seed 1`` at the workload's shape, then
the benchmark's commands as ``bench/harness.py`` builds them, plus ``curve
--lambda 0`` and the input flags the benchmark never passes: tf-idf
``train``, ``evaluate`` and ``predict`` with ``--stopwords``, ``correlate``
on featurize's output, ``rank-words --freq --min-count 2 --top 5`` and
``aggregate --exclude-users --min-users 1``, and ``rank-words --posts
--min-count 2 --top 20 --bottom 20 --project-2d`` for the ranking's head and
tail. The stopword list (the posts'
15 most frequent tokens) and the users to exclude (the first three of the
labels) are written from synth's outputs. Every command runs in three cache
states: cold (an empty cache of parsed inputs), warm (the cache the cold
pass left), and emptied before every command. Each tree runs with its own
PYTHONPATH and its own empty XDG_CACHE_HOME, on one BLAS thread, into the
same paths, so manifests compare byte for byte.

It prints one line per command and cache state, identical or the names of
what differs, and for a CSV that differs the largest |delta| of each numeric
column. It exits 0 when every exit code, stdout, stderr, output file and
manifest is identical, 1 when one differs, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402

SEED = 1
TOKEN = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*")  # textproc's token pattern; tokens are lowercased
STATES = ("cold", "warm", "emptied")
TIMEOUT_S = 600


def commands(workload: str, run: Path) -> dict:
    """postscore argument lists by name, in run order, on synth's outputs in
    run/in and the files of ``derived_inputs`` in run/derived: the
    benchmark's commands, then ``curve_lambda0``, the commands of the
    flags the benchmark never passes and a ranking's head and tail; outputs
    go to run/out/<name>."""
    wl = harness.WORKLOADS[workload]
    inp, out, derived = run / "in", run / "out", run / "derived"
    argv = harness.command_args(wl, inp, out)
    posts, labels = str(inp / "posts.jsonl"), str(inp / "labels.csv")
    curve = argv["curve"][: argv["curve"].index("--output-dir")]
    curve[curve.index("--lambda") + 1] = "0"
    tfidf = ["--posts", posts, "--labels", labels, "--vectorizer", "tfidf", "--top-terms", str(wl.top_terms),
             "--lambda", harness.TFIDF_LAMBDA, "--stopwords", str(derived / "stopwords.txt")]
    more = {
        "curve_lambda0": curve,
        "train_tfidf_stopwords": ["train", *tfidf],
        "evaluate_tfidf_stopwords": ["evaluate", *tfidf],
        "predict_tfidf_stopwords": ["predict", "--posts", posts,
                                    "--model", str(out / "train_tfidf_stopwords" / "model.json")],
        "correlate": ["correlate", "--features", str(out / "featurize" / "features.csv"), "--labels", labels],
        "rank_words_freq": ["rank-words", "--model", str(out / "train" / "model.json"),
                            "--embeddings", str(inp / "embeddings.vec"), "--freq", str(inp / "freq.csv"),
                            "--min-count", "2", "--top", "5"],
        "aggregate_exclude": ["aggregate", "--predictions", str(out / "predict" / "predictions.csv"),
                              "--mapping", str(inp / "mapping.csv"),
                              "--exclude-users", str(derived / "exclude.csv"), "--min-users", "1"],
        "rank_words_head_tail": ["rank-words", "--model", str(out / "train" / "model.json"),
                                 "--embeddings", str(inp / "embeddings.vec"), "--posts", posts,
                                 "--min-count", "2", "--top", "20", "--bottom", "20", "--project-2d"],
    }
    return {**argv, **{name: a + ["--output-dir", str(out / name)] for name, a in more.items()}}


def derived_inputs(run: Path) -> None:
    """Write into run/derived the inputs synth does not make, from its
    outputs in run/in: the posts' 15 most frequent tokens as a stopword
    list, and a labels file of the first three users to exclude."""
    inp, derived = run / "in", run / "derived"
    derived.mkdir()
    counts = collections.Counter()
    with open(inp / "posts.jsonl", encoding="utf-8") as f:
        for line in f:
            counts.update(t.lower() for t in TOKEN.findall(json.loads(line)["text"]))
    words = [w for w, _ in counts.most_common(15)]
    (derived / "stopwords.txt").write_text("".join(w + "\n" for w in words), encoding="utf-8")
    labels = (inp / "labels.csv").read_text(encoding="utf-8").splitlines(True)
    (derived / "exclude.csv").write_text("".join(labels[:4]), encoding="utf-8")


def run_tree(src: Path, workloads: list, work: Path, into: Path, states=STATES) -> list:
    """Run every workload's commands with ``src`` on PYTHONPATH in ``work``,
    and keep each run's exit code, stdout, stderr and output files (under
    ``out``) in into/<workload>/<state>/<name>. Returns those run
    directories relative to ``into``, in run order."""
    cache, kept_runs = work / "cache", []
    env = {**os.environ, **harness.THREAD_ENV, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(cache)}
    for workload in workloads:
        run = work / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        run.mkdir()
        inp, out = run / "in", run / "out"
        synth = harness.synth_args(harness.WORKLOADS[workload], SEED, inp)
        for i, state in enumerate(states):
            runs = {"synth": (synth, inp)} if i == 0 else {}
            runs.update((name, (argv, out / name)) for name, argv in commands(workload, run).items())
            for name, (argv, dest) in runs.items():
                if state == "emptied":
                    shutil.rmtree(cache, ignore_errors=True)
                shutil.rmtree(dest, ignore_errors=True)
                proc = subprocess.run([sys.executable, "-m", "postscore", *argv], cwd=run, env=env,
                                      capture_output=True, timeout=TIMEOUT_S)
                kept_runs.append(Path(workload, state, name))
                kept = into / kept_runs[-1]
                kept.mkdir(parents=True)
                (kept / "exit").write_text(f"{proc.returncode}\n")
                (kept / "stdout").write_bytes(proc.stdout)
                (kept / "stderr").write_bytes(proc.stderr)
                if dest.is_dir():
                    shutil.copytree(dest, kept / "out")
                if name == "synth" and proc.returncode == 0:
                    derived_inputs(run)
    return kept_runs


def csv_deltas(a: bytes, b: bytes) -> str:
    """The largest |delta| of each numeric column of two CSVs of one header
    and row count, or what keeps them from being compared."""
    rows_a = list(csv.reader(io.StringIO(a.decode("utf-8", "replace"))))
    rows_b = list(csv.reader(io.StringIO(b.decode("utf-8", "replace"))))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "headers differ"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"
    deltas = []
    for j, column in enumerate(rows_a[0]):
        try:
            pairs = [(float(x[j]), float(y[j]), x[j] == y[j]) for x, y in zip(rows_a[1:], rows_b[1:])]
        except (ValueError, IndexError):
            continue  # a column that is not numeric in every row
        delta = max((0.0 if same else abs(u - v) for u, v, same in pairs), default=0.0)
        deltas.append(f"{column} {delta:.3g}")
    return "largest |delta|: " + (", ".join(deltas) or "no numeric column")


def compare(a: Path, b: Path, runs: list) -> bool:
    """Print one line per run kept under both ``a`` and ``b`` by run_tree;
    True when every file of every run is identical."""
    same = True
    for run in runs:
        x, y = a / run, b / run
        names = sorted({p.relative_to(x) for p in x.rglob("*") if p.is_file()}
                       | {p.relative_to(y) for p in y.rglob("*") if p.is_file()})
        differ = [f for f in names if not ((x / f).is_file() and (y / f).is_file()
                                           and (x / f).read_bytes() == (y / f).read_bytes())]
        code = (x / "exit").read_text().strip()
        line = " ".join(run.parts) + ("" if code == "0" else f" (exit {code})")
        if not differ:
            print(f"{line}: identical")
            continue
        same = False
        print(f"{line}: differs: {', '.join(f.name for f in differ)}")
        for f in differ:
            if f.suffix == ".csv" and (x / f).is_file() and (y / f).is_file():
                print(f"  {f.name}: {csv_deltas((x / f).read_bytes(), (y / f).read_bytes())}")
    return same


def main(argv=None, states=STATES) -> int:
    parser = argparse.ArgumentParser(prog="same_bytes.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_SRC", type=Path)
    parser.add_argument("change", metavar="CHANGE_SRC", type=Path)
    parser.add_argument("workloads", metavar="WORKLOAD", nargs="*")
    args = parser.parse_args(argv)
    unknown = [w for w in args.workloads if w not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(harness.WORKLOADS)}")
    workloads = args.workloads or [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    ]
    trees = {"parent": (args.parent / "src").resolve(), "change": (args.change / "src").resolve()}
    for src in trees.values():
        if not (src / "postscore" / "__init__.py").is_file():
            parser.error(f"no postscore package in {src}")
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        work = Path(tmp)
        for label, src in trees.items():
            runs = run_tree(src, workloads, work, work / label, states)
        same = compare(work / "parent", work / "change", runs)
    print("identical" if same else "differs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
