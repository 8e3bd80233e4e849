"""Output checks for the benchmark's commands.

Each check reads the files a command wrote and returns a list of problems
(empty when the output is correct). The checks use only the standard
library, so they do not share code, or bugs, with the program under test.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

LOOCV_R_TOLERANCE = 0.1
WORD_SCORE_TOLERANCE = 1e-9  # relative to the magnitude of w.v + b's terms


@dataclass(frozen=True)
class InputFacts:
    users: frozenset  # every labeled user; synth gives each user posts
    n_words: int
    dim: int
    institutions: frozenset

    @classmethod
    def read(cls, inp: Path) -> "InputFacts":
        with open(inp / "embeddings.vec", encoding="utf-8") as f:
            n_words, dim = (int(x) for x in f.readline().split())
        return cls(
            users=frozenset(r["user_id"] for r in _rows(inp / "labels.csv")),
            n_words=n_words,
            dim=dim,
            institutions=frozenset(r["institution_id"] for r in _rows(inp / "reference.csv")),
        )


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _checked(fn):
    """A missing or unparseable output is a failed check, not a crash."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return wrapper


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _user_rows(path: Path, facts: InputFacts, column: str) -> list:
    rows = _rows(path)
    errors = []
    ids = [r["user_id"] for r in rows]
    if len(ids) != len(facts.users) or set(ids) != facts.users:
        errors.append(f"{path.name}: {len(ids)} rows for {len(facts.users)} users")
    if not _finite(r[column] for r in rows):
        errors.append(f"{path.name}: non-finite {column}")
    return errors


def manifest_output_hashes(out_dir: Path) -> dict:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        return {name: o["sha256"] for name, o in manifest["outputs"].items()}
    except (OSError, ValueError, KeyError):
        return {}


def read_report_r(path: Path):
    try:
        return float(_rows(path)[0]["r"])
    except (OSError, ValueError, KeyError, IndexError):
        return None


@_checked
def check_train(out: Path, facts: InputFacts) -> list:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    errors = []
    if len(model["weights"]) != facts.dim:
        errors.append(f"model has {len(model['weights'])} weights for dim {facts.dim}")
    if not _finite(model["weights"] + [model["bias"]]):
        errors.append("model has non-finite parameters")
    return errors


@_checked
def check_evaluate(out: Path, facts: InputFacts, ceiling) -> list:
    errors = _user_rows(out / "loocv_predictions.csv", facts, "predicted")
    r = read_report_r(out / "report.csv")
    if r is None or not math.isfinite(r):
        errors.append(f"report.csv: LOOCV r is {r}")
    elif ceiling is not None and abs(r - ceiling) > LOOCV_R_TOLERANCE:
        errors.append(f"LOOCV r {r:.4f} is not within {LOOCV_R_TOLERANCE} of the ceiling {ceiling:.4f}")
    return errors


@_checked
def check_predictions(path: Path, facts: InputFacts) -> list:
    return _user_rows(path, facts, "predicted")


@_checked
def check_features(path: Path, facts: InputFacts) -> list:
    return _user_rows(path, facts, "entropy_bits")


@_checked
def check_institutions(path: Path, facts: InputFacts) -> list:
    rows = _rows(path)
    errors = []
    if {r["institution_id"] for r in rows} != facts.institutions or len(rows) != len(facts.institutions):
        errors.append(f"institutions.csv: {len(rows)} rows for {len(facts.institutions)} institutions")
    if not _finite(r["predicted_mean"] for r in rows):
        errors.append("institutions.csv: non-finite predicted_mean")
    return errors


@_checked
def check_ranking(path: Path, model_path: Path, vec_path: Path, facts: InputFacts) -> list:
    """One row per table word, scores non-increasing, and the top word's
    score equal to w.v + b recomputed from model.json and the table."""
    rows = _rows(path)
    errors = []
    if len(rows) != facts.n_words:
        errors.append(f"ranking.csv: {len(rows)} rows for {facts.n_words} table words")
    scores = [float(r["score"]) for r in rows]
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append("ranking.csv: scores increase down the file")
    if not rows:
        return errors + ["ranking.csv: empty"]
    model = json.loads(model_path.read_text(encoding="utf-8"))
    top = rows[0]["word"]
    prefix = top + " "
    with open(vec_path, encoding="utf-8") as f:
        next(f)
        line = next((ln for ln in f if ln.startswith(prefix)), None)
    if line is None:
        return errors + [f"top word {top!r} is not in the table"]
    vector = array("f", (float(x) for x in line.split()[1:]))  # the table stores float32
    terms = [w * v for w, v in zip(model["weights"], vector)]
    expected = math.fsum(terms) + model["bias"]
    scale = max(1.0, math.fsum(abs(t) for t in terms) + abs(model["bias"]))
    if abs(scores[0] - expected) > WORD_SCORE_TOLERANCE * scale:
        errors.append(f"top word score {scores[0]!r} != w.v+b {expected!r}")
    return errors


@_checked
def check_curve(path: Path, n_max: int) -> list:
    rows = _rows(path)
    errors = []
    if [int(r["n_posts"]) for r in rows] != list(range(1, n_max + 1)):
        errors.append(f"curve.csv: rows {[r['n_posts'] for r in rows]} for n_max {n_max}")
    for r in rows:
        low, mid, high = float(r["ci_low"]), float(r["r"]), float(r["ci_high"])
        if not low <= mid <= high:
            errors.append(f"curve.csv: N={r['n_posts']} r={mid} outside [{low}, {high}]")
    return errors


def metric_names(root: Path, section: str) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[section]]
