"""File formats: posts JSONL, the CSV family, model JSON, run manifests.

This module reads and writes every CSV and JSON file the package uses; only
the `.vec` table and the stopword list stay with their parsers. Every CSV is
UTF-8 with a header row and LF line ends, and every JSON file is written by
``write_json``. A CSV keyed by its first field (labels, reference,
predictions, features and freq) lists each key once; the mapping file may
list a user under several institutions, so it is read as pairs. The records
that cross a file boundary live here too: ``RawPost`` (a line of the posts
file), ``UserPrediction`` (a row of a predictions file) and the features
file's ``FEATURE_COLUMNS``, so reading a file loads no module that computes
on it.

All writers are deterministic: floats are serialized with repr (shortest
round-trip), rows follow a defined order, and nothing embeds timestamps, so
identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DataFormatError, utf8_errors

if TYPE_CHECKING:
    from .model import CurvePoint, LinearModel
    from .stats import CorrelationReport
    from .textproc import UserSurfaceFeatures
    from .tfidf import TfidfVocabulary
    from .transfer import InstitutionScore

MANIFEST_NAME = "manifest.json"

# The per-user surface features, in the features CSV's column order
# (``textproc.UserSurfaceFeatures`` computes them).
FEATURE_COLUMNS = [
    "caps_rate",
    "emoji_rate",
    "exclaim_rate",
    "latin_rate",
    "avg_post_len",
    "avg_word_len",
    "vocab_size",
    "entropy_bits",
]

PREDICTIONS_HEADER = ["user_id", "predicted", "n_posts_used"]
FEATURES_HEADER = ["user_id"] + FEATURE_COLUMNS
REPORT_HEADER = ["metric", "r", "n", "p", "r_squared"]
INSTITUTIONS_HEADER = ["institution_id", "n_users", "n_posts", "predicted_mean", "reference"]
RANKING_HEADER = ["word", "score", "freq", "percentile"]
PLOT_HEADER = ["word", "x", "y", "score"]
CURVE_HEADER = ["n_posts", "r", "ci_low", "ci_high"]
LABELS_HEADER = ["user_id", "score"]
MAPPING_HEADER = ["user_id", "institution_id"]
REFERENCE_HEADER = ["institution_id", "score"]
FREQ_HEADER = ["word", "count"]
EXCLUDED_HEADER = ["institution_id", "n_users"]
TFIDF_VOCAB_HEADER = ["term", "df", "idf"]


# json raises RecursionError, not JSONDecodeError, on brackets nested past
# the interpreter's recursion limit.
_TOO_DEEP = "invalid JSON: nested too deeply"


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- posts JSONL


@dataclass(frozen=True)
class RawPost:
    """One short text with author attribution, as read from the posts file."""

    user_id: str
    post_id: str
    text: str
    is_repost: bool = False


def iter_posts_jsonl(path) -> Iterator[RawPost]:
    """Stream posts from a JSON-lines file, one object per line."""
    with open(path, "r", encoding="utf-8") as f, utf8_errors(path):
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON: {exc.msg}", path=path, line=lineno) from None
            except RecursionError:
                raise DataFormatError(_TOO_DEEP, path=path, line=lineno) from None
            if not isinstance(obj, dict):
                raise DataFormatError("post must be a JSON object", path=path, line=lineno)
            try:
                user_id = obj["user_id"]
                post_id = obj["post_id"]
                text = obj["text"]
            except KeyError as exc:
                raise DataFormatError(f"missing field {exc.args[0]!r}", path=path, line=lineno) from None
            is_repost = obj.get("is_repost", False)
            if (
                not isinstance(user_id, str)
                or not isinstance(post_id, str)
                or not isinstance(text, str)
                or not isinstance(is_repost, bool)
            ):
                raise DataFormatError("field has the wrong type", path=path, line=lineno)
            yield RawPost(user_id=user_id, post_id=post_id, text=text, is_repost=is_repost)


def write_posts_jsonl(path, posts: Iterable[RawPost]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for post in posts:
            record = {"user_id": post.user_id, "post_id": post.post_id, "text": post.text}
            if post.is_repost:
                record["is_repost"] = True
            f.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            f.write("\n")


# ------------------------------------------------------------------ CSV files


def _write_csv(path, header: list[str], rows: Iterable) -> int:
    """Write ``header`` then ``rows`` as UTF-8 CSV with LF line ends;
    returns the number of rows written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            n += 1
    return n


def _read_csv_rows(path, header: list[str], header_optional: bool = False):
    """(line number, fields) of each non-blank row after the header, which
    must be line 1 unless ``header_optional``; a row of another field count
    is a data error."""
    with open(path, "r", encoding="utf-8", newline="") as f, utf8_errors(path):
        rows = enumerate(csv.reader(f), start=1)
        if not header_optional and next(rows, (1, None))[1] != header:
            raise DataFormatError(f"expected header `{','.join(header)}`", path=path, line=1)
        for lineno, row in rows:
            if not row or (lineno == 1 and row == header):
                continue
            if len(row) != len(header):
                raise DataFormatError(f"expected `{','.join(header)}`", path=path, line=lineno)
            yield lineno, row


def _read_keyed(path, header: list[str], kind: str, parse, header_optional: bool = False) -> dict:
    """key -> ``parse(fields after the key)`` for each row of a CSV keyed by
    its first field, in file order. A key listed twice (named by its
    ``kind``) or a ValueError from ``parse`` is a data error naming the
    file and line."""
    values = {}
    for lineno, row in _read_csv_rows(path, header, header_optional):
        if row[0] in values:
            raise DataFormatError(f"duplicate {kind} {row[0]!r}", path=path, line=lineno)
        try:
            values[row[0]] = parse(row[1:])
        except ValueError as exc:
            raise DataFormatError(str(exc), path=path, line=lineno) from None
    return values


def _number(name: str, text: str) -> float:
    """The field ``name`` as a finite float; ValueError otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _count(name: str, text: str) -> int:
    """The field ``name`` as an int >= 0; ValueError otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer") from None
    if value < 0:
        raise ValueError(f"negative {name} {value}")
    return value


def read_labels_csv(path) -> dict[str, float]:
    """user_id -> target score."""
    labels = _read_keyed(path, LABELS_HEADER, "user", lambda f: _number("score", f[0]))
    if not labels:
        raise DataFormatError("labels file has no rows", path=path, line=1)
    return labels


def write_labels_csv(path, labels: dict) -> None:
    _write_csv(path, LABELS_HEADER, ([u, _fmt(labels[u])] for u in sorted(labels)))


def read_mapping_pairs(path) -> list[tuple[str, str]]:
    return [(row[0], row[1]) for _, row in _read_csv_rows(path, MAPPING_HEADER)]


def write_mapping_csv(path, mapping: dict) -> None:
    _write_csv(path, MAPPING_HEADER, ([u, mapping[u]] for u in sorted(mapping)))


def read_reference_csv(path) -> dict[str, float]:
    """institution_id -> reference score."""
    return _read_keyed(path, REFERENCE_HEADER, "institution", lambda f: _number("score", f[0]))


def write_reference_csv(path, reference: dict) -> None:
    _write_csv(path, REFERENCE_HEADER, ([i, _fmt(reference[i])] for i in sorted(reference)))


def read_freq_csv(path) -> dict:
    """Sidecar corpus frequencies: CSV rows `word,count` (header optional)."""
    return _read_keyed(path, FREQ_HEADER, "word", lambda f: _count("count", f[0]), header_optional=True)


def write_freq_csv(path, freq: dict) -> None:
    _write_csv(path, FREQ_HEADER, ([w, int(freq[w])] for w in sorted(freq)))


def write_tfidf_vocab_csv(path, vocab: TfidfVocabulary) -> None:
    """The vocabulary a tf-idf model was trained on, in model order."""
    rows = ([t, vocab.df[t], _fmt(vocab.idf[t])] for t in vocab.terms)
    _write_csv(path, TFIDF_VOCAB_HEADER, rows)


def write_features_csv(path, features: Iterable[UserSurfaceFeatures]) -> None:
    rows = (
        [
            u.user_id,
            _fmt(u.caps_rate),
            _fmt(u.emoji_rate),
            _fmt(u.exclaim_rate),
            _fmt(u.latin_rate),
            _fmt(u.avg_post_len),
            _fmt(u.avg_word_len),
            u.vocab_size,
            _fmt(u.entropy_bits),
        ]
        for u in features
    )
    _write_csv(path, FEATURES_HEADER, rows)


def read_features_csv(path) -> list[dict]:
    """Rows as dicts with finite float feature values (vocab_size included)."""
    rows = _read_keyed(
        path, FEATURES_HEADER, "user", lambda f: {name: _number(name, v) for name, v in zip(FEATURE_COLUMNS, f)}
    )
    return [{**values, "user_id": user} for user, values in rows.items()]


@dataclass(frozen=True)
class UserPrediction:
    """One row of a predictions file: a user's mean post score and the
    number of posts it averages."""

    user_id: str
    predicted: float
    n_posts_used: int


def write_predictions_csv(path, predictions: Iterable[UserPrediction]) -> None:
    rows = ([p.user_id, _fmt(p.predicted), p.n_posts_used] for p in predictions)
    _write_csv(path, PREDICTIONS_HEADER, rows)


def read_predictions_csv(path) -> list[UserPrediction]:
    """Rows as UserPredictions; a predicted score must be a finite number."""
    rows = _read_keyed(
        path, PREDICTIONS_HEADER, "user", lambda f: (_number("predicted", f[0]), _count("n_posts_used", f[1]))
    )
    return [UserPrediction(user, *values) for user, values in rows.items()]


def write_report_csv(path, rows: Iterable[tuple[str, CorrelationReport]]) -> None:
    cells = ([metric, _fmt(rep.r), rep.n, _fmt(rep.p_two_sided), _fmt(rep.r_squared)] for metric, rep in rows)
    _write_csv(path, REPORT_HEADER, cells)


def write_institutions_csv(path, scores: Iterable[InstitutionScore]) -> None:
    rows = (
        [
            s.institution_id,
            s.n_users,
            s.n_posts,
            _fmt(s.predicted_mean),
            "" if s.reference is None else _fmt(s.reference),
        ]
        for s in scores
    )
    _write_csv(path, INSTITUTIONS_HEADER, rows)


def write_excluded_csv(path, excluded: Iterable[tuple[str, int]]) -> None:
    _write_csv(path, EXCLUDED_HEADER, excluded)


def write_ranking_csv(path, word_scores: Iterable) -> int:
    """Stream WordScore rows; returns the number of rows written."""
    rows = (
        [ws.word, _fmt(ws.score), "" if ws.freq is None else ws.freq, _fmt(ws.percentile)]
        for ws in word_scores
    )
    return _write_csv(path, RANKING_HEADER, rows)


def write_plot_csv(path, rows: Iterable[tuple[str, float, float, float]]) -> None:
    _write_csv(path, PLOT_HEADER, ([word, _fmt(x), _fmt(y), _fmt(score)] for word, x, y, score in rows))


def write_curve_csv(path, points: Iterable[CurvePoint]) -> None:
    _write_csv(path, CURVE_HEADER, ([p.n_posts, _fmt(p.r), _fmt(p.ci_low), _fmt(p.ci_high)] for p in points))


# ------------------------------------------------------------------------ JSON


def write_json(path, payload) -> None:
    """Sorted keys, one-space indent and a final LF, so equal payloads give
    equal bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def save_model_json(path, model: LinearModel, extra: dict | None = None) -> None:
    payload = model.to_dict()
    if extra:
        payload.update(extra)
    write_json(path, payload)


def load_model_json(path) -> tuple[LinearModel, dict]:
    """Returns (model, full payload) so callers can read extension fields."""
    from .model import LinearModel

    with open(path, "r", encoding="utf-8") as f, utf8_errors(path):
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
        except RecursionError:
            raise DataFormatError(_TOO_DEEP, path=path) from None
    try:
        model = LinearModel.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model file: {exc}", path=path) from None
    return model, payload


# -------------------------------------------------------------------- manifest


def sha256_file(path) -> str:
    # One 64 KiB buffer, read into again and again. Reading 1 MiB bytes
    # objects instead makes glibc's malloc raise its mmap threshold when the
    # first is freed, and the heap then keeps about 1 MB that it did not use
    # to: `train` on many-posts, which hashes its table before the load,
    # peaked 0.9 MB higher.
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def write_manifest(out_dir, command: str, params: dict, inputs: dict, outputs: dict, seed) -> Path:
    """Record provenance beside the outputs: input/output hashes, parameters,
    the seed, and the package version. Deliberately timestamp-free so reruns
    are byte-identical. An input given as a (path, sha256) pair was hashed
    by the caller, and is recorded with that digest without reading it again.
    """
    from . import __version__

    def entry(p) -> dict:
        path, digest = p if isinstance(p, tuple) else (p, None)
        return {"path": str(path), "sha256": digest or sha256_file(path)}

    def files(paths: dict) -> dict:
        return {name: entry(p) for name, p in paths.items()}

    manifest = {
        "format_version": 1,
        "tool": "postscore",
        "version": __version__,
        "command": command,
        "seed": seed,
        "params": params,
        "inputs": files(inputs),
        "outputs": files(outputs),
    }
    path = Path(out_dir) / MANIFEST_NAME
    write_json(path, manifest)
    return path
