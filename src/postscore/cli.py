"""Command-line pipeline: synth -> featurize/train/evaluate/predict ->
aggregate/rank-words/curve. Each command writes its outputs and returns its
params and outputs. Every flag that names an input file is a Path, and main
owns them: it checks that each is a file before the command runs and before
the output directory is made, and records each in the run's provenance
manifest with the params and outputs.

A model command is one input step, its computation and its outputs. train,
evaluate and curve get their training set from ``_training``, which loads
their inputs and frees the table and the posts before the fit, LOOCV or
curve runs; predict and rank-words get the model from ``_read_model``, which
checks it against its table or vocabulary before any post is read. The
input step is where a memory preflight or a per-stage report would go.

Each command imports the modules it runs, when it runs, because start-up is
most of a small command's cost: featurize loads no numpy, and a warm model
command no textproc. LOOCV in evaluate and curve calls LAPACK from numpy's
own OpenBLAS (see model._Lapack), the one BLAS library a command loads.

BLAS runs on one thread whatever the environment says (see main), so a
command's output bytes depend on its inputs and flags, not on the host's core
count or on OPENBLAS_NUM_THREADS.

Exit codes: 0 success, 1 usage, 2 data/parse error (message names the file
and line when known), 3 numerical failure with a remediation hint. A run that
fails removes the output directory, and the parents it made, while they are
empty. A warning is one ``warning: ...`` line on stderr, a Python warning too.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

# None of these loads numpy. Numeric modules and textproc are imported inside
# the functions that call them, so a command pays only for the imports it uses.
from . import __version__, dataio
from .errors import DataFormatError, SingularSystemError, UnsupportedBuildError

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable
    from .pipeline import Corpus
    from .synth import SynthConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for data errors here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int, wording: str):
    """argparse type for an integer of at least ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {wording}, got {value}")
        return value
    return integer


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")
_bootstrap_count = _int_at_least(100, "at least 100")


def _ridge(text: str) -> float:
    """argparse type for --lambda: a finite number >= 0."""
    value = float(text)
    if not (value >= 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _level(text: str) -> float:
    """argparse type for --level: a confidence level in (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _add_common(p, threads=False, seed=None):
    p.add_argument("--output-dir", required=True, help="directory for outputs and the manifest")
    if threads:
        p.add_argument("--threads", type=_positive_int, default=1, help="worker threads (default 1)")
    if seed is not None:
        p.add_argument(
            "--seed", type=_nonnegative_int, default=seed, help=f"random seed (default {seed})"
        )


def _add_training(p, vectorizer: bool) -> None:
    """The flags of a command that builds a training set: train and evaluate
    choose a ``vectorizer``, curve always reads the table."""
    p.add_argument("--posts", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    if vectorizer:
        p.add_argument("--embeddings", type=Path, help="text .vec table (embedding vectorizer)")
        p.add_argument("--stopwords", type=Path, help="stopword file (tfidf vectorizer)")
        p.add_argument("--vectorizer", choices=["embedding", "tfidf"], default="embedding")
    else:
        p.add_argument("--embeddings", type=Path, required=True)
        p.set_defaults(vectorizer="embedding")
    p.add_argument("--lambda", dest="lam", type=_ridge, default=0.0, help="ridge coefficient")
    if vectorizer:
        p.add_argument("--top-terms", type=_positive_int, help="tfidf vocabulary size (default 1000)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="postscore", description=__doc__)
    parser.add_argument("--version", action="version", version=f"postscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    _add_common(p, seed=0)
    p.add_argument("--vocab-size", type=int, default=5000)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--posts-per-user", type=int, default=20)
    p.add_argument("--tokens-per-post", type=int, default=12)
    p.add_argument("--noise-sd", type=float, default=30.0)
    p.add_argument("--institutions", type=int, default=10)
    p.add_argument("--users-per-institution", type=int, default=10)
    p.add_argument("--heldout-per-topic", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="per-user surface features CSV")
    p.add_argument("--posts", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("correlate", help="correlate surface features with targets")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train", help="fit the post-level linear model")
    _add_training(p, vectorizer=True)
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="grouped leave-one-user-out evaluation")
    _add_training(p, vectorizer=True)
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-user predictions from a trained model")
    p.add_argument("--posts", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--embeddings", type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("aggregate", help="institution means and reference comparison")
    p.add_argument("--predictions", type=Path, required=True)
    p.add_argument("--mapping", type=Path, required=True)
    p.add_argument("--reference", type=Path)
    p.add_argument("--min-users", type=_positive_int, default=5)
    p.add_argument("--exclude-users", type=Path, help="labels CSV naming users to exclude (leakage control)")
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("rank-words", help="score and rank the whole vocabulary")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--embeddings", type=Path, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--posts", type=Path, help="posts whose tokens give the word counts")
    source.add_argument("--freq", type=Path, help="word,count CSV that gives the word counts")
    p.add_argument("--min-count", type=_nonnegative_int, default=0)
    p.add_argument("--top", type=_positive_int, help="export only the N best-scoring words")
    p.add_argument("--bottom", type=_positive_int, help="export only the N worst-scoring words")
    p.add_argument("--project-2d", action="store_true", help="also write 2-d plot coordinates")
    _add_common(p)
    p.set_defaults(func=cmd_rank_words)

    p = sub.add_parser("curve", help="predictive power vs posts per user")
    _add_training(p, vectorizer=False)
    p.add_argument("--n-max", type=_positive_int, default=20)
    p.add_argument("--bootstrap", type=_bootstrap_count, default=1000, help="bootstrap replicates")
    p.add_argument("--level", type=_level, default=0.90, help="confidence level")
    _add_common(p, threads=True, seed=0)
    p.set_defaults(func=cmd_curve)

    return parser


def _print_seed(seed: int) -> None:
    print(f"seed: {seed}")


# The sha256 of each input file a command loaded through the cache of parsed
# inputs, by path: main records it in the manifest, so the file is hashed once
# for both the cache's key and the manifest. main empties it before each run.
_DIGESTS: dict[Path, str] = {}


def _load_table(args) -> EmbeddingTable:
    """The --embeddings table, with its sha256 kept in ``_DIGESTS``."""
    from .embeddings import load_vec_cached

    if not args.embeddings:
        raise DataFormatError("--embeddings is required for the embedding vectorizer")
    table, _DIGESTS[args.embeddings] = load_vec_cached(args.embeddings)
    # Post tokens are lowercased and matched exactly, so none reaches a cased row.
    unreachable = sum(w != w.lower() for w in table.words)
    if unreachable:
        print(f"warning: {unreachable} table words are not lowercase; no post token matches them", file=sys.stderr)
    return table


def _load_corpus(path: Path) -> Corpus:
    """The corpus of the posts file at ``path``, with its sha256 kept in
    ``_DIGESTS`` as the table's is."""
    from .pipeline import load_corpus

    corpus, _DIGESTS[path] = load_corpus(path)
    return corpus


def _synth_config(args) -> SynthConfig:
    """The synth sizes as a validated config; ValueError when out of range."""
    from .synth import SynthConfig

    cfg = SynthConfig(
        vocab_size=args.vocab_size,
        dim=args.dim,
        n_topics=args.topics,
        n_users=args.users,
        posts_per_user=args.posts_per_user,
        tokens_per_post=args.tokens_per_post,
        noise_sd=args.noise_sd,
        institution_count=args.institutions,
        users_per_institution=args.users_per_institution,
        seed=args.seed,
        heldout_per_topic=args.heldout_per_topic,
    )
    cfg.validate()
    return cfg


def cmd_synth(args, out: Path) -> tuple[dict, dict]:
    from .synth import generate

    cfg = _synth_config(args)
    _print_seed(args.seed)
    data = generate(cfg, out_dir=out)
    print(f"wrote {len(data.posts)} posts for {cfg.n_users} users to {out}")
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    return params, data.paths


def cmd_featurize(args, out: Path) -> tuple[dict, dict]:
    from .textproc import extract_features

    features = extract_features(dataio.iter_posts_jsonl(args.posts))
    if not features:
        raise DataFormatError("no unfiltered posts in input", path=args.posts)
    features_path = out / "features.csv"
    dataio.write_features_csv(features_path, features)
    print(f"featurized {len(features)} users")
    return {}, {"features": features_path}


def cmd_correlate(args, out: Path) -> tuple[dict, dict]:
    from .stats import pearson

    rows = dataio.read_features_csv(args.features)
    labels = dataio.read_labels_csv(args.labels)
    matched = [row for row in rows if row["user_id"] in labels]
    if len(matched) < 3:
        raise DataFormatError("need at least 3 users present in both features and labels")
    y = [labels[row["user_id"]] for row in matched]
    report = []
    for name in dataio.FEATURE_COLUMNS:
        x = [row[name] for row in matched]
        try:
            report.append((name, pearson(x, y)))
        except ValueError:
            continue  # constant feature: correlation undefined, skipped
    report_path = out / "report.csv"
    dataio.write_report_csv(report_path, report)
    for name, rep in report:
        print(f"{name}: r={rep.r:+.4f} p={rep.p_two_sided:.3g} n={rep.n}")
    return {}, {"report": report_path}


def _training(args):
    """Load the inputs of train, evaluate or curve, the table before the
    posts, and build the training set of ``args.vectorizer``. Returns it
    with fit's embedding fingerprint ("" for tf-idf), the tf-idf vocabulary
    and stopwords (None for embeddings) and the posts filtered, with no
    vector and unlabeled. The table and the corpus are freed on return: the
    fit, LOOCV or curve holds neither."""
    from . import pipeline

    embedding = args.vectorizer == "embedding"
    table = _load_table(args) if embedding else None
    corpus = _load_corpus(args.posts)
    labels = dataio.read_labels_csv(args.labels)
    fingerprint, terms = "", None
    if embedding:
        ts, stats = pipeline.build_embedding_training(corpus, labels, table, threads=args.threads)
        fingerprint = table.fingerprint()
    else:
        from . import tfidf

        stopwords = tfidf.load_stopwords(args.stopwords) if args.stopwords else frozenset()
        labeled = corpus.labeled(labels)
        if not labeled.any():
            raise ValueError("no labeled training posts")
        vocab = tfidf.build_vocab(corpus.select(labeled), stopwords, k=args.top_terms)
        ts, stats = pipeline.build_tfidf_training(corpus, labels, vocab, stopwords)
        terms = vocab, stopwords
    return ts, fingerprint, terms, (corpus.stats.removed, stats.no_vector, stats.unlabeled)


def _fit_params(args) -> dict:
    """Manifest params of train and evaluate; --top-terms only shapes a
    tf-idf model."""
    params = {"vectorizer": args.vectorizer, "lambda": args.lam, "threads": args.threads}
    if args.vectorizer == "tfidf":
        params["top_terms"] = args.top_terms
    return params


def cmd_train(args, out: Path) -> tuple[dict, dict]:
    from .model import fit

    ts, fingerprint, terms, dropped = _training(args)
    model = fit(ts, lam=args.lam, embedding_fingerprint=fingerprint)
    outputs, extra = {}, None
    if terms is not None:
        vocab, stopwords = terms
        outputs["tfidf_vocab"] = out / "tfidf_vocab.csv"
        dataio.write_tfidf_vocab_csv(outputs["tfidf_vocab"], vocab)
        extra = {"vectorizer": "tfidf", "tfidf": vocab.to_dict(stopwords)}
    outputs["model"] = out / "model.json"
    dataio.save_model_json(outputs["model"], model, extra=extra)
    print(f"trained on {ts.n_posts} posts from {len(ts.users)} users "
          "(filtered {}, no-vector {}, unlabeled {})".format(*dropped))
    return _fit_params(args), outputs


def cmd_evaluate(args, out: Path) -> tuple[dict, dict]:
    from .model import loo_user_cv
    from .stats import pearson

    ts = _training(args)[0]
    predictions = loo_user_cv(ts, lam=args.lam)
    truth = ts.y[ts.index[ts.offsets[:-1]]].tolist()  # each user's target, in ts.users order
    rep = pearson([p.predicted for p in predictions], truth)
    outputs = {"loocv_predictions": out / "loocv_predictions.csv", "report": out / "report.csv"}
    dataio.write_predictions_csv(outputs["loocv_predictions"], predictions)
    dataio.write_report_csv(outputs["report"], [("loocv_user_pearson_r", rep)])
    print(f"grouped LOOCV over {rep.n} users: r={rep.r:.4f} (p={rep.p_two_sided:.3g})")
    return _fit_params(args), outputs


def _read_model(args, tfidf_ok: bool):
    """``(model, table, (vocab, stopwords))`` of the --model file, None for
    what the model does not use: an embedding model's --embeddings table,
    or a tf-idf model's vocabulary (which ``tfidf_ok`` allows). Both are
    checked against the model before any post is read, and a table other
    than the one the model was trained on is warned of. The one reader of
    the model file's ``vectorizer`` and ``tfidf`` keys."""
    model, payload = dataio.load_model_json(args.model)
    if payload.get("vectorizer") == "tfidf":
        if not tfidf_ok:
            raise DataFormatError(f"{args.command} needs an embedding model, not a tf-idf one", path=args.model)
        from .tfidf import TfidfVocabulary

        vocab, stopwords = TfidfVocabulary.from_dict(payload.get("tfidf"), path=args.model)
        if len(vocab) != model.d:
            raise DataFormatError(f"`tfidf` has {len(vocab)} terms, the model d={model.d}", path=args.model)
        if args.embeddings:
            raise DataFormatError("a tf-idf model reads no --embeddings", path=args.model)
        return model, None, (vocab, stopwords)
    table = _load_table(args)
    if table.dim != model.d:
        raise DataFormatError(f"model d={model.d} does not match the dim {table.dim} of {args.embeddings}",
                              path=args.model)
    expected = model.training_meta.embedding_fingerprint
    if expected and expected != table.fingerprint():
        print("warning: embedding table differs from the one used in training", file=sys.stderr)
    return model, table, None


def cmd_predict(args, out: Path) -> tuple[dict, dict]:
    """Checks the model and its table before the posts are read."""
    from . import pipeline

    model, table, terms = _read_model(args, tfidf_ok=True)
    corpus = _load_corpus(args.posts)
    if table is None:
        vocab, stopwords = terms
        result = pipeline.predict_users_tfidf(model, vocab, corpus, stopwords)
    else:
        result = pipeline.predict_users_from_posts(model, table, corpus)
    predictions_path = out / "predictions.csv"
    dataio.write_predictions_csv(predictions_path, result.predictions)
    note = f", {len(result.fallback_users)} fell back to the training mean" if result.fallback_users else ""
    print(f"predicted {len(result.predictions)} users{note}")
    return {}, {"predictions": predictions_path}


def cmd_aggregate(args, out: Path) -> tuple[dict, dict]:
    from .transfer import aggregate, build_mapping, compare

    predictions = dataio.read_predictions_csv(args.predictions)
    mapping = build_mapping(dataio.read_mapping_pairs(args.mapping))
    exclude = frozenset(dataio.read_labels_csv(args.exclude_users)) if args.exclude_users else frozenset()
    result = aggregate(predictions, mapping, min_users=args.min_users, exclude_users=exclude)
    outputs = {}
    scores = result.scores
    if args.reference:
        reference = dataio.read_reference_csv(args.reference)
        comparison = compare(result.scores, reference)
        scores = sorted(
            comparison.matched + [s for s in result.scores if s.institution_id not in reference],
            key=lambda s: s.institution_id,
        )
        outputs["report"] = out / "report.csv"
        dataio.write_report_csv(
            outputs["report"],
            [("institution_pearson", comparison.pearson), ("institution_spearman", comparison.spearman)],
        )
        print(
            f"{len(comparison.matched)} institutions matched: "
            f"pearson r={comparison.pearson.r:.4f} (r^2={comparison.pearson.r_squared:.4f}), "
            f"spearman r={comparison.spearman.r:.4f}"
        )
    outputs["institutions"] = out / "institutions.csv"
    dataio.write_institutions_csv(outputs["institutions"], scores)
    if result.excluded:
        outputs["excluded"] = out / "excluded.csv"
        dataio.write_excluded_csv(outputs["excluded"], result.excluded)
        print(f"dropped {len(result.excluded)} institutions under min-users={args.min_users}")
    return {"min_users": args.min_users}, outputs


def cmd_rank_words(args, out: Path) -> tuple[dict, dict]:
    from . import wordrank

    model, table, _ = _read_model(args, tfidf_ok=False)
    counts = None
    if args.posts:
        counts = wordrank.training_token_counts(_load_corpus(args.posts))
    elif args.freq:
        counts = dataio.read_freq_csv(args.freq)
    rows = wordrank.iter_ranked(
        model, table, min_count=args.min_count, counts=counts, head=args.top, tail=args.bottom
    )
    outputs = {"ranking": out / "ranking.csv"}
    if args.project_2d:
        selected = list(rows)
        if len(selected) > 10_000:
            raise DataFormatError("--project-2d needs --top/--bottom to select at most 10k words")
        n = dataio.write_ranking_csv(outputs["ranking"], selected)
        outputs["plot"] = out / "plot.csv"
        dataio.write_plot_csv(outputs["plot"], wordrank.project_2d(selected, table))
    else:
        n = dataio.write_ranking_csv(outputs["ranking"], rows)
    print(f"ranked {n} words")
    return {"min_count": args.min_count, "top": args.top, "bottom": args.bottom}, outputs


def cmd_curve(args, out: Path) -> tuple[dict, dict]:
    from .model import posts_curve

    _print_seed(args.seed)
    ts = _training(args)[0]
    points = posts_curve(
        ts, n_max=args.n_max, B=args.bootstrap, level=args.level, seed=args.seed, lam=args.lam
    )
    curve_path = out / "curve.csv"
    dataio.write_curve_csv(curve_path, points)
    for p in points:
        print(f"N={p.n_posts:>2} r={p.r:.4f} [{p.ci_low:.4f}, {p.ci_high:.4f}]")
    params = {"n_max": args.n_max, "bootstrap": args.bootstrap, "level": args.level, "lambda": args.lam}
    return params, {"curve": curve_path}


# The flags of train and evaluate that each vectorizer never reads.
_UNREAD_FLAGS = {"embedding": ("stopwords", "top_terms"), "tfidf": ("embeddings",)}


def _checked_inputs(args) -> dict[str, Path]:
    """The run's input files by flag dest, in the order the command defines
    its flags (every flag that names an input file, and no other, has type
    Path), each checked to be a file. main calls it before the output
    directory is made, so a run refused here reads and writes nothing."""
    inputs = {dest: value for dest, value in vars(args).items() if isinstance(value, Path)}
    for path in inputs.values():
        if not path.is_file():
            raise DataFormatError("input file not found", path=path)
    if args.func is cmd_rank_words and args.min_count > 0 and not (args.posts or args.freq):
        raise DataFormatError("--min-count needs word counts from --posts or --freq")
    return inputs


# OpenBLAS splits some GEMMs and factorizations differently at 2 threads than
# at 1 (measured from d≈200 on), which moves the last bits of LOOCV's
# predictions and curve.csv. numpy's OpenBLAS, the only one a command loads,
# reads these variables once, at a command's first numeric import, and no
# command loads numpy before main runs.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a Python warning as the CLI's own: one line, no source path."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    os.environ.update(_ONE_BLAS_THREAD)
    warnings.showwarning = _print_warning
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_synth:
        # The sizes constrain each other, so they are checked together here,
        # before any output exists.
        try:
            _synth_config(args)
        except ValueError as exc:
            parser.error(f"invalid synth configuration: {exc}")
    if args.func in (cmd_train, cmd_evaluate):
        unread = [f"--{n.replace('_', '-')}" for n in _UNREAD_FLAGS[args.vectorizer]
                  if getattr(args, n) is not None]
        if unread:
            parser.error(f"{' and '.join(unread)} not read by --vectorizer {args.vectorizer}")
        if args.vectorizer == "tfidf" and args.top_terms is None:
            args.top_terms = 1000
    made = []  # the directories this run makes, the output directory first
    try:
        inputs = _checked_inputs(args)
        out = Path(args.output_dir)
        made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        _DIGESTS.clear()
        params, outputs = args.func(args, out)
        inputs = {dest: (path, _DIGESTS.get(path)) for dest, path in inputs.items()}
        dataio.write_manifest(out, args.command, params, inputs, outputs, seed=getattr(args, "seed", None))
        return 0
    except (DataFormatError, ValueError) as exc:
        print(f"postscore: data error: {exc}", file=sys.stderr)
        code = 2
    except FileNotFoundError as exc:
        print(f"postscore: data error: file not found: {exc.filename}", file=sys.stderr)
        code = 2
    except SingularSystemError as exc:
        print(f"postscore: numerical failure: {exc}", file=sys.stderr)
        code = 3
    except UnsupportedBuildError as exc:
        print(f"postscore: unsupported numpy build: {exc}", file=sys.stderr)
        code = 3
    except MemoryError as exc:
        # numpy's message names the array it could not allocate; a bare
        # MemoryError has none.
        print(f"postscore: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        code = 3
    # A failed run takes back the directories it made while they are empty.
    for directory in made:
        try:
            directory.rmdir()
        except OSError:
            break
    return code
