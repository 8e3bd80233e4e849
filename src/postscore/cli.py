"""Command-line pipeline: synth -> featurize/train/evaluate/predict ->
aggregate/rank-words/curve. Each command writes its outputs and returns its
params, inputs and outputs; main writes them to the run's provenance manifest.
Each command imports the modules it runs, when it runs, because start-up is
most of a small command's cost: featurize loads no numpy, and no command
imports scipy (LOOCV in evaluate and curve calls scipy's compiled LAPACK
routines directly, see model._lapack).

BLAS runs on one thread whatever the environment says (see main), so a
command's output bytes depend on its inputs and flags, not on the host's core
count or on OPENBLAS_NUM_THREADS.

Exit codes: 0 success, 1 usage, 2 data/parse error (message names the file
and line when known), 3 numerical failure with a remediation hint.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# None of these loads numpy. Numeric modules are imported inside the functions
# that call them, so a command pays only for the imports it uses.
from . import __version__, dataio
from .errors import DataFormatError, SingularSystemError
from .textproc import FEATURE_COLUMNS, extract_features

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
    p.add_argument("--posts", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("correlate", help="correlate surface features with targets")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train", help="fit the post-level linear model")
    p.add_argument("--posts", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--embeddings", help="text .vec table (embedding vectorizer)")
    p.add_argument("--stopwords", help="stopword file (tfidf vectorizer)")
    p.add_argument("--vectorizer", choices=["embedding", "tfidf"], default="embedding")
    p.add_argument("--lambda", dest="lam", type=_ridge, default=0.0, help="ridge coefficient")
    p.add_argument("--top-terms", type=_positive_int, help="tfidf vocabulary size (default 1000)")
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="grouped leave-one-user-out evaluation")
    p.add_argument("--posts", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--stopwords")
    p.add_argument("--vectorizer", choices=["embedding", "tfidf"], default="embedding")
    p.add_argument("--lambda", dest="lam", type=_ridge, default=0.0)
    p.add_argument("--top-terms", type=_positive_int)
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-user predictions from a trained model")
    p.add_argument("--posts", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("aggregate", help="institution means and reference comparison")
    p.add_argument("--predictions", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--reference")
    p.add_argument("--min-users", type=_positive_int, default=5)
    p.add_argument("--exclude-users", help="labels CSV naming users to exclude (leakage control)")
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("rank-words", help="score and rank the whole vocabulary")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--posts", help="posts whose tokens give the word counts")
    source.add_argument("--freq", help="word,count CSV that gives the word counts")
    p.add_argument("--min-count", type=_nonnegative_int, default=0)
    p.add_argument("--top", type=_positive_int, help="export only the N best-scoring words")
    p.add_argument("--bottom", type=_positive_int, help="export only the N worst-scoring words")
    p.add_argument("--project-2d", action="store_true", help="also write 2-d plot coordinates")
    _add_common(p)
    p.set_defaults(func=cmd_rank_words)

    p = sub.add_parser("curve", help="predictive power vs posts per user")
    p.add_argument("--posts", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--n-max", type=_positive_int, default=20)
    p.add_argument("--bootstrap", type=_bootstrap_count, default=1000, help="bootstrap replicates")
    p.add_argument("--level", type=_level, default=0.90, help="confidence level")
    p.add_argument("--lambda", dest="lam", type=_ridge, default=0.0)
    _add_common(p, threads=True, seed=0)
    p.set_defaults(func=cmd_curve)

    return parser


def _check_input(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise DataFormatError("input file not found", path=path)
    return path


def _print_seed(seed: int) -> None:
    print(f"seed: {seed}")


def _load_table(args, inputs: dict) -> EmbeddingTable:
    """The --embeddings table, recorded in ``inputs`` with its sha256: the
    file is hashed once, for both the cache's key and the manifest."""
    from .embeddings import load_vec_cached

    if not args.embeddings:
        raise DataFormatError("--embeddings is required for the embedding vectorizer")
    path = _check_input(args.embeddings)
    table, digest = load_vec_cached(path)
    inputs["embeddings"] = (path, digest)
    # Post tokens are lowercased and matched exactly, so none reaches a cased row.
    unreachable = sum(w != w.lower() for w in table.words)
    if unreachable:
        print(f"warning: {unreachable} table words are not lowercase; no post token matches them", file=sys.stderr)
    return table


def _load_corpus(path: Path, inputs: dict) -> Corpus:
    """The corpus of the posts file at ``path``, recorded in ``inputs`` as
    ``posts`` with its sha256, hashed once as the table is."""
    from .pipeline import load_corpus

    corpus, digest = load_corpus(path)
    inputs["posts"] = (path, digest)
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


def cmd_synth(args, out: Path) -> tuple[dict, dict, dict]:
    from .synth import generate

    cfg = _synth_config(args)
    _print_seed(args.seed)
    data = generate(cfg, out_dir=out)
    print(f"wrote {len(data.posts)} posts for {cfg.n_users} users to {out}")
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    return params, {}, data.paths


def cmd_featurize(args, out: Path) -> tuple[dict, dict, dict]:
    posts_path = _check_input(args.posts)
    features = extract_features(dataio.iter_posts_jsonl(posts_path))
    if not features:
        raise DataFormatError("no unfiltered posts in input", path=posts_path)
    features_path = out / "features.csv"
    dataio.write_features_csv(features_path, features)
    print(f"featurized {len(features)} users")
    return {}, {"posts": posts_path}, {"features": features_path}


def cmd_correlate(args, out: Path) -> tuple[dict, dict, dict]:
    from .stats import pearson

    features_path = _check_input(args.features)
    labels_path = _check_input(args.labels)
    rows = dataio.read_features_csv(features_path)
    labels = dataio.read_labels_csv(labels_path)
    matched = [row for row in rows if row["user_id"] in labels]
    if len(matched) < 3:
        raise DataFormatError("need at least 3 users present in both features and labels")
    y = [labels[row["user_id"]] for row in matched]
    report = []
    for name in FEATURE_COLUMNS:
        x = [row[name] for row in matched]
        try:
            report.append((name, pearson(x, y)))
        except ValueError:
            continue  # constant feature: correlation undefined, skipped
    report_path = out / "report.csv"
    dataio.write_report_csv(report_path, report)
    for name, rep in report:
        print(f"{name}: r={rep.r:+.4f} p={rep.p_two_sided:.3g} n={rep.n}")
    return {}, {"features": features_path, "labels": labels_path}, {"report": report_path}


def _load_training(args, embedding: bool):
    """The posts corpus, labels, the table (None unless ``embedding``) and
    the manifest inputs so far. The table is loaded and checked before the
    posts are read."""
    posts_path = _check_input(args.posts)
    labels_path = _check_input(args.labels)
    inputs = {"posts": posts_path, "labels": labels_path}
    table = None
    if embedding:
        table = _load_table(args, inputs)
    corpus = _load_corpus(posts_path, inputs)
    labels = dataio.read_labels_csv(labels_path)
    return corpus, labels, table, inputs


def _tfidf_training(args, corpus, labels, inputs):
    """tf-idf training set, its vocabulary and stopwords; records the
    stopword file in inputs."""
    from . import pipeline, tfidf

    stopwords = frozenset()
    if args.stopwords:
        stopwords_path = _check_input(args.stopwords)
        stopwords = tfidf.load_stopwords(stopwords_path)
        inputs["stopwords"] = stopwords_path
    labeled = corpus.labeled(labels)
    if not labeled.any():
        raise ValueError("no labeled training posts")
    vocab = tfidf.build_vocab(corpus.select(labeled), stopwords, k=args.top_terms)
    ts, astats = pipeline.build_tfidf_training(corpus, labels, vocab, stopwords)
    return ts, astats, vocab, stopwords


def _fit_params(args) -> dict:
    """Manifest params of train and evaluate; --top-terms only shapes a
    tf-idf model."""
    params = {"vectorizer": args.vectorizer, "lambda": args.lam, "threads": args.threads}
    if args.vectorizer == "tfidf":
        params["top_terms"] = args.top_terms
    return params


def cmd_train(args, out: Path) -> tuple[dict, dict, dict]:
    from . import pipeline
    from .model import fit

    embedding = args.vectorizer == "embedding"
    corpus, labels, table, inputs = _load_training(args, embedding)
    fstats = corpus.stats
    outputs = {}
    if embedding:
        ts, astats = pipeline.build_embedding_training(corpus, labels, table, threads=args.threads)
        fingerprint = table.fingerprint()
        del table, corpus  # the fit needs only ts: its peak need not hold the table or posts
        model = fit(ts, lam=args.lam, embedding_fingerprint=fingerprint)
        extra = None
    else:
        ts, astats, vocab, stopwords = _tfidf_training(args, corpus, labels, inputs)
        model = fit(ts, lam=args.lam)
        outputs["tfidf_vocab"] = out / "tfidf_vocab.csv"
        dataio.write_tfidf_vocab_csv(outputs["tfidf_vocab"], vocab)
        extra = {"vectorizer": "tfidf", "tfidf": vocab.to_dict(stopwords)}
    outputs["model"] = out / "model.json"
    dataio.save_model_json(outputs["model"], model, extra=extra)
    print(
        f"trained on {astats.n_posts} posts from {astats.n_users} users "
        f"(filtered {fstats.removed}, no-vector {astats.no_vector}, unlabeled {astats.unlabeled})"
    )
    return _fit_params(args), inputs, outputs


def cmd_evaluate(args, out: Path) -> tuple[dict, dict, dict]:
    from . import pipeline
    from .model import loo_user_cv
    from .stats import pearson

    embedding = args.vectorizer == "embedding"
    corpus, labels, table, inputs = _load_training(args, embedding)
    if embedding:
        ts = pipeline.build_embedding_training(corpus, labels, table, threads=args.threads)[0]
    else:
        ts = _tfidf_training(args, corpus, labels, inputs)[0]
    del corpus, table  # LOOCV needs only ts: its peak need not hold the posts or table
    predictions = loo_user_cv(ts, lam=args.lam)
    rep = pearson([p.predicted for p in predictions], [labels[p.user_id] for p in predictions])
    outputs = {"loocv_predictions": out / "loocv_predictions.csv", "report": out / "report.csv"}
    dataio.write_predictions_csv(outputs["loocv_predictions"], predictions)
    dataio.write_report_csv(outputs["report"], [("loocv_user_pearson_r", rep)])
    print(f"grouped LOOCV over {rep.n} users: r={rep.r:.4f} (p={rep.p_two_sided:.3g})")
    return _fit_params(args), inputs, outputs


def cmd_predict(args, out: Path) -> tuple[dict, dict, dict]:
    """Checks the model and its table before the posts are read."""
    from . import pipeline, tfidf

    posts_path = _check_input(args.posts)
    model_path = _check_input(args.model)
    model, payload = dataio.load_model_json(model_path)
    inputs = {"posts": posts_path, "model": model_path}
    if payload.get("vectorizer") == "tfidf":
        vocab, stopwords = tfidf.TfidfVocabulary.from_dict(payload.get("tfidf"), path=model_path)
        if len(vocab) != model.d:
            raise DataFormatError(f"`tfidf` has {len(vocab)} terms, the model d={model.d}", path=model_path)
        corpus = _load_corpus(posts_path, inputs)
        result = pipeline.predict_users_tfidf(model, vocab, corpus, stopwords)
    else:
        table = _load_table(args, inputs)
        expected = model.training_meta.embedding_fingerprint
        if expected and expected != table.fingerprint():
            print("warning: embedding table differs from the one used in training", file=sys.stderr)
        corpus = _load_corpus(posts_path, inputs)
        result = pipeline.predict_users_from_posts(model, table, corpus)
    predictions_path = out / "predictions.csv"
    dataio.write_predictions_csv(predictions_path, result.predictions)
    note = f", {len(result.fallback_users)} fell back to the training mean" if result.fallback_users else ""
    print(f"predicted {len(result.predictions)} users{note}")
    return {}, inputs, {"predictions": predictions_path}


def cmd_aggregate(args, out: Path) -> tuple[dict, dict, dict]:
    from .transfer import aggregate, build_mapping, compare

    predictions_path = _check_input(args.predictions)
    mapping_path = _check_input(args.mapping)
    predictions = dataio.read_predictions_csv(predictions_path)
    mapping = build_mapping(dataio.read_mapping_pairs(mapping_path))
    exclude = frozenset()
    inputs = {"predictions": predictions_path, "mapping": mapping_path}
    if args.exclude_users:
        exclude_path = _check_input(args.exclude_users)
        exclude = frozenset(dataio.read_labels_csv(exclude_path))
        inputs["exclude_users"] = exclude_path
    try:
        result = aggregate(predictions, mapping, min_users=args.min_users, exclude_users=exclude)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    outputs = {}
    scores = result.scores
    if args.reference:
        reference_path = _check_input(args.reference)
        reference = dataio.read_reference_csv(reference_path)
        inputs["reference"] = reference_path
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
    return {"min_users": args.min_users}, inputs, outputs


def cmd_rank_words(args, out: Path) -> tuple[dict, dict, dict]:
    from . import wordrank

    model_path = _check_input(args.model)
    model, payload = dataio.load_model_json(model_path)
    if payload.get("vectorizer") == "tfidf":
        raise DataFormatError("rank-words needs an embedding model, not a tf-idf one", path=model_path)
    inputs = {"model": model_path}
    table = _load_table(args, inputs)
    counts = None
    if args.posts:
        counts = wordrank.training_token_counts(_load_corpus(_check_input(args.posts), inputs))
    elif args.freq:
        freq_path = _check_input(args.freq)
        counts = dataio.read_freq_csv(freq_path)
        inputs["freq"] = freq_path
    elif args.min_count > 0:
        raise DataFormatError("--min-count needs word counts from --posts or --freq")
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
    return {"min_count": args.min_count, "top": args.top, "bottom": args.bottom}, inputs, outputs


def cmd_curve(args, out: Path) -> tuple[dict, dict, dict]:
    from . import pipeline
    from .model import posts_curve

    _print_seed(args.seed)
    corpus, labels, table, inputs = _load_training(args, embedding=True)
    ts = pipeline.build_embedding_training(corpus, labels, table, threads=args.threads)[0]
    del corpus, table  # the curve needs only ts: its peak need not hold the posts or table
    points = posts_curve(
        ts, n_max=args.n_max, B=args.bootstrap, level=args.level, seed=args.seed, lam=args.lam
    )
    curve_path = out / "curve.csv"
    dataio.write_curve_csv(curve_path, points)
    for p in points:
        print(f"N={p.n_posts:>2} r={p.r:.4f} [{p.ci_low:.4f}, {p.ci_high:.4f}]")
    params = {"n_max": args.n_max, "bootstrap": args.bootstrap, "level": args.level, "lambda": args.lam}
    return params, inputs, {"curve": curve_path}


# The flags of train and evaluate that each vectorizer never reads.
_UNREAD_FLAGS = {"embedding": ("stopwords", "top_terms"), "tfidf": ("embeddings",)}


# OpenBLAS splits some GEMMs and factorizations differently at 2 threads than
# at 1 (measured from d≈200 on), which moves the last bits of LOOCV's
# predictions and curve.csv. numpy's and scipy's OpenBLAS each read these variables once, when
# they load: numpy at a command's first numeric import, scipy at LOOCV's first
# solve. No command loads either before main runs.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def main(argv=None) -> int:
    os.environ.update(_ONE_BLAS_THREAD)
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
    try:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        params, inputs, outputs = args.func(args, out)
        dataio.write_manifest(out, args.command, params, inputs, outputs, seed=getattr(args, "seed", None))
    except DataFormatError as exc:
        print(f"postscore: data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"postscore: data error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"postscore: data error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"postscore: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the array it could not allocate; a bare
        # MemoryError has none.
        print(f"postscore: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
