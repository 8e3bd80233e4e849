"""Traced run: per-layer metrics of the same command sequence.

Each CLI command is replayed in this process through the library calls its
`cmd_*` function in src/postscore/cli.py makes, with a span around each call
into a layer (a module of src/postscore). Calls that one layer makes into
another are wrapped for the duration of the replay, from here, so the
program itself is not changed. The replay writes the same outputs as the CLI;
their hashes must match an untraced pass, so a replay that drifts from the
CLI fails its checks.

Spans are kept in memory and written to .bench_work/<workload>/spans.json
at the end: name, start, end, parent index and run id. Memory peaks come
from a separate tracemalloc pass, because tracemalloc slows allocation-heavy
code several-fold. Byte figures derived from array shapes are labelled
"MB-computed".
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import tracemalloc
import uuid
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import checks
import harness

IMPORT_REPEATS = 3
SYNTH_FIELDS = {"--vocab-size": "vocab_size", "--dim": "dim", "--users": "n_users",
                "--posts-per-user": "posts_per_user"}


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter() - self.t0, "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace module.attr by a spanned wrapper until unwrap_all()."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -------------------------------------------------------------- metrics

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, index: int) -> float:
        """Span duration minus the part of it its children cover."""
        span = self.spans[index]
        children = sorted((s["start"], s["end"]) for s in self.spans if s["parent"] == index)
        covered, reach = 0.0, span["start"]
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span["end"] - span["start"] - covered

    def within(self, index: int, name: str) -> float:
        """Time in spans called `name` below span `index` (outermost only)."""
        total = 0.0
        for s in self.spans:
            p = s["parent"]
            while p is not None and p != index and self.spans[p]["name"] != name:
                p = self.spans[p]["parent"]
            if s["name"] == name and p == index:
                total += s["end"] - s["start"]
        return total


# ------------------------------------------------------------------ layers
# Small helpers that mirror the CLI's calls with a span around each.


def read_posts(T, ps, path):
    with T.span("dataio.read_posts"):
        raw = list(ps.dataio.iter_posts_jsonl(path))
    T.counts["dataio.posts_read"] += len(raw)
    return raw


def clean_posts(T, ps, raw):
    fstats = ps.pipeline.FilterStats()
    with T.span("textproc.clean"):
        clean = list(ps.pipeline.iter_clean_posts(raw, fstats))
    T.counts["textproc.posts_kept"] += fstats.kept
    T.counts["textproc.posts_filtered"] += fstats.removed
    T.counts["textproc.tokens"] += sum(len(tp.tokens) for tp in clean)
    return clean


def load_table(T, ps, path):
    with T.span("embeddings.load_vec"):
        table = ps.embeddings.EmbeddingTable.load_vec(path)
    T.counts["embeddings.rows_loaded"] += len(table)
    return table


def build_embedding(T, ps, clean, labels, table):
    with T.span("pipeline.build_training"):
        ts, astats = ps.pipeline.build_embedding_training(clean, labels, table, threads=1)
    T.counts["pipeline.no_vector_posts"] += astats.no_vector
    return ts


def manifest(T, ps, out, command, params, inputs, outputs, seed=None):
    with T.span("dataio.manifest"):
        ps.dataio.write_manifest(out, command, params=params, inputs=inputs, outputs=outputs, seed=seed)
    hashed = [*inputs.values(), *outputs.values()]
    T.counts["dataio.bytes_hashed"] += sum(Path(p).stat().st_size for p in hashed)


def training_inputs(T, ps, inp):
    clean = clean_posts(T, ps, read_posts(T, ps, inp / "posts.jsonl"))
    labels = ps.dataio.read_labels_csv(inp / "labels.csv")
    return clean, labels, {"posts": inp / "posts.jsonl", "labels": inp / "labels.csv"}


# ---------------------------------------------------------------- commands
# One function per command stem, mirroring cmd_* in src/postscore/cli.py.


def replay_train(T, ps, wl, inp, out):
    clean, labels, inputs = training_inputs(T, ps, inp)
    table = load_table(T, ps, inp / "embeddings.vec")
    inputs["embeddings"] = inp / "embeddings.vec"
    ts = build_embedding(T, ps, clean, labels, table)
    fingerprint = table.fingerprint()
    with T.span("model.fit"):
        model = ps.model.fit(ts, lam=0.0, embedding_fingerprint=fingerprint)
    ps.dataio.save_model_json(out / "model.json", model)
    manifest(T, ps, out, "train", {"vectorizer": "embedding", "lambda": 0.0, "threads": 1},
             inputs, {"model": out / "model.json"})


def replay_evaluate(T, ps, wl, inp, out, tfidf=False):
    clean, labels, inputs = training_inputs(T, ps, inp)
    lam = float(harness.TFIDF_LAMBDA) if tfidf else 0.0
    if tfidf:
        labeled = [tp for tp in clean if tp.user_id in labels]
        with T.span("tfidf.build_vocab"):
            vocab = ps.tfidf.build_vocab((tp.tokens for tp in labeled), frozenset(), k=wl.top_terms)
        with T.span("pipeline.build_training"):
            ts, _ = ps.pipeline.build_tfidf_training(clean, labels, vocab, frozenset())
    else:
        table = load_table(T, ps, inp / "embeddings.vec")
        inputs["embeddings"] = inp / "embeddings.vec"
        ts = build_embedding(T, ps, clean, labels, table)
    predictions = ps.model.loo_user_cv(ts, lam=lam)
    rep = ps.stats.pearson([p.predicted for p in predictions], [labels[p.user_id] for p in predictions])
    outputs = {"loocv_predictions": out / "loocv_predictions.csv", "report": out / "report.csv"}
    ps.dataio.write_predictions_csv(outputs["loocv_predictions"], predictions)
    ps.dataio.write_report_csv(outputs["report"], [("loocv_user_pearson_r", rep)])
    manifest(T, ps, out, "evaluate", {"vectorizer": "tfidf" if tfidf else "embedding", "lambda": lam,
                                      "threads": 1}, inputs, outputs)


def replay_evaluate_tfidf(T, ps, wl, inp, out):
    replay_evaluate(T, ps, wl, inp, out, tfidf=True)


def replay_predict(T, ps, wl, inp, out):
    model_path = out.parent / "train" / "model.json"
    model, _ = ps.dataio.load_model_json(model_path)
    clean = clean_posts(T, ps, read_posts(T, ps, inp / "posts.jsonl"))
    table = load_table(T, ps, inp / "embeddings.vec")
    if model.training_meta.embedding_fingerprint != table.fingerprint():
        raise ValueError("replayed predict: embedding table differs from training")
    with T.span("pipeline.predict_users"):
        result = ps.pipeline.predict_users_from_posts(model, table, clean)
    ps.dataio.write_predictions_csv(out / "predictions.csv", result.predictions)
    manifest(T, ps, out, "predict", {"threads": 1},
             {"posts": inp / "posts.jsonl", "model": model_path, "embeddings": inp / "embeddings.vec"},
             {"predictions": out / "predictions.csv"})


def replay_rank_words(T, ps, wl, inp, out):
    model_path = out.parent / "train" / "model.json"
    model, _ = ps.dataio.load_model_json(model_path)
    table = load_table(T, ps, inp / "embeddings.vec")
    clean = clean_posts(T, ps, read_posts(T, ps, inp / "posts.jsonl"))
    counts = ps.wordrank.training_token_counts(tp.tokens for tp in clean)
    with T.span("wordrank.iter_ranked"):
        rows = list(ps.wordrank.iter_ranked(model, table, min_count=0, counts=counts))
    T.counts["wordrank.words_ranked"] += len(rows)
    with T.span("dataio.write_ranking"):
        T.counts["dataio.rows_written"] += ps.dataio.write_ranking_csv(out / "ranking.csv", rows)
    manifest(T, ps, out, "rank-words",
             {"min_count": 0, "count_source": "training", "top": None, "bottom": None},
             {"model": model_path, "embeddings": inp / "embeddings.vec", "posts": inp / "posts.jsonl"},
             {"ranking": out / "ranking.csv"})


def replay_featurize(T, ps, wl, inp, out):
    raw = read_posts(T, ps, inp / "posts.jsonl")
    with T.span("textproc.features"):
        features = ps.pipeline.extract_features(raw)
    ps.dataio.write_features_csv(out / "features.csv", features)
    manifest(T, ps, out, "featurize", {}, {"posts": inp / "posts.jsonl"},
             {"features": out / "features.csv"})


def replay_aggregate(T, ps, wl, inp, out):
    paths = {"predictions": out.parent / "predict" / "predictions.csv",
             "mapping": inp / "mapping.csv", "reference": inp / "reference.csv"}
    predictions = ps.dataio.read_predictions_csv(paths["predictions"])
    mapping = ps.transfer.build_mapping(ps.dataio.read_mapping_pairs(paths["mapping"]))
    with T.span("transfer.aggregate"):
        result = ps.transfer.aggregate(predictions, mapping, min_users=5)
    reference = ps.dataio.read_reference_csv(paths["reference"])
    comparison = ps.transfer.compare(result.scores, reference)
    scores = sorted(comparison.matched + [s for s in result.scores if s.institution_id not in reference],
                    key=lambda s: s.institution_id)
    outputs = {"report": out / "report.csv", "institutions": out / "institutions.csv"}
    ps.dataio.write_report_csv(outputs["report"], [("institution_pearson", comparison.pearson),
                                                   ("institution_spearman", comparison.spearman)])
    ps.dataio.write_institutions_csv(outputs["institutions"], scores)
    if result.excluded:
        outputs["excluded"] = out / "excluded.csv"
        ps.dataio.write_excluded_csv(outputs["excluded"], result.excluded)
    manifest(T, ps, out, "aggregate", {"min_users": 5}, paths, outputs)


def replay_curve(T, ps, wl, inp, out):
    clean, labels, inputs = training_inputs(T, ps, inp)
    table = load_table(T, ps, inp / "embeddings.vec")
    inputs["embeddings"] = inp / "embeddings.vec"
    ts = build_embedding(T, ps, clean, labels, table)
    lam, B = float(harness.CURVE_LAMBDA), harness.CURVE_BOOTSTRAP
    with T.span("model.posts_curve"):
        points = ps.model.posts_curve(ts, n_max=wl.n_max, B=B, level=0.90, seed=0, lam=lam)
    ps.dataio.write_curve_csv(out / "curve.csv", points)
    manifest(T, ps, out, "curve", {"n_max": wl.n_max, "bootstrap": B, "level": 0.90, "lambda": lam},
             inputs, {"curve": out / "curve.csv"}, seed=0)


REPLAYS = {stem: globals()[f"replay_{stem}"] for stem in harness.COMMANDS}


def instrument(T, ps) -> None:
    """Wrap the calls one layer makes into another (restored by unwrap_all)."""

    def post_vectors(result, *args, **kwargs):
        _, n_matched, n_tokens = result
        T.counts["embeddings.matched_tokens"] += int(n_matched.sum())
        T.counts["embeddings.tokens"] += int(n_tokens.sum())

    def tfidf_matrix(X, *args, **kwargs):
        T.counts["tfidf.matrix_bytes"] = max(T.counts["tfidf.matrix_bytes"], X.shape[0] * X.shape[1] * 8)
        T.counts["tfidf.nonzero"] += int((X != 0).sum())
        T.counts["tfidf.cells"] += X.size

    def scored(result, model, table, token_lists, **kwargs):
        T.counts["model.posts_scored"] += len(token_lists)

    def loo(predictions, ts, **kwargs):
        T.counts["model.loo_solves"] += len(predictions)
        grams = len(predictions) * (ts.d + 1) ** 2 * 8
        T.counts["model.loo_grams_bytes"] = max(T.counts["model.loo_grams_bytes"], grams)

    def bootstrap(result, units, statistic, B, **kwargs):
        T.counts["stats.resamples"] += B

    T.wrap(ps.embeddings, "post_vectors_matrix", "embeddings.post_vectors", post_vectors)
    T.wrap(ps.tfidf, "tfidf_matrix", "tfidf.matrix", tfidf_matrix)
    T.wrap(ps.pipeline, "score_tokenized_posts", "model.score_posts", scored)
    T.wrap(ps.model, "loo_user_cv", "model.loo_user_cv", loo)
    T.wrap(ps.model, "bootstrap_ci", "stats.bootstrap_ci", bootstrap)


# -------------------------------------------------------------------- run


def import_postscore():
    from types import SimpleNamespace

    sys.path.insert(0, str(harness.ROOT / "src"))
    import postscore.cli  # noqa: F401  (loads every module the CLI uses)
    from postscore import dataio, embeddings, model, pipeline, stats, synth, tfidf, transfer, wordrank

    return SimpleNamespace(dataio=dataio, embeddings=embeddings, model=model, pipeline=pipeline,
                           stats=stats, synth=synth, tfidf=tfidf, transfer=transfer, wordrank=wordrank)


def import_seconds(env) -> float:
    """Median wall time of a child that starts Python, imports the CLI and
    exits: the fixed cost every command pays before the replayed calls."""
    argv = [sys.executable, "-c", "import postscore.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=harness.ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_synth(T, ps, wl, seed, out):
    sizes = dict(zip(wl.synth[::2], wl.synth[1::2]))
    cfg = ps.synth.SynthConfig(seed=seed, **{SYNTH_FIELDS[k]: int(v) for k, v in sizes.items()})
    with T.span("synth.generate"):
        data = ps.synth.generate(cfg, out_dir=out)
    return {name: ps.dataio.sha256_file(path) for name, path in data.paths.items()}


def memory_peaks(ps, inp) -> dict:
    """tracemalloc peaks of the table load and of embedding LOOCV, untimed."""
    tracemalloc.start()
    table = ps.embeddings.EmbeddingTable.load_vec(inp / "embeddings.vec")
    load_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    clean = ps.pipeline.load_clean_posts(inp / "posts.jsonl")
    labels = ps.dataio.read_labels_csv(inp / "labels.csv")
    ts, _ = ps.pipeline.build_embedding_training(clean, labels, table)
    del clean, table
    tracemalloc.start()
    ps.model.loo_user_cv(ts)
    loo_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"embeddings.load_peak_mb": load_peak / 1e6, "model.loo_peak_mb": loo_peak / 1e6}


def traced_run(wl, seed: int, work: Path, env: dict) -> dict:
    tally = harness.Tally()
    ps = import_postscore()
    T = Tracer()

    # Set-up: the CLI makes the inputs (untraced), the library makes them
    # again under a span; both must be byte-identical.
    inp = work / "in0"
    synth_ex = harness.run_cli(harness.synth_args(wl, seed, inp), work / "logs" / "synth.log", env)
    if synth_ex.rc != 0:
        raise SystemExit(f"set-up failed (postscore synth exit {synth_ex.rc})")
    traced_hashes = traced_synth(T, ps, wl, seed, work / "in_traced")
    cli_hashes = checks.manifest_output_hashes(inp)
    tally.record("synth", synth_ex, [] if traced_hashes == cli_hashes else
                 ["traced synth outputs differ from the CLI's"])

    # Untraced pass: wall time of each command as a subprocess.
    reference = {}
    execs = harness.run_pass(wl, inp, work / "pass", env, tally, reference)
    untraced_s = sum(e.wall_s for e in execs.values())

    # Traced pass: the same commands replayed in-process under spans.
    out = work / "traced"
    instrument(T, ps)
    try:
        for stem in harness.COMMANDS:
            (out / stem).mkdir(parents=True, exist_ok=True)
            errors = []
            try:
                with T.span(f"cli.{stem}"):
                    REPLAYS[stem](T, ps, wl, inp, out / stem)
            except Exception as exc:  # a failing replay is reported, not fatal
                errors.append(f"replay raised {type(exc).__name__}: {exc}")
            if not errors and checks.manifest_output_hashes(out / stem) != reference.get(stem):
                errors.append("replayed outputs differ from the CLI's")
            tally.record(f"traced {stem}", None, errors)
    finally:
        T.unwrap_all()

    import_s = import_seconds(env)
    peaks = memory_peaks(ps, inp)
    metrics = layer_metrics(T, wl, import_s, untraced_s)
    metrics.update({k: {"value": v, "unit": "MB", "n": 1} for k, v in peaks.items()})
    (work / "spans.json").write_text(json.dumps(T.spans) + "\n")
    return {"tally": tally, "metrics": metrics, "counts": dict(T.counts),
            "untraced_s": {k: e.wall_s for k, e in execs.items()}}


def layer_metrics(T, wl, import_s: float, untraced_s: float) -> dict:
    c = T.counts
    values = {f"{name}_s": (T.total(name), "s") for name in (
        "synth.generate", "dataio.read_posts", "dataio.manifest", "dataio.write_ranking",
        "textproc.clean", "textproc.features", "embeddings.load_vec", "embeddings.post_vectors",
        "pipeline.build_training", "pipeline.predict_users", "model.fit", "model.loo_user_cv",
        "model.posts_curve", "stats.bootstrap_ci", "tfidf.build_vocab", "tfidf.matrix",
        "wordrank.iter_ranked", "transfer.aggregate")}
    for name in ("dataio.posts_read", "dataio.bytes_hashed", "dataio.rows_written", "textproc.posts_kept",
                 "textproc.posts_filtered", "textproc.tokens", "embeddings.rows_loaded",
                 "pipeline.no_vector_posts", "model.loo_solves", "stats.resamples",
                 "wordrank.words_ranked"):
        values[name] = (c[name], "count")
    matched = c["embeddings.matched_tokens"] / max(1, c["embeddings.tokens"])
    values["embeddings.matched_token_ratio"] = (matched, "ratio")
    values["model.score_posts_per_s"] = (c["model.posts_scored"] / T.total("model.score_posts"), "1/s")
    values["model.loo_grams_mb"] = (c["model.loo_grams_bytes"] / 1e6, "MB-computed")
    values["tfidf.matrix_mb"] = (c["tfidf.matrix_bytes"] / 1e6, "MB-computed")
    values["tfidf.nonzero_ratio"] = (c["tfidf.nonzero"] / max(1, c["tfidf.cells"]), "ratio")
    values["cli.import_s"] = (import_s, "s")

    commands = {s["name"][4:]: i for i, s in enumerate(T.spans) if s["name"].startswith("cli.")}
    for stem, index in commands.items():
        values[f"cli.{stem}.self_s"] = (T.self_time(index), "s")
    traced_s = sum(T.spans[i]["end"] - T.spans[i]["start"] for i in commands.values())
    values["trace.overhead_ratio"] = ((traced_s + len(commands) * import_s) / untraced_s - 1.0, "ratio")
    named = [commands[stem] for stem in wl.dominant_in]
    values["trace.dominant_share"] = (
        sum(T.within(i, wl.dominant) for i in named)
        / sum(T.spans[i]["end"] - T.spans[i]["start"] for i in named), "ratio")
    return {name: {"value": v, "unit": unit, "n": 1} for name, (v, unit) in values.items()}
