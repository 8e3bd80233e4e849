import csv
import filecmp
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import postscore
from postscore import cache, dataio, pipeline, wordrank
from postscore.cli import main
from postscore.embeddings import EmbeddingTable, load_vec_cached

from oracles import token_lists


def run_cli(*argv):
    """In-process invocation; returns (exit_code)."""
    return main([str(a) for a in argv])


def run_cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "postscore", *map(str, argv)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    code = run_cli(
        "synth", "--output-dir", out, "--seed", 5,
        "--vocab-size", 900, "--dim", 12, "--topics", 4,
        "--users", 48, "--posts-per-user", 6, "--tokens-per-post", 7,
        "--noise-sd", 35, "--institutions", 6, "--users-per-institution", 8,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_cli(
        "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
        "--embeddings", dataset / "embeddings.vec", "--output-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tfidf_trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("tfidf_trained")
    code = run_cli(
        "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
        "--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001, "--output-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cased_table(dataset, tmp_path_factory):
    """The dataset's table with its first three words capitalized, and those
    three words."""
    lines = (dataset / "embeddings.vec").read_text(encoding="utf-8").splitlines(True)
    cased = []
    for i in (1, 2, 3):
        word, rest = lines[i].split(" ", 1)
        lines[i] = f"{word.capitalize()} {rest}"
        cased.append(word.capitalize())
    table_path = tmp_path_factory.mktemp("cased") / "cased.vec"
    table_path.write_text("".join(lines), encoding="utf-8")
    return table_path, cased


class TestSynthCommand:
    def test_outputs_and_manifest(self, dataset):
        for name in ("embeddings.vec", "posts.jsonl", "labels.csv", "mapping.csv",
                     "reference.csv", "freq.csv", "truth.json", "manifest.json"):
            assert (dataset / name).is_file()
        manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert set(manifest["outputs"]) >= {"posts", "labels", "embeddings"}

    def test_seed_printed(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--output-dir", tmp_path / "d", "--vocab-size", 50, "--dim", 4,
            "--topics", 2, "--users", 4, "--posts-per-user", 2, "--tokens-per-post", 3,
            "--institutions", 1, "--users-per-institution", 1,
        )
        assert code == 0
        assert "seed: 0" in capsys.readouterr().out


class TestTrainPredictEvaluate:
    def test_model_file_schema(self, trained):
        payload = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        assert payload["format_version"] == 1
        assert payload["d"] == 12
        assert len(payload["weights"]) == 12
        assert payload["training_meta"]["embedding_fingerprint"]

    def test_predict_writes_user_csv(self, dataset, trained, tmp_path):
        out = tmp_path / "pred"
        code = run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", out,
        )
        assert code == 0
        preds = dataio.read_predictions_csv(out / "predictions.csv")
        assert len(preds) == 48
        assert all(p.n_posts_used > 0 for p in preds)

    def test_evaluate_reports_loocv_r(self, dataset, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", out,
        )
        assert code == 0
        assert "grouped LOOCV" in capsys.readouterr().out
        with open(out / "report.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["metric"] == "loocv_user_pearson_r"
        assert -1.0 <= float(rows[0]["r"]) <= 1.0
        preds = dataio.read_predictions_csv(out / "loocv_predictions.csv")
        assert len(preds) == 48

    def test_evaluate_tfidf_vs_embedding_ordering(self, dataset, tmp_path):
        """On the synthetic construction the embedding route must beat the
        count baseline, end to end through the CLI."""
        rs = {}
        own_flags = {"embedding": ["--embeddings", dataset / "embeddings.vec"],
                     "tfidf": ["--top-terms", 200]}
        for vec, flags in own_flags.items():
            out = tmp_path / f"eval_{vec}"
            code = run_cli(
                "evaluate", "--posts", dataset / "posts.jsonl",
                "--labels", dataset / "labels.csv", *flags,
                "--vectorizer", vec, "--lambda", 0.001, "--output-dir", out,
            )
            assert code == 0
            with open(out / "report.csv", encoding="utf-8", newline="") as f:
                rs[vec] = float(next(csv.DictReader(f))["r"])
        assert rs["embedding"] > rs["tfidf"]

    def test_tfidf_vectorizer_round_trip(self, dataset, tmp_path):
        out = tmp_path / "tfidf_model"
        code = run_cli(
            "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001,
            "--output-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert payload["vectorizer"] == "tfidf"
        assert (out / "tfidf_vocab.csv").is_file()
        pred_out = tmp_path / "tfidf_pred"
        code = run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", out / "model.json",
            "--output-dir", pred_out,
        )
        assert code == 0
        assert len(dataio.read_predictions_csv(pred_out / "predictions.csv")) == 48

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("tfidf"), "tf-idf model has no `tfidf` object"),
            (lambda p: p["tfidf"].pop("idf"), "`tfidf` has no entry 'idf'"),
            (lambda p: p["tfidf"]["terms"].pop(), "`tfidf` has 79 terms, the model d=80"),
        ],
        ids=["no-block", "no-idf", "short-terms"],
    )
    def test_malformed_tfidf_block_is_data_error(self, dataset, tfidf_trained, tmp_path, capsys,
                                                  edit, message):
        payload = json.loads((tfidf_trained / "model.json").read_text(encoding="utf-8"))
        edit(payload)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", bad,
            "--output-dir", tmp_path / "pred",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad_model.json: {message}" in err

    def test_model_checked_before_posts(self, dataset, tfidf_trained, tmp_path, capsys):
        payload = json.loads((tfidf_trained / "model.json").read_text(encoding="utf-8"))
        payload["tfidf"].pop("idf")
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        posts = tmp_path / "bad_posts.jsonl"
        posts.write_text("{oops\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("predict", "--posts", posts, "--model", bad, "--output-dir", tmp_path / "pred")
        assert code == 2
        err = capsys.readouterr().err
        assert "bad_model.json: `tfidf` has no entry 'idf'" in err
        assert "bad_posts.jsonl" not in err
        assert not any((tmp_path / "pred").glob("*.csv"))

    @pytest.mark.parametrize(
        "command, source, table, message",
        [
            ("predict", "tfidf_trained", "embeddings.vec", "a tf-idf model reads no --embeddings"),
            ("predict", "trained", "dim3.vec", "model d=12 does not match the dim 3 of {table}"),
            ("rank-words", "trained", "dim3.vec", "model d=12 does not match the dim 3 of {table}"),
        ],
        ids=["tfidf-embeddings", "predict-dim", "rank-words-dim"],
    )
    def test_table_checked_against_model_before_posts(self, request, dataset, tmp_path, capsys, command, source,
                                                      table, message):
        """The table a model is scored with is refused before the posts are
        read: the posts file is broken, and the error names the model and
        the table but not the posts."""
        bad = request.getfixturevalue(source) / "model.json"
        table_path = dataset / "embeddings.vec"
        if table == "dim3.vec":
            table_path = tmp_path / table
            table_path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        posts = tmp_path / "bad_posts.jsonl"
        posts.write_text("{oops\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(command, "--posts", posts, "--model", bad, "--embeddings", table_path,
                       "--output-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: {message.format(table=table_path)}" in err
        assert "bad_posts.jsonl" not in err
        assert not any((tmp_path / "out").glob("*.csv"))

    def test_repeated_term_is_data_error(self, dataset, tfidf_trained, tmp_path, capsys):
        """A term listed twice would leave one of its weights unused; predict
        refuses the model and writes nothing."""
        payload = json.loads((tfidf_trained / "model.json").read_text(encoding="utf-8"))
        terms = payload["tfidf"]["terms"]
        terms[1] = terms[0]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", bad, "--output-dir", tmp_path / "pred",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad_model.json: bad `tfidf` object: `terms` lists {terms[0]!r} twice" in err
        assert "Traceback" not in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_tfidf_without_labeled_posts_is_data_error(self, dataset, tmp_path, command, capsys):
        labels = tmp_path / "labels.csv"
        dataio.write_labels_csv(labels, {"nobody": 1.0})
        out = tmp_path / "out"
        code = run_cli(
            command, "--posts", dataset / "posts.jsonl", "--labels", labels,
            "--vectorizer", "tfidf", "--output-dir", out,
        )
        assert code == 2
        assert "no labeled training posts" in capsys.readouterr().err
        assert not (out / "model.json").exists()
        assert not (out / dataio.MANIFEST_NAME).exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_tfidf_with_every_token_a_stopword_is_data_error(self, dataset, tmp_path, command, capsys):
        """No term is left to fit on: exit 2 naming the stopwords as the
        cause, not a ZeroDivisionError in fit or an intercept-only LOOCV."""
        stopwords = tmp_path / "stopwords.txt"
        corpus, _ = pipeline.load_corpus(dataset / "posts.jsonl")
        stopwords.write_text("\n".join(corpus.tokens) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            command, "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--vectorizer", "tfidf", "--stopwords", stopwords, "--output-dir", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "postscore: data error: the tf-idf vocabulary is empty: "
            "every token of the labeled posts is a stopword\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, vectorizer, computes",
        [
            ("train", "embedding", "fit"),
            ("train", "tfidf", "fit"),
            ("evaluate", "embedding", "loo_user_cv"),
            ("evaluate", "tfidf", "loo_user_cv"),
            ("curve", "embedding", "posts_curve"),
        ],
    )
    def test_inputs_freed_before_the_computation(self, dataset, tmp_path, monkeypatch, command, vectorizer,
                                                 computes):
        """No fitting command holds its table or its corpus while it fits,
        cross-validates or draws the curve: neither is alive, with no
        garbage collection, when that step is entered."""
        from postscore import embeddings, model

        loaded, alive = [], []

        def recording(load):
            def recorded(path):
                value, digest = load(path)
                loaded.append(weakref.ref(value))
                return value, digest
            return recorded

        def checking(compute):
            def checked(*args, **kwargs):
                alive.append([ref() is not None for ref in loaded])
                return compute(*args, **kwargs)
            return checked

        monkeypatch.setattr(embeddings, "load_vec_cached", recording(embeddings.load_vec_cached))
        monkeypatch.setattr(pipeline, "load_corpus", recording(pipeline.load_corpus))
        monkeypatch.setattr(model, computes, checking(getattr(model, computes)))
        if command == "curve":
            flags = ["--embeddings", dataset / "embeddings.vec", "--n-max", 3, "--bootstrap", 100]
        elif vectorizer == "tfidf":
            flags = ["--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001]
        else:
            flags = ["--embeddings", dataset / "embeddings.vec"]
        code = run_cli(command, "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                       *flags, "--output-dir", tmp_path / "out")
        assert code == 0
        assert len(loaded) == (1 if vectorizer == "tfidf" else 2)
        assert alive == [[False] * len(loaded)]

    def test_top_terms_recorded_for_tfidf_only(self, dataset, trained, tfidf_trained, tmp_path):
        """--top-terms defaults to 1000 for tf-idf."""
        def params(out):
            return json.loads((out / dataio.MANIFEST_NAME).read_text(encoding="utf-8"))["params"]

        assert params(tfidf_trained)["top_terms"] == 80
        assert "top_terms" not in params(trained)
        for k in (None, 100, 200):
            code = run_cli(
                "evaluate", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                "--vectorizer", "tfidf", *(["--top-terms", k] if k else []), "--lambda", 0.001,
                "--output-dir", tmp_path / f"eval{k}",
            )
            assert code == 0
            assert params(tmp_path / f"eval{k}") == {
                "vectorizer": "tfidf", "lambda": 0.001, "threads": 1, "top_terms": k or 1000,
            }


class TestFeaturizeCorrelate:
    def test_featurize_then_correlate(self, dataset, tmp_path):
        fdir = tmp_path / "features"
        assert run_cli("featurize", "--posts", dataset / "posts.jsonl", "--output-dir", fdir) == 0
        with open(fdir / "features.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 48
        cdir = tmp_path / "corr"
        code = run_cli(
            "correlate", "--features", fdir / "features.csv",
            "--labels", dataset / "labels.csv", "--output-dir", cdir,
        )
        assert code == 0
        with open(cdir / "report.csv", encoding="utf-8", newline="") as f:
            report = list(csv.DictReader(f))
        metrics = {row["metric"] for row in report}
        assert "entropy_bits" in metrics
        for row in report:
            assert 0.0 <= float(row["p"]) <= 1.0

    def test_nonfinite_label_is_data_error(self, dataset, tmp_path, capsys):
        fdir = tmp_path / "features"
        assert run_cli("featurize", "--posts", dataset / "posts.jsonl", "--output-dir", fdir) == 0
        labels = dataio.read_labels_csv(dataset / "labels.csv")
        first = min(labels)
        bad = tmp_path / "labels.csv"
        bad.write_text(
            "user_id,score\n" + "".join(
                f"{u},{'inf' if u == first else labels[u]}\n" for u in sorted(labels)
            ),
            encoding="utf-8",
        )
        cdir = tmp_path / "corr"
        code = run_cli("correlate", "--features", fdir / "features.csv", "--labels", bad,
                       "--output-dir", cdir)
        assert code == 2
        assert "labels.csv:2: score must be finite" in capsys.readouterr().err
        assert not (cdir / "report.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_is_data_error(self, dataset, tmp_path, capsys, value):
        fdir = tmp_path / "features"
        assert run_cli("featurize", "--posts", dataset / "posts.jsonl", "--output-dir", fdir) == 0
        with open(fdir / "features.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        rows[2][rows[0].index("avg_post_len")] = value
        bad = tmp_path / "features.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        cdir = tmp_path / "corr"
        code = run_cli("correlate", "--features", bad, "--labels", dataset / "labels.csv",
                       "--output-dir", cdir)
        assert code == 2
        assert f"features.csv:3: avg_post_len must be finite, got '{value}'" in capsys.readouterr().err
        assert not (cdir / "report.csv").exists()


class TestAggregateCommand:
    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_prediction_is_data_error(self, dataset, tmp_path, capsys, value, reference):
        labels = dataio.read_labels_csv(dataset / "labels.csv")
        first = min(labels)
        bad = tmp_path / "predictions.csv"
        bad.write_text(
            "user_id,predicted,n_posts_used\n" + "".join(
                f"{u},{value if u == first else labels[u]},6\n" for u in sorted(labels)
            ),
            encoding="utf-8",
        )
        agg_out = tmp_path / "agg"
        extra = ["--reference", dataset / "reference.csv"] if reference else []
        code = run_cli("aggregate", "--predictions", bad, "--mapping", dataset / "mapping.csv",
                       "--min-users", 3, *extra, "--output-dir", agg_out)
        assert code == 2
        assert f"predictions.csv:2: predicted must be finite, got '{value}'" in capsys.readouterr().err
        assert not (agg_out / "institutions.csv").exists()

    def test_aggregate_with_reference(self, dataset, trained, tmp_path):
        pred_out = tmp_path / "pred"
        run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", pred_out,
        )
        agg_out = tmp_path / "agg"
        code = run_cli(
            "aggregate", "--predictions", pred_out / "predictions.csv",
            "--mapping", dataset / "mapping.csv", "--reference", dataset / "reference.csv",
            "--min-users", 3, "--output-dir", agg_out,
        )
        assert code == 0
        with open(agg_out / "institutions.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        assert all(row["reference"] for row in rows)
        with open(agg_out / "report.csv", encoding="utf-8", newline="") as f:
            report = {row["metric"]: row for row in csv.DictReader(f)}
        assert set(report) == {"institution_pearson", "institution_spearman"}

    def test_exclude_users_shrinks_membership(self, dataset, trained, tmp_path, capsys):
        pred_out = tmp_path / "pred"
        run_cli(
            "predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", pred_out,
        )
        base_out = tmp_path / "agg_base"
        code = run_cli(
            "aggregate", "--predictions", pred_out / "predictions.csv",
            "--mapping", dataset / "mapping.csv", "--min-users", 1, "--output-dir", base_out,
        )
        assert code == 0
        excl_out = tmp_path / "agg_excl"
        code = run_cli(
            "aggregate", "--predictions", pred_out / "predictions.csv",
            "--mapping", dataset / "mapping.csv", "--min-users", 1,
            "--exclude-users", dataset / "labels.csv", "--output-dir", excl_out,
        )
        assert code == 2  # every mapped user is in the training labels
        assert capsys.readouterr().err == "postscore: data error: no predicted user maps to any institution\n"


class TestCrossSource:
    def test_model_trained_on_one_source_predicts_another(self, dataset, tmp_path):
        """The paper's third claim with existing commands: a model trained on
        one source (the even posts) ranks institutions from another source
        (the odd posts, none seen in training) about as well as from its own.
        Over synth seeds 0-39 of this fixture's shape the lowest r was 0.863
        and the largest gap 0.098; seed 5 gives 0.965 and 0.958."""
        lines = (dataset / "posts.jsonl").read_text(encoding="utf-8").splitlines(True)
        sources = {"even": lines[0::2], "odd": lines[1::2]}
        for name, source in sources.items():
            (tmp_path / f"{name}.jsonl").write_text("".join(source), encoding="utf-8")
        table = dataset / "embeddings.vec"
        code = run_cli(
            "train", "--posts", tmp_path / "even.jsonl", "--labels", dataset / "labels.csv",
            "--embeddings", table, "--output-dir", tmp_path / "model",
        )
        assert code == 0
        r = {}
        for name in sources:
            code = run_cli(
                "predict", "--posts", tmp_path / f"{name}.jsonl",
                "--model", tmp_path / "model" / "model.json", "--embeddings", table,
                "--output-dir", tmp_path / f"pred_{name}",
            )
            assert code == 0
            code = run_cli(
                "aggregate", "--predictions", tmp_path / f"pred_{name}" / "predictions.csv",
                "--mapping", dataset / "mapping.csv", "--reference", dataset / "reference.csv",
                "--min-users", 3, "--output-dir", tmp_path / f"agg_{name}",
            )
            assert code == 0
            with open(tmp_path / f"agg_{name}" / "report.csv", encoding="utf-8", newline="") as f:
                report = {row["metric"]: row for row in csv.DictReader(f)}
            assert report["institution_pearson"]["n"] == "6"
            r[name] = float(report["institution_pearson"]["r"])
        assert r["even"] > 0.8 and r["odd"] > 0.8
        assert abs(r["odd"] - r["even"]) < 0.15


class TestRankWordsCommand:
    def test_full_ranking_with_training_counts(self, dataset, trained, tmp_path):
        out = tmp_path / "rank"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--posts", dataset / "posts.jsonl", "--min-count", 2,
            "--output-dir", out,
        )
        assert code == 0
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert 0 < len(rows) < 900  # min-count filtered something
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert float(rows[0]["percentile"]) == 100.0

    def test_sidecar_counts_cover_unseen_words(self, dataset, trained, tmp_path):
        out = tmp_path / "rank_sidecar"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--freq", dataset / "freq.csv",
            "--min-count", 1, "--output-dir", out,
        )
        assert code == 0
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 900  # every table word has a sidecar count >= 1

    def test_freq_alone_fills_freq_column(self, dataset, trained, tmp_path):
        out = tmp_path / "rank_freq"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--freq", dataset / "freq.csv", "--output-dir", out,
        )
        assert code == 0
        freq = dataio.read_freq_csv(dataset / "freq.csv")
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 900
        assert {r["word"]: int(r["freq"]) for r in rows} == freq
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["inputs"]) == {"model", "embeddings", "freq"}
        assert "count_source" not in manifest["params"]

    def test_freq_min_count_filters_on_sidecar_counts(self, dataset, trained, tmp_path):
        freq = dataio.read_freq_csv(dataset / "freq.csv")
        threshold = sorted(freq.values())[len(freq) // 2]
        out = tmp_path / "rank_freq_min"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--freq", dataset / "freq.csv", "--min-count", threshold, "--output-dir", out,
        )
        assert code == 0
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            ranked = {r["word"] for r in csv.DictReader(f)}
        assert ranked == {w for w, c in freq.items() if c >= threshold}
        assert 0 < len(ranked) < 900

    def test_negative_freq_count_is_data_error(self, dataset, trained, tmp_path, capsys):
        bad = tmp_path / "freq.csv"
        bad.write_text("word,count\nw000001,3\nw000002,-5\n", encoding="utf-8")
        out = tmp_path / "rank_neg"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--freq", bad, "--output-dir", out,
        )
        assert code == 2
        assert "freq.csv:3: negative count -5" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()

    def test_freq_header_with_extra_field_is_data_error(self, dataset, trained, tmp_path, capsys):
        bad = tmp_path / "freq.csv"
        bad.write_text("word,count,extra\nw000001,3\n", encoding="utf-8")
        out = tmp_path / "rank_extra"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--freq", bad, "--output-dir", out,
        )
        assert code == 2
        assert "freq.csv:1: expected `word,count`" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()

    def test_posts_and_freq_are_exclusive(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "rank_both"
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "rank-words", "--model", trained / "model.json",
                "--embeddings", dataset / "embeddings.vec", "--posts", dataset / "posts.jsonl",
                "--freq", dataset / "freq.csv", "--output-dir", out,
            )
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_top_bottom_with_projection(self, dataset, trained, tmp_path):
        out = tmp_path / "rank_tb"
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--top", 15, "--bottom", 15, "--project-2d", "--output-dir", out,
        )
        assert code == 0
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 30
        with open(out / "plot.csv", encoding="utf-8", newline="") as f:
            plot = list(csv.DictReader(f))
        assert len(plot) == 30
        assert {r["word"] for r in plot} == {r["word"] for r in rows}

    def test_projection_on_cased_table(self, trained, cased_table, tmp_path):
        """A table that stores capitalized words: every selected word is
        projected from its own row, none is re-looked-up lowercased."""
        table_path, cased = cased_table
        out = tmp_path / "rank_cased"
        code = run_cli(
            "rank-words", "--model", trained / "model.json", "--embeddings", table_path,
            "--top", 2000, "--bottom", 5, "--project-2d", "--output-dir", out,
        )
        assert code == 0
        with open(out / "ranking.csv", encoding="utf-8", newline="") as f:
            ranked = [r["word"] for r in csv.DictReader(f)]
        with open(out / "plot.csv", encoding="utf-8", newline="") as f:
            plotted = [r["word"] for r in csv.DictReader(f)]
        assert len(ranked) == 900
        assert plotted == ranked
        assert set(cased) <= set(plotted)

    def test_cased_table_warns_of_unreachable_words(self, dataset, trained, cased_table, tmp_path,
                                                    capsys):
        warning = "warning: 3 table words are not lowercase; no post token matches them"
        for table_path, expected in ((dataset / "embeddings.vec", []), (cased_table[0], [warning])):
            capsys.readouterr()
            code = run_cli(
                "predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
                "--embeddings", table_path, "--output-dir", tmp_path / "pred",
            )
            assert code == 0
            err = capsys.readouterr().err.splitlines()
            assert [line for line in err if "lowercase" in line] == expected

    def test_tfidf_model_is_data_error(self, dataset, tmp_path, capsys):
        """A tf-idf model whose d equals the table's dim is still refused."""
        model_out = tmp_path / "tfidf12"
        code = run_cli(
            "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--vectorizer", "tfidf", "--top-terms", 12, "--lambda", 0.001, "--output-dir", model_out,
        )
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "rank"
        code = run_cli(
            "rank-words", "--model", model_out / "model.json",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", out,
        )
        assert code == 2
        assert f"{model_out / 'model.json'}: rank-words needs an embedding model" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()

    def test_min_count_without_source_is_data_error(self, dataset, trained, tmp_path, cold_table_cache):
        """Refused before the model or the table is read: no cache entry and
        no output directory are left."""
        code = run_cli(
            "rank-words", "--model", trained / "model.json",
            "--embeddings", dataset / "embeddings.vec",
            "--min-count", 5, "--output-dir", tmp_path / "x",
        )
        assert code == 2
        assert not cold_table_cache.exists()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["predict", "rank-words"])
    def test_table_other_than_the_models_warns(self, dataset, trained, tmp_path, capsys, command):
        """One value of the training table changed: the model still fits its
        dim, and both commands that read a model warn once."""
        lines = (dataset / "embeddings.vec").read_text(encoding="utf-8").splitlines(True)
        word, first, rest = lines[1].split(" ", 2)
        lines[1] = f"{word} {float(first) + 1.0} {rest}"
        table = tmp_path / "changed.vec"
        table.write_text("".join(lines), encoding="utf-8")
        code = run_cli(
            command, "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
            "--embeddings", table, "--output-dir", tmp_path / "out",
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("warning: embedding table differs from the one used in training") == 1

    @pytest.mark.parametrize("source", ["all", "posts-min-count", "head-tail-2d", "freq-overlap"])
    def test_ranking_bytes_do_not_depend_on_chunk_rows(self, dataset, trained, tmp_path, monkeypatch, source):
        """ranking.csv (and plot.csv) are the same bytes whether the ranked
        rows are converted 1, 3, 7 or the default number at a time."""
        flags = {
            "all": [],
            "posts-min-count": ["--posts", dataset / "posts.jsonl", "--min-count", 2],
            "head-tail-2d": ["--posts", dataset / "posts.jsonl", "--min-count", 2,
                             "--top", 20, "--bottom", 20, "--project-2d"],
            "freq-overlap": ["--freq", dataset / "freq.csv", "--top", 500, "--bottom", 450],
        }[source]
        outputs = {}
        for rows in (None, 1, 3, 7):
            if rows is not None:
                monkeypatch.setattr(wordrank, "_CHUNK_ROWS", rows)
            out = tmp_path / f"rank{rows}"
            code = run_cli("rank-words", "--model", trained / "model.json",
                           "--embeddings", dataset / "embeddings.vec", *flags, "--output-dir", out)
            assert code == 0
            outputs[rows] = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
        assert sorted(outputs[None]) == (["plot.csv", "ranking.csv"] if "--project-2d" in flags else ["ranking.csv"])
        assert outputs[1] == outputs[3] == outputs[7] == outputs[None]


class TestCurveCommand:
    def test_curve_csv(self, dataset, tmp_path):
        out = tmp_path / "curve"
        code = run_cli(
            "curve", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--embeddings", dataset / "embeddings.vec", "--n-max", 3,
            "--bootstrap", 120, "--seed", 2, "--output-dir", out,
        )
        assert code == 0
        with open(out / "curve.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["n_posts"] for r in rows] == ["1", "2", "3"]
        for r in rows:
            assert float(r["ci_low"]) <= float(r["ci_high"])


class TestExitCodes:
    def test_usage_error_is_1(self):
        proc = run_cli_subprocess("definitely-not-a-command")
        assert proc.returncode == 1

    def test_missing_required_flag_is_1(self):
        proc = run_cli_subprocess("featurize")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rank-words", "--model", "m.json", "--embeddings", "e.vec", "--top", "-3"],
             "--top: must be a positive integer, got -3"),
            (["rank-words", "--model", "m.json", "--embeddings", "e.vec", "--bottom", "0"],
             "--bottom: must be a positive integer, got 0"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--n-max", "0"], "--n-max: must be a positive integer, got 0"),
            (["train", "--posts", "p.jsonl", "--labels", "l.csv", "--threads", "0"],
             "--threads: must be a positive integer, got 0"),
            (["evaluate", "--posts", "p.jsonl", "--labels", "l.csv", "--threads", "-2"],
             "--threads: must be a positive integer, got -2"),
            (["evaluate", "--posts", "p.jsonl", "--labels", "l.csv", "--vectorizer", "tfidf",
              "--top-terms", "0"], "--top-terms: must be a positive integer, got 0"),
            (["predict", "--posts", "p.jsonl", "--model", "m.json", "--threads", "2"],
             "unrecognized arguments: --threads 2"),
            (["synth", "--users", "0"],
             "invalid synth configuration: n_users must be positive"),
            (["synth", "--users", "20", "--institutions", "5", "--users-per-institution", "5"],
             "invalid synth configuration: institution assignment needs more users"),
            (["synth", "--noise-sd", "nan"], "invalid synth configuration: noise_sd must be finite"),
            (["synth", "--noise-sd", "inf"], "invalid synth configuration: noise_sd must be finite"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--bootstrap", "99"], "--bootstrap: must be at least 100, got 99"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--level", "1"], "--level: must be in (0, 1), got 1"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--level", "nan"], "--level: must be in (0, 1), got nan"),
            (["evaluate", "--posts", "p.jsonl", "--labels", "l.csv", "--lambda", "-1"],
             "--lambda: must be a finite number >= 0, got -1"),
            (["train", "--posts", "p.jsonl", "--labels", "l.csv", "--lambda", "nan"],
             "--lambda: must be a finite number >= 0, got nan"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--lambda", "inf"], "--lambda: must be a finite number >= 0, got inf"),
            (["aggregate", "--predictions", "p.csv", "--mapping", "m.csv", "--min-users", "-3"],
             "--min-users: must be a positive integer, got -3"),
            (["rank-words", "--model", "m.json", "--embeddings", "e.vec", "--min-count", "-5"],
             "--min-count: must be a non-negative integer, got -5"),
            (["curve", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--seed", "-1"], "--seed: must be a non-negative integer, got -1"),
            (["synth", "--seed", "-1"], "--seed: must be a non-negative integer, got -1"),
            (["train", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--stopwords", "sw.txt"], "--stopwords not read by --vectorizer embedding"),
            (["evaluate", "--posts", "p.jsonl", "--labels", "l.csv", "--embeddings", "e.vec",
              "--top-terms", "50", "--stopwords", "sw.txt"],
             "--stopwords and --top-terms not read by --vectorizer embedding"),
            (["evaluate", "--posts", "p.jsonl", "--labels", "l.csv", "--vectorizer", "tfidf",
              "--embeddings", "nonexistent.vec"], "--embeddings not read by --vectorizer tfidf"),
            (["train", "--posts", "p.jsonl", "--labels", "l.csv", "--vectorizer", "tfidf",
              "--embeddings", "e.vec"], "--embeddings not read by --vectorizer tfidf"),
        ],
        ids=["top", "bottom", "n-max", "train-threads", "evaluate-threads", "top-terms",
             "predict-threads", "synth-users", "synth-institutions", "synth-noise-nan",
             "synth-noise-inf", "bootstrap", "level",
             "level-nan", "evaluate-lambda", "train-lambda", "curve-lambda", "min-users",
             "min-count", "curve-seed-negative", "synth-seed-negative", "train-embedding-stopwords",
             "evaluate-embedding-tfidf-flags", "evaluate-tfidf-embeddings", "train-tfidf-embeddings"],
    )
    def test_out_of_range_size_is_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--output-dir", out)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "seed:" not in captured.out
        assert not out.exists()

    def test_missing_file_is_2_and_names_path(self, dataset, tmp_path, capsys):
        code = run_cli(
            "train", "--posts", dataset / "posts.jsonl", "--labels", tmp_path / "nope.csv",
            "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "o",
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_overstated_table_header_is_2_naming_table(self, dataset, tmp_path, capsys):
        table = tmp_path / "overstated.vec"
        table.write_text("4000000000 300\na 1 0 0\n", encoding="utf-8")
        code = run_cli(
            "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--embeddings", table, "--output-dir", tmp_path / "o",
        )
        assert code == 2
        assert f"{table}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "curve"])
    def test_table_checked_before_posts(self, dataset, tmp_path, capsys, command):
        """With both the posts and the table broken, the error names the
        table: it is loaded before any post is read."""
        posts = tmp_path / "posts.jsonl"
        posts.write_text("{broken\n", encoding="utf-8")
        table = tmp_path / "table.vec"
        table.write_text("2 3\na 1 0 0\nb 0 1\n", encoding="utf-8")
        code = run_cli(
            command, "--posts", posts, "--labels", dataset / "labels.csv",
            "--embeddings", table, "--output-dir", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{table}:3: " in err
        assert "posts.jsonl" not in err

    def test_parse_error_is_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = run_cli("featurize", "--posts", bad, "--output-dir", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err

    @pytest.mark.parametrize("command", ["train", "featurize"])
    def test_deeply_nested_post_is_2_with_line(self, dataset, tmp_path, capsys, command):
        """A line of brackets nested past the recursion limit is a data
        error naming the file and the line, not a RecursionError."""
        posts = tmp_path / "posts.jsonl"
        text = (dataset / "posts.jsonl").read_text(encoding="utf-8")
        posts.write_text(text + "[" * 200_000 + "]" * 200_000 + "\n", encoding="utf-8")
        inputs = ["--labels", dataset / "labels.csv", "--embeddings", dataset / "embeddings.vec"]
        code = run_cli(command, "--posts", posts, *(inputs if command == "train" else []),
                       "--output-dir", tmp_path / "o")
        assert code == 2
        line = text.count("\n") + 1
        assert capsys.readouterr().err == (
            f"postscore: data error: {posts}:{line}: invalid JSON: nested too deeply\n")

    def test_deeply_nested_model_is_2(self, dataset, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code = run_cli("predict", "--posts", dataset / "posts.jsonl", "--model", model,
                       "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == f"postscore: data error: {model}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("copied", [True, False], ids=["singular", "ill-conditioned"])
    def test_condition_warning_is_one_line(self, dataset, tmp_path, copied):
        """A 3-d table whose third column copies the first (singular: exit
        3) or is the first scaled by 1e-7 (solvable: exit 0). The condition
        warning is one line with no source path or source line, and a
        failure gives its ridge hint once."""
        words = sorted(set(pipeline.load_corpus(dataset / "posts.jsonl")[0].tokens))
        rng = np.random.default_rng(3)
        first, second = rng.standard_normal((2, len(words)))
        third = first if copied else 1e-7 * rng.standard_normal(len(words))
        table = tmp_path / "table.vec"
        EmbeddingTable(words, np.column_stack([first, second, third]).astype(np.float32)).save_vec(table)
        proc = run_cli_subprocess(
            "train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
            "--embeddings", table, "--output-dir", tmp_path / "o",
        )
        assert proc.returncode == (3 if copied else 0)
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("warning: Gram matrix condition estimate ")
        assert lines[0].endswith(" exceeds 1e+12; consider a ridge coefficient lambda > 0")
        assert "cli.py" not in proc.stderr and "Traceback" not in proc.stderr
        if copied:
            assert len(lines) == 2
            assert lines[1].startswith("postscore: numerical failure: Gram matrix is numerically singular ")
            assert lines[1].count("lambda > 0") == 1
            assert lines[1].endswith("; retry with a ridge coefficient lambda > 0")
        else:
            assert len(lines) == 1

    def test_singular_system_is_3_with_hint(self, dataset, tmp_path, capsys):
        # 12-dim embeddings but only a handful of labeled posts at lambda=0
        labels = dataio.read_labels_csv(dataset / "labels.csv")
        few = dict(list(labels.items())[:1])
        labels_path = tmp_path / "few_labels.csv"
        dataio.write_labels_csv(labels_path, few)
        code = run_cli(
            "train", "--posts", dataset / "posts.jsonl", "--labels", labels_path,
            "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "o",
        )
        assert code == 3
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(__import__("resource"), "RLIMIT_AS"), reason="needs RLIMIT_AS")
    def test_out_of_memory_is_3_in_one_line(self, tmp_path):
        """tf-idf LOOCV at d=3,001 over 1,200 users first asks for its 36
        block sums, 1.21 GiB, about 2.5 times the 500 MB address space the
        child gets; the run peaks near 300 MB before that. numpy cannot
        allocate them: one line on stderr naming the array, no traceback,
        exit 3."""
        import resource

        rng = np.random.default_rng(40)
        words = [f"w{i:04d}" for i in range(6000)]
        posts, labels = tmp_path / "posts.jsonl", tmp_path / "labels.csv"
        with open(posts, "w", encoding="utf-8") as f:
            for u in range(1200):
                for k in range(2):
                    text = " ".join(words[i] for i in rng.integers(0, 6000, size=40))
                    f.write(json.dumps({"user_id": f"u{u:04d}", "post_id": f"{u}-{k}", "text": text}) + "\n")
        dataio.write_labels_csv(labels, {f"u{u:04d}": float(u % 7) for u in range(1200)})
        cap = 500 * 2**20

        proc = subprocess.run(
            [sys.executable, "-m", "postscore", "evaluate", "--posts", str(posts),
             "--labels", str(labels), "--vectorizer", "tfidf", "--top-terms", "3000",
             "--lambda", "0.001", "--output-dir", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("postscore: out of memory: Unable to allocate 1.21 GiB ")
        assert "shape (36, 4507503)" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("which", ["embeddings", "posts", "labels"])
    def test_undecodable_byte_is_2_naming_file_and_line(self, dataset, tmp_path, which):
        """A byte that is not UTF-8 deep in a file is named by its line."""
        paths = {
            "embeddings": dataset / "embeddings.vec",
            "posts": dataset / "posts.jsonl",
            "labels": dataset / "labels.csv",
        }
        lines = paths[which].read_bytes().split(b"\n")
        line = len(lines) - 3
        lines[line - 1] = lines[line - 1][:4] + b"\xff" + lines[line - 1][4:]
        paths[which] = tmp_path / paths[which].name
        paths[which].write_bytes(b"\n".join(lines))
        proc = run_cli_subprocess(
            "train", "--posts", paths["posts"], "--labels", paths["labels"],
            "--embeddings", paths["embeddings"], "--output-dir", tmp_path / "o",
        )
        assert proc.returncode == 2
        assert f"{paths[which]}:{line}: not UTF-8: byte 0xff at column 5" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "source, path, value, command",
        [
            ("trained", ("weights", 0), "nan", "predict"),
            ("trained", ("weights", 0), "nan", "rank-words"),
            ("trained", ("bias",), "inf", "predict"),
            ("trained", ("lambda",), "-inf", "predict"),
            ("trained", ("training_meta", "target_mean"), "nan", "predict"),
            ("trained", ("training_meta", "target_sd"), "inf", "rank-words"),
            ("tfidf_trained", ("tfidf", "idf", None), "nan", "predict"),
        ],
        ids=["weights-predict", "weights-rank-words", "bias", "lambda", "target_mean",
             "target_sd", "idf"],
    )
    def test_non_finite_model_number_is_2_before_posts(
        self, request, dataset, tmp_path, capsys, source, path, value, command
    ):
        """A model file with NaN or +-inf in a number is refused, naming the
        file and the field (the last name in ``path``; None there stands for
        the first term). The posts file is broken, so an error naming the
        model shows that it came before any post was read."""
        payload = json.loads((request.getfixturevalue(source) / "model.json").read_text(encoding="utf-8"))
        *parents, leaf = path
        node = payload
        for key in parents:
            node = node[key]
        node[next(iter(node)) if leaf is None else leaf] = float(value)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        posts = tmp_path / "posts.jsonl"
        posts.write_text("{broken\n", encoding="utf-8")
        code = run_cli(
            command, "--model", model, "--posts", posts, "--embeddings", dataset / "embeddings.vec",
            "--output-dir", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        field = [key for key in path if isinstance(key, str)][-1]
        assert f"{model}: " in err and field in err
        assert "posts.jsonl" not in err
        assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.fixture(scope="module")
def read_inputs(dataset, trained, tmp_path_factory):
    """The input files the dataset lacks, by flag: features, predictions, a
    stopword list and a list of two users to exclude."""
    d = tmp_path_factory.mktemp("read_inputs")
    assert run_cli("featurize", "--posts", dataset / "posts.jsonl", "--output-dir", d / "feat") == 0
    assert run_cli("predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
                   "--embeddings", dataset / "embeddings.vec", "--output-dir", d / "pred") == 0
    lines = (dataset / "embeddings.vec").read_text(encoding="utf-8").splitlines(True)
    words = [line.split(" ")[0] for line in lines[1:6]]
    (d / "stopwords.txt").write_text("".join(w + "\n" for w in words), encoding="utf-8")
    labels = (dataset / "labels.csv").read_text(encoding="utf-8").splitlines(True)
    (d / "exclude.csv").write_text("".join(labels[:3]), encoding="utf-8")
    return {"--features": d / "feat" / "features.csv", "--predictions": d / "pred" / "predictions.csv",
            "--stopwords": d / "stopwords.txt", "--exclude-users": d / "exclude.csv"}


def _reading_commands(d, model, tfidf_model, made):
    """(command, {input flag: file}, other flags) of every command that reads
    files, on dataset d, each with every input flag it reads."""
    posts, labels, vec = d / "posts.jsonl", d / "labels.csv", d / "embeddings.vec"
    tfidf = ["--vectorizer", "tfidf", "--top-terms", 40, "--lambda", 0.001]
    cases = {
        "featurize": ("featurize", {"--posts": posts}, []),
        "correlate": ("correlate", {"--features": made["--features"], "--labels": labels}, []),
        "predict-embedding": ("predict", {"--posts": posts, "--model": model, "--embeddings": vec}, []),
        "predict-tfidf": ("predict", {"--posts": posts, "--model": tfidf_model}, []),
        "aggregate": ("aggregate", {"--predictions": made["--predictions"], "--mapping": d / "mapping.csv",
                                    "--reference": d / "reference.csv",
                                    "--exclude-users": made["--exclude-users"]}, ["--min-users", 1]),
        "rank-words-posts": ("rank-words", {"--model": model, "--embeddings": vec, "--posts": posts}, []),
        "rank-words-freq": ("rank-words", {"--model": model, "--embeddings": vec, "--freq": d / "freq.csv"},
                            ["--min-count", 2]),
        "curve": ("curve", {"--posts": posts, "--labels": labels, "--embeddings": vec},
                  ["--n-max", 2, "--bootstrap", 100]),
    }
    for command in ("train", "evaluate"):
        training = {"--posts": posts, "--labels": labels}
        cases[f"{command}-embedding"] = (command, {**training, "--embeddings": vec}, [])
        cases[f"{command}-tfidf"] = (command, {**training, "--stopwords": made["--stopwords"]}, tfidf)
    return cases


_READING_COMMANDS = ["featurize", "correlate", "train-embedding", "train-tfidf", "evaluate-embedding",
                     "evaluate-tfidf", "predict-embedding", "predict-tfidf", "aggregate", "rank-words-posts",
                     "rank-words-freq", "curve"]


class TestInputRule:
    @pytest.mark.parametrize("case", _READING_COMMANDS)
    def test_inputs_checked_before_the_run_and_recorded(self, dataset, trained, tfidf_trained, read_inputs,
                                                        tmp_path, capsys, cold_table_cache, case):
        """Each input removed in turn: exit 2 naming it, before any output
        directory or cache entry is made. All present: the manifest records
        exactly the input flags given, each with its file's sha256."""
        cases = _reading_commands(dataset, trained / "model.json", tfidf_trained / "model.json", read_inputs)
        command, files, flags = cases[case]
        copies = {}
        for flag, source in files.items():
            copies[flag] = tmp_path / "in" / flag.lstrip("-") / source.name
            copies[flag].parent.mkdir(parents=True)
            shutil.copyfile(source, copies[flag])
        argv = [command, *flags, *(a for pair in copies.items() for a in pair)]
        out = tmp_path / "out"
        for path in copies.values():
            path.rename(path.with_suffix(".gone"))
            code = run_cli(*argv, "--output-dir", out)
            path.with_suffix(".gone").rename(path)
            assert code == 2
            assert f"postscore: data error: {path}: input file not found" in capsys.readouterr().err
            assert not out.exists()
            assert not cold_table_cache.exists()
        assert run_cli(*argv, "--output-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            flag[2:].replace("-", "_"): {"path": str(path), "sha256": dataio.sha256_file(path)}
            for flag, path in copies.items()
        }


    @pytest.mark.parametrize("case, flag, damage, message", [
        ("train-embedding", "--labels", "repeat", "duplicate user"),
        ("aggregate", "--reference", "repeat", "duplicate institution"),
        ("aggregate", "--exclude-users", "repeat", "duplicate user"),
        ("aggregate", "--predictions", "repeat", "duplicate user"),
        ("correlate", "--features", "repeat", "duplicate user"),
        ("rank-words-freq", "--freq", "repeat", "duplicate word"),
        ("aggregate", "--predictions", "negative", "negative n_posts_used -1"),
    ], ids=["labels", "reference", "exclude-users", "predictions", "features", "freq", "negative-posts-used"])
    def test_bad_keyed_input_is_data_error(self, dataset, trained, tfidf_trained, read_inputs, tmp_path, capsys,
                                           case, flag, damage, message):
        """A file keyed by user, institution or word whose first row is
        listed again at its end, or whose last n_posts_used is negative:
        exit 2 naming the file, its last line and the repeated key, and no
        output written."""
        cases = _reading_commands(dataset, trained / "model.json", tfidf_trained / "model.json", read_inputs)
        command, files, flags = cases[case]
        lines = files[flag].read_text(encoding="utf-8").splitlines(True)
        if damage == "repeat":
            lines.append(lines[1])
            message += f" {lines[1].split(',')[0]!r}"
        else:
            lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-1\n"
        files[flag] = tmp_path / files[flag].name
        files[flag].write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(command, *flags, *(a for pair in files.items() for a in pair), "--output-dir", out)
        assert code == 2
        assert f"postscore: data error: {files[flag]}:{len(lines)}: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        args = [
            "synth", "--seed", 9, "--vocab-size", 300, "--dim", 6, "--topics", 3,
            "--users", 12, "--posts-per-user", 4, "--tokens-per-post", 5,
            "--institutions", 2, "--users-per-institution", 3,
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--output-dir", a) == 0
        assert run_cli(*args, "--output-dir", b) == 0
        names = [p.name for p in a.iterdir()]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == ["manifest.json"] or mismatch == []  # paths differ
        # everything except the manifest (whose recorded paths differ) is identical
        assert sorted(match) == sorted(n for n in names if n not in mismatch)

    def test_same_output_dir_rerun_identical_including_manifest(self, tmp_path):
        out = tmp_path / "same"
        args = [
            "synth", "--seed", 4, "--vocab-size", 200, "--dim", 5, "--topics", 2,
            "--users", 8, "--posts-per-user", 3, "--tokens-per-post", 4,
            "--institutions", 2, "--users-per-institution", 2, "--output-dir", out,
        ]
        assert run_cli(*args) == 0
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli(*args) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == snapshot

    def test_threads_do_not_change_training(self, dataset, tmp_path):
        """--threads only splits post vectorization, whose means are
        bit-identical for any split, so the model and the LOOCV predictions
        are the same bytes."""
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            for command in ("train", "evaluate"):
                code = run_cli(
                    command, "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                    "--embeddings", dataset / "embeddings.vec", "--threads", threads,
                    "--output-dir", out / command,
                )
                assert code == 0
            outs.append([(out / "train" / "model.json").read_bytes(),
                         (out / "evaluate" / "loocv_predictions.csv").read_bytes()])
        assert outs[0] == outs[1]

    def test_blas_thread_environment_does_not_change_outputs(self, tmp_path):
        """At d=200, OpenBLAS splits some GEMMs and Cholesky factorizations
        differently on 2 threads than on 1, which moves the last bits of LOOCV.
        The CLI runs BLAS on one thread whatever the environment says, so each
        command writes the same bytes, manifest included, with the thread
        variables unset, at 1 and at 2. Unset means one thread per core: on a
        1-core host all three runs use one thread, and this test cannot fail."""
        data = tmp_path / "data"
        assert run_cli(
            "synth", "--seed", 1, "--vocab-size", 2000, "--dim", 200, "--users", 300,
            "--posts-per-user", 10, "--output-dir", data,
        ) == 0
        fit = ["--posts", data / "posts.jsonl", "--labels", data / "labels.csv"]
        embedding = [*fit, "--embeddings", data / "embeddings.vec"]
        commands = {
            "evaluate": ["evaluate", *embedding],
            "evaluate_tfidf": ["evaluate", *fit, "--vectorizer", "tfidf", "--top-terms", 200,
                               "--lambda", 0.001],
            "curve": ["curve", *embedding, "--n-max", 2, "--bootstrap", 100, "--lambda", 0.001],
        }
        src = str(Path(postscore.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        runs = {}
        for threads in (None, "1", "2"):
            env = dict(base)
            if threads:
                env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            files = {}
            for name, argv in commands.items():
                out = tmp_path / "out" / name  # the same path each time, so manifests compare
                proc = subprocess.run(
                    [sys.executable, "-m", "postscore", *map(str, argv), "--output-dir", str(out)],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
                files.update({f"{name}/{p.name}": p.read_bytes() for p in out.iterdir()})
                shutil.rmtree(out)
            runs[threads] = files
        assert len(runs[None]) == 8
        differ = {t: sorted(n for n in runs[None].keys() | runs[t].keys()
                            if runs[t].get(n) != runs[None].get(n)) for t in ("1", "2")}
        assert differ == {"1": [], "2": []}


# Runs CLI commands in one fresh interpreter and prints, after each, its exit
# code, the scipy modules loaded so far, whether numpy is loaded and the
# OpenBLAS libraries mapped (null on a host without /proc).
_IMPORT_PROBE = """
import json, os, sys
import postscore, postscore.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

def openblas_mapped():
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as f:
        paths = {fields[5] for fields in map(str.split, f) if len(fields) > 5}
    return sorted(os.path.basename(p) for p in paths if "openblas" in os.path.basename(p))

def state(code):
    return [code, scipy_modules(), "numpy" in sys.modules, openblas_mapped()]

loaded = {"import": state(0)}
for name, argv in json.loads(sys.argv[1]):
    loaded[name] = state(postscore.cli.main(argv))
print(json.dumps(loaded))
"""


class TestImportFootprint:
    def test_no_command_imports_scipy(self, dataset, trained, tmp_path):
        d, model = dataset, trained / "model.json"
        # featurize runs first: it and the import must leave numpy unloaded.
        steps = [
            ("featurize", ["featurize", "--posts", d / "posts.jsonl",
                           "--output-dir", tmp_path / "features"]),
            ("train", ["train", "--posts", d / "posts.jsonl", "--labels", d / "labels.csv",
                       "--embeddings", d / "embeddings.vec", "--output-dir", tmp_path / "train"]),
            ("train_tfidf", ["train", "--posts", d / "posts.jsonl", "--labels", d / "labels.csv",
                             "--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001,
                             "--output-dir", tmp_path / "train_tfidf"]),
            ("synth", ["synth", "--output-dir", tmp_path / "synth", "--vocab-size", 50,
                       "--dim", 4, "--topics", 2, "--users", 4, "--posts-per-user", 2,
                       "--tokens-per-post", 3, "--institutions", 1,
                       "--users-per-institution", 1]),
            ("correlate", ["correlate", "--features", tmp_path / "features" / "features.csv",
                           "--labels", d / "labels.csv", "--output-dir", tmp_path / "corr"]),
            ("predict", ["predict", "--posts", d / "posts.jsonl", "--model", model,
                         "--embeddings", d / "embeddings.vec", "--output-dir", tmp_path / "pred"]),
            ("rank-words", ["rank-words", "--model", model, "--embeddings", d / "embeddings.vec",
                            "--top", 15, "--bottom", 15, "--project-2d",
                            "--output-dir", tmp_path / "rank"]),
            ("aggregate", ["aggregate", "--predictions", tmp_path / "pred" / "predictions.csv",
                           "--mapping", d / "mapping.csv", "--reference", d / "reference.csv",
                           "--min-users", 3, "--output-dir", tmp_path / "agg"]),
            ("evaluate", ["evaluate", "--posts", d / "posts.jsonl", "--labels", d / "labels.csv",
                          "--embeddings", d / "embeddings.vec", "--output-dir", tmp_path / "eval"]),
            ("evaluate_tfidf", ["evaluate", "--posts", d / "posts.jsonl", "--labels", d / "labels.csv",
                                "--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001,
                                "--output-dir", tmp_path / "eval_tfidf"]),
            ("curve", ["curve", "--posts", d / "posts.jsonl", "--labels", d / "labels.csv",
                       "--embeddings", d / "embeddings.vec", "--n-max", 2, "--bootstrap", 100,
                       "--output-dir", tmp_path / "curve"]),
        ]
        payload = json.dumps([(name, [str(a) for a in argv]) for name, argv in steps])
        src = str(Path(postscore.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, payload], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        # LOOCV (evaluate, curve) binds LAPACK from numpy's own OpenBLAS, so
        # no step leaves a scipy module loaded, and one OpenBLAS is mapped.
        for name in ["import"] + [name for name, _ in steps]:
            assert loaded[name][:2] == [0, []], name
        for name in ["evaluate", "evaluate_tfidf", "curve"]:
            mapped = loaded[name][3]
            assert mapped is None or len(mapped) == 1, (name, mapped)
        assert loaded["import"][2] is False
        assert loaded["featurize"][2] is False
        # train loads numpy, so the probe sees numpy when it is loaded
        assert loaded["train"][2] is True


# Runs ``python -m postscore`` with the arguments given, through the real
# process entry, and prints at exit the postscore modules loaded and how many
# objects gc.freeze() moved to the permanent generation.
_AT_EXIT = """
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps([sorted(m for m in sys.modules if m.startswith("postscore")),
                                          gc.get_freeze_count()])))
sys.argv[0] = "postscore"
runpy.run_module("postscore", run_name="__main__", alter_sys=True)
"""

_ENTRY = {"postscore", "postscore.cli", "postscore.dataio", "postscore.errors"}
_MODEL_ROUTE = _ENTRY | {"postscore.cache", "postscore.embeddings", "postscore.model", "postscore.pipeline"}
_LOOCV = {"postscore.stats"}


def _subprocess_env():
    src = str(Path(postscore.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestProcessEntry:
    def test_warm_bench_commands_load_only_their_modules(self, dataset, tmp_path, monkeypatch):
        """Each command of the benchmark, run warm through ``python -m
        postscore``, exits 0 having loaded exactly the package modules its
        route runs: no textproc on a warm model command, no tfidf off the
        tf-idf route, no stats outside LOOCV and aggregate. Each froze the
        collector before exit."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import harness

        argv = harness.command_args(harness.WORKLOADS["smoke"], dataset, tmp_path / "cold")
        assert list(argv) == list(harness.COMMANDS)
        for args in argv.values():  # in process: fills the cache, and writes the model and predictions
            assert run_cli(*args) == 0
        expected = {
            "train": _MODEL_ROUTE,
            "evaluate": _MODEL_ROUTE | _LOOCV,
            "evaluate_tfidf": _MODEL_ROUTE | _LOOCV | {"postscore.tfidf"},
            "predict": _MODEL_ROUTE,
            "rank_words": _MODEL_ROUTE | {"postscore.wordrank"},
            "featurize": _ENTRY | {"postscore.textproc"},
            "aggregate": _ENTRY | {"postscore.stats", "postscore.transfer"},
            "curve": _MODEL_ROUTE | _LOOCV,
        }
        loaded = {}
        for stem, args in argv.items():
            args = [str(a) for a in args[: args.index("--output-dir")]] + ["--output-dir", str(tmp_path / stem)]
            proc = subprocess.run([sys.executable, "-c", _AT_EXIT, *args],
                                  capture_output=True, text=True, env=_subprocess_env())
            assert proc.returncode == 0, proc.stderr
            modules, frozen = json.loads(proc.stdout.splitlines()[-1])
            assert frozen > 0, stem
            loaded[stem] = set(modules)
        assert loaded == expected

    def test_main_in_process_leaves_gc_unfrozen(self, dataset, trained, tmp_path):
        """Only the process entry freezes the collector before exit:
        ``cli.main`` leaves it on and unfrozen, after a run that succeeds
        and after one that fails."""
        assert gc.get_freeze_count() == 0
        predict = ["predict", "--posts", dataset / "posts.jsonl", "--model", trained / "model.json",
                   "--embeddings", dataset / "embeddings.vec"]
        assert run_cli(*predict, "--output-dir", tmp_path / "ok") == 0
        assert run_cli(*predict[:-1], tmp_path / "missing.vec", "--output-dir", tmp_path / "bad") == 2
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_python_m_postscore_prints_and_exits_as_main_returns(self, dataset, cased_table, tmp_path):
        """``python -m postscore`` prints a command's summary and its
        ``warning:`` lines and exits 0, 2 or 3 as ``cli.main`` returns."""
        table, cased = cased_table
        fit = ["train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv"]
        proc = run_cli_subprocess(*fit, "--embeddings", table, "--output-dir", tmp_path / "ok")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("trained on ") and proc.stdout.count("\n") == 1
        assert proc.stderr == f"warning: {len(cased)} table words are not lowercase; no post token matches them\n"

        labels = (dataset / "labels.csv").read_text(encoding="utf-8").splitlines(True)
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(labels + labels[1:2]), encoding="utf-8")
        proc = run_cli_subprocess("train", "--posts", dataset / "posts.jsonl", "--labels", repeated,
                                  "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "a" / "b")
        assert proc.returncode == 2
        assert proc.stdout == ""
        user = labels[1].split(",")[0]
        assert proc.stderr == f"postscore: data error: {repeated}:{len(labels) + 1}: duplicate user {user!r}\n"
        assert not (tmp_path / "a").exists()

        few = tmp_path / "few.csv"
        few.write_text("".join(labels[:2]), encoding="utf-8")
        proc = run_cli_subprocess("train", "--posts", dataset / "posts.jsonl", "--labels", few,
                                  "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "singular")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("postscore: numerical failure: ")
        assert not (tmp_path / "singular").exists()

    def test_failed_run_removes_only_the_empty_directories_it_made(self, dataset, tmp_path):
        """A run that fails on a file's contents removes the output directory
        and the parents it made, and leaves a directory that was there."""
        labels = (dataset / "labels.csv").read_text(encoding="utf-8").splitlines(True)
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(labels + labels[1:2]), encoding="utf-8")
        train = ["train", "--posts", dataset / "posts.jsonl", "--labels", repeated,
                 "--embeddings", dataset / "embeddings.vec"]
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run_cli(*train, "--output-dir", kept / "a" / "b") == 2
        assert kept.is_dir() and not any(kept.iterdir())
        (kept / "earlier.txt").write_text("x")
        assert run_cli(*train, "--output-dir", kept) == 2
        assert [p.name for p in kept.iterdir()] == ["earlier.txt"]


def _table_commands(d, model):
    """argv of every command that reads a table, on dataset d."""
    fit = ["--posts", d / "posts.jsonl", "--labels", d / "labels.csv", "--embeddings", d / "embeddings.vec"]
    return {
        "train": ["train", *fit],
        "evaluate": ["evaluate", *fit],
        "predict": ["predict", "--posts", d / "posts.jsonl", "--model", model,
                    "--embeddings", d / "embeddings.vec"],
        "rank-words": ["rank-words", "--model", model, "--embeddings", d / "embeddings.vec",
                       "--posts", d / "posts.jsonl", "--project-2d", "--top", 20],
        "curve": ["curve", *fit, "--n-max", 2, "--bootstrap", 100],
    }


def _run_captured(capsys, argv, out):
    """(exit code, stdout, stderr, {name: bytes} of out) of one in-process
    run into a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    code = run_cli(*argv, "--output-dir", out)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture
def parses(monkeypatch):
    """A spy on EmbeddingTable.load_vec, the parser."""
    spy = mock.MagicMock(wraps=EmbeddingTable.load_vec)
    monkeypatch.setattr(EmbeddingTable, "load_vec", spy)
    return spy


class TestTableCache:
    def test_cold_and_warm_runs_byte_identical(self, dataset, trained, tmp_path, capsys,
                                               cold_table_cache, parses):
        """Each command parses the table on an empty cache and reads the
        entry on the next run: exit code, stdout, stderr, outputs and
        manifest are the same bytes."""
        for name, argv in _table_commands(dataset, trained / "model.json").items():
            shutil.rmtree(cold_table_cache, ignore_errors=True)
            out = tmp_path / name  # the same path both times, so manifests compare
            cold = _run_captured(capsys, argv, out)
            assert parses.call_count == 1, name
            warm = _run_captured(capsys, argv, out)
            assert parses.call_count == 1, name
            assert cold[0] == 0 and warm == cold, name
            parses.reset_mock()

    def test_hit_equals_parse(self, tmp_path, cold_table_cache, parses):
        """A hit gives the parse's words, float32 bits and fingerprint, from
        a read-only memory map."""
        rng = np.random.default_rng(3)
        words = ["a", "\u00fc", "\u65e5\u672c", "x" * 40, "b-c", "Cased"]
        vectors = rng.standard_normal((6, 7)).astype(np.float32)
        vectors[0, :3] = [np.float32(1e-42), np.float32(-3.4e38), np.float32(2.0**-20)]
        path = tmp_path / "table.vec"
        EmbeddingTable(words, vectors).save_vec(path)
        digest = dataio.sha256_file(path)
        parsed = EmbeddingTable.load_vec(path)
        cold, cold_key = load_vec_cached(path)
        hit, hit_key = load_vec_cached(path)
        assert cold_key == hit_key == digest
        assert parses.call_count == 2  # the direct parse and the cold load
        assert sorted(p.name for p in cold_table_cache.iterdir()) == [f"{digest}.table.json",
                                                                      f"{digest}.table.vectors.npy"]
        for table in (cold, hit):
            assert table.words == parsed.words == words
            assert table.vectors.dtype == np.float32
            assert np.array_equal(table.vectors.view(np.uint32), parsed.vectors.view(np.uint32))
            assert table.fingerprint() == parsed.fingerprint()
        assert isinstance(hit.vectors.base, np.memmap)
        assert not hit.vectors.flags.writeable

    def test_changed_value_in_cached_table_is_data_error(self, dataset, tmp_path, capsys):
        """A value of a cached table changed to nan changes the file's
        digest, so the parse names the line."""
        table = tmp_path / "table.vec"
        shutil.copy(dataset / "embeddings.vec", table)
        argv = ["train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                "--embeddings", table]
        assert run_cli(*argv, "--output-dir", tmp_path / "warm") == 0
        lines = table.read_text(encoding="utf-8").splitlines(True)
        fields = lines[5].split(" ")
        fields[3] = "nan"
        lines[5] = " ".join(fields)
        table.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(*argv, "--output-dir", tmp_path / "bad") == 2
        assert capsys.readouterr().err == f"postscore: data error: {table}:6: non-finite vector value\n"

    @pytest.mark.parametrize(
        "damage", ["truncated-vectors", "garbled-words", "wrong-fingerprint", "reordered-words",
                   "nan-in-vectors", "repeated-word", "missing-row", "other-format", "fortran-float64",
                   "float64", "fortran-order"]
    )
    def test_damaged_entry_is_parsed_and_rewritten(self, dataset, tmp_path, capsys, cold_table_cache,
                                                   parses, damage):
        """An entry that fails a check is a miss: the table is parsed, and
        the entry written again. Where the stored fingerprint could match
        the damaged entry, it is made to, so only the check named fails. The
        same values as float64 or in Fortran order would be read whole and
        copied, not memory-mapped, so they are a miss too."""
        argv = ["train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                "--embeddings", dataset / "embeddings.vec"]
        cold = _run_captured(capsys, argv, tmp_path / "out")
        entry = {p.name: p.read_bytes() for p in cold_table_cache.iterdir()}
        (vectors_name,) = (n for n in entry if n.endswith(".table.vectors.npy"))
        (words_name,) = (n for n in entry if n.endswith(".table.json"))
        vectors_file, words_file = cold_table_cache / vectors_name, cold_table_cache / words_name
        payload = json.loads(entry[words_name])
        vectors = np.load(vectors_file)

        def fingerprint(words, vectors):
            """fingerprint() of a table that EmbeddingTable would refuse."""
            unchecked = mock.Mock(_fingerprint=None, words=words, dim=vectors.shape[1], vectors=vectors)
            return EmbeddingTable.fingerprint(unchecked)

        if damage == "truncated-vectors":
            vectors_file.write_bytes(entry[vectors_name][:-4])
        elif damage == "garbled-words":
            words_file.write_bytes(entry[words_name][: len(entry[words_name]) // 2])
        elif damage == "wrong-fingerprint":
            payload["fingerprint"] = "0" * 64
        elif damage == "reordered-words":
            payload["words"][:2] = payload["words"][1::-1]
        elif damage == "nan-in-vectors":
            vectors[3, 2] = np.nan
            np.save(vectors_file, vectors)
            payload["fingerprint"] = fingerprint(payload["words"], vectors)
        elif damage == "repeated-word":
            payload["words"][1] = payload["words"][0]
            payload["fingerprint"] = fingerprint(payload["words"], vectors)
        elif damage == "missing-row":
            np.save(vectors_file, vectors[:-1])
            payload["fingerprint"] = fingerprint(payload["words"], vectors[:-1])
        elif damage == "other-format":
            payload["format"] += 1
        elif damage == "fortran-float64":
            np.save(vectors_file, np.asfortranarray(vectors, dtype=np.float64))
        elif damage == "float64":
            np.save(vectors_file, vectors.astype(np.float64))
        else:
            np.save(vectors_file, np.asfortranarray(vectors))
        if damage not in ("truncated-vectors", "garbled-words"):
            words_file.write_text(json.dumps(payload), encoding="utf-8")
        again = _run_captured(capsys, argv, tmp_path / "out")
        assert again == cold
        assert parses.call_count == 2
        assert {p.name: p.read_bytes() for p in cold_table_cache.iterdir()} == entry

    @pytest.mark.parametrize("blocked", ["cache-home", "cache-directory"])
    def test_unwritable_cache_is_silent(self, dataset, trained, tmp_path, capsys, monkeypatch, blocked):
        """A cache directory that cannot be made (a file stands at its
        path) changes nothing a command writes or prints."""
        commands = _table_commands(dataset, trained / "model.json")
        reference = {name: _run_captured(capsys, argv, tmp_path / name) for name, argv in commands.items()}
        home = tmp_path / "home"
        if blocked == "cache-home":
            home.write_text("")
        else:
            home.mkdir()
            (home / "postscore").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        for name, argv in commands.items():
            result = _run_captured(capsys, argv, tmp_path / name)
            assert result == reference[name] and result[0] == 0 and result[2] == "", name

    def test_table_changed_during_the_parse_is_not_stored(self, tmp_path, cold_table_cache,
                                                          monkeypatch):
        """A .vec rewritten while it is parsed may no longer hold the bytes
        its digest names, so no entry is written under that digest."""
        path = tmp_path / "table.vec"
        EmbeddingTable(["a", "b"], np.ones((2, 3), dtype=np.float32)).save_vec(path)
        load_vec = EmbeddingTable.load_vec

        def parse_then_rewrite(p):
            table = load_vec(p)
            EmbeddingTable(["a", "b"], np.zeros((2, 3), dtype=np.float32)).save_vec(path)
            os.utime(path, ns=(0, 0))  # a new time even where the clock is coarse
            return table

        monkeypatch.setattr(EmbeddingTable, "load_vec", parse_then_rewrite)
        assert load_vec_cached(path)[0].vectors[0, 0] == 1
        assert not cold_table_cache.exists()

    def test_each_command_hashes_the_table_once(self, dataset, trained, tmp_path, cold_table_cache,
                                                monkeypatch):
        """The digest that keys the cache is the manifest's: cold or warm,
        no command reads the .vec twice for hashing."""
        vec = dataset / "embeddings.vec"
        hashed = []
        sha256_file = dataio.sha256_file
        monkeypatch.setattr(dataio, "sha256_file", lambda p: hashed.append(Path(p)) or sha256_file(p))
        for name, argv in _table_commands(dataset, trained / "model.json").items():
            shutil.rmtree(cold_table_cache, ignore_errors=True)
            for run in ("cold", "warm"):
                hashed.clear()
                out = tmp_path / name / run
                assert run_cli(*argv, "--output-dir", out) == 0
                assert hashed.count(vec) == 1, (name, run)
                manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                assert manifest["inputs"]["embeddings"] == {"path": str(vec), "sha256": sha256_file(vec)}

    def test_entries_stay_within_the_limit(self, tmp_path, cold_table_cache, parses):
        """The least recently used entry goes first, and a hit counts as a
        use: after tables 0-3, a hit on 0, then tables 4 and 5, the cache
        holds 0, 3, 4 and 5 and nothing else."""
        assert cache.ENTRIES == 4
        keys, paths = [], []
        for i in range(6):
            paths.append(tmp_path / f"t{i}.vec")
            EmbeddingTable(["a", "b"], np.full((2, 3), i, dtype=np.float32)).save_vec(paths[-1])
            keys.append(dataio.sha256_file(paths[-1]))
        for i in [0, 1, 2, 3, 0, 4, 5]:
            time.sleep(0.02)  # file times tick as coarsely as 10 ms
            assert load_vec_cached(paths[i])[0].vectors[0, 0] == i
            assert len({p.name.partition(".")[0] for p in cold_table_cache.iterdir()}) <= 4
        assert parses.call_count == 6
        assert sorted(p.name for p in cold_table_cache.iterdir()) == sorted(
            f"{keys[i]}{ext}" for i in (0, 3, 4, 5) for ext in (".table.json", ".table.vectors.npy")
        )


def _posts_commands(d, model, tfidf_model):
    """argv of every command that reads a posts file's corpus, on dataset d."""
    fit = ["--posts", d / "posts.jsonl", "--labels", d / "labels.csv"]
    table = ["--embeddings", d / "embeddings.vec"]
    tfidf = ["--vectorizer", "tfidf", "--top-terms", 80, "--lambda", 0.001]
    return {
        "train": ["train", *fit, *table],
        "evaluate": ["evaluate", *fit, *table],
        "predict": ["predict", "--posts", d / "posts.jsonl", "--model", model, *table],
        "train-tfidf": ["train", *fit, *tfidf],
        "evaluate-tfidf": ["evaluate", *fit, *tfidf],
        "predict-tfidf": ["predict", "--posts", d / "posts.jsonl", "--model", tfidf_model],
        "curve": ["curve", *fit, *table, "--n-max", 2, "--bootstrap", 100],
        "rank-words": ["rank-words", "--model", model, *table, "--posts", d / "posts.jsonl",
                       "--min-count", 2],
    }


@pytest.fixture
def reads(monkeypatch):
    """A spy on dataio.iter_posts_jsonl, the posts reader."""
    spy = mock.MagicMock(wraps=dataio.iter_posts_jsonl)
    monkeypatch.setattr(dataio, "iter_posts_jsonl", spy)
    return spy


def _corpus_files(root):
    return sorted(p.name for p in root.iterdir() if ".posts." in p.name) if root.exists() else []


# The files of a corpus entry, after its key.
_CORPUS_SUFFIXES = (".posts.codes.npy", ".posts.ids.npy", ".posts.json", ".posts.offsets.npy")


def _save_corpus_entry(root, key, codes, offsets, ids, meta):
    """Write a corpus entry's files as the cache lays them out."""
    for name, a in (("codes", codes), ("offsets", offsets), ("ids", ids)):
        np.save(root / f"{key}.posts.{name}.npy", a)
    (root / f"{key}.posts.json").write_text(json.dumps(meta), encoding="utf-8")


class TestCorpusCache:
    def test_cold_and_warm_runs_byte_identical(self, dataset, trained, tfidf_trained, tmp_path, capsys,
                                               cold_table_cache, reads):
        """Each command reads the posts file on an empty cache and loads its
        corpus on the next run: exit code, stdout, stderr, outputs and
        manifest are the same bytes."""
        digest = dataio.sha256_file(dataset / "posts.jsonl")
        commands = _posts_commands(dataset, trained / "model.json", tfidf_trained / "model.json")
        for name, argv in commands.items():
            shutil.rmtree(cold_table_cache, ignore_errors=True)
            out = tmp_path / name
            cold = _run_captured(capsys, argv, out)
            assert reads.call_count == 1, name
            assert _corpus_files(cold_table_cache) == [f"{digest}{ext}" for ext in _CORPUS_SUFFIXES]
            warm = _run_captured(capsys, argv, out)
            assert reads.call_count == 1, name
            assert cold[0] == 0 and warm == cold, name
            reads.reset_mock()

    def test_hit_equals_read(self, dataset, cold_table_cache, reads):
        """A hit gives the read's users, codes, tokens, ids, offsets and
        stats."""
        path = dataset / "posts.jsonl"
        digest = dataio.sha256_file(path)
        cold, cold_key = pipeline.load_corpus(path)
        hit, hit_key = pipeline.load_corpus(path)
        assert cold_key == hit_key == digest
        assert reads.call_count == 1
        for a, b in ((cold, hit), (hit, cold)):
            assert a.users == b.users and a.tokens == b.tokens and a.stats == b.stats
            for name in ("codes", "ids", "offsets"):
                assert getattr(a, name).dtype == getattr(b, name).dtype
                assert np.array_equal(getattr(a, name), getattr(b, name))
        clean = pipeline.load_clean_posts(path)
        assert token_lists(hit) == [tp.tokens for tp in clean]
        assert [hit.users[c] for c in hit.codes] == [tp.user_id for tp in clean]

    @pytest.mark.parametrize(
        "damage", ["truncated-arrays", "id-out-of-range", "code-out-of-range", "offsets-not-monotone",
                   "other-format", "garbled-meta", "digest-mismatch", "repeated-token", "nested-meta"]
    )
    def test_damaged_entry_is_read_and_rewritten(self, dataset, tmp_path, capsys, cold_table_cache, reads,
                                                 damage):
        """An entry that fails a check is a miss: the posts are read again
        and the entry written again. Where the stored digest could match the
        damaged entry, it is made to, so only the check named fails. Brackets
        nested past the recursion limit in the JSON file are a miss too."""
        argv = ["train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                "--embeddings", dataset / "embeddings.vec"]
        cold = _run_captured(capsys, argv, tmp_path / "out")
        entry = {p.name: p.read_bytes() for p in cold_table_cache.iterdir()}
        key = dataio.sha256_file(dataset / "posts.jsonl")
        corpus, _ = pipeline.load_corpus(dataset / "posts.jsonl")
        codes, offsets, ids = corpus.codes.copy(), corpus.offsets.copy(), corpus.ids.copy()
        tokens = list(corpus.tokens)
        meta = json.loads(entry[f"{key}.posts.json"])
        if damage == "truncated-arrays":
            (cold_table_cache / f"{key}.posts.ids.npy").write_bytes(entry[f"{key}.posts.ids.npy"][:-4])
        elif damage == "garbled-meta":
            garbled = entry[f"{key}.posts.json"]
            (cold_table_cache / f"{key}.posts.json").write_bytes(garbled[: len(garbled) // 2])
        elif damage == "nested-meta":
            (cold_table_cache / f"{key}.posts.json").write_text("[" * 200_000 + "]" * 200_000)
        else:
            if damage == "id-out-of-range":
                ids[5] = len(tokens)
            elif damage == "code-out-of-range":
                codes[7] = len(corpus.users)
            elif damage == "offsets-not-monotone":
                i = int(np.flatnonzero(offsets[2:] > offsets[1:-1])[0]) + 1
                offsets[i], offsets[i + 1] = offsets[i + 1], offsets[i]
            elif damage == "other-format":
                meta["format"] += 1
            elif damage == "digest-mismatch":  # two different ids swapped
                i = int(np.flatnonzero(ids[1:] != ids[:-1])[0])
                ids[i], ids[i + 1] = ids[i + 1], ids[i]
            elif damage == "repeated-token":
                tokens[1] = tokens[0]
                meta["tokens"] = tokens
            if damage != "digest-mismatch":
                damaged = pipeline.Corpus(tokens, ids, offsets, corpus.users, codes, corpus.stats)
                meta["digest"] = damaged.digest()
            _save_corpus_entry(cold_table_cache, key, codes, offsets, ids, meta)
        again = _run_captured(capsys, argv, tmp_path / "out")
        assert again == cold
        assert reads.call_count == 2
        assert {p.name: p.read_bytes() for p in cold_table_cache.iterdir()} == entry

    @pytest.mark.parametrize("emptied", ["table.vectors.npy", "table.json", "posts.codes.npy",
                                         "posts.offsets.npy", "posts.ids.npy", "posts.json"])
    def test_empty_entry_file_is_a_miss(self, dataset, tmp_path, capsys, cold_table_cache, emptied):
        """An entry file left empty (numpy raises EOFError, not ValueError,
        on one) is a miss like any other damage: the input is parsed again
        and the entry written again."""
        argv = ["train", "--posts", dataset / "posts.jsonl", "--labels", dataset / "labels.csv",
                "--embeddings", dataset / "embeddings.vec"]
        cold = _run_captured(capsys, argv, tmp_path / "out")
        entry = {p.name: p.read_bytes() for p in cold_table_cache.iterdir()}
        key = dataio.sha256_file(dataset / ("posts.jsonl" if "posts" in emptied else "embeddings.vec"))
        (cold_table_cache / f"{key}.{emptied}").write_bytes(b"")
        assert _run_captured(capsys, argv, tmp_path / "out") == cold
        assert {p.name: p.read_bytes() for p in cold_table_cache.iterdir()} == entry

    def test_bad_line_exits_2_and_stores_nothing(self, dataset, tmp_path, capsys, cold_table_cache):
        """A posts file whose line 3 is not JSON exits 2 naming line 3 on
        every run, and never gets an entry."""
        lines = (dataset / "posts.jsonl").read_text(encoding="utf-8").splitlines(True)
        lines[2] = "{not json\n"
        posts = tmp_path / "posts.jsonl"
        posts.write_text("".join(lines), encoding="utf-8")
        for command in ("train", "evaluate", "curve"):
            for _ in range(2):
                argv = [command, "--posts", posts, "--labels", dataset / "labels.csv",
                        "--embeddings", dataset / "embeddings.vec", "--output-dir", tmp_path / "out"]
                capsys.readouterr()
                assert run_cli(*argv) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"postscore: data error: {posts}:3: invalid JSON"), err
                assert _corpus_files(cold_table_cache) == []

    def test_posts_changed_during_the_read_are_not_stored(self, dataset, tmp_path, cold_table_cache,
                                                          monkeypatch):
        """A posts file rewritten while it is read may no longer hold the
        bytes its digest names, so no entry is written under that digest."""
        path = tmp_path / "posts.jsonl"
        shutil.copy(dataset / "posts.jsonl", path)
        iter_posts = dataio.iter_posts_jsonl

        def read_then_rewrite(p):
            yield from iter_posts(p)
            path.write_text('{"user_id": "u", "post_id": "p", "text": "other words"}\n', encoding="utf-8")
            os.utime(path, ns=(0, 0))  # a new time even where the clock is coarse

        monkeypatch.setattr(dataio, "iter_posts_jsonl", read_then_rewrite)
        corpus, _ = pipeline.load_corpus(path)
        assert len(corpus) == len(pipeline.load_clean_posts(dataset / "posts.jsonl"))
        assert not cold_table_cache.exists()

    @pytest.mark.parametrize("rewritten", ["embeddings", "posts"])
    def test_file_rewritten_after_its_hash_is_not_stored(self, dataset, tmp_path, capsys,
                                                         cold_table_cache, monkeypatch, rewritten):
        """A file rewritten just after it was hashed, before the cache looks
        at it, is loaded from its new bytes and stored under no digest: its
        stamp is taken before the hash."""
        inputs = {"embeddings": tmp_path / "table.vec", "posts": tmp_path / "posts.jsonl"}
        shutil.copy(dataset / "embeddings.vec", inputs["embeddings"])
        shutil.copy(dataset / "posts.jsonl", inputs["posts"])
        target = inputs[rewritten]
        old = dataio.sha256_file(target)
        lines = target.read_text(encoding="utf-8").splitlines(True)
        sha256_file = dataio.sha256_file

        if rewritten == "embeddings":  # one row fewer, and the header's count to match
            count, dim = lines[0].split()
            lines[0] = f"{int(count) - 1} {dim}\n"

        def hash_then_rewrite(p):
            digest = sha256_file(p)
            if Path(p) == target:
                target.write_text("".join(lines[:-1]), encoding="utf-8")
                os.utime(target, ns=(0, 0))  # a new time even where the clock is coarse
            return digest

        monkeypatch.setattr(dataio, "sha256_file", hash_then_rewrite)
        argv = ["train", "--posts", inputs["posts"], "--labels", dataset / "labels.csv",
                "--embeddings", inputs["embeddings"], "--output-dir", tmp_path / "out"]
        assert run_cli(*argv) == 0
        assert not [p.name for p in cold_table_cache.iterdir() if p.name.startswith(old)]

    def test_each_command_hashes_the_posts_once(self, dataset, trained, tfidf_trained, tmp_path,
                                                cold_table_cache, monkeypatch):
        """The digest that keys the corpus is the manifest's: cold or warm,
        no command reads the posts file twice for hashing."""
        posts = dataset / "posts.jsonl"
        hashed = []
        sha256_file = dataio.sha256_file
        monkeypatch.setattr(dataio, "sha256_file", lambda p: hashed.append(Path(p)) or sha256_file(p))
        commands = _posts_commands(dataset, trained / "model.json", tfidf_trained / "model.json")
        for name, argv in commands.items():
            shutil.rmtree(cold_table_cache, ignore_errors=True)
            for run in ("cold", "warm"):
                hashed.clear()
                out = tmp_path / name / run
                assert run_cli(*argv, "--output-dir", out) == 0
                assert hashed.count(posts) == 1, (name, run)
                manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                assert manifest["inputs"]["posts"] == {"path": str(posts), "sha256": sha256_file(posts)}

    def test_corpora_have_their_own_limit(self, tmp_path, cold_table_cache, reads):
        """Corpora fill their own bound, least recently used out first, and
        leave tables alone; tables filling theirs leave corpora alone."""
        assert cache.ENTRIES == 4
        vec = tmp_path / "t.vec"
        EmbeddingTable(["a", "b"], np.ones((2, 3), dtype=np.float32)).save_vec(vec)
        table_key = dataio.sha256_file(vec)
        load_vec_cached(vec)
        keys, paths = [], []
        for i in range(6):
            paths.append(tmp_path / f"p{i}.jsonl")
            paths[-1].write_text(json.dumps({"user_id": "u", "post_id": "p", "text": f"w{i}"}) + "\n",
                                 encoding="utf-8")
            keys.append(dataio.sha256_file(paths[-1]))
        for i in [0, 1, 2, 3, 0, 4, 5]:
            time.sleep(0.02)  # file times tick as coarsely as 10 ms
            assert pipeline.load_corpus(paths[i])[0].tokens == [f"w{i}"]
        assert reads.call_count == 6
        assert _corpus_files(cold_table_cache) == sorted(
            f"{keys[i]}{ext}" for i in (0, 3, 4, 5) for ext in _CORPUS_SUFFIXES
        )
        assert {f"{table_key}.table.json", f"{table_key}.table.vectors.npy"} <= {
            p.name for p in cold_table_cache.iterdir()}
        for i in range(5):
            time.sleep(0.02)
            other = tmp_path / f"t{i}.vec"
            EmbeddingTable(["a", "b"], np.full((2, 3), i + 2, dtype=np.float32)).save_vec(other)
            load_vec_cached(other)
        assert len(_corpus_files(cold_table_cache)) == 16
        assert not (cold_table_cache / f"{table_key}.table.json").exists()
