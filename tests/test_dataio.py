import json

import numpy as np
import pytest

from postscore import dataio
from postscore.errors import DataFormatError
from postscore.model import CurvePoint, LinearModel, TrainingMeta, UserPrediction
from postscore.stats import CorrelationReport
from postscore.textproc import FEATURE_COLUMNS, RawPost, UserSurfaceFeatures
from postscore.tfidf import build_vocab
from postscore.transfer import InstitutionScore
from postscore.wordrank import WordScore


class TestPostsJsonl:
    def test_round_trip(self, tmp_path):
        posts = [
            RawPost("u1", "p1", "привет мир"),
            RawPost("u2", "p2", "", is_repost=True),
            RawPost("u2", "p3", 'with "quotes" and \\ backslash'),
        ]
        path = tmp_path / "posts.jsonl"
        dataio.write_posts_jsonl(path, posts)
        assert list(dataio.iter_posts_jsonl(path)) == posts

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"user_id":"u","post_id":"p","text":"ok"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            list(dataio.iter_posts_jsonl(path))
        assert ":2" in str(err.value)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"user_id":"u","text":"ok"}\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match="post_id"):
            list(dataio.iter_posts_jsonl(path))

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('{"user_id":1,"post_id":"p","text":"ok"}\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match="type"):
            list(dataio.iter_posts_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('\n{"user_id":"u","post_id":"p","text":"ok"}\n\n', encoding="utf-8")
        assert len(list(dataio.iter_posts_jsonl(path))) == 1


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        labels = {"u1": 512.25, "u2": 488.0}
        path = tmp_path / "labels.csv"
        dataio.write_labels_csv(path, labels)
        assert dataio.read_labels_csv(path) == labels

    def test_header_required(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("user,value\nu1,5\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="header"):
            dataio.read_labels_csv(path)

    def test_duplicate_user_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("user_id,score\nu1,5\nu1,6\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            dataio.read_labels_csv(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("user_id,score\nu1,five\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            dataio.read_labels_csv(path)
        assert ":2" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "NaN"])
    def test_nonfinite_score_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "labels.csv"
        path.write_text(f"user_id,score\nu1,5\nu2,{value}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="score must be finite") as err:
            dataio.read_labels_csv(path)
        assert "labels.csv:3" in str(err.value)


class TestReferenceCsv:
    def test_duplicate_institution_names_line(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text("institution_id,score\ni1,500\ni2,480\ni1,510\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate institution 'i1'") as err:
            dataio.read_reference_csv(path)
        assert "reference.csv:4" in str(err.value)

    def test_nonfinite_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "reference.csv"
        path.write_text("institution_id,score\ni1,inf\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="score must be finite") as err:
            dataio.read_reference_csv(path)
        assert "reference.csv:2" in str(err.value)


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        preds = [UserPrediction("u1", 501.5, 3), UserPrediction("u2", 499.0, 0)]
        path = tmp_path / "pred.csv"
        dataio.write_predictions_csv(path, preds)
        assert dataio.read_predictions_csv(path) == preds


class TestFreqCsv:
    @pytest.mark.parametrize("text, counts", [
        ("", {}),
        ("word,count\n", {}),
        ("b,3\na,0\n", {"b": 3, "a": 0}),
        ("word,count\nb,3\n\na,0\n", {"b": 3, "a": 0}),
    ])
    def test_header_optional_and_empty_file_has_no_counts(self, tmp_path, text, counts):
        path = tmp_path / "freq.csv"
        path.write_text(text, encoding="utf-8")
        freq = dataio.read_freq_csv(path)
        assert freq == counts and list(freq) == list(counts)


def _features(user, *values):
    return {**dict(zip(FEATURE_COLUMNS, values)), "user_id": user}


@pytest.mark.parametrize("reader, header, rows, expected", [
    (dataio.read_labels_csv, dataio.LABELS_HEADER, ["u2,1.5", "u1,2"], {"u2": 1.5, "u1": 2.0}),
    (dataio.read_reference_csv, dataio.REFERENCE_HEADER, ["i2,480", "i1,1e2"], {"i2": 480.0, "i1": 100.0}),
    (dataio.read_freq_csv, dataio.FREQ_HEADER, ["b,3", "a,0"], {"b": 3, "a": 0}),
    (dataio.read_predictions_csv, dataio.PREDICTIONS_HEADER, ["u2,501.5,3", "u1,-2,0"],
     [UserPrediction("u2", 501.5, 3), UserPrediction("u1", -2.0, 0)]),
    (dataio.read_features_csv, dataio.FEATURES_HEADER, ["u2,0.1,0,0,1,2,3,4,1.5", "u1,0,0,0,0,1,1,1,0"],
     [_features("u2", 0.1, 0, 0, 1, 2, 3, 4, 1.5), _features("u1", 0, 0, 0, 0, 1, 1, 1, 0)]),
])
def test_keyed_readers_keep_file_order(tmp_path, reader, header, rows, expected):
    path = tmp_path / "keyed.csv"
    path.write_text("".join(line + "\n" for line in [",".join(header), *rows]), encoding="utf-8")
    values = reader(path)
    assert values == expected and list(values) == list(expected)


class TestOtherWriters:
    def test_report_csv_shape(self, tmp_path):
        rep = CorrelationReport(r=0.5, n=100, p_two_sided=1e-7, r_squared=0.25)
        path = tmp_path / "report.csv"
        dataio.write_report_csv(path, [("metric_x", rep)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,r,n,p,r_squared"
        assert lines[1].startswith("metric_x,0.5,100,")

    def test_institutions_csv_blank_reference(self, tmp_path):
        scores = [
            InstitutionScore("i1", 5, 40, 501.0, reference=480.0),
            InstitutionScore("i2", 6, 50, 502.0, reference=None),
        ]
        path = tmp_path / "inst.csv"
        dataio.write_institutions_csv(path, scores)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "institution_id,n_users,n_posts,predicted_mean,reference"
        assert lines[2].endswith(",")

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        dataio.write_curve_csv(path, [CurvePoint(1, 0.2, 0.1, 0.3)])
        assert path.read_text(encoding="utf-8").splitlines()[0] == "n_posts,r,ci_low,ci_high"

    def test_features_header_is_the_documented_contract(self, tmp_path):
        f = UserSurfaceFeatures("u", 0.1, 0.0, 0.0, 1.0, 2.0, 3.0, 4, 1.5, n_posts=2)
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, [f])
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "user_id,caps_rate,emoji_rate,exclaim_rate,latin_rate,"
            "avg_post_len,avg_word_len,vocab_size,entropy_bits"
        )


_REPORT = CorrelationReport(r=0.5, n=100, p_two_sided=1e-7, r_squared=0.25)
_FEATURES = UserSurfaceFeatures("u", 0.1, 0.0, 0.0, 1.0, 2.0, 3.0, 4, 1.5, n_posts=2)
# name -> (header, rows) for dataio.write_<name>_csv
CSV_WRITERS = {
    "labels": (dataio.LABELS_HEADER, {"u1": 1.5, "u2": 2.0}),
    "mapping": (dataio.MAPPING_HEADER, {"u1": "i1", "u2": "i2"}),
    "reference": (dataio.REFERENCE_HEADER, {"i1": 480.0}),
    "freq": (dataio.FREQ_HEADER, {"a": 3, "b": 1}),
    "tfidf_vocab": (["term", "df", "idf"], build_vocab([["a", "b"], ["b"]], k=3)),
    "features": (dataio.FEATURES_HEADER, [_FEATURES]),
    "predictions": (dataio.PREDICTIONS_HEADER, [UserPrediction("u1", 501.5, 3)]),
    "report": (dataio.REPORT_HEADER, [("metric_x", _REPORT)]),
    "institutions": (dataio.INSTITUTIONS_HEADER, [InstitutionScore("i1", 5, 40, 501.0)]),
    "excluded": (["institution_id", "n_users"], [("i2", 1)]),
    "ranking": (dataio.RANKING_HEADER, [WordScore("a", 1.5, None, 100.0)]),
    "plot": (dataio.PLOT_HEADER, [("a", 0.5, -0.5, 1.5)]),
    "curve": (dataio.CURVE_HEADER, [CurvePoint(1, 0.2, 0.1, 0.3)]),
}


@pytest.mark.parametrize("name", sorted(CSV_WRITERS))
def test_csv_writers_emit_header_and_lf_only(tmp_path, name):
    header, rows = CSV_WRITERS[name]
    path = tmp_path / f"{name}.csv"
    getattr(dataio, f"write_{name}_csv")(path, rows)
    data = path.read_bytes()
    assert data.startswith(",".join(header).encode("utf-8") + b"\n")
    assert b"\r" not in data
    assert data.endswith(b"\n") and data.count(b"\n") == 1 + len(rows)


class TestModelJson:
    def _model(self):
        meta = TrainingMeta(n_posts=4, n_users=2, target_mean=500.0, target_sd=80.0,
                            embedding_fingerprint="deadbeef")
        return LinearModel(weights=np.array([0.5, -1.5]), bias=2.5, lam=0.25, d=2,
                           training_meta=meta)

    def test_round_trip_with_extra_payload(self, tmp_path):
        path = tmp_path / "model.json"
        dataio.save_model_json(path, self._model(), extra={"vectorizer": "tfidf"})
        model, payload = dataio.load_model_json(path)
        assert model.bias == 2.5
        assert payload["vectorizer"] == "tfidf"
        assert payload["lambda"] == 0.25

    def test_schema_keys_pinned(self, tmp_path):
        path = tmp_path / "model.json"
        dataio.save_model_json(path, self._model())
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"format_version", "d", "lambda", "weights", "bias", "training_meta"}
        assert set(payload["training_meta"]) == {
            "n_posts", "n_users", "target_mean", "target_sd", "embedding_fingerprint"
        }

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataFormatError):
            dataio.load_model_json(path)


class TestManifest:
    def test_deterministic_and_hashes_inputs(self, tmp_path):
        data = tmp_path / "in.txt"
        data.write_text("payload", encoding="utf-8")
        out = tmp_path / "out.txt"
        out.write_text("result", encoding="utf-8")
        m1 = dataio.write_manifest(tmp_path, "cmd", {"k": 1}, {"in": data}, {"out": out}, seed=5)
        first = m1.read_bytes()
        m2 = dataio.write_manifest(tmp_path, "cmd", {"k": 1}, {"in": data}, {"out": out}, seed=5)
        assert m2.read_bytes() == first
        payload = json.loads(first)
        assert payload["seed"] == 5
        assert payload["inputs"]["in"]["sha256"] == dataio.sha256_file(data)
        assert "timestamp" not in payload
