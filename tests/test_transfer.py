import numpy as np
import pytest

from postscore.model import UserPrediction
from postscore.transfer import aggregate, build_mapping, compare


def _preds(pairs):
    return [UserPrediction(u, v, n) for u, v, n in pairs]


class TestBuildMapping:
    def test_multi_institution_users_excluded(self):
        mapping = build_mapping([("u1", "a"), ("u2", "a"), ("u1", "b"), ("u3", "c")])
        assert mapping == {"u2": "a", "u3": "c"}

    def test_duplicate_identical_pairs_tolerated(self):
        mapping = build_mapping([("u1", "a"), ("u1", "a")])
        assert mapping == {"u1": "a"}


class TestAggregate:
    def test_unweighted_mean(self):
        preds = _preds([("u1", 490.0, 3), ("u2", 510.0, 8)])
        result = aggregate(preds, {"u1": "i1", "u2": "i1"}, min_users=1)
        (score,) = result.scores
        assert score.predicted_mean == pytest.approx(500.0)
        assert score.n_users == 2
        assert score.n_posts == 11

    def test_min_users_drops_and_reports(self):
        preds = _preds([("u1", 1.0, 1), ("u2", 2.0, 1), ("u3", 3.0, 1), ("u4", 4.0, 1), ("u5", 5.0, 1)])
        mapping = {"u1": "big", "u2": "big", "u3": "big", "u4": "small", "u5": "small"}
        result = aggregate(preds, mapping, min_users=3)
        assert [s.institution_id for s in result.scores] == ["big"]
        assert result.excluded == [("small", 2)]

    def test_post_count_does_not_weight_users(self):
        heavy = _preds([("u1", 400.0, 100), ("u2", 600.0, 1)])
        result = aggregate(heavy, {"u1": "i", "u2": "i"}, min_users=1)
        assert result.scores[0].predicted_mean == pytest.approx(500.0)

    def test_exclude_users_removed_before_aggregation(self):
        preds = _preds([("u1", 100.0, 1), ("u2", 200.0, 1), ("u3", 300.0, 1)])
        mapping = {"u1": "i", "u2": "i", "u3": "i"}
        result = aggregate(preds, mapping, min_users=1, exclude_users={"u1"})
        assert result.scores[0].predicted_mean == pytest.approx(250.0)
        assert result.scores[0].n_users == 2

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError, match="maps"):
            aggregate(_preds([("u1", 1.0, 1)]), {"other": "i"}, min_users=1)

    def test_permutation_invariant(self):
        preds = _preds([("u%d" % i, float(i * 10), i + 1) for i in range(8)])
        mapping = {"u%d" % i: "i%d" % (i % 2) for i in range(8)}
        base = aggregate(preds, mapping, min_users=1)
        rng = np.random.default_rng(0)
        for _ in range(4):
            shuffled = [preds[i] for i in rng.permutation(len(preds))]
            assert aggregate(shuffled, mapping, min_users=1) == base

    def test_adding_institution_leaves_others_unchanged(self):
        preds = _preds([("u1", 10.0, 1), ("u2", 20.0, 1)])
        mapping = {"u1": "a", "u2": "a"}
        base = aggregate(preds, mapping, min_users=1).scores[0]
        more = preds + _preds([("u3", 99.0, 4)])
        mapping2 = dict(mapping, u3="b")
        again = [s for s in aggregate(more, mapping2, min_users=1).scores if s.institution_id == "a"]
        assert again == [base]


class TestCompare:
    def test_reports_both_correlations_and_matched_table(self):
        preds = _preds([(f"u{i}", v, 1) for i, v in enumerate([400.0, 450, 500, 550, 600, 610])])
        mapping = {f"u{i}": f"i{i // 2}" for i in range(6)}
        agg = aggregate(preds, mapping, min_users=1)
        reference = {"i0": 410.0, "i1": 520.0, "i2": 615.0}
        result = compare(agg.scores, reference)
        assert result.pearson.r > 0.9
        assert result.spearman.r == pytest.approx(1.0, abs=1e-12)
        assert len(result.matched) == 3
        assert all(s.reference is not None for s in result.matched)

    def test_too_few_matched_rejected(self):
        preds = _preds([("u1", 1.0, 1), ("u2", 2.0, 1)])
        agg = aggregate(preds, {"u1": "a", "u2": "b"}, min_users=1)
        with pytest.raises(ValueError, match="at least 3"):
            compare(agg.scores, {"a": 1.0, "b": 2.0})

    def test_spearman_stable_under_monotone_reference_rescaling(self):
        rng = np.random.default_rng(1)
        preds = _preds([(f"u{i}", float(rng.normal(500, 50)), 1) for i in range(10)])
        mapping = {f"u{i}": f"i{i}" for i in range(10)}
        agg = aggregate(preds, mapping, min_users=1)
        reference = {f"i{i}": float(rng.normal(60, 10)) for i in range(10)}
        warped = {k: np.expm1(v / 20.0) for k, v in reference.items()}
        a = compare(agg.scores, reference).spearman.r
        b = compare(agg.scores, warped).spearman.r
        assert a == pytest.approx(b, abs=1e-12)
