import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postscore import embeddings
from postscore import model as model_module
from postscore.errors import SingularSystemError
from postscore.model import (
    CurvePoint,
    LinearModel,
    TrainingMeta,
    TrainingSet,
    fit,
    loo_user_cv,
    posts_curve,
    score_tokenized_posts,
    _solve_spd,
)
from postscore.stats import bootstrap_ci, pearson_r

from oracles import gd_fit, loo_user_cv_full, post_vector, predict_post


def _ts(X, y, groups):
    return TrainingSet(X=np.asarray(X, float), y=np.asarray(y, float), groups=np.asarray(groups))


def _random_grouped(seed, n_users, posts_per_user, d, noise=5.0, y_scale=30.0, y_offset=500.0):
    rng = np.random.default_rng(seed)
    n = n_users * posts_per_user
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    users = np.repeat([f"u{i:04d}" for i in range(n_users)], posts_per_user)
    y = y_offset + y_scale * (X @ beta) + noise * rng.standard_normal(n)
    return _ts(X, y, users)


def _moment_views(seed, d1):
    """A random SPD (d+1)^2 system and its right-hand side, sliced as views
    from a (d+2)^2 moment matrix."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((2 * d1 + 4, d1 + 1))
    M = Z.T @ Z
    return M[:d1, :d1], M[:d1, d1]


def _prediction_bytes(predictions):
    """(user, n_posts_used) pairs and the float64 bytes of the predictions."""
    pairs = [(p.user_id, p.n_posts_used) for p in predictions]
    return pairs, np.array([p.predicted for p in predictions]).tobytes()


class TestLapackBinding:
    """LOOCV's LAPACK binding against scipy.linalg's public routines. The
    reference import loads scipy's LAPACK module a second time in this
    process, beside the binding's own load of it."""

    @pytest.mark.parametrize("d1", [1, 2, 51, 201])
    def test_bits_equal_cho_factor_and_cho_solve(self, d1):
        from scipy.linalg import cho_factor, cho_solve

        G, rhs = _moment_views(d1, d1)
        ref_factor, lower = cho_factor(G, lower=True, check_finite=False)
        ref_x = cho_solve((ref_factor, lower), rhs, check_finite=False)
        factor, info = model_module._lapack().dpotrf(G, lower=1, clean=0)
        assert info == 0
        assert factor.tobytes() == ref_factor.tobytes()
        assert _solve_spd(G, rhs, "u").tobytes() == ref_x.tobytes()

    def test_not_positive_definite_raises(self):
        G = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularSystemError, match="user 'u7'.*order 2.*lambda"):
            _solve_spd(G[:2, :2], G[:2, 2], "u7")

    def test_fallback_without_module_file_gives_same_bits(self, monkeypatch):
        """One system per user (d=6) and groups of 10 users (d=80), whose
        steps also take dtrtrs from the module."""
        from scipy.linalg import lapack

        G, rhs = _moment_views(3, 51)
        sets = [_random_grouped(22, n_users=17, posts_per_user=3, d=6),
                _random_grouped(23, n_users=100, posts_per_user=2, d=80)]
        assert model_module._group_size(80, 100, 2) == 10
        bound = _solve_spd(G, rhs, "u")
        bound_loo = [loo_user_cv(ts, lam=0.1) for ts in sets]
        monkeypatch.setattr(model_module, "_flapack_path", lambda: None)
        fallback = model_module._lapack.__wrapped__()  # bypass the per-process cache
        assert fallback is lapack
        monkeypatch.setattr(model_module, "_lapack", lambda: fallback)
        assert _solve_spd(G, rhs, "u").tobytes() == bound.tobytes()
        for ts, loo in zip(sets, bound_loo):
            assert _prediction_bytes(loo_user_cv(ts, lam=0.1)) == _prediction_bytes(loo)


class TestTrainingSet:
    @settings(max_examples=150, deadline=None)
    @given(labels=st.lists(st.text(alphabet="abé", max_size=2), max_size=60))
    def test_index_equals_dict_of_lists_grouping(self, labels):
        """users, index and offsets group interleaved labels as a dict of
        row lists does: sorted ids, each user's rows ascending."""
        n = len(labels)
        ts = _ts(np.zeros((n, 1)), np.zeros(n), np.asarray(labels, dtype=object))
        rows: dict = {}
        for i, u in enumerate(labels):
            rows.setdefault(u, []).append(i)
        users = sorted(rows)
        assert ts.users == users
        assert ts.offsets.tolist() == [0, *itertools.accumulate(len(rows[u]) for u in users)]
        assert ts.index.tolist() == [i for u in users for i in rows[u]]

    def test_construction_memory_is_the_row_index(self):
        """Building a 10,000 x 100 set (X of 8 MB) allocates about 20 bytes a
        row for the grouping and no n x d mask for the finiteness check,
        which would be 1 MB."""
        rng = np.random.default_rng(18)
        n = 10_000
        X = rng.standard_normal((n, 100))
        y = rng.standard_normal(n)
        groups = np.asarray([f"u{i:03d}" for i in rng.integers(0, 500, n)], dtype=object)
        tracemalloc.start()
        try:
            TrainingSet(X=X, y=y, groups=groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * n

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_value_rejected(self, where, value):
        X, y = np.ones((5, 3)), np.arange(5.0)
        if where == "X":
            X[3, 1] = value
        else:
            y[2] = value
        with pytest.raises(ValueError, match="non-finite"):
            _ts(X, y, list("aabbc"))

    def test_finite_extremes_accepted(self):
        """The largest finite values pass: min and max cannot overflow."""
        big = np.finfo(np.float64).max
        ts = _ts([[big, -big], [big, big]], [big, -big], ["a", "b"])
        assert ts.n_posts == 2


class TestFit:
    def test_exact_line(self):
        ts = _ts([[1.0], [2.0], [3.0]], [3.0, 5.0, 7.0], ["a", "b", "c"])
        model = fit(ts)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-12)
        assert model.bias == pytest.approx(1.0, abs=1e-12)

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        ts = _ts(X, np.full(20, 7.5), ["u%d" % i for i in range(20)])
        for lam in (0.0, 1.0, 100.0):
            model = fit(ts, lam=lam)
            assert model.weights == pytest.approx(np.zeros(3), abs=1e-9)
            assert model.bias == pytest.approx(7.5, abs=1e-9)

    def test_matches_gradient_descent_oracle(self):
        """Closed-form solution vs long-run GD on the same loss (5 instances)."""
        for seed in range(5):
            ts = _random_grouped(seed, n_users=10, posts_per_user=5, d=5)
            model = fit(ts)
            w_ref, b_ref = gd_fit(ts.X, ts.y, lam=0.0, tol=1e-10)
            assert model.weights == pytest.approx(w_ref, abs=1e-6)
            assert model.bias == pytest.approx(b_ref, abs=1e-6)

    def test_ridge_matches_gradient_descent_oracle(self):
        ts = _random_grouped(7, n_users=8, posts_per_user=5, d=4)
        lam = 3.5
        model = fit(ts, lam=lam)
        w_ref, b_ref = gd_fit(ts.X, ts.y, lam=lam, tol=1e-10)
        assert model.weights == pytest.approx(w_ref, abs=1e-6)
        assert model.bias == pytest.approx(b_ref, abs=1e-6)

    def test_underdetermined_needs_ridge(self):
        ts = _ts(np.eye(3), [1.0, 2.0, 3.0], ["a", "b", "c"])  # n = d < d+1
        with pytest.raises(SingularSystemError, match="lambda"):
            fit(ts, lam=0.0)
        fit(ts, lam=0.1)  # regularized solve goes through

    def test_no_columns_is_refused(self):
        ts = _ts(np.empty((3, 0)), [1.0, 2.0, 3.0], ["a", "b", "c"])
        with pytest.raises(ValueError, match="no columns"):
            fit(ts, lam=0.1)

    def test_duplicate_column_singular(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 1))
        X = np.hstack([x, x])
        ts = _ts(X, x[:, 0] * 2, ["u%d" % i for i in range(30)])
        with pytest.warns(RuntimeWarning, match="condition"):
            with pytest.raises(SingularSystemError):
                fit(ts, lam=0.0)

    def test_inexactly_collinear_columns_singular(self):
        """x3 = 0.1*x1 + 0.7*x2 in floating point is only nearly collinear; a
        Cholesky succeeds on many seeds, but the numerical-rank rule (smallest
        eigenvalue <= d*eps*largest) rejects every one."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 2))
            X = np.column_stack([x, 0.1 * x[:, 0] + 0.7 * x[:, 1]])
            ts = _ts(X, rng.standard_normal(40), ["u%d" % i for i in range(40)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(SingularSystemError, match="singular"):
                    fit(ts, lam=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        extra=st.integers(2, 40),
        lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        chunk_rows=st.sampled_from([None, 1, 3]),
    )
    def test_matches_augmented_lstsq_oracle(self, seed, d, extra, lam, chunk_rows):
        """Ridge with an unpenalized bias is least squares on [X 1; sqrt(lam)*I 0],
        with the Gram matrix summed in one chunk or in chunks of 1 or 3 rows."""
        rng = np.random.default_rng(seed)
        n = 2 * d + extra
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d) + rng.uniform(-3.0, 3.0, d)
        y = 100.0 + X @ rng.standard_normal(d) + rng.standard_normal(n)
        chunk_bytes = embeddings._CHUNK_BYTES if chunk_rows is None else chunk_rows * 8 * d
        with mock.patch.object(embeddings, "_CHUNK_BYTES", chunk_bytes):
            model = fit(_ts(X, y, ["u%d" % i for i in range(n)]), lam=lam)
        A = np.zeros((n + d, d + 1))
        A[:n, :d], A[:n, d] = X, 1.0
        A[n:, :d] = math.sqrt(lam) * np.eye(d)
        theta = np.linalg.lstsq(A, np.concatenate([y, np.zeros(d)]), rcond=None)[0]
        got = np.append(model.weights, model.bias)
        assert np.linalg.norm(got - theta) <= 1e-9 * np.linalg.norm(theta)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _ts([[np.nan]], [1.0], ["a"])

    def test_target_shift_equivariance(self):
        ts = _random_grouped(2, n_users=10, posts_per_user=4, d=6)
        m0 = fit(ts)
        shifted = _ts(ts.X, ts.y + 123.25, ts.groups)
        m1 = fit(shifted)
        assert m1.weights == pytest.approx(m0.weights, abs=1e-8)
        assert m1.bias - m0.bias == pytest.approx(123.25, abs=1e-8)

    def test_fit_is_a_loss_minimum(self):
        """Perturbing the solution along random directions never improves it."""
        ts = _random_grouped(3, n_users=12, posts_per_user=4, d=8)
        lam = 0.5
        model = fit(ts, lam=lam)

        def loss(w, b):
            resid = ts.X @ w + b - ts.y
            return float(resid @ resid + lam * (w @ w))

        base = loss(model.weights, model.bias)
        rng = np.random.default_rng(4)
        for _ in range(20):
            dw = rng.standard_normal(ts.d)
            db = float(rng.standard_normal())
            scale = 1e-3 / np.sqrt(dw @ dw + db * db)
            assert loss(model.weights + scale * dw, model.bias + scale * db) >= base

    def test_memory_beyond_X_is_a_chunk_and_d_squared(self):
        """The centered Gram matrix is summed over ~1 MB chunks of rows, so
        the peak beyond X stays within a few chunks and d x d matrices at
        n = 6,000 and 60,000 (X of 1.2 and 12 MB): no centered copy of X."""
        d = 25
        for n_users in (60, 600):
            ts = _random_grouped(17, n_users=n_users, posts_per_user=100, d=d)
            tracemalloc.start()
            try:
                fit(ts, lam=0.1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * embeddings._CHUNK_BYTES + 8 * d * d * 8

    def test_training_meta(self):
        ts = _random_grouped(5, n_users=6, posts_per_user=3, d=2)
        model = fit(ts, embedding_fingerprint="abc123")
        meta = model.training_meta
        assert meta.n_posts == 18
        assert meta.n_users == 6
        assert meta.target_mean == pytest.approx(float(ts.y.mean()))
        assert meta.embedding_fingerprint == "abc123"


class TestPredict:
    """Post scores on the route the CLI runs (``score_tokenized_posts``)."""

    def _model(self, w, b):
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=500.0, target_sd=1.0)
        w = np.asarray(w, dtype=np.float64)
        return LinearModel(weights=w, bias=b, lam=0.0, d=w.size, training_meta=meta)

    def _score(self, model, words, vectors, tokens):
        table = embeddings.EmbeddingTable(words, np.asarray(vectors, dtype=np.float32))
        scores, n_matched = score_tokenized_posts(model, table, [tokens])
        assert n_matched[0] > 0
        return float(scores[0])

    def test_dot_plus_bias(self):
        model = self._model([1.0, 1.0], 0.0)
        score = self._score(model, ["x", "y"], [[1.0, 0.0], [0.0, 1.0]], ["x", "y"])
        assert score == pytest.approx(1.0)

    def test_zero_vector_gives_bias(self):
        model = self._model([2.0, -1.0], 3.25)
        assert self._score(model, ["z"], [[0.0, 0.0]], ["z"]) == 3.25

    def test_dimension_mismatch(self):
        model = self._model([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="model dimension 2 does not match table dim 3"):
            self._score(model, ["x"], [[1.0, 2.0, 3.0]], ["x"])

    def test_affine_interpolation_identity(self):
        """A post of 3 x's and 7 z's scores as 0.3 x + 0.7 z, the mixture of
        the two one-word posts' scores, and as the oracle on that mean."""
        rng = np.random.default_rng(6)
        model = self._model(rng.standard_normal(4), 1.5)
        vectors = rng.standard_normal((2, 4)).astype(np.float32)
        x, z = vectors.astype(np.float64)
        alpha = 0.3

        def score(tokens):
            return self._score(model, ["x", "z"], vectors, tokens)

        blended = score(["x"] * 3 + ["z"] * 7)
        mixed = alpha * score(["x"]) + (1 - alpha) * score(["z"])
        assert blended == pytest.approx(mixed, abs=1e-12)
        assert blended == pytest.approx(predict_post(model, alpha * x + (1 - alpha) * z), abs=1e-12)


class TestLooUserCV:
    def test_two_user_exclusion_is_exact(self):
        # user B's posts lie exactly on y = 2x; user A's on y = 2x + 8.
        # Leaving A out fits B's line, so A's held-out predictions are 2 and 4
        # (mean 3) no matter what A's own targets said.
        ts = _ts(
            [[1.0], [2.0], [0.0], [1.0], [2.0]],
            [10.0, 12.0, 0.0, 2.0, 4.0],
            ["A", "A", "B", "B", "B"],
        )
        preds = {p.user_id: p for p in loo_user_cv(ts)}
        assert preds["A"].predicted == pytest.approx(3.0, abs=1e-9)
        assert preds["A"].n_posts_used == 2
        # and B's held-out prediction comes from A's line: mean(2x+8) over x=0,1,2
        assert preds["B"].predicted == pytest.approx((8.0 + 10.0 + 12.0) / 3, abs=1e-9)

    def test_matches_naive_retraining(self):
        """Downdated per-user systems vs from-scratch refits, 200x10."""
        ts = _random_grouped(8, n_users=20, posts_per_user=10, d=10)
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        for u in sorted(set(ts.groups.tolist())):
            keep = ts.groups != u
            model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]))
            held = ts.X[~keep]
            naive = float((held @ model.weights + model.bias).mean())
            assert abs(naive - fast[u]) < 1e-8

    def test_matches_naive_retraining_with_ridge(self):
        ts = _random_grouped(9, n_users=12, posts_per_user=6, d=8)
        lam = 2.0
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=lam)}
        for u in sorted(set(ts.groups.tolist())):
            keep = ts.groups != u
            model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]), lam=lam)
            naive = float((ts.X[~keep] @ model.weights + model.bias).mean())
            assert abs(naive - fast[u]) < 1e-8

    def test_own_rows_leave_prediction_bit_identical(self):
        """A user's held-out prediction cannot depend on their training rows."""
        ts = _random_grouped(10, n_users=8, posts_per_user=5, d=4)
        base = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        users = sorted(set(ts.groups.tolist()))
        for u in users[:3]:
            mine = ts.groups == u
            y2 = ts.y.copy()
            y2[mine] = 0.0  # zero the target; features stay (they are the
            # predict-time input), the training side must not see them
            X2 = ts.X.copy()
            mutated = _ts(X2, y2, ts.groups)
            pred = {p.user_id: p.predicted for p in loo_user_cv(mutated)}
            assert pred[u] == base[u]

    def test_zeroing_rows_entirely_leaves_held_out_model_untouched(self):
        """Zeroing user u's X and y rows changes only what u's held-out model
        is *applied to* (now the zero vector), never the model itself: u's
        prediction becomes exactly the bias of the refit-without-u model."""
        ts = _random_grouped(11, n_users=6, posts_per_user=4, d=3)
        u = sorted(set(ts.groups.tolist()))[2]
        mine = ts.groups == u
        X2, y2 = ts.X.copy(), ts.y.copy()
        X2[mine] = 0.0
        y2[mine] = 0.0
        pred = {p.user_id: p.predicted for p in loo_user_cv(_ts(X2, y2, ts.groups))}
        keep = ~mine
        ref_model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]))
        assert pred[u] == pytest.approx(ref_model.bias, abs=1e-9)

    def test_requires_two_users(self):
        ts = _ts([[1.0], [2.0]], [1.0, 2.0], ["A", "A"])
        with pytest.raises(ValueError, match="2 users"):
            loo_user_cv(ts)

    def test_singular_downdate_advises_ridge(self):
        # 3 users, d=2, 4 posts: dropping any user leaves 2-3 rows < d+1
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        ts = _ts(X, [1.0, 2.0, 3.0, 4.0], ["A", "A", "B", "C"])
        with pytest.raises(SingularSystemError, match="lambda") as err:
            loo_user_cv(ts, lam=0.0)
        # users are solved in sorted order, and A's system is the first to fail
        assert "user 'A'" in str(err.value)
        assert "leading minor of order" in str(err.value)
        loo_user_cv(ts, lam=0.5)

    def test_block_boundaries_cover_many_user_counts(self):
        """The block prefix/suffix assembly is exact for any user count."""
        for n_users in (2, 3, 4, 5, 9, 16, 17):
            ts = _random_grouped(100 + n_users, n_users=n_users, posts_per_user=3, d=2)
            fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=0.1)}
            for u in sorted(set(ts.groups.tolist())):
                keep = ts.groups != u
                model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]), lam=0.1)
                naive = float((ts.X[~keep] @ model.weights + model.bias).mean())
                assert abs(naive - fast[u]) < 1e-8

    def test_memory_is_sqrt_users_grams(self):
        """Peak memory stays within 4*(sqrt(U)+2) Grams of (d+1)^2 float64,
        not one Gram per user; U = 401 is not a perfect square."""
        n_users, d = 401, 60
        ts = _random_grouped(16, n_users=n_users, posts_per_user=2, d=d)
        tracemalloc.start()
        try:
            loo_user_cv(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram_bytes = (d + 1) ** 2 * 8
        assert peak <= 4 * (math.sqrt(n_users) + 2) * gram_bytes


    def test_memory_is_sqrt_users_packed_triangles(self):
        """Each moment matrix is held as its packed lower triangle: the peak
        stays within 4*(sqrt(U)+2) triangles of (d+2)(d+3)/2 float64, about
        half of what full (d+1)^2 matrices would take."""
        n_users, d = 401, 60
        ts = _random_grouped(16, n_users=n_users, posts_per_user=2, d=d)
        tracemalloc.start()
        try:
            loo_user_cv(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        triangle_bytes = (d + 2) * (d + 3) // 2 * 8
        assert peak <= 4 * (math.sqrt(n_users) + 2) * triangle_bytes


def _naive_loo(ts, lam):
    """Each user's held-out mean prediction from a fit on every other row."""
    naive = {}
    for u in ts.users:
        keep = ts.groups != u
        model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]), lam=lam)
        naive[u] = float((ts.X[~keep] @ model.weights + model.bias).mean())
    return naive


class TestLooUserCVGroups:
    """Shapes where ``_group_size`` puts several users in a group, so each
    user's prediction comes from the group's base and the r x r step."""

    @staticmethod
    def _grouped(seed, n_users, posts_per_user, d):
        ts = _random_grouped(seed, n_users=n_users, posts_per_user=posts_per_user, d=d)
        m = model_module._group_size(d, n_users, posts_per_user)
        assert m > 1
        return ts, m

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_matches_naive_retraining(self, lam):
        ts, _ = self._grouped(30, n_users=100, posts_per_user=2, d=80)
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=lam)}
        for u, naive in _naive_loo(ts, lam).items():
            assert abs(naive - fast[u]) < 1e-8

    def test_own_targets_leave_prediction_bit_identical(self):
        """Zeroing the targets of the first, a middle and the last user of a
        group leaves each one's prediction bit-identical: they enter the
        other users' systems of the group, never their own."""
        ts, m = self._grouped(31, n_users=100, posts_per_user=2, d=80)
        base = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        block = math.isqrt(len(ts.users) - 1) + 1
        first = 2 * block  # the third block's first group
        for u in (ts.users[first], ts.users[first + m // 2], ts.users[first + m - 1]):
            y2 = ts.y.copy()
            y2[ts.groups == u] = 0.0
            pred = {p.user_id: p.predicted for p in loo_user_cv(_ts(ts.X, y2, ts.groups))}
            assert pred[u] == base[u]
            assert sum(pred[v] != base[v] for v in ts.users) > 1

    def test_singular_group_base_redone_one_user_at_a_time(self):
        """At lambda=0, 86 single-post users at d=80 leave 76 rows outside a
        group of 10 and 80 outside the last group of 6, too few for the
        base, while each user's own system keeps 85: every group is redone
        at m = 1, and every prediction matches naive retraining."""
        ts = _random_grouped(32, n_users=86, posts_per_user=1, d=80)
        assert model_module._group_size(80, 86, 1) == 10
        with mock.patch.object(
            model_module, "_group_predictions", wraps=model_module._group_predictions
        ) as spy:
            fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        singles = [call.args[2] for call in spy.call_args_list if len(call.args[2]) == 1]
        assert singles == [[u] for u in ts.users]
        for u, naive in _naive_loo(ts, 0.0).items():
            assert abs(naive - fast[u]) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_numerically_singular_group_base_redone(self, seed):
        """90 single-post users at d=80 leave 80 rows outside a group of 10,
        one short of the 81 unknowns, a singular base: the count declines
        every such group before it is factored, and each of its users is
        solved alone (``test_group_leaving_at_most_d_rows_is_never_factored``
        spies on that route)."""
        ts = _random_grouped(40 + seed, n_users=90, posts_per_user=1, d=80)
        assert model_module._group_size(80, 90, 1) == 10
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        for u, naive in _naive_loo(ts, 0.0).items():
            assert abs(naive - fast[u]) < 1e-8

    @pytest.mark.parametrize("n_users", [86, 90])
    def test_group_leaving_at_most_d_rows_is_never_factored(self, n_users):
        """At lambda=0 a base of at most d rows is singular by count, so a
        group of several users that leaves at most d rows outside it goes
        straight to one user per group: 86 and 90 single-post users at d=80
        leave 76-80 rows outside each group, and no group of several users
        reaches _group_predictions."""
        ts = _random_grouped(40, n_users=n_users, posts_per_user=1, d=80)
        assert model_module._group_size(80, n_users, 1) == 10
        with mock.patch.object(
            model_module, "_group_predictions", wraps=model_module._group_predictions
        ) as spy:
            loo_user_cv(ts)
        assert [len(call.args[2]) for call in spy.call_args_list] == [1] * n_users

    @pytest.mark.parametrize("seed", range(5))
    def test_group_declined_after_its_base_is_factored(self, seed):
        """91 single-post users at d=80 leave 81 rows outside a group of 10,
        as many as the unknowns, so every group passes the count. Their
        bases are factored, and the leverage bound declines 1-5 of the 9 on
        these seeds; those are redone one user at a time."""
        ts = _random_grouped(40 + seed, n_users=91, posts_per_user=1, d=80)
        assert model_module._group_size(80, 91, 1) == 10
        outcomes = []

        def spy(Z, bounds, names, G, out, real=model_module._group_predictions):
            outcomes.append((len(names), real(Z, bounds, names, G, out)))
            return outcomes[-1][1]

        with mock.patch.object(model_module, "_group_predictions", spy):
            fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        assert sum(n > 1 for n, _ in outcomes) == 9
        assert any(n > 1 and not solved for n, solved in outcomes)
        for u, naive in _naive_loo(ts, 0.0).items():
            assert abs(naive - fast[u]) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_near_singular_base_under_a_tiny_ridge_redone(self, seed):
        """At lambda=1e-9 the count declines nothing, yet 90 single-post
        users at d=80 leave each group's base one row short of regular but
        for the ridge. dpotrf factors it, and only K's size shows it: taken
        as it is, the Woodbury step is off by about 1e-6."""
        ts = _random_grouped(40 + seed, n_users=90, posts_per_user=1, d=80)
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=1e-9)}
        for u, naive in _naive_loo(ts, 1e-9).items():
            assert abs(naive - fast[u]) < 1e-8

    def test_group_of_every_user_redone_with_ridge(self):
        """Two users at d=100 make one group holding every row, whose base
        is the ridge alone: its bias pivot is 0 whatever lambda is, so the
        count declines it before anything is factored, and each user's own
        system is solved."""
        ts = _random_grouped(33, n_users=2, posts_per_user=1, d=100)
        assert model_module._group_size(100, 2, 1) == 2
        with mock.patch.object(
            model_module, "_group_predictions", wraps=model_module._group_predictions
        ) as spy:
            fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=1.0)}
        assert [len(call.args[2]) for call in spy.call_args_list] == [1, 1]
        for u, naive in _naive_loo(ts, 1.0).items():
            assert abs(naive - fast[u]) < 1e-8

    def test_user_with_most_rows_is_solved_alone(self):
        """One user with 1,000 posts among 99 with 2 lifts the mean to 12
        posts, where the rule groups 4 users at d=120. The big user's group
        would hold 1,006 rows, and an r x r step per user of 1,006^2 (8 MB
        for K); it is redone one user at a time instead. Beyond the block
        sums, the peak holds the big user's block of rows (once as gathered,
        once as [X, 1, y]) and no r x r matrix."""
        n_users, d, big = 100, 120, 1000
        rng = np.random.default_rng(35)
        sizes = np.full(n_users, 2)
        sizes[45] = big
        groups = np.repeat([f"u{i:04d}" for i in range(n_users)], sizes).astype(object)
        X = rng.standard_normal((groups.size, d))
        y = 500.0 + 30.0 * (X @ rng.standard_normal(d)) + 5.0 * rng.standard_normal(groups.size)
        ts = _ts(X, y, groups)
        assert model_module._group_size(d, n_users, groups.size / n_users) == 4
        tracemalloc.start()
        try:
            fast = {p.user_id: p.predicted for p in loo_user_cv(ts, lam=0.5)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for u, naive in _naive_loo(ts, 0.5).items():
            assert abs(naive - fast[u]) < 1e-8
        triangle_bytes = (d + 2) * (d + 3) // 2 * 8
        block_rows_bytes = (9 * 2 + big) * (d + 2) * 8
        assert peak <= 4 * (math.sqrt(n_users) + 2) * triangle_bytes + 2 * block_rows_bytes

    @pytest.mark.parametrize("n_users, posts_per_user", [(2, 5), (3, 3)])
    def test_two_and_three_users_at_lambda_zero(self, n_users, posts_per_user):
        ts = _random_grouped(34 + n_users, n_users=n_users, posts_per_user=posts_per_user, d=2)
        fast = {p.user_id: p.predicted for p in loo_user_cv(ts)}
        for u, naive in _naive_loo(ts, 0.0).items():
            assert abs(naive - fast[u]) < 1e-8


class TestLooUserCVFullStorageReference:
    """loo_user_cv against a full-storage copy of its group scheme
    (``oracles.loo_user_cv_full``): the same blocks, groups, summation order
    and LAPACK routines, so the same bits, mostly on interleaved users of
    1-3 posts."""

    @staticmethod
    def _interleaved(seed, n_users, d):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=n_users)
        groups = rng.permutation(np.repeat([f"u{i:03d}" for i in range(n_users)], sizes))
        n = groups.size
        X = rng.standard_normal((n, d))
        y = 500.0 + 30.0 * (X @ rng.standard_normal(d)) + 20.0 * rng.standard_normal(n)
        return _ts(X, y, groups.astype(object))

    @pytest.mark.parametrize(
        "n_users, d, lam",
        [(2, 3, 0.3), (3, 3, 0.3), (4, 2, 0.3), (25, 5, 0.0), (25, 5, 0.3), (401, 12, 0.0),
         (401, 60, 0.3), (300, 80, 0.0), (150, 100, 1e-3), (401, 100, 0.3)],
    )
    def test_bit_identical_to_full_storage(self, n_users, d, lam):
        ts = self._interleaved(200 + n_users + d, n_users, d)
        packed = loo_user_cv(ts, lam=lam)
        assert len(packed) == n_users
        assert _prediction_bytes(packed) == _prediction_bytes(loo_user_cv_full(ts, lam=lam))

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_sample_bit_identical_to_full_storage(self, lam):
        """The ``sample=`` route posts_curve takes: every other user, two of
        their rows drawn at random, in row order."""
        ts = self._interleaved(23, 60, 4)
        rng = np.random.default_rng(24)
        users, kept = [], []
        for i in range(0, len(ts.users), 2):
            rows = ts.index[ts.offsets[i] : ts.offsets[i + 1]]
            if rows.size >= 2:
                users.append(ts.users[i])
                kept.append(np.sort(rng.choice(rows, size=2, replace=False)))
        sample = (users, np.concatenate(kept), np.arange(len(users) + 1, dtype=np.int64) * 2)
        packed = loo_user_cv(ts, lam=lam, sample=sample)
        full = loo_user_cv_full(ts, lam=lam, sample=sample)
        assert [p.user_id for p in packed] == users
        assert _prediction_bytes(packed) == _prediction_bytes(full)

    @pytest.mark.parametrize("n_users", [86, 90])
    def test_redone_groups_bit_identical_to_full_storage(self, n_users):
        """Groups redone one user at a time. loo_user_cv declines them by
        their row count before factoring; the reference has no count check
        at lambda = 0 and factors them, and cho_factor declines the bases at
        86 users, the leverage bound at 90. Each route then solves each user
        alone between the same sums, so the bits agree."""
        ts = _random_grouped(40, n_users=n_users, posts_per_user=1, d=80)
        assert _prediction_bytes(loo_user_cv(ts)) == _prediction_bytes(loo_user_cv_full(ts))

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_one_row_per_user_sample_bit_identical_to_full_storage(self, lam):
        """A curve point at N=1: one row of each user, which puts a whole
        block of users in each group."""
        ts = self._interleaved(25, 300, 80)
        rng = np.random.default_rng(26)
        kept = [rng.choice(ts.index[ts.offsets[i] : ts.offsets[i + 1]]) for i in range(300)]
        sample = (ts.users, np.array(kept), np.arange(301, dtype=np.int64))
        assert model_module._group_size(80, 300, 1) > 1
        packed = loo_user_cv(ts, lam=lam, sample=sample)
        assert _prediction_bytes(packed) == _prediction_bytes(loo_user_cv_full(ts, lam=lam, sample=sample))


@st.composite
def _loocv_shapes(draw):
    """(training set, lambda, one of its users) of a skewed LOOCV shape.
    lambda is one of 0, 1e-9, 1e-3 and 1; d is 1-24, where users are solved
    one at a time, or 76-110, where they go in groups; 2-60 users hold 1-9
    rows each, sometimes with one user of 100-400 rows, and at lambda=0
    sometimes every user holds one row. Below lambda=1e-3, one-row users
    are added until each held-out system has at least its d + 1 unknowns
    in rows. The users' rows are interleaved."""
    lam = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    d = draw(st.one_of(st.integers(1, 24), st.integers(76, 110)))
    if lam == 0.0 and draw(st.booleans()):
        sizes = [1] * draw(st.integers(2, 40))
    else:
        sizes = draw(st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 5, 9]), min_size=2, max_size=60))
        if draw(st.booleans()):
            sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(100, 400))
    if lam < 1e-3:
        sizes += [1] * max(0, d + 1 - (sum(sizes) - max(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = rng.permutation(np.repeat([f"u{i:03d}" for i in range(len(sizes))], sizes)).astype(object)
    X = rng.standard_normal((groups.size, d))
    y = 500.0 + 30.0 * (X @ rng.standard_normal(d)) + 20.0 * rng.standard_normal(groups.size)
    return _ts(X, y, groups), lam, f"u{draw(st.integers(0, len(sizes) - 1)):03d}"


class TestLooUserCVRoutes:
    @settings(max_examples=60, deadline=None)
    @given(case=_loocv_shapes())
    def test_every_route_against_the_oracles(self, case):
        """The drawn shapes reach every route: users solved one at a time,
        groups through the r x r step, groups declined by their row count,
        by their flops (the user of hundreds of rows) or numerically, and
        several blocks. The predictions are bit-identical to the
        full-storage reference; one user's own targets, zeroed, leave its
        prediction bit-identical; and each prediction is within 1e-8 of
        naive retraining wherever fit neither warns nor raises on the
        held-out system and that system has at least d + 9 rows. With fewer
        rows the two solvers part while fit gives no warning: by up to 84
        (on values near 500) on exactly d + 1 rows at lambda=0, 1.5e-8 on
        at most d + 4 rows at lambda=1e-9 and 1e-7 on fewer than d rows at
        lambda=1e-3, in sweeps of these shapes."""
        ts, lam, user = case
        fast = loo_user_cv(ts, lam=lam)
        assert _prediction_bytes(fast) == _prediction_bytes(loo_user_cv_full(ts, lam=lam))
        y2 = ts.y.copy()
        y2[ts.groups == user] = 0.0
        moved = {p.user_id: p.predicted for p in loo_user_cv(_ts(ts.X, y2, ts.groups), lam=lam)}
        assert moved[user] == {p.user_id: p.predicted for p in fast}[user]
        for p in fast:
            keep = ts.groups != p.user_id
            if keep.sum() < ts.d + 9:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    model = fit(_ts(ts.X[keep], ts.y[keep], ts.groups[keep]), lam=lam)
                except (RuntimeWarning, SingularSystemError):
                    continue
            naive = float((ts.X[~keep] @ model.weights + model.bias).mean())
            assert abs(naive - p.predicted) < 1e-8


class TestScoreTokenizedPosts:
    def test_matches_vector_route(self, tiny_table):
        rng = np.random.default_rng(12)
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=500.0, target_sd=1.0)
        model = LinearModel(
            weights=rng.standard_normal(3), bias=400.0, lam=0.0, d=3, training_meta=meta
        )
        words = tiny_table.words + ["oov"]
        posts = [
            [words[i] for i in rng.integers(0, len(words), int(rng.integers(0, 7)))]
            for _ in range(200)
        ]
        scores, n_matched = score_tokenized_posts(model, tiny_table, posts)
        for tokens, score, matched in zip(posts, scores, n_matched):
            vector = post_vector(tiny_table, tokens)
            if vector is None:
                assert matched == 0
                assert score == 500.0
            else:
                assert score == pytest.approx(predict_post(model, vector), abs=1e-9)


class TestPostsCurve:
    def test_users_with_n_max_posts_kept_and_n_max_minus_one_dropped(self):
        """Each curve point runs LOOCV on a row selection of ts: every user
        with at least n_max posts, n_sel of their own rows each, in sorted
        order; users with n_max - 1 posts take no part."""
        n_max = 4
        counts = {"e": 4, "b": 3, "a": 4, "f": 5, "c": 3, "d": 4, "g": 4}
        rng = np.random.default_rng(19)
        groups = rng.permutation([u for u, c in counts.items() for _ in range(c)])
        ts = _ts(rng.standard_normal((groups.size, 2)), rng.standard_normal(groups.size), groups)
        with mock.patch.object(model_module, "loo_user_cv", wraps=loo_user_cv) as spy:
            points = posts_curve(ts, n_max=n_max, B=100, lam=0.1)
        assert [p.n_posts for p in points] == [1, 2, 3, 4]
        for n_sel, call in enumerate(spy.call_args_list, start=1):
            users, rows, offsets = call.kwargs["sample"]
            assert users == ["a", "d", "e", "f", "g"]
            assert offsets.tolist() == [n_sel * i for i in range(6)]
            assert ts.groups[rows].tolist() == [u for u in users for _ in range(n_sel)]
            assert len(set(rows.tolist())) == rows.size
        with pytest.raises(ValueError, match="at least 6"):
            posts_curve(ts, n_max=6, B=100)

    def test_equals_loocv_on_a_sampled_copy(self):
        """The curve equals, bit for bit, the same draws run as LOOCV on a
        TrainingSet copied from the sampled rows, users interleaved and some
        below n_max."""
        rng = np.random.default_rng(20)
        sizes = rng.integers(3, 9, size=30)
        groups = rng.permutation(np.repeat([f"u{i:02d}" for i in range(30)], sizes))
        n = groups.size
        X = rng.standard_normal((n, 4))
        y = 500.0 + 30.0 * (X @ rng.standard_normal(4)) + 20.0 * rng.standard_normal(n)
        ts = _ts(X, y, groups.astype(object))
        n_max, seed, lam = 5, 7, 0.05
        rows: dict = {}
        for i, u in enumerate(ts.groups.tolist()):
            rows.setdefault(u, []).append(i)
        eligible = sorted(u for u, ix in rows.items() if len(ix) >= n_max)
        reference = []
        for n_sel in range(1, n_max + 1):
            draw = np.random.default_rng((seed, n_sel))
            kept = []
            for u in eligible:
                kept.extend(sorted(draw.choice(np.asarray(rows[u]), size=n_sel, replace=False).tolist()))
            sub = TrainingSet(X=ts.X[kept], y=ts.y[kept], groups=ts.groups[kept])
            pairs = [(p.predicted, float(ts.y[rows[p.user_id][0]])) for p in loo_user_cv(sub, lam=lam)]
            r = pearson_r([a for a, _ in pairs], [b for _, b in pairs])
            ci = bootstrap_ci(
                pairs,
                lambda sample: pearson_r([a for a, _ in sample], [b for _, b in sample]),
                B=100,
                level=0.90,
                seed=(seed, n_sel, 1),
            )
            reference.append(CurvePoint(n_sel, r, *ci))
        assert posts_curve(ts, n_max=n_max, B=100, seed=seed, lam=lam) == reference

    def test_memory_beyond_training_set_is_loocv_plus_row_index(self):
        """At n_max = posts per user the last point samples every row. The
        curve's peak stays within LOOCV's own peak on the whole set plus 16
        bytes a row (the sampled row numbers) and 1 KB a user (row views,
        targets, the last point's pairs), with no sampled copy of X, which
        here would be 640 KB."""
        ts = _random_grouped(21, n_users=100, posts_per_user=20, d=40)
        # Bind LAPACK and run the bootstrap once before anything is measured.
        posts_curve(ts, n_max=1, B=100, lam=0.1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loo_peak = peak(lambda: loo_user_cv(ts, lam=0.1))
        curve_peak = peak(lambda: posts_curve(ts, n_max=20, B=100, lam=0.1))
        assert curve_peak <= loo_peak + 16 * ts.n_posts + 1024 * len(ts.users)

    def test_error_when_no_eligible_user(self):
        ts = _random_grouped(13, n_users=4, posts_per_user=3, d=2)
        with pytest.raises(ValueError, match="at least 5"):
            posts_curve(ts, n_max=5, B=100, seed=0)

    def test_deterministic_and_shaped(self):
        ts = _random_grouped(14, n_users=12, posts_per_user=6, d=3, noise=20.0)
        a = posts_curve(ts, n_max=4, B=100, seed=3)
        b = posts_curve(ts, n_max=4, B=100, seed=3)
        assert a == b
        assert [p.n_posts for p in a] == [1, 2, 3, 4]
        for p in a:
            assert p.ci_low <= p.ci_high

    def test_different_seeds_differ(self):
        ts = _random_grouped(15, n_users=12, posts_per_user=6, d=3, noise=40.0)
        a = posts_curve(ts, n_max=2, B=100, seed=1)
        b = posts_curve(ts, n_max=2, B=100, seed=2)
        assert a != b


class TestModelSerialization:
    def test_round_trip(self):
        meta = TrainingMeta(n_posts=10, n_users=3, target_mean=500.0, target_sd=90.0,
                            embedding_fingerprint="fp")
        model = LinearModel(
            weights=np.array([1.5, -2.25]), bias=3.125, lam=0.5, d=2, training_meta=meta
        )
        back = LinearModel.from_dict(model.to_dict())
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert back.lam == model.lam
        assert back.training_meta == meta

    def test_unknown_version_rejected(self):
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=0.0, target_sd=1.0)
        model = LinearModel(weights=np.zeros(1), bias=0.0, lam=0.0, d=1, training_meta=meta)
        bad = model.to_dict()
        bad["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            LinearModel.from_dict(bad)
