"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the regression oracle is
plain gradient descent on the raw loss, the p-value oracle goes through
mpmath's incomplete beta at 50 digits, and the post and word scores look each
token up in ``table.vocab`` on its own and take one plain mean and dot
product. ``read_vec`` parses a .vec file value by value with Python's
``float()``. ``loo_user_cv_full`` is grouped LOOCV's group scheme with
every moment matrix held whole, solved through scipy.linalg's Cholesky and
triangular routines. (The naive leave-one-user-out checks retrain from
scratch per user in the tests themselves.) ``noise_for_ceiling`` inverts synth's analytic
correlation ceiling, so a test can ask for a dataset with a given one.
"""

import math


import mpmath as mp
import numpy as np

from postscore.synth import SCORE_SD


def noise_for_ceiling(r_star: float) -> float:
    """noise_sd that places the analytic correlation ceiling at r_star."""
    if not (0.0 < r_star <= 1.0):
        raise ValueError("r_star must be in (0, 1]")
    return SCORE_SD * np.sqrt(1.0 / (r_star * r_star) - 1.0)


def gd_fit(X, y, lam=0.0, tol=1e-10, max_iter=500_000):
    """Minimize sum((x.w + b - y)^2) + lam*||w||^2 by plain gradient descent.

    Constant step 1/L with L the largest Hessian eigenvalue; runs until the
    gradient inf-norm drops below tol. Returns (w, b).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    G = Z.T @ Z
    penalty = np.zeros(d + 1)
    penalty[:d] = lam
    hessian = 2.0 * (G + np.diag(penalty))
    L = float(np.linalg.eigvalsh(hessian)[-1])
    step = 1.0 / L
    c = Z.T @ y
    theta = np.zeros(d + 1)
    for _ in range(max_iter):
        grad = 2.0 * (G @ theta + penalty * theta - c)
        if np.abs(grad).max() < tol:
            return theta[:d], float(theta[d])
        theta -= step * grad
    raise AssertionError("gradient descent did not converge")


def t_test_p_oracle(r, n, dps=50):
    """Two-sided t-test p-value for a correlation, at dps decimal digits."""
    with mp.workdps(dps):
        df = n - 2
        t2 = mp.mpf(r) ** 2 * df / (1 - mp.mpf(r) ** 2)
        x = df / (df + t2)
        return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def betainc_oracle(a, b, x, dps=50):
    with mp.workdps(dps):
        return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def post_vector(table, tokens):
    """Float64 mean of the rows of the tokens found in ``table.vocab``, each
    occurrence counted; None when no token is found."""
    rows = [table.vocab[t] for t in tokens if t in table.vocab]
    if not rows:
        return None
    return table.vectors[rows].astype(np.float64).mean(axis=0)


def read_vec(path):
    """(words, float32 vectors) of a well-formed .vec file, each value parsed
    by ``float()`` and rounded to float32."""
    with open(path, "r", encoding="utf-8") as f:
        count, dim = map(int, f.readline().split())
        rows = [line.rstrip().split(" ") for line in f]
    assert len(rows) == count and all(len(r) == dim + 1 for r in rows)
    vectors = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], vectors.astype(np.float32).reshape(count, dim)


def predict_post(model, vector):
    """w.x + b for one post vector."""
    return float(model.weights @ np.asarray(vector, dtype=np.float64)) + model.bias


def score_word(model, table, word):
    """w.v + b for the word's row, or None when ``table.vocab`` lacks it."""
    idx = table.vocab.get(word)
    if idx is None:
        return None
    return predict_post(model, table.vectors[idx])


def loo_user_cv_full(ts, lam=0.0, sample=None):
    """Grouped leave-one-user-out UserPredictions, with each moment matrix
    of rows [X, 1, y] held as a full (d+2) x (d+2) float64 array.

    The blocks, groups, summation order and solves are those of
    ``postscore.model.loo_user_cv``: users go in blocks of ceil(sqrt(U)),
    each in groups of ``postscore.model._group_size`` users; suffix sums
    over blocks, then per block prefix sums ``before`` (ridge diagonal,
    earlier blocks, earlier groups) and suffix sums ``after``; group g's
    base is ``before[g] + after[g + 1]``, redone one user at a time when
    its rows make ``_group_flops`` exceed one system per user, when it is
    not positive definite or when K has an entry above ``_MAX_LEVERAGE`` on
    its diagonal. Unlike loo_user_cv, it has no check of the rows a group
    leaves outside it: a group that check declines unfactored is factored
    here, and declined by cho_factor or the leverage bound. Either way each
    of its users is solved alone between the same sums, so the bits agree.
    Each base is factored with
    ``cho_factor(lower=True)``; ``cho_solve`` gives theta and
    ``solve_triangular`` gives V = L^-1 [X_g, 1]'. User u's predictions are
    e_u + K_uo (I + K_oo)^-1 (y_o - e_o), with e = [X_g, 1] theta, K = V'V
    and o the group's other rows.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

    from postscore.model import _MAX_LEVERAGE, UserPrediction, _group_flops, _group_size

    users, rows, offsets = (ts.users, ts.index, ts.offsets) if sample is None else sample
    d = ts.d
    d1, d2 = d + 1, d + 2
    U = len(users)
    B = math.isqrt(U - 1) + 1
    m = _group_size(d, U, (offsets[-1] - offsets[0]) / U)
    n_blocks = -(-U // B)
    predictions = []

    def block_rows(b):
        bounds = offsets[b * B : (b + 1) * B + 1]
        idx = rows[bounds[0] : bounds[-1]]
        Z = np.empty((idx.size, d2), dtype=np.float64)
        Z[:, :d] = ts.X[idx]
        Z[:, d] = 1.0
        Z[:, d1] = ts.y[idx]
        return Z, (bounds - bounds[0]).tolist()

    def sums(Z, cuts, before, after):
        k = len(cuts) - 1
        for i in range(k):
            part = Z[cuts[i] : cuts[i + 1]]
            np.matmul(part.T, part, out=after[i])
            np.add(before[i], after[i], out=before[i + 1])
        for i in range(k - 1, -1, -1):
            after[i] += after[i + 1]

    def group(Z, cuts, names, G):
        rows = [b - a for a, b in zip(cuts, cuts[1:])]
        if _group_flops(d, rows) > len(rows) * _group_flops(d, rows[:1]):
            return False
        try:
            factor = cho_factor(G[:d1, :d1], lower=True, check_finite=False)
        except LinAlgError:
            if len(names) > 1:
                return False
            raise
        theta = cho_solve(factor, G[:d1, d1], check_finite=False)
        e = Z[:, :d] @ theta[:d] + theta[d]
        r = e.size
        if len(names) > 1:
            V = solve_triangular(factor[0], Z[:, :d1].T, lower=True, check_finite=False)
            K = V.T @ V
            if K.diagonal().max() > _MAX_LEVERAGE:
                return False
            residual = Z[:, d1] - e
        for j, u in enumerate(names):
            a, b = cuts[j], cuts[j + 1]
            scores = e[a:b]
            if b - a < r:
                o = np.r_[0:a, b:r]
                inner = K[np.ix_(o, o)]
                inner[np.diag_indices(o.size)] += 1.0
                x = cho_solve(cho_factor(inner, lower=True, check_finite=False), residual[o],
                              check_finite=False)
                scores = scores + K[a:b, o] @ x
            predictions.append(UserPrediction(u, float(scores.mean()), b - a))
        return True

    suffix = np.zeros((n_blocks + 1, d2, d2), dtype=np.float64)
    for b in range(n_blocks - 1, -1, -1):
        Z, _ = block_rows(b)
        np.matmul(Z.T, Z, out=suffix[b])
        suffix[b] += suffix[b + 1]

    before = np.zeros((-(-B // m) + 1, d2, d2), dtype=np.float64)
    after = np.empty_like(before)
    before[0, range(d), range(d)] = lam
    for b in range(n_blocks):
        Z, bounds = block_rows(b)
        names = users[b * B : (b + 1) * B]
        starts = list(range(0, len(names), m))
        k = len(starts)
        after[k] = suffix[b + 1]
        sums(Z, [bounds[s] for s in starts] + [bounds[-1]], before, after)
        for g, s in enumerate(starts):
            members = names[s : s + m]
            cuts = [c - bounds[s] for c in bounds[s : s + m + 1]]
            Zg = Z[bounds[s] : bounds[s] + cuts[-1]]
            if group(Zg, cuts, members, before[g] + after[g + 1]):
                continue
            one_before = np.empty((len(members) + 1, d2, d2), dtype=np.float64)
            one_after = np.empty_like(one_before)
            one_before[0], one_after[-1] = before[g], after[g + 1]
            sums(Zg, cuts, one_before, one_after)
            for j, u in enumerate(members):
                group(Zg[cuts[j] : cuts[j + 1]], [0, cuts[j + 1] - cuts[j]], [u],
                      one_before[j] + one_after[j + 1])
        before[0] = before[k]
    return predictions
