"""Independent reference implementations used to check the library.

Everything here is deliberately written along a different path than the
package: enumeration over faces, projected gradient descent, exhaustive
permutation search. These oracles are slower but direct transcriptions of
the optimality conditions.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
from scipy.optimize import nnls


def nonempty_subsets(n):
    """All non-empty subsets of range(n), as index tuples."""
    out = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def simplex_projection_oracle(u, s, feas_tol=1e-12):
    """Projection onto {z >= 0, sum z = s} by enumerating every face.

    For each candidate free set F the equality-constrained optimum is a
    uniform shift of u restricted to F; the best feasible candidate over all
    faces is the projection.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    best = None
    best_dist = np.inf
    for free in nonempty_subsets(n):
        free = list(free)
        shift = (s - u[free].sum()) / len(free)
        z = np.zeros(n)
        z[free] = u[free] + shift
        if np.any(z[free] < -feas_tol):
            continue
        dist = np.sum((z - u) ** 2)
        if dist < best_dist:
            best_dist = dist
            best = z
    assert best is not None
    return np.maximum(best, 0.0)


def qp_simplex_oracle(gram, linear, s, feas_tol=1e-10):
    """Minimize c^T gram c - 2 linear^T c over {c >= 0, sum c = s} by face enumeration.

    For each free set the equality-constrained stationary point solves a
    small KKT system; the best feasible candidate wins. gram must be
    positive definite.
    """
    n = linear.size
    best = None
    best_obj = np.inf
    for free in nonempty_subsets(n):
        free = list(free)
        k = len(free)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * gram[np.ix_(free, free)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([2.0 * linear[free], [s]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        c = np.zeros(n)
        c[free] = sol[:k]
        if np.any(c[free] < -feas_tol):
            continue
        obj = float(c @ gram @ c - 2.0 * linear @ c)
        if obj < best_obj:
            best_obj = obj
            best = np.maximum(c, 0.0)
    assert best is not None
    return best


def ssrsc_column_oracle(x, j, lam, s):
    """Exact solution of one simplex-constrained ridge column via enumeration."""
    gram = x.T @ x + lam * np.eye(x.shape[1])
    linear = x.T @ x[:, j]
    return qp_simplex_oracle(gram, linear, s)


def hyperplane_column_oracle(x, j, lam, s):
    """Exact solution of one sum-to-s ridge column via its KKT linear system."""
    n = x.shape[1]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * (x.T @ x + lam * np.eye(n))
    kkt[:n, n] = 1.0
    kkt[n, :n] = 1.0
    rhs = np.concatenate([2.0 * x.T @ x[:, j], [s]])
    return np.linalg.solve(kkt, rhs)[:n]


def nnls_column_oracle(x, j, lam):
    """Exact solution of one non-negative ridge column via active-set NNLS."""
    n = x.shape[1]
    augmented = np.vstack([x, np.sqrt(lam) * np.eye(n)])
    target = np.concatenate([x[:, j], np.zeros(n)])
    solution, _ = nnls(augmented, target)
    return solution


def _project_columns_simplex(v, s):
    # vectorized sort-based projection, written independently of the package
    n = v.shape[0]
    w = -np.sort(-v, axis=0)
    cumulative = np.cumsum(w, axis=0)
    ranks = np.arange(1, n + 1)[:, None]
    positive = w + (s - cumulative) / ranks > 0
    alpha = n - np.argmax(positive[::-1, :], axis=0)
    beta = (s - cumulative[alpha - 1, np.arange(v.shape[1])]) / alpha
    return np.maximum(v + beta[None, :], 0.0)


def admm_with_inverse(x, inverse, model, lam, s, rho, iters):
    """``iters`` scaled-form ADMM steps for nlsr/slsr/ssrsc through explicit ridge inverses.

    ``inverse(shift)`` returns (X^T X + shift*I)^{-1}. From all-zero
    iterates each step takes C = inverse(rho/2) (X^T X + rho/2 (Z + U)),
    Z = proj(scale (C - U)) and U += Z - C, with scale rho/(2*lam+rho) for
    every model; the projection clips to C >= 0 (nlsr), shifts columns to
    sum s (slsr) or projects them onto the scale-s simplex (ssrsc). After
    step k, for 5 <= k < iters, rho is balanced (Boyd et al. 2011, 3.4.1):
    doubled, to at most 4 times its start, when the primal residual
    ||Z - C|| exceeds 10 times the dual rho ||Z - Z_prev||, and halved in
    the opposite case; U is then multiplied by rho_old/rho_new and the next
    step takes a fresh inverse. From step 6 on, the Z-step and the U update
    take the over-relaxed 1.6 C + (1 - 1.6) Z_prev in place of C (Boyd et
    al. 2011, 3.4.3). Returns Z and, per step, the dense norms
    (||Z - C||, ||C - C_prev||, ||Z - Z_prev||), all with the unrelaxed C.
    """
    gram = x.T @ x
    n = gram.shape[0]
    z = np.zeros((n, n))
    u = np.zeros((n, n))
    c_prev = np.zeros((n, n))
    cap = 4.0 * rho
    ridge_inverse = inverse(rho / 2.0)
    history = []
    for step in range(1, iters + 1):
        c = ridge_inverse @ (gram + rho / 2.0 * (z + u))
        relaxed = 1.6 * c - 0.6 * z if step > 5 else c
        v = rho / (2.0 * lam + rho) * (relaxed - u)
        if model == "nlsr":
            z_next = np.maximum(v, 0.0)
        elif model == "slsr":
            z_next = v + (s - v.sum(axis=0)) / n
        else:
            z_next = _project_columns_simplex(v, s)
        u += z_next - relaxed
        primal, dual = np.linalg.norm(z_next - c), rho * np.linalg.norm(z_next - z)
        history.append((primal, np.linalg.norm(c - c_prev), np.linalg.norm(z_next - z)))
        z, c_prev = z_next, c
        if 5 <= step < iters:
            balanced = rho
            if primal > 10.0 * dual:
                balanced = min(2.0 * rho, cap)
            elif dual > 10.0 * primal:
                balanced = rho / 2.0
            if balanced != rho:
                u *= rho / balanced
                rho = balanced
                ridge_inverse = inverse(rho / 2.0)
    return z, history


def ridge_objective(x, c, lam):
    """f(C) = ||X - XC||_F^2 + lam * ||C||_F^2, the objective every model minimizes."""
    return float(np.sum((x - x @ c) ** 2) + lam * np.sum(c**2))


def _ridge_gradient(x, c, lam):
    gram = x.T @ x
    return 2.0 * (gram @ c - gram + lam * c)


def nonneg_certificate(x, c, lam):
    """Projected-gradient residual ||C - max(C - grad f(C), 0)||_F over ||grad f(0)||_F.

    Zero exactly at the optimum over C >= 0.
    """
    residual = c - np.maximum(c - _ridge_gradient(x, c, lam), 0.0)
    return float(np.linalg.norm(residual) / np.linalg.norm(2.0 * x.T @ x))


def hyperplane_certificate(x, c, lam, s):
    """(f(C) - f*) / f* against the closed-form optimum over columns summing to s.

    With A = X^T X + lam*I, each column's KKT system gives
    C* = A^{-1} X^T X + A^{-1} 1 (s - 1^T A^{-1} X^T X) / (1^T A^{-1} 1).
    """
    gram = x.T @ x
    system = gram + lam * np.eye(gram.shape[0])
    free = np.linalg.solve(system, gram)
    direction = np.linalg.solve(system, np.ones(gram.shape[0]))
    optimum = free + np.outer(direction, (s - free.sum(axis=0)) / direction.sum())
    best = ridge_objective(x, optimum, lam)
    return (ridge_objective(x, c, lam) - best) / best


def simplex_certificate(x, c, lam, s):
    """Frank-Wolfe gap sum_j (g_j^T c_j - s min_i g_ij) over f(C), g = grad f(C).

    It bounds f(C) - f* over the scale-s simplex columns from above (Jaggi 2013).
    """
    gradient = _ridge_gradient(x, c, lam)
    gap = np.sum(gradient * c) - s * gradient.min(axis=0).sum()
    return float(gap / ridge_objective(x, c, lam))


def zero_diagonal_simplex_certificate(x, c, lam, s):
    """Frank-Wolfe gap over f(C) on scale-s simplex columns that leave out their own point.

    Column j's linear minimizer puts s on the smallest gradient entry among
    i != j, so the gap is sum_j (g_j^T c_j - s min_{i != j} g_ij).
    """
    gradient = _ridge_gradient(x, c, lam)
    gap = 0.0
    for j in range(c.shape[1]):
        others = np.delete(gradient[:, j], j)
        gap += gradient[:, j] @ c[:, j] - s * others.min()
    return float(gap / ridge_objective(x, c, lam))


def pgd_ssrsc_oracle(x, lam, s, iters=100_000):
    """All simplex-constrained ridge columns at once by projected gradient.

    Fixed 1/L step with L the Lipschitz constant of the smooth part; every
    column shares the Gram matrix so the sweep is one matrix recursion.
    """
    gram = x.T @ x
    lipschitz = 2.0 * (np.linalg.norm(x, 2) ** 2 + lam)
    n = x.shape[1]
    c = np.full((n, n), s / n)
    for _ in range(iters):
        gradient = 2.0 * (gram @ c - gram) + 2.0 * lam * c
        c = _project_columns_simplex(c - gradient / lipschitz, s)
    return c


def kmeans_reference(points, k, seed, restarts=20, max_iters=300):
    """Seeded k-means, one restart after another and one cluster mean at a time.

    Each restart draws distance-weighted initial centers from one generator
    of ``seed``, then runs Lloyd steps until its labels repeat or max_iters
    assignments; the lowest finite objective wins, the earliest on ties.
    Returns (labels, objective), or (None, inf) when every objective overflows.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    best_labels, best_objective = None, np.inf
    for _ in range(restarts):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[rng.integers(n)]
        closest = ((points - centers[0]) ** 2).sum(axis=1)
        for i in range(1, k):
            total = closest.sum()
            idx = rng.choice(n, p=closest / total) if total > 0 else rng.integers(n)
            centers[i] = points[idx]
            closest = np.minimum(closest, ((points - centers[i]) ** 2).sum(axis=1))
        previous_labels = None
        for _ in range(max_iters):
            distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(distances, axis=1)
            objective = float(distances[np.arange(n), labels].sum())
            if previous_labels is not None and np.array_equal(labels, previous_labels):
                break
            previous_labels = labels
            for i in range(k):
                members = labels == i
                if members.any():
                    centers[i] = points[members].mean(axis=0)
        if objective < best_objective:
            best_labels, best_objective = labels, objective
    return best_labels, best_objective


def exhaustive_permutation_error(pred, truth):
    """Best-permutation misassignment rate by trying every label bijection."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    ids = sorted(set(pred.tolist()) | set(truth.tolist()))
    best_matched = 0
    for perm in permutations(ids):
        mapping = dict(zip(ids, perm))
        matched = sum(1 for p, t in zip(pred, truth) if mapping[p] == t)
        best_matched = max(best_matched, matched)
    return (pred.size - best_matched) / pred.size


def frobenius_by_loops(a, b):
    """Entrywise double-loop Frobenius distance."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
    return total ** 0.5
