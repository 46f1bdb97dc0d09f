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
    """``iters`` scaled-form ADMM steps for nlsr/slsr/ssrsc through an explicit ridge inverse.

    ``inverse`` is (X^T X + shift*I)^{-1}, with shift (2*lam+rho)/2 for nlsr
    and rho/2 otherwise. From all-zero iterates each step takes
    C = inverse (X^T X + rho/2 (Z + U)), Z = proj(scale (C - U)) and
    U += Z - C, with scale 1 for nlsr and rho/(2*lam+rho) otherwise; the
    projection clips to C >= 0 (nlsr), shifts columns to sum s (slsr) or
    projects them onto the scale-s simplex (ssrsc). Returns Z and, per step,
    the dense norms (||Z - C||, ||C - C_prev||, ||Z - Z_prev||).
    """
    gram = x.T @ x
    n = gram.shape[0]
    z = np.zeros((n, n))
    u = np.zeros((n, n))
    c_prev = np.zeros((n, n))
    scale = 1.0 if model == "nlsr" else rho / (2.0 * lam + rho)
    history = []
    for _ in range(iters):
        c = inverse @ (gram + rho / 2.0 * (z + u))
        v = scale * (c - u)
        if model == "nlsr":
            z_next = np.maximum(v, 0.0)
        elif model == "slsr":
            z_next = v + (s - v.sum(axis=0)) / n
        else:
            z_next = _project_columns_simplex(v, s)
        u += z_next - c
        history.append(
            (np.linalg.norm(z_next - c), np.linalg.norm(c - c_prev), np.linalg.norm(z_next - z))
        )
        z, c_prev = z_next, c
    return z, history


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
