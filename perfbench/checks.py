"""Checks of the library's outputs, computed with numpy alone.

Nothing here calls simplexsc: each check recomputes what it needs from the
inputs the benchmark generated, so a fault in the library cannot also hide
in the check.
"""

from __future__ import annotations

import itertools

import numpy as np

# Relative size below which an optimality certificate counts as "converged".
# The ADMM residual tolerance is 0.01; at that point the certificates below
# read about 1e-5 (simplex), 7e-5 (non-negative) and 4e-4 (hyperplane).
CERTIFICATE_TOL = 1e-3
# Column sums must hit s to this absolute precision.
SUM_TOL = 1e-9


def partition_problems(labels, n_points: int, n_clusters: int) -> list[str]:
    """Labels must be one integer per point naming exactly ``n_clusters`` groups."""
    labels = np.asarray(labels)
    if labels.shape != (n_points,):
        return [f"labels have shape {labels.shape}, expected ({n_points},)"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels have dtype {labels.dtype}, expected integers"]
    found = np.unique(labels).size
    if found != n_clusters:
        return [f"labels name {found} clusters, expected {n_clusters}"]
    return []


def permutation_error(pred, truth) -> float:
    """Misassignment rate under the best of all label permutations (exhaustive search)."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    pred_ids, pred_idx = np.unique(pred, return_inverse=True)
    truth_ids, truth_idx = np.unique(truth, return_inverse=True)
    k = max(pred_ids.size, truth_ids.size)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (pred_idx, truth_idx), 1)
    columns = np.arange(k)
    matched = max(
        int(confusion[list(order), columns].sum()) for order in itertools.permutations(range(k))
    )
    return (pred.size - matched) / pred.size


def parse_result_document(text: str) -> tuple[dict[str, str], list[tuple[float, ...]]]:
    """Split a result document into its ``key: value`` fields and residual rows."""
    if not text.endswith("\n"):
        raise ValueError("document does not end with a newline")
    lines = text[:-1].split("\n")
    if "residuals:" not in lines:
        raise ValueError("document has no 'residuals:' section")
    cut = lines.index("residuals:")
    fields: dict[str, str] = {}
    for line in lines[:cut]:
        key, sep, value = line.partition(": ")
        if not sep or key in fields:
            raise ValueError(f"malformed or repeated field line {line[:60]!r}")
        fields[key] = value
    residuals = [tuple(float(v) for v in line.split()) for line in lines[cut + 1 :]]
    if any(len(row) != 3 or not all(np.isfinite(row)) for row in residuals):
        raise ValueError("a residual row is not three finite numbers")
    return fields, residuals


def document_problems(text: str, labels, n_points: int, n_features: int) -> list[str]:
    """The document must parse and record the labels the pipeline returned."""
    try:
        fields, residuals = parse_result_document(text)
    except ValueError as exc:
        return [f"result document does not parse: {exc}"]
    expected = {
        "format_version": "1",
        "n_points": str(n_points),
        "n_features": str(n_features),
        "iterations_used": str(len(residuals)),
        "labels": " ".join(str(int(v)) for v in labels),
    }
    return [
        f"result document field {key!r} is {fields.get(key, '<absent>')[:60]!r}, expected {value[:60]!r}"
        for key, value in expected.items()
        if fields.get(key) != value
    ]


def ridge_objective(x: np.ndarray, z: np.ndarray, lam: float) -> float:
    """f(Z) = ||X - XZ||_F^2 + lam * ||Z||_F^2, the data term all four models share."""
    return float(np.linalg.norm(x - x @ z) ** 2 + lam * np.linalg.norm(z) ** 2)


def _gradient(x: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    gram = x.T @ x
    return 2.0 * (gram @ z - gram) + 2.0 * lam * z


def simplex_gap(x: np.ndarray, z: np.ndarray, lam: float, s: float, zero_diagonal: bool = False) -> float:
    """Frank-Wolfe duality gap of Z on the scale-s simplex columns, relative to f(Z).

    The gap sum_j (g_j^T z_j - s * min_i g_ij), with g the gradient of f at Z,
    upper-bounds f(Z) - f* (Jaggi 2013). With ``zero_diagonal`` the feasible
    set excludes i = j, so the minimum runs over off-diagonal entries only.
    """
    grad = _gradient(x, z, lam)
    candidates = grad.copy()
    if zero_diagonal:
        np.fill_diagonal(candidates, np.inf)
    gap = float(np.sum(grad * z) - s * candidates.min(axis=0).sum())
    return gap / ridge_objective(x, z, lam)


def nonneg_residual(x: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Projected-gradient residual ||Z - max(Z - g, 0)||_F relative to the gradient at Z = 0."""
    grad = _gradient(x, z, lam)
    return float(np.linalg.norm(z - np.maximum(z - grad, 0.0)) / np.linalg.norm(2.0 * x.T @ x))


def hyperplane_suboptimality(x: np.ndarray, z: np.ndarray, lam: float, s: float) -> float:
    """(f(Z) - f*) / f* against the closed-form optimum under column sums equal to s.

    With A = X^T X + lam*I the KKT conditions give
    Z* = A^{-1} X^T X + A^{-1} 1 (s 1^T - 1^T A^{-1} X^T X) / (1^T A^{-1} 1).
    """
    n = x.shape[1]
    gram = x.T @ x
    system = gram + lam * np.eye(n)
    free = np.linalg.solve(system, gram)
    direction = np.linalg.solve(system, np.ones(n))
    optimum = free + np.outer(direction, (s - free.sum(axis=0)) / direction.sum())
    best = ridge_objective(x, optimum, lam)
    return (ridge_objective(x, z, lam) - best) / best
