"""Shared numeric types, validated matrix containers, and run configuration.

Matrices follow the column-per-point convention: a data matrix is D x N with
column j holding data point j. Loaders transpose row-per-sample files on
ingest. All numerics are float64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MODELS = ("lsr", "nlsr", "slsr", "ssrsc")
AFFINITY_MODES = ("sym", "abs")


class ConfigError(ValueError):
    """A configuration value or call precondition is invalid."""


class ShapeError(ConfigError):
    """Matrix dimensions violate the operation's contract."""


class DomainError(ValueError):
    """Input values lie outside the operation's domain."""


class ParseError(ValueError):
    """An input file is malformed."""


class NumericError(ArithmeticError):
    """Non-finite values or a failed numeric routine."""


class DivergenceError(NumericError):
    """An iterative solver produced non-finite iterates."""


def as_count(value, name: str, minimum: int = 1) -> int:
    """Return a count, size or seed as an int >= ``minimum``; a float such as 2.0 is a ConfigError."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {count}")
    return count


def as_data_matrix(values) -> np.ndarray:
    """Validate ``values`` as a D x N data matrix (column j = point j)."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"data matrix must be 2-D, got {x.ndim}-D")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ShapeError(f"data matrix must be at least 1x1, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("data matrix contains non-finite values")
    return x


def as_square_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate ``values`` as a finite square matrix."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains non-finite values")
    return m


@dataclass(frozen=True)
class SolverConfig:
    """Model choice plus the hyperparameters shared by all solvers.

    ``lam`` is the ridge regularization weight, ``s`` the column-sum scale of
    the simplex/affine constraint, ``rho`` the starting ADMM penalty. After
    the fifth iteration, residual balancing doubles or halves rho when one
    residual exceeds 10 times the other, up to 4*rho, as a larger penalty
    loosens the ||Z_k+1 - Z_k|| stopping test; and the Z-step and the dual
    step take the over-relaxed 1.6*C + (1 - 1.6)*Z_k (``solvers.RELAXATION``,
    OSQP's default; 1.8 took nlsr's worst certificate on the acceptance
    fixtures from 1.5e-4 to 1.95e-4). In a solve of more than 5
    iterations, ssrsc and slsr also try a certified jump to their exact
    optimum before the first iteration and, until one lands, after
    iterations 5, 10, 20, ... (see ``solvers``); the solve returns it at
    once: to tol 0.01, ssrsc at N=400 returns after 0 iterations (106
    relaxed, 167 balanced alone). A solve of at most 5 iterations is the
    paper's fixed-penalty ADMM bit for bit.
    ``max_iters`` and ``tol`` bound the ADMM loop (residuals are compared
    with <=).
    ``zero_diagonal`` (ssrsc only) keeps every point out of its own
    representation. ``seed`` is unused: the solvers draw no randomness and
    the result document records ``SpectralConfig.seed``; it stays because
    ``perfbench/workloads.py`` passes it.
    """

    model: str = "ssrsc"
    lam: float = 0.01
    s: float = 0.5
    rho: float = 0.5
    max_iters: int = 5
    tol: float = 0.01
    zero_diagonal: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.zero_diagonal and self.model != "ssrsc":
            raise ConfigError(f"zero_diagonal applies to model 'ssrsc' only, got {self.model!r}")
        for name in ("lam", "s", "rho", "tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ConfigError(f"{name} must be a positive finite number, got {value}")
        as_count(self.max_iters, "max_iters")
        as_count(self.seed, "seed", 0)


@dataclass
class ClusteringResult:
    """Outcome of one end-to-end clustering run."""

    labels: np.ndarray
    residual_history: list[tuple[float, float, float]]
    wall_time_seconds: float
    converged: bool
    error_rate: float | None = None

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.error_rate is not None and not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error_rate must be in [0, 1], got {self.error_rate}")

    @property
    def iterations_used(self) -> int:
        return len(self.residual_history)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two equal-shaped matrices.

    The sum runs in a's memory order (column-major for a Fortran-ordered a),
    whatever b's layout is.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(np.subtract(a, b, order="F" if a.flags.f_contiguous else "C")))
