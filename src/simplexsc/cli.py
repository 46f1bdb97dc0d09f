"""Command-line front end: load or generate data, solve, cluster, report.

One invocation runs a single pipeline (or, with --ablation, the model/lambda
grid). Results go to stdout as a short summary plus, when --output is given,
a versioned key/value result document whose bytes depend only on the manifest
and seeds — wall-clock time is deliberately kept out of the file.

Exit codes: 0 success, 2 config error, 3 parse error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .blas import single_blas_thread
from .core import (
    AFFINITY_MODES,
    ClusteringResult,
    ConfigError,
    DivergenceError,
    DomainError,
    MODELS,
    NumericError,
    ParseError,
    ShapeError,
    SolverConfig,
    as_count,
)
from .dataio import LabeledDataset, SyntheticSpec, generate_synthetic, load_csv, pca_project
from .evaluate import clustering_error, run_ablation
from .solvers import solve
from .spectral import KMEANS_RESTARTS, SpectralConfig, build_affinity, spectral_cluster

ABLATION_LAMBDAS = (0.001, 0.01, 0.1)


@dataclass(frozen=True)
class RunManifest:
    """Everything one pipeline invocation depends on."""

    solver: SolverConfig
    spectral: SpectralConfig
    csv_path: Path | None = None
    csv_has_header: bool = True
    synthetic: SyntheticSpec | None = None
    pca_dim: int | None = None
    output: Path | None = None
    labels_csv: Path | None = None

    def __post_init__(self) -> None:
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one input source (--input or --synthetic) is required")
        if self.pca_dim is not None:
            as_count(self.pca_dim, "pca_dim")


def parse_synthetic_spec(text: str, seed: int) -> SyntheticSpec:
    """Parse the --synthetic argument "D,d,n,ppc,sigma"."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ConfigError(f"--synthetic expects 'D,d,n,ppc,sigma' (5 fields), got {text!r}")
    try:
        dims = [int(p) for p in parts[:4]]
        sigma = float(parts[4])
    except ValueError as exc:
        raise ConfigError(f"--synthetic {text!r}: {exc}") from None
    return SyntheticSpec(
        ambient_dim=dims[0],
        subspace_dim=dims[1],
        n_subspaces=dims[2],
        points_per_subspace=dims[3],
        noise_sigma=sigma,
        seed=seed,
    )


def _load_dataset(manifest: RunManifest) -> LabeledDataset:
    """Generate or read the input, projected to manifest.pca_dim when it is set."""
    if manifest.synthetic is not None:
        dataset = generate_synthetic(manifest.synthetic)
    else:
        dataset = load_csv(manifest.csv_path, has_header=manifest.csv_has_header)
    if manifest.pca_dim is None:
        return dataset
    return LabeledDataset(pca_project(dataset.data, manifest.pca_dim), dataset.labels)


@single_blas_thread()
def run_pipeline(manifest: RunManifest) -> ClusteringResult:
    """Execute load/generate -> optional PCA -> solve -> cluster -> report.

    Runs wholly on one BLAS thread, so the result document's bytes do not
    depend on the BLAS thread count.
    """
    start = perf_counter()
    dataset = _load_dataset(manifest)
    data = dataset.data
    if manifest.spectral.n_clusters > data.shape[1]:
        raise ConfigError(
            f"n_clusters={manifest.spectral.n_clusters} exceeds number of points {data.shape[1]}"
        )
    solved = solve(data, manifest.solver)
    affinity = build_affinity(solved.coefficients, manifest.spectral.affinity_mode)
    labels = spectral_cluster(affinity, manifest.spectral)
    error = None
    if dataset.labels is not None:
        error = clustering_error(labels, dataset.labels)
    result = ClusteringResult(
        labels=labels,
        residual_history=solved.residual_history,
        iterations_used=solved.iterations_used,
        wall_time_seconds=perf_counter() - start,
        converged=solved.converged,
        error_rate=error,
    )
    if manifest.output is not None:
        _write_result_document(manifest, data.shape, result)
    if manifest.labels_csv is not None:
        _write_labels_csv(manifest.labels_csv, result.labels)
    return result


def _input_description(manifest: RunManifest) -> str:
    if manifest.synthetic is not None:
        sp = manifest.synthetic
        return (
            f"synthetic:{sp.ambient_dim},{sp.subspace_dim},{sp.n_subspaces},"
            f"{sp.points_per_subspace},{sp.noise_sigma!r}"
        )
    return f"csv:{manifest.csv_path}"


def _write_result_document(
    manifest: RunManifest, data_shape: tuple[int, int], result: ClusteringResult
) -> None:
    cfg = manifest.solver
    spec = manifest.spectral
    lines = [
        "format_version: 1",
        f"model: {cfg.model}",
        f"lambda: {cfg.lam!r}",
        f"s: {cfg.s!r}",
        f"rho: {cfg.rho!r}",
        f"max_iters: {cfg.max_iters}",
        f"tol: {cfg.tol!r}",
        f"zero_diagonal: {str(cfg.zero_diagonal).lower()}",
        f"seed: {spec.seed}",
        f"input: {_input_description(manifest)}",
        f"pca_dim: {manifest.pca_dim if manifest.pca_dim is not None else 'none'}",
        f"n_clusters: {spec.n_clusters}",
        f"affinity: {spec.affinity_mode}",
        f"kmeans_restarts: {KMEANS_RESTARTS}",
        f"n_features: {data_shape[0]}",
        f"n_points: {data_shape[1]}",
        f"iterations_used: {result.iterations_used}",
        f"converged: {str(result.converged).lower()}",
        f"error_rate: {result.error_rate!r}" if result.error_rate is not None else "error_rate: none",
        "labels: " + " ".join(str(int(v)) for v in result.labels),
        "residuals:",
    ]
    lines += [f"{a!r} {b!r} {c!r}" for a, b, c in result.residual_history]
    manifest.output.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_labels_csv(path: Path, labels: np.ndarray) -> None:
    path.write_text("label\n" + "".join(f"{int(v)}\n" for v in labels), encoding="utf-8")


@single_blas_thread()
def _run_ablation_command(manifest: RunManifest, workers: int) -> None:
    dataset = _load_dataset(manifest)
    grid = [
        replace(manifest.solver, model=model, lam=lam)
        for model in MODELS
        for lam in ABLATION_LAMBDAS
    ]
    report = run_ablation(dataset, grid, manifest.spectral, workers=workers)
    if manifest.output is not None:
        report.to_csv(manifest.output)
    print(report.format_table())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexsc",
        description="Subspace clustering via simplex-constrained self-expression.",
    )
    parser.add_argument("--model", choices=MODELS, default="ssrsc")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.01,
                        help="ridge regularization weight (default 0.01)")
    parser.add_argument("--s", type=float, default=0.5,
                        help="column-sum scale of the constraint (default 0.5)")
    parser.add_argument("--rho", type=float, default=0.5,
                        help="ADMM penalty parameter (default 0.5)")
    parser.add_argument("--iters", dest="max_iters", type=int, default=5,
                        help="ADMM iteration budget (default 5)")
    parser.add_argument("--tol", type=float, default=0.01,
                        help="ADMM residual tolerance (default 0.01)")
    parser.add_argument("--clusters", type=int, default=None,
                        help="number of clusters (default: subspace count for synthetic input)")
    parser.add_argument("--affinity", choices=AFFINITY_MODES, default=None,
                        help="affinity construction (default sym; abs for --ablation)")
    parser.add_argument("--pca-dim", type=int, default=None,
                        help="project data to this dimension before solving")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for data generation and k-means (default 0)")
    parser.add_argument("--zero-diagonal", action="store_true",
                        help="force zero self-representation, ssrsc only (exact simplex "
                             "projection of the off-diagonal entries)")
    parser.add_argument("--synthetic", metavar="D,d,n,ppc,sigma",
                        help="generate a union-of-subspaces sample instead of reading a file")
    parser.add_argument("--input", type=Path, help="row-per-sample CSV input")
    parser.add_argument("--no-header", action="store_true",
                        help="input CSV has no header row")
    parser.add_argument("--output", type=Path, help="write the result document here")
    parser.add_argument("--labels-csv", type=Path, help="also export labels as CSV")
    parser.add_argument("--ablation", action="store_true",
                        help="run the four-model lambda grid instead of a single pipeline")
    parser.add_argument("--workers", type=int, default=1,
                        help="thread count for --ablation grid rows (default 1)")
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    synthetic = None
    if args.synthetic is not None:
        synthetic = parse_synthetic_spec(args.synthetic, args.seed)
    n_clusters = args.clusters
    if n_clusters is None:
        if synthetic is None:
            raise ConfigError("--clusters is required for CSV input")
        n_clusters = synthetic.n_subspaces
    affinity = args.affinity or ("abs" if args.ablation else "sym")
    solver = SolverConfig(
        model=args.model,
        lam=args.lam,
        s=args.s,
        rho=args.rho,
        max_iters=args.max_iters,
        tol=args.tol,
        zero_diagonal=args.zero_diagonal,
        seed=args.seed,
    )
    spectral = SpectralConfig(n_clusters=n_clusters, affinity_mode=affinity, seed=args.seed)
    return RunManifest(
        solver=solver,
        spectral=spectral,
        csv_path=args.input,
        csv_has_header=not args.no_header,
        synthetic=synthetic,
        pca_dim=args.pca_dim,
        output=args.output,
        labels_csv=args.labels_csv,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = _manifest_from_args(args)
        if args.ablation:
            _run_ablation_command(manifest, args.workers)
        else:
            result = run_pipeline(manifest)
            error = "none" if result.error_rate is None else f"{result.error_rate:.6f}"
            print(
                f"model={manifest.solver.model} n_points={len(result.labels)} "
                f"n_clusters={manifest.spectral.n_clusters} "
                f"iterations={result.iterations_used} "
                f"converged={str(result.converged).lower()} "
                f"error_rate={error} time={result.wall_time_seconds:.3f}s"
            )
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, ConfigError, DomainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
