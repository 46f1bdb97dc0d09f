import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexsc import (
    LabeledDataset,
    SolverConfig,
    SpectralConfig,
    SyntheticSpec,
    generate_synthetic,
    save_csv,
)
from simplexsc.cli import RunManifest, build_parser, main, parse_synthetic_spec, run_pipeline
from simplexsc.core import AFFINITY_MODES, MODELS, ConfigError, NumericError

FIXTURE = ["--synthetic", "12,2,2,8,0.01", "--seed", "7"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "simplexsc.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestParseSyntheticSpec:
    def test_parses_fields(self):
        spec = parse_synthetic_spec("30,4,3,50,0.05", seed=9)
        assert spec.ambient_dim == 30
        assert spec.subspace_dim == 4
        assert spec.n_subspaces == 3
        assert spec.points_per_subspace == 50
        assert spec.noise_sigma == 0.05
        assert spec.seed == 9

    @pytest.mark.parametrize("text", ["30,4,3", "a,4,3,50,0.0", "30,4,3,50,x"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_synthetic_spec(text, seed=0)


class TestPipelineCommand:
    def test_successful_run_writes_document(self, tmp_path):
        out = tmp_path / "result.txt"
        code = main(FIXTURE + ["--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "format_version: 1"
        assert any(line.startswith("labels: ") for line in lines)
        assert "residuals:" in lines
        labels_line = next(line for line in lines if line.startswith("labels: "))
        assert len(labels_line.split()) == 1 + 16  # 2 subspaces x 8 points

    def test_document_keys(self, tmp_path):
        out = tmp_path / "result.txt"
        assert main(FIXTURE + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        keys = [line.split(":")[0] for line in lines[: lines.index("residuals:")]]
        assert "use_woodbury" not in keys
        assert keys == [
            "format_version", "model", "lambda", "s", "rho", "max_iters", "tol",
            "zero_diagonal", "seed", "input", "pca_dim", "n_clusters", "affinity",
            "kmeans_restarts", "n_features", "n_points", "iterations_used", "converged",
            "error_rate", "labels",
        ]

    def test_document_records_the_k_means_seed(self, tmp_path):
        out = tmp_path / "result.txt"
        manifest = RunManifest(
            solver=SolverConfig(),
            spectral=SpectralConfig(n_clusters=2, seed=5),
            synthetic=SyntheticSpec(12, 2, 2, 8, 0.01, seed=7),
            output=out,
        )
        run_pipeline(manifest)
        assert "seed: 5" in out.read_text().splitlines()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        assert main(FIXTURE + ["--output", str(first)]) == 0
        assert main(FIXTURE + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_labels_csv_export(self, tmp_path):
        path = tmp_path / "labels.csv"
        assert main(FIXTURE + ["--labels-csv", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label"
        assert len(lines) == 17

    def test_csv_input_with_labels_reports_error_rate(self, tmp_path, capsys):
        dataset = generate_synthetic(SyntheticSpec(10, 2, 2, 20, 0.0, seed=3))
        csv_path = tmp_path / "points.csv"
        save_csv(csv_path, dataset)
        code = main(["--input", str(csv_path), "--clusters", "2"])
        assert code == 0
        summary = capsys.readouterr().out
        assert "error_rate=0.000000" in summary

    def test_pca_dim_flag(self, tmp_path):
        out = tmp_path / "result.txt"
        assert main(FIXTURE + ["--pca-dim", "4", "--output", str(out)]) == 0
        assert "n_features: 4" in out.read_text()

    def test_exit_codes_via_subprocess(self, tmp_path):
        # config error: more clusters than points
        proc = run_cli("--synthetic", "12,2,2,8,0.0", "--clusters", "40")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config: ")
        # parse error: malformed csv
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        proc = run_cli("--input", str(bad), "--clusters", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: parse: ")
        # config error: no input source
        proc = run_cli("--clusters", "2")
        assert proc.returncode == 2
        # config error: both input sources
        proc = run_cli("--synthetic", "12,2,2,8,0.0", "--input", str(bad))
        assert proc.returncode == 2

    @pytest.mark.parametrize("pca_dim", [None, 4])
    def test_failed_svd_raises_numeric_error(self, pca_dim, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        manifest = RunManifest(
            solver=SolverConfig(),
            spectral=SpectralConfig(n_clusters=2),
            synthetic=parse_synthetic_spec("12,2,2,8,0.01", 7),
            pca_dim=pca_dim,
        )
        with pytest.raises(NumericError, match="SVD"):
            run_pipeline(manifest)

    def test_summary_line_format(self, capsys):
        assert main(FIXTURE) == 0
        out = capsys.readouterr().out
        assert out.startswith("model=ssrsc n_points=16 n_clusters=2 ")
        assert "error_rate=" in out and "time=" in out

    def test_noiseless_fixture_clusters_cleanly(self):
        from simplexsc.cli import RunManifest, run_pipeline
        from simplexsc import SolverConfig, SpectralConfig

        manifest = RunManifest(
            solver=SolverConfig(model="ssrsc"),
            spectral=SpectralConfig(n_clusters=3, seed=0),
            synthetic=SyntheticSpec(30, 4, 3, 50, 0.0, seed=0),
        )
        result = run_pipeline(manifest)
        assert result.error_rate is not None and result.error_rate <= 0.05
        assert result.iterations_used <= manifest.solver.max_iters
        assert len(result.residual_history) == result.iterations_used


class TestFlags:
    def test_woodbury_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(FIXTURE + ["--woodbury", "on"])
        assert exited.value.code == 2
        assert "--woodbury" in capsys.readouterr().err

    def test_readme_lists_every_flag(self):
        # The README's "Flags:" paragraph names each long option once, in parser order.
        text = README.read_text(encoding="utf-8")
        paragraph = text[text.index("Flags: "):].split("\n\n")[0]
        documented = re.findall(r"`(--[a-z-]+)", paragraph)
        options = [
            option
            for action in build_parser()._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        ]
        assert documented == options


class TestRunManifest:
    @pytest.mark.parametrize("pca_dim", [0, 2.5])
    def test_rejects_invalid_pca_dim(self, pca_dim):
        with pytest.raises(ConfigError, match="pca_dim"):
            RunManifest(
                solver=SolverConfig(),
                spectral=SpectralConfig(n_clusters=2),
                synthetic=SyntheticSpec(12, 2, 2, 8),
                pca_dim=pca_dim,
            )


class TestAblationCommand:
    def test_grid_runs_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(FIXTURE + ["--ablation", "--output", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        for model in ("lsr", "nlsr", "slsr", "ssrsc"):
            assert model in table
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 12  # header + 4 models x 3 lambdas
        assert rows[0].startswith("model,lambda,s,")

    def test_grid_rows_follow_model_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(FIXTURE + ["--ablation", "--output", str(out)]) == 0
        models = [row.split(",")[0] for row in out.read_text().strip().splitlines()[1:]]
        assert models == [m for m in MODELS for _ in range(3)]


class TestZeroDiagonalFlag:
    def test_rejected_outside_ssrsc(self, capsys):
        assert main(FIXTURE + ["--model", "nlsr", "--zero-diagonal"]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_rejected_by_the_ablation_grid(self, capsys):
        # The grid runs every model, and zero_diagonal applies to ssrsc alone.
        assert main(FIXTURE + ["--ablation", "--zero-diagonal"]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")


def degenerate_points(kind: str, n: int, rng) -> np.ndarray:
    """A D x N matrix of standard normal points made degenerate in one way."""
    if kind == "D >= N":
        return rng.standard_normal((n + int(rng.integers(0, 4)), n))
    d = int(rng.integers(2, n))
    if kind == "rank-deficient":
        rank = int(rng.integers(1, d))
        return rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    x = rng.standard_normal((d, n))
    if kind == "duplicate points":
        copies = int(rng.integers(1, n // 2 + 1))
        x[:, n - copies:] = x[:, rng.integers(0, n - copies, size=copies)]
    else:  # a zero column: a point of degree 0 in the affinity graph
        x[:, rng.integers(n)] = 0.0
    return x


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "kind", ["duplicate points", "zero column", "rank-deficient", "D >= N"]
    )
    @pytest.mark.parametrize("model", MODELS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 14),
        clusters=st.sampled_from(["2", "N - 1", "N"]),
        scale=st.sampled_from([1.0, 1e150, 1e160]),
        affinity=st.sampled_from(AFFINITY_MODES),
    )
    @settings(max_examples=12, deadline=None)
    def test_pipeline_ends_in_valid_labels_or_a_typed_error(
        self, model, kind, seed, n, clusters, scale, affinity
    ):
        x = degenerate_points(kind, n, np.random.default_rng(seed)) * scale
        k = {"2": 2, "N - 1": n - 1, "N": n}[clusters]
        with tempfile.TemporaryDirectory() as workdir:
            csv_path = Path(workdir) / "points.csv"
            save_csv(csv_path, LabeledDataset(x))
            manifest = RunManifest(
                solver=SolverConfig(model=model),
                spectral=SpectralConfig(n_clusters=k, affinity_mode=affinity, seed=seed % 1000),
                csv_path=csv_path,
                output=Path(workdir) / "result.txt",
            )
            try:
                result = run_pipeline(manifest)
            except (ConfigError, NumericError):
                return
            assert (Path(workdir) / "result.txt").exists()
        assert result.labels.shape == (n,)
        assert result.labels.min() >= 0 and result.labels.max() < k
