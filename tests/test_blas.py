import sys
import threading

import pytest

from simplexsc import (
    SolverConfig,
    SpectralConfig,
    SyntheticSpec,
    build_affinity,
    generate_synthetic,
    run_ablation,
    solve,
    spectral_cluster,
)
from simplexsc.blas import controllable_openblas, single_blas_thread
from simplexsc.cli import RunManifest, run_pipeline

pytestmark = pytest.mark.skipif(
    not controllable_openblas(), reason="no controllable OpenBLAS is loaded"
)


def blas_thread_counts():
    return tuple(lib.get_num_threads() for lib in controllable_openblas())


@pytest.fixture
def prior_counts():
    """Set every controllable OpenBLAS to 3 threads for the test, then put back the originals."""
    libs = controllable_openblas()
    original = blas_thread_counts()
    for lib in libs:
        lib.set_num_threads(3)
    try:
        yield blas_thread_counts()
    finally:
        for lib, threads in zip(libs, original):
            lib.set_num_threads(threads)


def pinned():
    return (1,) * len(controllable_openblas())


def test_pins_every_controllable_openblas_to_one_thread(prior_counts):
    assert prior_counts != pinned()
    with single_blas_thread():
        assert blas_thread_counts() == pinned()
        with single_blas_thread():
            assert blas_thread_counts() == pinned()
        assert blas_thread_counts() == pinned()
    assert blas_thread_counts() == prior_counts


def test_restores_prior_counts_on_exception(prior_counts):
    with pytest.raises(ZeroDivisionError):
        with single_blas_thread():
            1 / 0
    assert blas_thread_counts() == prior_counts


def test_concurrent_entries_restore_prior_counts(prior_counts):
    workers, rounds = 8, 200
    barrier = threading.Barrier(workers)
    seen = []

    def enter_repeatedly():
        barrier.wait(timeout=30)
        for _ in range(rounds):
            with single_blas_thread():
                seen.append(blas_thread_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_repeatedly) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == workers * rounds
    assert set(seen) == {pinned()}
    assert blas_thread_counts() == prior_counts


def test_library_entry_points_restore_prior_counts(prior_counts, tmp_path):
    dataset = generate_synthetic(SyntheticSpec(12, 2, 2, 10, 0.01, seed=3))
    spectral = SpectralConfig(n_clusters=2, seed=3)
    for model in ("ssrsc", "lsr"):
        solve(dataset.data, SolverConfig(model=model))
        assert blas_thread_counts() == prior_counts
    affinity = build_affinity(solve(dataset.data, SolverConfig()).coefficients)
    spectral_cluster(affinity, spectral)
    assert blas_thread_counts() == prior_counts
    grid = [SolverConfig(model=m) for m in ("lsr", "nlsr", "slsr", "ssrsc")]
    run_ablation(dataset, grid, spectral, workers=2)
    assert blas_thread_counts() == prior_counts
    run_pipeline(RunManifest(
        solver=SolverConfig(), spectral=spectral,
        synthetic=SyntheticSpec(12, 2, 2, 10, 0.01, seed=3), output=tmp_path / "doc.txt",
    ))
    assert blas_thread_counts() == prior_counts

