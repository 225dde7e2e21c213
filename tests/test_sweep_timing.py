"""Sweep harness: one worker pool per sweep, CPU time in `cpu_ms_total`."""

import concurrent.futures
import time

from cfsearch import bench
from cfsearch.bench import WORKERS_ENV, BenchConfig, run_sweep
from cfsearch.rings import Ring


def config(**kw):
    base = dict(L=2, snr_db_list=(0.0, 5.0, 10.0), trials=4, seed=42, ring=Ring.GAUSSIAN,
                algorithms=("optimal", "exhaustive"))
    base.update(kw)
    return BenchConfig(**base)


def test_pool_starts_once_per_sweep(monkeypatch):
    cfg = config()
    serial = run_sweep(cfg)
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled = run_sweep(cfg)
    assert started == [2]
    assert len(pooled) == len(serial) == 3 * 2
    for rp, rs in zip(pooled, serial):
        assert (rp.snr_db, rp.algorithm, rp.avg_rate, rp.avg_f, rp.optimal_match_fraction) == (
            rs.snr_db, rs.algorithm, rs.avg_rate, rs.avg_f, rs.optimal_match_fraction
        )


def test_cpu_ms_total_excludes_idle_wall_time(monkeypatch):
    real_search = bench.search_optimal

    def idle_search(*args, **kwargs):
        time.sleep(0.1)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(bench, "search_optimal", idle_search)
    recs = run_sweep(config(snr_db_list=(10.0,), trials=3, algorithms=("optimal",)))
    # three calls sleep 300 ms of wall time between them, using no CPU
    assert 0.0 <= recs[0].cpu_ms_total < 150.0
