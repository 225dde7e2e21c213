"""Tests of the benchmark itself: inputs, checker, tracing and output format.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cfsearch.baselines import exhaustive_search  # noqa: E402
from cfsearch.model import ChannelVector, cost_matrix, phi_bound  # noqa: E402
from cfsearch.rings import Ring  # noqa: E402


def _key(op: workloads.Op) -> bytes:
    return op.H.tobytes() + np.float64(op.P).tobytes()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    for make in (lambda s: workloads.pass_ops(workload, s, 3), lambda s: workloads.warmup_ops(workload, s, 1)):
        a, b = make(11), make(11)
        assert [_key(o) for o in a] == [_key(o) for o in b]
        assert [(o.cell, o.sweep_seed) for o in a] == [(o.cell, o.sweep_seed) for o in b]
        assert [_key(o) for o in make(12)] != [_key(o) for o in a]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_no_channel_twice_and_warmup_apart(workload):
    timed = [_key(o) for p in range(4) for o in workloads.pass_ops(workload, 5, p)]
    warm = [_key(o) for seg in range(3) for o in workloads.warmup_ops(workload, 5, seg)]
    assert len(set(timed)) == len(timed)
    assert not set(warm) & set(timed)


def test_pass_holds_each_cell_count_times():
    for workload, cells in workloads.WORKLOADS.items():
        ops = workloads.pass_ops(workload, 1, 0)
        assert len(ops) == sum(c.count for c in cells)
        for c in cells:
            assert sum(o.cell == c for o in ops) == c.count


def _oracle_case(ring: str, L=4, snr_db=20.0, seed=3):
    op = workloads.Op(workloads.Cell(ring, L, 1, snr_db, 1, "vector"),
                      workloads.gen_channel(L, 1, np.random.default_rng(seed)).H, 10 ** (snr_db / 10))
    ch = ChannelVector(op.H[0], op.P)
    res = exhaustive_search(cost_matrix(ch), phi_bound(ch), Ring(ring), prune="cost")
    a = [[type(e).__name__, *((e.re, e.im) if ring == "gaussian" else (e.a, e.b))] for e in res.a_opt]
    return op, {"a": a, "f_min": res.f_min}


@pytest.mark.parametrize("ring", workloads.RINGS)
def test_checker_accepts_the_exact_answer(ring):
    op, ans = _oracle_case(ring)
    assert checks.check_search(ring, op.H, op.P, ans, exact=True) == []
    assert checks.exact_minimum(ring, op.H, op.P) == pytest.approx(ans["f_min"], rel=1e-9)


@pytest.mark.parametrize("ring", workloads.RINGS)
def test_checker_rejects_wrong_answers(ring):
    op, ans = _oracle_case(ring)
    misreported = dict(ans, f_min=ans["f_min"] * (1 + 1e-6))
    assert checks.check_search(ring, op.H, op.P, misreported, exact=True)

    # a vector that is not optimal, reported with its true cost
    M = checks.gram(op.H, op.P)
    worst = int(np.argmax(M.diagonal().real))
    coords = [(int(j == worst), 0) for j in range(op.H.shape[1])]
    f = checks.form_value(ring, coords, op.H, op.P)
    assert f > ans["f_min"] * 1.01
    name = checks.ELEMENT_TYPE[ring]
    not_optimal = {"a": [[name, x, y] for x, y in coords], "f_min": f}
    assert any("enumerated minimum" in p for p in checks.check_search(ring, op.H, op.P, not_optimal, exact=True))

    zero = {"a": [[name, 0, 0]] * op.H.shape[1], "f_min": ans["f_min"]}
    assert checks.check_search(ring, op.H, op.P, zero, exact=True) == ["zero vector"]
    not_int = {"a": [[name, float(x), y] for _, x, y in ans["a"]], "f_min": ans["f_min"]}
    assert checks.check_search(ring, op.H, op.P, not_int, exact=True)


def test_sweep_checker_rejects_wrong_records():
    op, ans = _oracle_case("gaussian")
    f = ans["f_min"]
    good = [
        {"algorithm": "optimal", "avg_f": f, "optimal_match_fraction": 1.0},
        {"algorithm": "qes", "avg_f": 1.5 * f, "optimal_match_fraction": 0.0},
        {"algorithm": "clll", "avg_f": 2.0 * f, "optimal_match_fraction": 0.0},
    ]
    assert checks.check_sweep("gaussian", 4, op.H, op.P, good) == []
    for alg, bad_f in (("optimal", 1.01 * f), ("qes", 0.99 * f), ("clll", 9.0 * f)):
        bad = [dict(r, avg_f=bad_f) if r["algorithm"] == alg else r for r in good]
        assert checks.check_sweep("gaussian", 4, op.H, op.P, bad), alg


def test_every_traced_name_resolves():
    for target in list(tracing.TARGETS) + [t for t, _ in tracing.ROOTS.values()]:
        assert callable(tracing.resolve(target))
    with pytest.raises(LookupError):
        tracing.resolve("cfsearch.optimal.no_such_layer")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    out = _run(ROOT, "--workload", "sweep", "--seed", "2", "--seconds", "0.1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(tracing.METRICS)
    for name in ("baselines.clll_search.ms_per_op", "baselines.qes_search.ms_per_op",
                 "bench.run_sweep.self_ms_per_op", "model.cost_batch.rows_per_op"):
        assert res["metrics"][name]["value"] > 0, name


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(str(tmp_path), "--workload", "vector", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
