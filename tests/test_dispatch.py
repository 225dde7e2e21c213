"""One algorithm dispatcher behind the sweep, `cfsearch search` and `cfsearch selftest`.

The front ends go through `cfsearch.bench.check_algorithm`, `gram` and
`run_algorithm`, so they agree on answers and on which (algorithm, ring, k)
cells are rejected, and a search or Gram builder replaced on the
`cfsearch.bench` module is what each of them runs.
"""

import dataclasses
import json

import numpy as np
import pytest

import cfsearch.bench as bench
from cfsearch.bench import ALGORITHMS, BenchConfig, gen_channel, run_sweep
from cfsearch.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from cfsearch.errors import InvalidInputError
from cfsearch.rings import Ring

L = 2
SNR_DB = 10.0
SEED = 7
CELLS = [(alg, ring, k) for alg in ALGORITHMS for ring in Ring for k in (1, 2)]
#: The names a tracer replaces on `cfsearch.bench` to time the sweep's layers.
INTERCEPTED = (
    "search_optimal", "clll_search", "qes_search", "exhaustive_search",
    "cost_matrix", "phi_bound", "mimo_gram", "mimo_phi",
)


def applicable(alg, ring, k):
    try:
        BenchConfig(L=L, k=k, ring=ring, snr_db_list=(SNR_DB,), trials=1, seed=SEED,
                    algorithms=(alg,))
    except InvalidInputError:
        return False
    return True


def cli_search(capsys, H, alg, ring):
    h = json.dumps([[[z.real, z.imag] for z in row] for row in H.tolist()])
    code = main(["search", "--h", h, "--snr-db", str(SNR_DB), "--ring", ring.name.lower(),
                 "--algorithm", alg])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("alg,ring,k", [c for c in CELLS if applicable(*c)])
def test_search_and_sweep_report_the_same_answer(capsys, alg, ring, k):
    [rec] = run_sweep(BenchConfig(L=L, k=k, ring=ring, snr_db_list=(SNR_DB,), trials=1,
                                  seed=SEED, algorithms=(alg,)))
    H = gen_channel(L, k, np.random.default_rng(SEED)).H  # the sweep's one channel
    code, out = cli_search(capsys, H, alg, ring)
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["f_min"], data["rate"]) == (rec.avg_f, rec.avg_rate)


@pytest.fixture
def calls(monkeypatch):
    """Wrap the intercepted names on `cfsearch.bench`; yields the set of names called."""
    seen = set()

    def wrap(name, fn):
        def traced(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)

        return traced

    for name in INTERCEPTED:
        monkeypatch.setattr(bench, name, wrap(name, getattr(bench, name)))
    return seen


def test_sweep_calls_the_intercepted_names(calls):
    run_sweep(BenchConfig(L=L, snr_db_list=(SNR_DB,), trials=1, seed=SEED,
                          algorithms=("optimal", "exhaustive", "clll", "qes")))
    run_sweep(BenchConfig(L=L, k=2, snr_db_list=(SNR_DB,), trials=1, seed=SEED,
                          algorithms=("mimo-optimal", "exhaustive")))
    assert calls == set(INTERCEPTED)


def test_search_calls_the_intercepted_names(capsys, calls):
    rng = np.random.default_rng(SEED)
    for k, algs in ((1, ("optimal", "exhaustive", "clll", "qes")), (2, ("exhaustive",))):
        H = gen_channel(L, k, rng).H
        for alg in algs:
            assert cli_search(capsys, H, alg, Ring.GAUSSIAN)[0] == EXIT_OK
    assert calls == set(INTERCEPTED)


def test_selftest_reports_each_mismatch(capsys, monkeypatch):
    real = bench.search_optimal

    def wrong(ch, ring):
        res = real(ch, ring)
        return dataclasses.replace(res, f_min=2.0 * res.f_min)

    monkeypatch.setattr(bench, "search_optimal", wrong)
    code = main(["selftest", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_NUMERIC
    # six vector instances (2 rings x 3 SNRs) fail; the k = 2 instance passes
    assert out.count("MISMATCH") == 6 and out.count(" H=[[") == 6
    assert "selftest: 1/7 instances matched" in out


def test_search_and_sweep_reject_the_same_cells(capsys):
    rng = np.random.default_rng(SEED)
    channels = {k: gen_channel(L, k, rng).H for k in (1, 2)}
    cli_rejects = set()
    for alg, ring, k in CELLS:
        code, _ = cli_search(capsys, channels[k], alg, ring)
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_USAGE:
            cli_rejects.add((alg, ring, k))
    config_rejects = {cell for cell in CELLS if not applicable(*cell)}
    assert cli_rejects == config_rejects
    vector_only = {(alg, ring, 2) for alg in ("optimal", "clll", "qes") for ring in Ring}
    gaussian_only = {(alg, Ring.EISENSTEIN, k) for alg in ("clll", "qes") for k in (1, 2)}
    assert config_rejects == vector_only | gaussian_only
