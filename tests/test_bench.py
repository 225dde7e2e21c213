"""Benchmark sweep harness: channel model, records, CSV, config parsing."""

import json

import numpy as np
import pytest

from cfsearch.baselines import CLLLParams, QesParams
from cfsearch.bench import (
    CSV_HEADER,
    WORKERS_ENV,
    BenchConfig,
    BenchRecord,
    format_record,
    gen_channel,
    load_config,
    run_sweep,
    write_records_csv,
)
from cfsearch.errors import InvalidInputError
from cfsearch.rings import Ring


def tiny_config(**kw):
    base = dict(L=2, snr_db_list=(0.0, 10.0), trials=4, seed=42,
                algorithms=("optimal", "exhaustive"))
    base.update(kw)
    return BenchConfig(**base)


class TestGenChannel:
    def test_unit_entry_variance(self):
        rng = np.random.default_rng(601)
        power = np.mean([np.abs(gen_channel(8, 2, rng).H) ** 2 for _ in range(700)])
        assert power == pytest.approx(1.0, abs=0.02)

    def test_shape_and_determinism(self):
        ch1 = gen_channel(3, 2, np.random.default_rng(77), P=4.0)
        ch2 = gen_channel(3, 2, np.random.default_rng(77), P=4.0)
        assert ch1.H.shape == (2, 3)
        assert ch1.P == 4.0
        assert np.array_equal(ch1.H, ch2.H)


class TestBenchConfig:
    def test_accepts_valid(self):
        cfg = tiny_config()
        assert cfg.snr_db_list == (0.0, 10.0)
        assert cfg.ring is Ring.GAUSSIAN

    def test_rejects_vector_algorithms_for_multi_antenna(self):
        for alg in ("optimal", "clll", "qes"):
            with pytest.raises(InvalidInputError):
                tiny_config(k=2, algorithms=(alg,))

    def test_accepts_matrix_algorithms_for_multi_antenna(self):
        cfg = tiny_config(k=2, algorithms=("mimo-optimal", "exhaustive"))
        assert cfg.k == 2

    def test_rejects_gaussian_only_algorithms_on_hex_ring(self):
        for alg in ("clll", "qes"):
            with pytest.raises(InvalidInputError):
                tiny_config(ring=Ring.EISENSTEIN, algorithms=(alg,))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InvalidInputError):
            tiny_config(algorithms=("magic",))

    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidInputError):
            tiny_config(trials=0)
        with pytest.raises(InvalidInputError):
            tiny_config(snr_db_list=())
        with pytest.raises(InvalidInputError):
            tiny_config(snr_db_list=(0.0, float("nan")))
        with pytest.raises(InvalidInputError):
            tiny_config(k=3)  # k > L
        with pytest.raises(InvalidInputError):
            tiny_config(algorithms=())


class TestRunSweep:
    def test_record_layout(self):
        cfg = tiny_config(algorithms=("optimal", "exhaustive", "clll", "qes"))
        recs = run_sweep(cfg)
        assert len(recs) == 2 * 4
        assert [r.snr_db for r in recs] == [0.0] * 4 + [10.0] * 4
        assert [r.algorithm for r in recs[:4]] == ["optimal", "exhaustive", "clll", "qes"]
        for r in recs:
            assert r.L == 2 and r.k == 1 and r.ring == "gaussian"
            assert r.trials == 4 and r.seed == 42
            assert r.cpu_ms_total >= 0.0

    def test_reproducible_except_timing(self):
        cfg = tiny_config(algorithms=("optimal", "qes"))
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        for ra, rb in zip(a, b):
            assert ra.avg_rate == rb.avg_rate
            assert ra.avg_f == rb.avg_f
            assert ra.optimal_match_fraction == rb.optimal_match_fraction

    def test_exact_algorithms_always_match_reference(self):
        recs = run_sweep(tiny_config(trials=6))
        for r in recs:
            assert r.optimal_match_fraction == 1.0
            if r.algorithm == "optimal":
                exh = next(
                    x for x in recs if x.snr_db == r.snr_db and x.algorithm == "exhaustive"
                )
                assert r.avg_f == pytest.approx(exh.avg_f, rel=1e-9)

    def test_baselines_never_beat_exact_search(self):
        recs = run_sweep(tiny_config(algorithms=("optimal", "clll", "qes"), trials=6))
        by_alg = {(r.snr_db, r.algorithm): r for r in recs}
        for snr in (0.0, 10.0):
            opt = by_alg[(snr, "optimal")]
            assert by_alg[(snr, "clll")].avg_rate <= opt.avg_rate + 1e-12
            assert by_alg[(snr, "qes")].avg_rate <= opt.avg_rate + 1e-12
            assert by_alg[(snr, "clll")].avg_f >= opt.avg_f - 1e-12

    def test_hex_ring_sweep(self):
        recs = run_sweep(tiny_config(ring=Ring.EISENSTEIN, trials=3))
        assert all(r.ring == "eisenstein" for r in recs)
        assert all(r.optimal_match_fraction == 1.0 for r in recs)

    def test_multi_antenna_sweep(self):
        cfg = tiny_config(
            k=2, algorithms=("mimo-optimal", "exhaustive"), snr_db_list=(10.0,), trials=3
        )
        recs = run_sweep(cfg)
        assert len(recs) == 2
        assert all(r.optimal_match_fraction == 1.0 for r in recs)

    def test_no_reference_leaves_match_empty(self):
        recs = run_sweep(tiny_config(algorithms=("clll",), snr_db_list=(5.0,)))
        assert recs[0].optimal_match_fraction is None

    def test_writes_csv_and_metadata(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        cfg = tiny_config(snr_db_list=(10.0,), trials=2, output_path=out)
        recs = run_sweep(cfg)
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(recs)
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["csv_header"] == CSV_HEADER
        assert meta["config"]["seed"] == 42
        assert "P = 10^(snr_db/10)" in meta["snr_convention"]

    def test_worker_pool_matches_serial(self, monkeypatch):
        cfg = tiny_config(algorithms=("optimal",), snr_db_list=(10.0,), trials=4)
        serial = run_sweep(cfg)
        monkeypatch.setenv(WORKERS_ENV, "2")
        pooled = run_sweep(cfg)
        assert pooled[0].avg_rate == serial[0].avg_rate
        assert pooled[0].avg_f == serial[0].avg_f

    def test_bad_worker_env_rejected(self, monkeypatch):
        cfg = tiny_config(snr_db_list=(0.0,), trials=1)
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(InvalidInputError):
            run_sweep(cfg)
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(InvalidInputError):
            run_sweep(cfg)


class TestRecordFormatting:
    def test_field_layout(self):
        rec = BenchRecord(
            snr_db=10.0, L=4, k=1, ring="gaussian", algorithm="optimal",
            avg_rate=1.25, avg_f=2.5, cpu_ms_total=12.3456,
            optimal_match_fraction=1.0, trials=100, seed=7,
        )
        line = format_record(rec)
        assert line == "10,4,1,gaussian,optimal,1.25,2.5,12.346,1.000000,100,7"
        assert line.count(",") == CSV_HEADER.count(",")

    def test_missing_match_is_empty_field(self):
        rec = BenchRecord(
            snr_db=0.0, L=2, k=1, ring="gaussian", algorithm="clll",
            avg_rate=0.5, avg_f=3.0, cpu_ms_total=1.0,
            optimal_match_fraction=None, trials=5, seed=1,
        )
        fields = format_record(rec).split(",")
        assert fields[8] == ""

    def test_write_records_csv(self, tmp_path):
        path = str(tmp_path / "r.csv")
        rec = BenchRecord(0.0, 2, 1, "gaussian", "optimal", 1.0, 1.0, 0.0, 1.0, 1, 0)
        write_records_csv([rec], path)
        lines = open(path).read().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 2


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# comment line\n"
            "L = 3\n"
            "k = 1\n"
            "snr_db_list = [0, 5, 10]\n"
            "trials = 20\n"
            "seed = 99\n"
            "ring = eisenstein\n"
            'algorithms = ["optimal", "exhaustive"]\n'
            "output_path = out.csv\n"
        )
        cfg = load_config(str(path))
        assert cfg.L == 3 and cfg.trials == 20 and cfg.seed == 99
        assert cfg.snr_db_list == (0.0, 5.0, 10.0)
        assert cfg.ring is Ring.EISENSTEIN
        assert cfg.algorithms == ("optimal", "exhaustive")
        assert cfg.output_path == "out.csv"

    def test_algorithms_as_comma_string(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "L = 2\nsnr_db_list = [10]\ntrials = 2\nseed = 1\n"
            "algorithms = optimal, qes\n"
        )
        assert load_config(str(path)).algorithms == ("optimal", "qes")

    def test_baseline_parameter_keys(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "L = 2\nsnr_db_list = [10]\ntrials = 2\nseed = 1\n"
            "algorithms = optimal, qes, clll\n"
            "qes_mag_step = 0.05\nqes_phase_step_deg = 2.5\n"
            "clll_delta = 0.75\nclll_max_iter = 500\n"
        )
        cfg = load_config(str(path))
        assert cfg.qes == QesParams(mag_step=0.05, phase_step_deg=2.5)
        assert cfg.clll == CLLLParams(delta=0.75, max_iter=500)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("L = 2\nsnr_db_list = [0]\ntrials = 1\nseed = 1\nbogus = 3\n")
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("L = 2\nsnr_db_list = [0]\ntrials = 1\n")  # no seed
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("L 2\n")
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    @pytest.mark.parametrize("line", [
        "trials = many", "snr_db_list = 0, 10", "qes_mag_step = fine", "clll_max_iter = [1]",
        "algorithms = 5",
    ])
    def test_malformed_value_names_file_and_key(self, tmp_path, line):
        base = {"L": "2", "snr_db_list": "[0]", "trials": "1", "seed": "1"}
        key, _, value = (part.strip() for part in line.partition("="))
        base[key] = value
        path = tmp_path / "s.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        with pytest.raises(InvalidInputError) as info:
            load_config(str(path))
        assert str(path) in str(info.value) and repr(key) in str(info.value)

    def test_unknown_ring_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("L = 2\nsnr_db_list = [0]\ntrials = 1\nseed = 1\nring = octonion\n")
        with pytest.raises(InvalidInputError):
            load_config(str(path))

    @pytest.mark.parametrize("name", ["eisenstein", "Eisenstein", "EISENSTEIN"])
    def test_ring_name_is_case_insensitive(self, tmp_path, name):
        path = tmp_path / "s.cfg"
        path.write_text(f"L = 2\nsnr_db_list = [0]\ntrials = 1\nseed = 1\nring = {name}\n")
        assert load_config(str(path)).ring is Ring.EISENSTEIN
