"""Reproducible SNR-sweep benchmarks over random complex Gaussian channels.

A sweep draws one shared sequence of channels from a seeded generator and
runs every selected algorithm on the identical sequence at every SNR, so
comparisons are paired.  Per-algorithm CPU time is accumulated around the
search call only.  Records serialize to a fixed CSV schema plus a JSON
metadata sidecar documenting the conventions (P = 10^(snr_db/10), unit
noise variance, unit channel-entry variance).

Set the CFSEARCH_WORKERS environment variable above 1 to fan trials out to
a process pool; results are identical to the serial run except for timing.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import CLLLParams, QesParams, clll_search, exhaustive_search, qes_search
from .errors import CFSearchError, InvalidInputError
from .mimo import search_optimal_mimo
from .model import (
    ChannelMatrix,
    SearchResult,
    b_opt,
    cost,
    cost_matrix,
    mimo_gram,
    mimo_phi,
    mimo_rate,
    phi_bound,
    rate,
)
from .optimal import search_optimal
from .rings import Ring

ALGORITHMS = ("optimal", "mimo-optimal", "exhaustive", "clll", "qes")
VECTOR_ONLY_ALGORITHMS = ("optimal", "clll", "qes")
GAUSSIAN_ONLY_ALGORITHMS = ("clll", "qes")
CSV_HEADER = "snr_db,L,k,ring,algorithm,avg_rate,avg_f,cpu_ms_total,optimal_match_fraction,trials,seed"
MATCH_RTOL = 1e-9
WORKERS_ENV = "CFSEARCH_WORKERS"


@dataclass(frozen=True)
class BenchConfig:
    """Declarative description of one sweep."""

    L: int
    snr_db_list: tuple[float, ...]
    trials: int
    seed: int
    k: int = 1
    ring: Ring = Ring.GAUSSIAN
    algorithms: tuple[str, ...] = ("optimal",)
    qes: QesParams | None = None
    clll: CLLLParams | None = None
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.L < 1 or not 1 <= self.k <= self.L:
            raise InvalidInputError(f"need 1 <= k <= L, got k={self.k}, L={self.L}")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_db_list or not all(np.isfinite(self.snr_db_list)):
            raise InvalidInputError("snr_db_list must be nonempty and finite")
        if not self.algorithms:
            raise InvalidInputError("algorithm list must be nonempty")
        for alg in self.algorithms:
            check_algorithm(alg, self.k, self.ring)


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row: averages for one (SNR, algorithm) cell of a sweep."""

    snr_db: float
    L: int
    k: int
    ring: str
    algorithm: str
    avg_rate: float
    avg_f: float
    cpu_ms_total: float
    optimal_match_fraction: float | None
    trials: int
    seed: int


def gen_channel(L: int, k: int, rng: np.random.Generator, P: float = 1.0) -> ChannelMatrix:
    """Draw a k x L channel with i.i.d. unit-variance complex Gaussian entries.

    Real and imaginary parts are each drawn with variance 1/2, real part
    first, so draws are bit-reproducible for a given generator state.
    """
    re = rng.standard_normal((k, L))
    im = rng.standard_normal((k, L))
    return ChannelMatrix((re + 1j * im) / math.sqrt(2.0), P)


def check_algorithm(alg: str, k: int, ring: Ring) -> None:
    """Raise InvalidInputError unless `alg` runs on a k-row channel over `ring`."""
    if alg not in ALGORITHMS:
        raise InvalidInputError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    if k > 1 and alg in VECTOR_ONLY_ALGORITHMS:
        raise InvalidInputError(f"algorithm {alg!r} requires k=1")
    if ring is Ring.EISENSTEIN and alg in GAUSSIAN_ONLY_ALGORITHMS:
        raise InvalidInputError(f"algorithm {alg!r} supports the Gaussian ring only")


def gram(chm: ChannelMatrix) -> tuple[np.ndarray, float]:
    """Gram matrix M and search radius phi: the vector form for k = 1, else the MIMO form."""
    if chm.k == 1:
        ch = chm.row_vector()
        return cost_matrix(ch), phi_bound(ch)
    return mimo_gram(chm), mimo_phi(chm)


def run_algorithm(
    alg: str,
    chm: ChannelMatrix,
    ring: Ring,
    M: np.ndarray,
    phi: float,
    qes: QesParams | None = None,
    clll: CLLLParams | None = None,
    prune: str = "norm",
) -> SearchResult:
    """Run one algorithm on one channel; `M, phi` come from `gram(chm)`.

    This is the one place that branches on algorithm names.  The searches
    are looked up as module attributes at call time, so a name replaced on
    this module (for instance by a tracer) is what runs.
    """
    if alg == "optimal":
        return search_optimal(chm.row_vector(), ring)
    if alg == "mimo-optimal":
        return search_optimal_mimo(chm, ring)
    if alg == "exhaustive":
        return exhaustive_search(M, phi, ring, prune=prune)
    if alg == "clll":
        return clll_search(M, clll)
    return qes_search(chm.row_vector(), qes)


def result_rate(chm: ChannelMatrix, res: SearchResult) -> float:
    """`res.rate`, or the channel's rate of `res.a_opt` for the Gram-only searches."""
    if res.rate is not None:
        return res.rate
    if chm.k == 1:
        return rate(chm.row_vector(), res.a_opt)
    return mimo_rate(chm, res.a_opt, b_opt(chm, res.a_opt))


def _reference_algorithm(cfg: BenchConfig) -> str | None:
    if "exhaustive" in cfg.algorithms:
        return "exhaustive"
    if cfg.k == 1 and "optimal" in cfg.algorithms:
        return "optimal"
    if "mimo-optimal" in cfg.algorithms:
        return "mimo-optimal"
    return None


def _run_trial(cfg: BenchConfig, H: np.ndarray, P: float) -> dict[str, tuple[float, float, float, float | None]]:
    """Run every selected algorithm on one channel; return per-algorithm
    (f_min, rate, seconds, match-vs-reference or None)."""
    chm = ChannelMatrix(H, P)
    M_ref, phi = gram(chm)
    results: dict[str, tuple[SearchResult, float]] = {}
    for alg in cfg.algorithms:
        t = time.process_time()
        res = run_algorithm(alg, chm, cfg.ring, M_ref, phi, cfg.qes, cfg.clll)
        results[alg] = (res, time.process_time() - t)

    ref = _reference_algorithm(cfg)
    f_ref = cost(results[ref][0].a_opt, M_ref) if ref is not None else None
    out: dict[str, tuple[float, float, float, float | None]] = {}
    for alg, (res, dt) in results.items():
        match: float | None = None
        if f_ref is not None:
            f_eval = cost(res.a_opt, M_ref)
            match = 1.0 if abs(f_eval - f_ref) <= MATCH_RTOL * max(abs(f_ref), 1e-300) else 0.0
        out[alg] = (res.f_min, result_rate(chm, res), dt, match)
    return out


def _trial_worker(args: tuple[BenchConfig, np.ndarray, float]):
    return _run_trial(*args)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as e:
        raise InvalidInputError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from e
    if n < 1:
        raise InvalidInputError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def run_sweep(cfg: BenchConfig) -> list[BenchRecord]:
    """Run the sweep and return one record per (SNR, algorithm).

    Channels are drawn once and reused at every SNR (paired comparisons).
    When a reference algorithm is selected (exhaustive, else the exact
    search), every algorithm's coefficient vector is re-costed under the
    reference Gram matrix and `optimal_match_fraction` reports the fraction
    of trials matching the reference minimum to relative 1e-9.  If
    `cfg.output_path` is set, writes the CSV and a JSON metadata sidecar.
    """
    rng = np.random.default_rng(cfg.seed)
    channels = [gen_channel(cfg.L, cfg.k, rng).H for _ in range(cfg.trials)]
    workers = _worker_count()

    records: list[BenchRecord] = []
    with contextlib.ExitStack() as stack:
        # one pool for the whole sweep: workers start once, not once per SNR
        pool = None
        if workers > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=workers))
        for snr in cfg.snr_db_list:
            P = 10.0 ** (snr / 10.0)
            jobs = [(cfg, H, P) for H in channels]
            try:
                if pool is not None:
                    trial_stats = list(pool.map(_trial_worker, jobs, chunksize=8))
                else:
                    trial_stats = [_run_trial(*job) for job in jobs]
            except CFSearchError as e:
                raise type(e)(f"sweep aborted at snr_db={snr}, L={cfg.L}, k={cfg.k}: {e}") from e
            for alg in cfg.algorithms:
                rows = [ts[alg] for ts in trial_stats]
                matches = [m for _, _, _, m in rows if m is not None]
                records.append(
                    BenchRecord(
                        snr_db=snr,
                        L=cfg.L,
                        k=cfg.k,
                        ring=cfg.ring.value,
                        algorithm=alg,
                        avg_rate=float(np.mean([r for _, r, _, _ in rows])),
                        avg_f=float(np.mean([f for f, _, _, _ in rows])),
                        cpu_ms_total=1000.0 * float(np.sum([dt for _, _, dt, _ in rows])),
                        optimal_match_fraction=float(np.mean(matches)) if matches else None,
                        trials=cfg.trials,
                        seed=cfg.seed,
                    )
                )
    if cfg.output_path:
        write_records_csv(records, cfg.output_path)
        _write_metadata(cfg, cfg.output_path + ".meta.json", workers)
    return records


def format_record(rec: BenchRecord) -> str:
    match = "" if rec.optimal_match_fraction is None else f"{rec.optimal_match_fraction:.6f}"
    return (
        f"{rec.snr_db:g},{rec.L},{rec.k},{rec.ring},{rec.algorithm},"
        f"{rec.avg_rate:.10g},{rec.avg_f:.10g},{rec.cpu_ms_total:.3f},"
        f"{match},{rec.trials},{rec.seed}"
    )


def write_records_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(format_record(rec) + "\n")


def _write_metadata(cfg: BenchConfig, path: str, workers: int) -> None:
    meta = {
        "config": {
            **{k: v for k, v in asdict(cfg).items() if k not in ("ring", "qes", "clll")},
            "ring": cfg.ring.value,
            "qes": None if cfg.qes is None else asdict(cfg.qes),
            "clll": None if cfg.clll is None else asdict(cfg.clll),
        },
        "snr_convention": "P = 10^(snr_db/10); unit noise variance; unit-variance channel entries",
        "rate_convention": (
            "vector algorithms report log2+(1/f'); the k-antenna search reports "
            "(1/2) log2+(P/(|b|^2 + P|bH - a|^2)) with the MMSE combiner"
        ),
        "timing": "cpu_ms_total sums process CPU time (time.process_time) around each search call only",
        "csv_header": CSV_HEADER,
        "workers": workers,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


_CONFIG_KEYS = {
    "L", "k", "snr_db_list", "trials", "seed", "ring", "algorithms", "output_path",
    "qes_mag_step", "qes_phase_step_deg", "qes_mag_max",
    "clll_delta", "clll_max_iter",
}


def load_config(path: str) -> BenchConfig:
    """Parse a flat key=value sweep config; array values are JSON literals.

    Recognized keys: L, k, snr_db_list, trials, seed, ring, algorithms,
    output_path, qes_mag_step, qes_phase_step_deg, qes_mag_max, clll_delta,
    clll_max_iter.  Lines starting with '#' are comments.
    """
    raw: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidInputError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                raw[key] = json.loads(value)
            except json.JSONDecodeError:
                raw[key] = value

    for req in ("L", "snr_db_list", "trials", "seed"):
        if req not in raw:
            raise InvalidInputError(f"config {path} is missing required key {req!r}")

    def field(key: str, convert, default=None):
        """raw[key] through `convert`, or `default` if absent; a bad value is a usage error."""
        if key not in raw:
            return default
        try:
            return convert(raw[key])
        except (TypeError, ValueError) as e:
            msg = f"config {path}: malformed value {raw[key]!r} for key {key!r}"
            raise InvalidInputError(msg) from e

    try:
        ring = Ring(str(raw.get("ring", "gaussian")).lower())
    except ValueError:
        raise InvalidInputError(f"unknown ring {raw['ring']!r}") from None
    algorithms = raw.get("algorithms", ["optimal"])
    if isinstance(algorithms, str):
        algorithms = [a.strip() for a in algorithms.split(",") if a.strip()]
    if not isinstance(algorithms, list):
        raise InvalidInputError(f"config {path}: malformed value {algorithms!r} for key 'algorithms'")

    qes = None
    if any(k.startswith("qes_") for k in raw):
        qes = QesParams(
            mag_step=field("qes_mag_step", float, QesParams.mag_step),
            phase_step_deg=field("qes_phase_step_deg", float, QesParams.phase_step_deg),
            mag_max=field("qes_mag_max", lambda v: v if v is None else float(v)),
        )
    clll = None
    if any(k.startswith("clll_") for k in raw):
        clll = CLLLParams(
            delta=field("clll_delta", float, CLLLParams.delta),
            max_iter=field("clll_max_iter", int, CLLLParams.max_iter),
        )

    return BenchConfig(
        L=field("L", int),
        k=field("k", int, 1),
        snr_db_list=field("snr_db_list", lambda v: np.atleast_1d(np.asarray(v, dtype=float)).tolist()),
        trials=field("trials", int),
        seed=field("seed", int),
        ring=ring,
        algorithms=tuple(algorithms),
        qes=qes,
        clll=clll,
        output_path=field("output_path", lambda v: v if v is None else str(v)),
    )
