"""Command-line interface: single searches, sweeps, comparisons, self-test.

Exit codes: 0 success, 1 usage error, 2 numeric or internal error, 3 I/O
error.  Channels are given inline as JSON (vector form `[[re,im],...]` or
matrix form `[[[re,im],...],...]`) or as a JSON file in matrix form.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .baselines import CLLLParams, QesParams
from .bench import (
    ALGORITHMS,
    BenchConfig,
    CSV_HEADER,
    MATCH_RTOL,
    check_algorithm,
    format_record,
    gen_channel,
    gram,
    load_config,
    result_rate,
    run_algorithm,
    run_sweep,
)
from .errors import CFSearchError, InvalidInputError, NumericError
from .model import ChannelMatrix, SearchResult
from .rings import Ring, vector_coords, vector_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


RING_NAMES = tuple(r.value for r in Ring)


def _parse_ring(name: str) -> Ring:
    return Ring(name)


def _channel_from_json(data) -> np.ndarray:
    """Build a k x L complex matrix from nested [re, im] pair lists."""

    def pair(p) -> complex:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(v, (int, float)) for v in p)):
            raise InvalidInputError(f"expected an [re, im] pair, got {p!r}")
        return complex(p[0], p[1])

    if not isinstance(data, list) or not data:
        raise InvalidInputError("channel JSON must be a nonempty array")
    first = data[0]
    if isinstance(first, list) and first and isinstance(first[0], (int, float)):
        return np.asarray([[pair(p) for p in data]], dtype=np.complex128)
    if not all(isinstance(row, list) for row in data):
        raise InvalidInputError("channel JSON must be [re, im] pairs or rows of them")
    rows = [[pair(p) for p in row] for row in data]
    if len({len(r) for r in rows}) != 1:
        raise InvalidInputError("channel rows must all have the same length")
    return np.asarray(rows, dtype=np.complex128)


def _load_channel(args) -> np.ndarray:
    if args.h is not None:
        try:
            data = json.loads(args.h)
        except json.JSONDecodeError as e:
            raise InvalidInputError(f"--h is not valid JSON: {e}") from e
        return _channel_from_json(data)
    with open(args.channel_file, encoding="utf-8") as fh:
        return _channel_from_json(json.load(fh))


def _coefficient_json(res: SearchResult) -> dict:
    x, y = vector_coords(res.a_opt, res.ring)
    # the element's field names: (re, im), or (a, b) with value a + b*w
    labels = [f.name for f in dataclasses.fields(res.a_opt[0])]
    values = [[v.real, v.imag] for v in vector_value(res.a_opt)]
    return {"a": np.stack([x, y], axis=1).tolist(), "a_coord_labels": labels, "a_values": values}


def _run_single(algorithm: str, H: np.ndarray, P: float, ring: Ring, args) -> tuple[SearchResult, float]:
    """Run one algorithm on one channel; returns (result, rate)."""
    chm = ChannelMatrix(H, P)
    check_algorithm(algorithm, chm.k, ring)
    qes = QesParams(mag_step=args.qes_mag_step, phase_step_deg=args.qes_phase_step_deg,
                    mag_max=args.qes_mag_max)
    clll = CLLLParams(delta=args.clll_delta, max_iter=args.clll_max_iter)
    M, phi = gram(chm)
    res = run_algorithm(algorithm, chm, ring, M, phi, qes, clll, args.prune)
    return res, result_rate(chm, res)


def _cmd_search(args) -> int:
    H = _load_channel(args)
    P = args.P if args.P is not None else 10.0 ** (args.snr_db / 10.0)
    ring = _parse_ring(args.ring)
    res, r = _run_single(args.algorithm, H, P, ring, args)
    out = {
        "algorithm": args.algorithm,
        "ring": ring.value,
        "L": H.shape[1],
        "k": H.shape[0],
        "P": P,
        "f_min": res.f_min,
        "rate": r,
        "candidates_checked": res.candidates_checked,
        "elapsed_s": res.elapsed_s,
        "subsets_skipped": res.subsets_skipped,
        **_coefficient_json(res),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.output is not None:
        cfg = dataclasses.replace(cfg, output_path=args.output)
    records = run_sweep(cfg)
    if cfg.output_path:
        print(f"wrote {len(records)} records to {cfg.output_path}")
    else:
        print(CSV_HEADER)
        for rec in records:
            print(format_record(rec))
    return EXIT_OK


def _cmd_compare(args) -> int:
    ring = _parse_ring(args.ring)
    if args.k > 1:
        algorithms = ("mimo-optimal", "exhaustive")
    elif ring is Ring.EISENSTEIN:
        algorithms = ("optimal", "exhaustive")
    else:
        algorithms = ("optimal", "exhaustive", "clll", "qes")
    cfg = BenchConfig(
        L=args.L, k=args.k, snr_db_list=tuple(args.snr_db), trials=args.trials,
        seed=args.seed, ring=ring, algorithms=algorithms, output_path=args.output,
    )
    records = run_sweep(cfg)
    widths = (8, 14, 12, 12, 14, 12)
    cols = ("snr_db", "algorithm", "avg_rate", "avg_f", "cpu_ms_total", "match_frac")
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for rec in records:
        match = "-" if rec.optimal_match_fraction is None else f"{rec.optimal_match_fraction:.4f}"
        cells = (
            f"{rec.snr_db:g}", rec.algorithm, f"{rec.avg_rate:.6f}",
            f"{rec.avg_f:.6f}", f"{rec.cpu_ms_total:.3f}", match,
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    """Reduced-scale oracle equivalence: exact searches vs the full-ball scan.

    The oracle is `exhaustive_search(prune="norm")`, which shares no code
    with the depth-first certification inside the exact searches.
    """
    rng = np.random.default_rng(args.seed)
    cases = [
        (ring, snr, 1, "optimal")
        for ring in (Ring.GAUSSIAN, Ring.EISENSTEIN)
        for snr in (0.0, 10.0, 20.0)
        for _ in range(args.trials)
    ]
    cases += [(Ring.GAUSSIAN, 10.0, 2, "mimo-optimal")] * max(1, args.trials // 2)
    t0 = time.perf_counter()
    failures = 0
    for ring, snr, k, alg in cases:
        chm = gen_channel(2, k, rng, 10.0 ** (snr / 10.0))
        M, phi = gram(chm)
        res = run_algorithm(alg, chm, ring, M, phi)
        ref = run_algorithm("exhaustive", chm, ring, M, phi, prune="norm")
        if abs(res.f_min - ref.f_min) > MATCH_RTOL * ref.f_min:
            failures += 1
            print(f"MISMATCH ring={ring.value} snr={snr} k={k} H={chm.H.tolist()} "
                  f"f={res.f_min} ref={ref.f_min}")
    dt = time.perf_counter() - t0
    print(f"selftest: {len(cases) - failures}/{len(cases)} instances matched the oracle in {dt:.1f}s")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsearch",
        description="Integer coefficient search for compute-and-forward relaying",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run one algorithm on one channel, print JSON")
    chan = p_search.add_mutually_exclusive_group(required=True)
    chan.add_argument("--h", help="channel as JSON [re,im] pairs (vector or matrix form)")
    chan.add_argument("--channel-file", help="path to a JSON channel file (matrix form)")
    power = p_search.add_mutually_exclusive_group(required=True)
    power.add_argument("--P", type=float, help="transmit power (linear)")
    power.add_argument("--snr-db", type=float, help="SNR in dB; P = 10^(snr/10)")
    p_search.add_argument("--ring", choices=RING_NAMES, default="gaussian")
    p_search.add_argument("--algorithm", choices=ALGORITHMS, default="optimal")
    p_search.add_argument("--prune", choices=("norm", "cost"), default="norm",
                          help="exhaustive search pruning mode")
    p_search.add_argument("--qes-mag-step", type=float, default=QesParams.mag_step)
    p_search.add_argument("--qes-phase-step-deg", type=float, default=QesParams.phase_step_deg)
    p_search.add_argument("--qes-mag-max", type=float, default=None)
    p_search.add_argument("--clll-delta", type=float, default=CLLLParams.delta)
    p_search.add_argument("--clll-max-iter", type=int, default=CLLLParams.max_iter)
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a config file, write CSV")
    p_sweep.add_argument("--config", required=True, help="key=value config file")
    p_sweep.add_argument("--output", help="override the config output_path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run all applicable algorithms on shared channels")
    p_cmp.add_argument("--L", type=int, required=True)
    p_cmp.add_argument("--k", type=int, default=1)
    p_cmp.add_argument("--snr-db", type=float, nargs="+", required=True)
    p_cmp.add_argument("--trials", type=int, default=100)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--ring", choices=RING_NAMES, default="gaussian")
    p_cmp.add_argument("--output", help="also write the records as CSV")
    p_cmp.set_defaults(func=_cmd_compare)

    p_self = sub.add_parser("selftest", help="reduced-scale oracle equivalence check")
    p_self.add_argument("--trials", type=int, default=25)
    p_self.add_argument("--seed", type=int, default=12345)
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, CFSearchError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
