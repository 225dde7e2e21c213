"""Work budgets fail loudly and name the instance.

The certification DFS inside the exact searches re-raises its node-budget
error with `cfsearch search` arguments that replay the channel; the
norm-ball scan refuses a ball of more than `MAX_BALL_VECTORS` complete
vectors before evaluating any of them, and the marked-point generators
refuse a set of more than `MAX_MARKED_POINTS` points before allocating it.
"""

import json
import shlex
import time

import numpy as np
import pytest

from cfsearch import baselines, dfs, optimal
from cfsearch.baselines import exhaustive_search
from cfsearch.bench import gen_channel
from cfsearch.cli import EXIT_NUMERIC, EXIT_OK, main
from cfsearch.errors import NumericError
from cfsearch.mimo import search_optimal_mimo
from cfsearch.model import ChannelVector, cost_matrix, phi_bound, replay_args
from cfsearch.optimal import gen_disc, search_optimal
from cfsearch.rings import Ring


def replay(capsys, message: str) -> dict:
    """Run the `cfsearch search` command quoted in an error message."""
    argv = shlex.split(message.split("replay with cfsearch ", 1)[1])
    assert main(argv) == EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("k", [1, 2])
def test_certification_budget_error_replays_the_instance(monkeypatch, capsys, ring, k):
    chm = gen_channel(3, k, np.random.default_rng(7), 10.0 ** 1.3)
    search = (lambda: search_optimal(chm.row_vector(), ring)) if k == 1 else (
        lambda: search_optimal_mimo(chm, ring)
    )
    expected = search()
    with monkeypatch.context() as m:
        m.setattr(dfs, "MAX_DFS_NODES", 0)
        with pytest.raises(NumericError) as info:
            search()
    msg = str(info.value)
    assert "0-node budget" in msg and "L=3" in msg and f"ring={ring.value}" in msg
    assert f"--P {chm.P!r}" in msg
    assert isinstance(info.value.__cause__, NumericError)
    out = replay(capsys, msg)
    assert (out["L"], out["k"], out["ring"]) == (3, k, ring.value)
    assert out["algorithm"] == ("optimal" if k == 1 else "mimo-optimal")
    assert out["P"] == chm.P
    assert out["f_min"] == expected.f_min
    x = [[e.re, e.im] if ring is Ring.GAUSSIAN else [e.a, e.b] for e in expected.a_opt]
    assert out["a"] == x


def test_ball_budget_counts_exactly_the_evaluated_vectors(monkeypatch):
    ch = ChannelVector(np.array([0.9 - 0.2j, -0.4 + 1.1j, 0.3 + 0.3j]), 10.0)
    M, phi = cost_matrix(ch), phi_bound(ch)
    sizes = {ring: exhaustive_search(M, phi, ring, prune="norm").candidates_checked for ring in Ring}
    for ring, n in sizes.items():
        monkeypatch.setattr(baselines, "MAX_BALL_VECTORS", n)
        assert exhaustive_search(M, phi, ring, prune="norm").candidates_checked == n
        monkeypatch.setattr(baselines, "MAX_BALL_VECTORS", n - 1)
        with pytest.raises(NumericError) as info:
            exhaustive_search(M, phi, ring, prune="norm")
        msg = str(info.value)
        assert f"ball of {n} vectors" in msg and f"{n - 1}-vector budget" in msg
        assert "L=3" in msg and f"ring={ring.value}" in msg and f"phi={phi!r}" in msg
        assert "prune='cost'" in msg


def test_ball_budget_stops_a_runaway_sweep_trial_at_once():
    # this Gaussian L=3, 20 dB channel's ball holds 204,197,780 vectors
    # (85 s of CPU to scan); the budget refuses it before evaluating any
    ch = gen_channel(3, 1, np.random.default_rng(17), 100.0).row_vector()
    M, phi = cost_matrix(ch), phi_bound(ch)
    with pytest.raises(NumericError, match="ball of 204197780 vectors"):
        exhaustive_search(M, phi, Ring.GAUSSIAN, prune="norm")
    ref = exhaustive_search(M, phi, Ring.GAUSSIAN, prune="cost")
    assert ref.f_min == pytest.approx(search_optimal(ch, Ring.GAUSSIAN).f_min, rel=1e-12)


@pytest.mark.parametrize("ring", list(Ring))
def test_marked_point_budget_counts_exactly_the_generated_points(monkeypatch, ring):
    phi = 7.3
    n = gen_disc(phi, ring).points.size
    monkeypatch.setattr(optimal, "MAX_MARKED_POINTS", n)
    assert gen_disc(phi, ring).points.size == n
    monkeypatch.setattr(optimal, "MAX_MARKED_POINTS", n - 1)
    with pytest.raises(NumericError) as info:
        gen_disc(phi, ring)
    msg = str(info.value)
    assert f"holds {n} points" in msg and f"{n - 1}-point budget" in msg
    assert ring.value in msg and f"phi={phi!r}" in msg


def test_marked_point_budget_refuses_a_huge_disc_at_once(capsys):
    # phi = 3830 here: the Gaussian disc holds 138,286,888 marked points
    # (2.06 GiB of complex128), refused before any of them is laid out
    ch = gen_channel(8, 1, np.random.default_rng(3), 1e6).row_vector()
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="holds 138286888 points"):
        search_optimal(ch, Ring.GAUSSIAN)
    assert time.perf_counter() - t0 < 1.0
    # the CLI reports it as a numeric error, not an internal one
    argv = ["search", *shlex.split(replay_args(ch.h, ch.P, Ring.GAUSSIAN, "optimal"))]
    assert main(argv) == EXIT_NUMERIC
    assert "numeric error: the gaussian marked-point set" in capsys.readouterr().err
