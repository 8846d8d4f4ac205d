"""What the benchmark under ``perfbench/`` reads of pfol: names, expected results and checks.

The benchmark is run from a separate checkout and its files do not change
with the package, so these tests only call into ``perfbench/``: every name it
wraps exists where it looks for it, it can compute what a correct game of
each workload reports, and its per-game checks pass on short games.
"""

import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks, tracing, workloads  # noqa: E402
from pfol import harness  # noqa: E402


def test_every_traced_name_is_defined_on_its_owner():
    for owner, attr, span, _ in tracing.TARGETS:
        assert attr in owner.__dict__, f"{span}: {getattr(owner, '__name__', owner)} has no {attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_results_resolve_for_each_workload(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    assert workload.expected
    for T, exp in workload.expected.items():
        assert exp.grad_evals == T and exp.oracle_calls > 0
        assert exp.bound is not None and exp.bound > 0


@pytest.mark.parametrize("name, T", [("fpl-linear-m1", 512), ("ospf-quad-polytope", 256)])
def test_check_game_passes_on_a_short_game(name, T, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    config = replace(workload.config, T=T)
    seed = workloads.game_seed(1, 0)
    game = workloads.Game(config, seed, harness.run_game(config, seed))
    tally = checks.Tally()
    assert checks.check_game(game, workloads.expected(config), tally), tally.messages
    assert not tally.failed
