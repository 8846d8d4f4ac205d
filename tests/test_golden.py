"""Golden traces: CSV bytes of fixed (config, seed) games must never change.

``golden_traces.json`` holds the sha256 of ``trace_to_csv`` output for every
learner against every adversary kind on a 5-dimensional ball and on a
12-vertex polytope, at seeds 0 and 1 and T = 200.
Eight longer games at T = 8200 (sampled_fpl with m = 1 and ospf with k = 2,
against linear_stochastic and quadratic_adaptive on the ball, seeds 0 and 1)
run past the cap on the perturbation blocks a game draws ahead, 4096 rows,
so that games of more than one draw block are covered as well.
A refactor of the game engine that changes any byte of any of these traces
changes what the package computes, and must say so by updating this file.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pfol import ExperimentConfig, run_game, trace_to_csv

GOLDEN = json.loads((Path(__file__).with_name("golden_traces.json")).read_text())

BALL = {"kind": "ball", "dim": 5, "radius": 1.0}
_VERTS = np.random.default_rng(12).standard_normal((12, 5))
POLYTOPE = {"kind": "polytope", "vertices": (_VERTS / np.linalg.norm(_VERTS, axis=1, keepdims=True)).tolist()}

LEARNERS = {
    "sampled_fpl-m1": {"learner": "sampled_fpl", "m": 1},
    "sampled_fpl-m4": {"learner": "sampled_fpl", "m": 4},
    "ospf-k1": {"learner": "ospf", "k": 1},
    "ospf-k7": {"learner": "ospf", "k": 7},
    "expected_fpl_mc-e8": {"learner": "expected_fpl_mc", "eval_samples": 8},
    "ogd": {"learner": "ogd"},
    "ofw": {"learner": "ofw"},
}
ADVERSARIES = ("quadratic_stochastic", "quadratic_adaptive", "linear_stochastic", "linear_adaptive")
SETS = {"ball": BALL, "polytope": POLYTOPE}
LONG_T = 8200
LONG_ADVERSARIES = ("linear_stochastic", "quadratic_adaptive")
LONG_LEARNERS = {"sampled_fpl-m1": LEARNERS["sampled_fpl-m1"], "ospf-k2": {"learner": "ospf", "k": 2}}


def cases():
    for set_name, set_spec in SETS.items():
        for learner_name, knobs in LEARNERS.items():
            for adversary in ADVERSARIES:
                for seed in (0, 1):
                    key = f"{set_name}/{learner_name}/{adversary}/{seed}"
                    config = ExperimentConfig(set=set_spec, adversary={"kind": adversary}, T=200, **knobs)
                    yield key, config, seed
    for learner_name, knobs in LONG_LEARNERS.items():
        for adversary in LONG_ADVERSARIES:
            for seed in (0, 1):
                key = f"ball/{learner_name}/{adversary}/{seed}/T{LONG_T}"
                config = ExperimentConfig(set=BALL, adversary={"kind": adversary}, T=LONG_T, **knobs)
                yield key, config, seed


@pytest.mark.parametrize("key,config,seed", list(cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_trace_bytes_match_golden(key, config, seed, tmp_path):
    path = tmp_path / "trace.csv"
    trace_to_csv(run_game(config, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[key]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(key for key, _, _ in cases())
