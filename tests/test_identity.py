"""Library objects that hold arrays compare and hash by identity.

Field-wise ``==`` would compare their arrays, which raises for an array
of more than one element, and a field-wise hash would hash the arrays,
which raises too; so these dataclasses take ``eq=False``."""

import copy
from pathlib import Path

import numpy as np
import pytest

import test_engine
from iterboot import analytic, engine
from iterboot.config import load_config
from iterboot.gaussian import GaussianModel
from iterboot.policy import CostModel, Schedule
from iterboot.svgplot import Series

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_kappa2.cfg"
THETA0 = np.array([1.0, 1.0])
SCHEDULE = Schedule((5, 10))


def toy_config():
    return test_engine.toy_config(SCHEDULE)


CASES = {
    "MarginalLaw": lambda: analytic.marginal(THETA0, SCHEDULE, 1.0, 2.0),
    "PolicyEvaluation": lambda: analytic.cost_curve(SCHEDULE, THETA0, 1.0, 2.0, CostModel(0.0, 1.0)),
    "IterationRecord": lambda: engine.run(toy_config()).records[0],
    "RunTrace": lambda: engine.run(toy_config()),
    "MonteCarloTrace": lambda: engine.monte_carlo(toy_config(), 2, traces=1),
    "RunConfig": toy_config,
    "_Block": lambda: engine._run_block(toy_config(), [1, 2]),
    "ExperimentConfig": lambda: load_config(CONFIG),
    "GaussianModel": lambda: GaussianModel(THETA0, 1.0),
    "Series": lambda: Series("a", np.arange(3.0), np.arange(3.0), np.ones(3)),
}


@pytest.mark.parametrize("name", CASES)
def test_compares_and_hashes_by_identity(name):
    obj = CASES[name]()
    assert type(obj).__name__ == name
    twin = copy.deepcopy(obj)
    assert obj == obj
    assert obj != twin
    assert hash(obj) == hash(obj)
    assert len({obj, twin}) == 2
