"""Every benchmark workload (`perfbench/workloads.py`) is a valid
experiment config, so a schema change that breaks one fails here and not
only in a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

from advda.pipeline import ExperimentConfig

WORKLOADS_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / \
    "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               WORKLOADS_PATH)
workloads = importlib.util.module_from_spec(_spec)
# @dataclass looks its module up in sys.modules
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_experiment_loads(name, tmp_path):
    # as perfbench/run.py writes it: the seed and run directory added
    ExperimentConfig.from_dict({**workloads.WORKLOADS[name].experiment,
                                "seed": 1, "out_dir": str(tmp_path)})
