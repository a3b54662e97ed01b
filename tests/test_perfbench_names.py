"""Every name that the benchmark's tracer (`perfbench/spans.py`) replaces
resolves on the `advda` modules, so a rename fails here and not only in
a traced benchmark run.  `Tracer.install` is not called."""

import importlib.util
import pathlib

import pytest

import advda.cli  # noqa: F401  (imports every traced module)

SPANS_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def resolve(dotted):
    """`module.attr` or `module.Class.method` on the `advda` package."""
    obj = advda
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", [f"{mod}.{attr}"
                                  for mod, attrs in spans.TRACED.items()
                                  for attr in attrs])
def test_traced_name_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("alias, target", spans.ALIASES.items())
def test_alias_is_the_traced_function(alias, target):
    # the importing module calls the same function under its own name
    assert resolve(".".join(alias)) is resolve(target)


@pytest.mark.parametrize("stage", spans.PIPELINE_STAGES)
def test_pipeline_stage_is_what_the_cli_calls(stage):
    assert getattr(advda.cli, stage) is resolve(f"pipeline.{stage}")
