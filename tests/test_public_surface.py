"""Every public function and class of the `advda` modules is used by the
package itself or traced by the benchmark (`perfbench/spans.py`), so no
second entry point lives on for the tests alone.  `ALLOWED` names the
exceptions, each with its reason."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import advda

SRC = pathlib.Path(advda.__file__).parent
SPANS_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

ALLOWED = {}


def public_names():
    """`module.name` of each public function and class that an `advda`
    module defines."""
    for info in pkgutil.iter_modules(advda.__path__):
        module = importlib.import_module(f"advda.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") \
                    and (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}"


def referenced_identifiers():
    """Names and attributes the package's code reads, and names it
    imports; a definition is not a reference."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def unused_names():
    used = referenced_identifiers()
    traced = {f"{mod}.{attr.split('.')[0]}"
              for mod, attrs in spans.TRACED.items() for attr in attrs}
    return sorted(name for name in public_names()
                  if name.split(".")[1] not in used and name not in traced)


def test_public_functions_and_classes_are_used_or_traced():
    assert [n for n in unused_names() if n not in ALLOWED] == []


def test_allow_list_is_exact():
    assert sorted(ALLOWED) == [n for n in unused_names() if n in ALLOWED]
