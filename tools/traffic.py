"""Statement traffic: which statements of `src/advda` no benchmark
workload reaches.

Usage, from the root of a checkout:

    python3 tools/traffic.py --seeds 1

The pass installs a line tracer limited to `src/advda` before `advda` is
imported, so import-time statements count too.  It then runs every stage
of every workload config of `perfbench/workloads.py` for each seed
through `pipeline.run_experiment`, as `tools/identity.py` does, in a
temporary directory that it deletes.  It prints each statement that
nothing reached, by file, as `<file>:<line>  <source>`; a statement
inside an unreached one is not listed again.  Seed 1 takes about a
minute on a 2-core machine.

Seed 1 left 156 statements unreached.  Besides raises and the CLI,
which the pass does not import, they are these.  They are candidates for
deletion or for a test, not defects:

- `ExperimentConfig.load`, which only the CLI calls;
- `autodiff.sum_` with axis None, forward and backward;
- the inference-mode batch-norm backward;
- `network.build_embedding`, which only the benchmark's tracer names;
- `plda_adapt`'s shrinkage for fewer vectors than dimensions;
- the empty-input returns of `extract_embedding` and `score_trials`.
"""

import argparse
import ast
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "advda")


def _code_lines(code) -> set:
    """Lines that carry bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _body_start(stmt) -> int:
    """First line of a compound statement's body; past a simple one."""
    inner = [s for s in ast.iter_child_nodes(stmt) if isinstance(s, ast.stmt)]
    return min(s.lineno for s in inner) if inner else stmt.end_lineno + 1


def unreached(path, reached: set):
    """(line, source) of each statement or except clause of `path` with
    bytecode that `reached` misses, and of each function whose body it
    misses; what lies inside one of them is left out."""
    with open(path) as f:
        source = f.read()
    text = source.splitlines()
    code = _code_lines(compile(source, path, "exec"))
    out = []

    def visit(node):
        for stmt in ast.iter_child_nodes(node):
            if not isinstance(stmt, (ast.stmt, ast.excepthandler)):
                continue
            span = set(range(stmt.lineno, _body_start(stmt)))
            body = set(range(_body_start(stmt), stmt.end_lineno + 1))
            if span & code and not span & reached:
                out.append((stmt.lineno, text[stmt.lineno - 1].strip()))
            elif isinstance(stmt, ast.FunctionDef) and not body & reached:
                out.append((stmt.lineno, text[stmt.lineno - 1].strip()
                            + "  [body never ran]"))
            else:
                visit(stmt)
    visit(ast.parse(source))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    reached = {}  # file -> set of line numbers

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(SRC):
            return None
        reached.setdefault(name, set())
        return trace_lines

    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS
    sys.settrace(trace_calls)
    try:
        from advda import pipeline as pl  # imported under the tracer
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in WORKLOADS.items():
                for seed in args.seeds:
                    pl.run_experiment(pl.ExperimentConfig.from_dict({
                        **workload.experiment, "seed": seed,
                        "out_dir": os.path.join(tmp, name, str(seed))}))
                    print(f"{name}/seed{seed}: done", flush=True)
    finally:
        sys.settrace(None)

    total = 0
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        missed = unreached(path, reached.get(path, set()))
        total += len(missed)
        for line, text in missed:
            print(f"advda/{fname}:{line}  {text}")
    print(f"{total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
