"""Byte-identity pass: every stage output of every benchmark workload,
hashed, for comparison with another checkout of the code.

For each seed and each workload config of `perfbench/workloads.py`, the
pass runs `pipeline.run_experiment` in this process, as `advda run`
would: every stage of each variant of `pipeline.VARIANTS`, the baseline
and the five adaptations, with the plain and the adapted backend.
Pseudo-eval's config sets `backend.pseudo_threshold`, so its
target-supervised modes train on pseudo-labels.  Usage, from the root of
a checkout:

    python3 tools/identity.py --seeds 1 2 3 --out OUT [--against DIR]

It writes to OUT:

- `digests.txt`: the sha256 of every output except the stage manifests
  (which hold wall-clock times), one `<digest>  <workload>/seed<k>/<file>`
  line each;
- `metrics.tsv`: EER and minDCF of every report, one minDCF column per
  prior of the workload configs (`-` where a workload has no such prior);
- `env.json`: the BLAS thread count in effect, and the Python and numpy
  versions;
- `<workload>/seed<k>/`: the run directories themselves, emptied first.

Stage outputs depend on the number of BLAS threads, so the pass sets
`OPENBLAS_NUM_THREADS=1` before numpy loads and records the count the
library reports.  It keeps freed memory in the process as the `advda`
command does (`cli.keep_freed_memory`), so the pass covers that
setting.  `--against DIR` reads the `digests.txt` of an earlier pass,
prints each output whose digest differs or which only one pass has,
and exits with status 1 if there is any.  It also prints each
`metrics.tsv` row that differs, every value as `<DIR's> -> <this pass's>`
(`-` where a pass has no such row).

Protocol for a change that must keep every output: run
`--seeds 1 2 3` in a copy of the parent commit, then the same seeds in
the change with `--against` the parent's OUT; report every differing
output it names, and the `metrics differ` rows it prints, if any.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from advda import metrics as mt  # noqa: E402
from advda import pipeline as pl  # noqa: E402
from advda.cli import keep_freed_memory  # noqa: E402
from run import blas_info  # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS  # noqa: E402

def sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def read_metrics(path):
    """(workload, seed, report) -> {column: value} of a metrics.tsv."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return {tuple(r[:3]): dict(zip(header[3:], r[3:])) for r in rows}


def read_digests(path):
    with open(path) as f:
        pairs = [line.rstrip("\n").split("  ", 1) for line in f
                 if line.strip()]
    return {p: d for d, p in pairs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", default=None,
                        help="OUT directory of an earlier pass")
    args = parser.parse_args()
    keep_freed_memory()

    env = {"blas": blas_info(), "python": platform.python_version(),
           "numpy": np.__version__}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "env.json"), "w") as f:
        json.dump(env, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"BLAS threads: {env['blas'].get('threads')}")

    # columns as an ordered set: EER, then each workload's minDCF keys
    digests, rows, columns = {}, [], {"eer_pct": None}
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            rel = f"{name}/seed{seed}"
            run_dir = os.path.join(args.out, rel)
            shutil.rmtree(run_dir, ignore_errors=True)
            cfg = pl.ExperimentConfig.from_dict(
                {**workload.experiment, "seed": seed, "out_dir": run_dir})
            rows.extend((name, str(seed), tag, report) for tag, report
                        in pl.run_experiment(cfg).items())
            columns.update(dict.fromkeys(map(mt.dcf_key, cfg.priors)))
            for fname in sorted(os.listdir(run_dir)):
                if not fname.endswith(".manifest.json"):
                    digests[f"{rel}/{fname}"] = sha256(
                        os.path.join(run_dir, fname))
            print(f"{rel}: done", flush=True)
    with open(os.path.join(args.out, "digests.txt"), "w") as f:
        f.writelines(f"{d}  {p}\n" for p, d in digests.items())
    with open(os.path.join(args.out, "metrics.tsv"), "w") as f:
        f.write("\t".join(["workload", "seed", "report", *columns]) + "\n")
        f.writelines("\t".join([*key, *(repr(r[c]) if c in r else "-"
                                        for c in columns)]) + "\n"
                     for *key, r in rows)
    print(f"{len(digests)} outputs hashed")

    if args.against is None:
        return 0
    theirs = read_digests(os.path.join(args.against, "digests.txt"))
    differ = sorted(p for p in digests.keys() | theirs.keys()
                    if digests.get(p) != theirs.get(p))
    for p in differ:
        print(f"differs: {p}")
    print(f"{len(differ)} of {len(digests.keys() | theirs.keys())} "
          f"outputs differ from {args.against}")
    mine = read_metrics(os.path.join(args.out, "metrics.tsv"))
    before = read_metrics(os.path.join(args.against, "metrics.tsv"))
    for key in sorted(mine.keys() | before.keys()):
        old, new = before.get(key, {}), mine.get(key, {})
        if old != new:
            print("metrics differ: " + " ".join(key) + "".join(
                f"\t{col} {old.get(col, '-')} -> {new.get(col, '-')}"
                for col in dict.fromkeys([*old, *new])))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
