"""Pipeline benchmark for advda.

Runs one workload of the staged experiment pipeline (synth, train-base,
adapt, extract, backend, backend-adapt, score, eval) in this process,
through the `advda` command's own entry point, and times each stage call
from outside.  Usage, from the root of the repository:

    python3 perfbench/run.py --workload reference-adapt --seed 1 \\
        --seconds 30 --trace 0

With `--trace 0` the run sets up (imports plus `synth`, several times),
then calls the stages from train-base to eval in rounds for about
`--seconds`, and reports the end-to-end metrics.  With `--trace 1` it
makes one plain pass and one pass with spans around the public functions
of every module, each calling every stage once, and reports the
per-layer metrics and the tracing overhead.  Stage outputs are
deterministic, so a stage may be called again in any order and must
write the same bytes.
Every output is checked by the independent oracles in `oracles.py`
after the last stage call, and after peak RSS is read, so neither the
oracles nor their imports count in the figures.  The last line of
standard output is the result as JSON.
"""

import os

# One BLAS thread: on 2 cores a second thread saves ~5% of wall time but
# doubles CPU time and widens the run-to-run spread.  Set before numpy
# is imported anywhere.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

EMBEDDING_SAMPLE = 6     # utterances per set recomputed by the oracle
LLR_SAMPLE = 30          # trials per score file recomputed by the oracle
SYNTH_CALLS = 3          # set-up; setup_s uses the median
# The timed part is at least ROUNDS rounds of the steps train-base, adapt,
# extract, backend (+ backend-adapt) and score (score and eval, plain and
# adapted); a workload's `once` steps run in the first round only, and its
# `repeat` steps several times back to back in every round.  A step's
# figure is its median over all its calls, so a slow spell of the shared
# machine hits a few samples and not all of them.
ROUNDS = 3


class Bench:
    """Drives the stages of one workload and checks their outputs.

    Each stage call is one operation; it fails when it raises or when its
    output fails its check.  A repeated call must write byte-identical
    outputs to the first, so the oracles check each stage's outputs once,
    in `run_checks`, and every call that wrote them shares the verdict.
    """

    def __init__(self, advda, workload, seed, run_dir):
        import numpy as np
        self.advda, self.w = advda, workload
        self.oracles = None
        self.work = os.path.join(run_dir, "work")
        self.config = os.path.join(run_dir, "experiment.json")
        exp = {**workload.experiment, "seed": seed, "out_dir": self.work}
        with open(self.config, "w") as f:
            json.dump(exp, f, indent=2)
        self.exp = advda.pipeline.ExperimentConfig.from_dict(exp)
        self.tag = workload.mode.replace("+", "_")
        self.rng = np.random.default_rng([seed, 4242])
        self.tracer = None
        self.attempted = self.failed = 0
        self.op_seconds = 0.0      # all stage calls, checks excluded
        self.problems = []
        self.digests = {}
        self.pending = {}          # manifest -> (argv, check) of 1st call
        self.calls = Counter()     # manifest -> calls that wrote it
        self.pseudo_labels = None
        self.reports = {}
        tap = advda.trainer.pseudo_label_utterances

        def keep_labels(*args, **kwargs):
            self.pseudo_labels = tap(*args, **kwargs)
            return self.pseudo_labels
        advda.trainer.pseudo_label_utterances = keep_labels

    def path(self, name):
        return os.path.join(self.work, name)

    # -- one operation ------------------------------------------------------

    def op(self, argv, manifest, check):
        """Run `advda <argv>` once; return its wall seconds.  The outputs
        are compared with the first call's here and checked later."""
        self.attempted += 1
        args = [argv[0], "--config", self.config, *argv[1:]]
        call = self.advda.cli.main.main
        if self.tracer is not None:
            call = self.tracer.wrap(f"cli.{argv[0]}", call)
        # Start every call from a collected heap, as a fresh `advda`
        # process would, so that no collection of earlier calls' garbage
        # falls inside this one.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                call(args=args, prog_name="advda", standalone_mode=False)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: raised")
            print(f"advda {' '.join(argv)} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t0
            if self._same_outputs(manifest):
                self.pending.setdefault(manifest, (argv, check))
                self.calls[manifest] += 1
            else:
                self.failed += 1
                self.problems.append(f"{' '.join(argv)}: outputs differ "
                                     "from those of the first call")
        self.op_seconds += elapsed
        return elapsed

    def _same_outputs(self, manifest):
        """Whether a stage wrote the same bytes as at its first call."""
        with open(self.path(f"{manifest}.manifest.json")) as f:
            outputs = sorted(json.load(f)["outputs"])
        digest = hashlib.sha256()
        for p in outputs:
            with open(p, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
        first = self.digests.setdefault(manifest, digest.hexdigest())
        return first == digest.hexdigest()

    def run_checks(self, oracles):
        """Oracle-check each stage's outputs once; when they fail, every
        call that wrote them fails."""
        self.oracles = oracles
        for manifest, (argv, check) in self.pending.items():
            try:
                problems = check()
            except Exception as e:
                problems = [f"check raised {e!r}"]
            if problems:
                self.failed += self.calls[manifest]
                self.problems += [f"{' '.join(argv)}: {p}" for p in problems]

    # -- checks -------------------------------------------------------------

    def check_synth(self):
        return self.oracles.check_trials(
            self.path("eval.tsv"), self.path("trials.txt"),
            self.exp.trials.nontarget_per_target)

    def check_train_base(self):
        log = self.oracles.read_log(self.path("base.log.jsonl"))
        return self.oracles.check_losses(log) + \
            self.oracles.check_ce_falls(log)

    def check_adapt(self):
        o = self.oracles
        log = o.read_log(self.path(f"adapt_{self.tag}.log.jsonl"))
        problems = o.check_losses(log)
        if "critic_gap" in self.w.checks:
            problems += o.check_critic_gap(
                log, self.exp.train_adapt["warmup_epochs"])
        if "pseudo_labels" in self.w.checks:
            problems += o.check_pseudo_labels(
                self.path("base.ckpt"), self.path("target.xvf"),
                self.pseudo_labels or {}, self.exp.backend.pseudo_threshold)
        return problems

    def check_extract(self):
        problems = []
        for name, bit in (("source", 0), ("target", 1), ("eval", 1)):
            uids = sorted(self.oracles.read_tsv(self.path(f"{name}.tsv")),
                          key=lambda r: r["utt_id"])
            pick = self.rng.choice(len(uids), EMBEDDING_SAMPLE, replace=False)
            problems += self.oracles.check_embeddings(
                self.path(f"adapt_{self.tag}.ckpt"), self.path(f"{name}.xvf"),
                self.path(f"emb_{name}_{self.tag}.xvf"),
                [uids[i]["utt_id"] for i in pick], bit)
        return problems

    def check_bundle(self, suffix):
        return lambda: self.oracles.check_bundle(
            self.path(f"backend_{self.tag}{suffix}.advb"))

    def check_score(self, suffix):
        def check():
            trials = self.oracles.read_trials(self.path("trials.txt"))
            idx = self.rng.choice(len(trials), LLR_SAMPLE, replace=False)
            return self.oracles.check_llrs(
                self.path(f"backend_{self.tag}{suffix}.advb"),
                self.path(f"emb_eval_{self.tag}.xvf"),
                self.path(f"scores_{self.tag}{suffix}.txt"), trials, idx)
        return check

    def check_eval(self, suffix):
        def check():
            report = self.path(f"report_{self.tag}{suffix}.json")
            with open(report) as f:
                self.reports[f"{self.tag}{suffix}"] = json.load(f)
            return self.oracles.check_report(
                self.path(f"scores_{self.tag}{suffix}.txt"),
                self.oracles.read_trials(self.path("trials.txt")), report,
                self.exp.priors)
        return check

    # -- stages -------------------------------------------------------------

    def synth(self):
        return self.op(["synth"], "synth", self.check_synth)

    def steps(self):
        """The timed steps, in pipeline order: name -> one call of it,
        returning its wall seconds."""
        w, tag = self.w, self.tag
        return {
            "train_base_s": lambda: self.op(
                ["train-base"], "train_base", self.check_train_base),
            "adapt_s": lambda: self.op(
                ["adapt", "--mode", w.mode], f"adapt_{tag}",
                self.check_adapt),
            "extract_s": lambda: self.op(
                ["extract", "--ckpt", self.path(f"adapt_{tag}.ckpt"),
                 "--tag", tag], f"extract_{tag}", self.check_extract),
            "backend_s": lambda: self.op(
                ["backend", "--tag", tag], f"backend_{tag}",
                self.check_bundle("")) + self.op(
                ["backend-adapt", "--tag", tag], f"backend_adapt_{tag}",
                self.check_bundle("_adapted")),
            "score_s": lambda: sum(
                self.op([stage, "--tag", tag, *flag],
                        f"{stage}_{tag}{suffix}", check(suffix))
                for flag, suffix in (([], ""), (["--adapted"], "_adapted"))
                for stage, check in (("score", self.check_score),
                                     ("eval", self.check_eval))),
        }

    def one_pass(self):
        """Every step called once, in order."""
        for step in self.steps().values():
            step()

    def measure(self, seconds):
        """Rounds of the steps until the next round would end after
        `seconds`, and at least ROUNDS of them.  Returns each step's
        median over its calls, their sum as wall_s, and the samples."""
        steps = self.steps()
        once = {f"{s.replace('-', '_')}_s" for s in self.w.once}
        repeat = {f"{s}_s": n for s, n in self.w.repeat.items()}
        samples = {name: [] for name in steps}
        start = time.perf_counter()
        rounds, round_s = 0, 0.0
        while rounds < ROUNDS or \
                time.perf_counter() - start + round_s <= seconds:
            round_s = 0.0
            for name, step in steps.items():
                if rounds and name in once:
                    continue
                for _ in range(repeat.get(name, 1)):
                    samples[name].append(step())
                    if name not in once:
                        round_s += samples[name][-1]
            rounds += 1
        out = {name: statistics.median(t) for name, t in samples.items()}
        out["wall_s"] = sum(out.values())
        return out, samples


def blas_info():
    """BLAS library and the thread count it reports, where it says."""
    import ctypes
    import numpy as np
    info = {"env": {k: os.environ.get(k) for k in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "blas" in line.lower() and "/" in line})
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                info["library"], info["threads"] = lib, int(fn())
                return info
    return info


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cores": os.cpu_count(),
            "blas": blas_info(), "platform": platform.platform()}


def run(args, import_s):
    import advda.cli  # imported by main(); binds the package name here
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    run_dir = os.path.join(HERE, "runs", f"{w.name}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    bench = Bench(advda, w, args.seed, run_dir)
    result = {"workload": w.name, "seed": args.seed, "trace": args.trace}

    if not args.trace:
        synth = [bench.synth() for _ in range(SYNTH_CALLS)]
        metrics, samples = bench.measure(args.seconds)
        metrics["setup_s"] = import_s + statistics.median(synth)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(import_s=import_s, synth_s=synth, samples=samples)
        units = metric_units("end_to_end")
    else:
        import spans
        bench.synth()
        bench.one_pass()
        plain = bench.op_seconds
        bench.tracer = spans.Tracer()
        bench.tracer.install(advda)
        bench.synth()
        bench.one_pass()
        traced = bench.op_seconds - plain
        metrics = bench.tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced - plain
        bench.tracer.write(os.path.join(run_dir, "trace.jsonl"))
        result.update(plain_s=plain, traced_s=traced,
                      spans=len(bench.tracer.spans))
        units = metric_units("per_layer")

    import oracles
    problems = oracles.self_test()
    bench.run_checks(oracles)
    problems += bench.problems
    result.update(environment=environment(), reports=bench.reports,
                  problems=problems)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=2, default=float)
    shutil.rmtree(bench.work, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": result["environment"],
                      "reports": bench.reports}, default=float))
    return {"correct": not problems, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u}
                        for k, u in units.items()}}


def metric_units(kind):
    """Metric name -> unit, for one kind of metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "advda", "cli.py")):
        print(f"advda sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import advda.cli  # noqa: F401  (numpy, scipy and click come with it)
    import_s = time.perf_counter() - t0
    print(json.dumps(run(args, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
