"""Spans around the public functions of each `advda` module, installed
from outside by replacing module attributes, and the per-layer metrics
computed from them.

A span records its name (`<module>.<function>`, the module being the
layer), its parent span and its start and end.  Spans stay in memory and
are written out at the end of the run.  A layer's self time is the time
its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# Module -> public functions to trace; the span is named
# `<module>.<attribute>`, and a dotted attribute is a method.  Modules
# that import a name from another module (ALIASES, and the stage commands
# in `cli`) get the same kind of wrapper under that name, so every call
# site goes through one.
TRACED = {
    "corpus": ["generate_corpus", "generate_domain", "read_archive",
               "write_archive", "read_manifest", "write_manifest"],
    "network": ["build_embedding", "build_embedding_batch", "build_critic",
                "build_classifier", "extract_embedding", "save_checkpoint",
                "load_checkpoint"],
    "autodiff": ["evaluate", "backward", "sgd_step"],
    "trainer": ["train", "train_baseline", "critic_step", "main_step",
                "MinibatchSampler.sample", "pseudo_label",
                "pseudo_label_utterances"],
    "backend": ["estimate_transform", "plda_train_em", "plda_adapt",
                "apply_transform", "save_bundle", "load_bundle"],
    "metrics": ["score_trials", "evaluation_report", "write_report",
                "TrialList.read", "TrialList.write", "ScoreSet.read",
                "ScoreSet.write"],
}
ALIASES = {("metrics", "apply_transform"): "backend.apply_transform"}
PIPELINE_STAGES = ["cmd_synth", "cmd_train_base", "cmd_adapt", "cmd_extract",
                   "cmd_backend", "cmd_backend_adapt", "cmd_score",
                   "cmd_eval"]


class Tracer:
    """Span recorder.  `wrap` returns a traced version of a callable."""

    def __init__(self):
        self.spans = []         # [name, parent index, start, end]
        self.stack = []
        self.counts = defaultdict(float)
        self.nodes = {}         # span name of the step -> graph node count
        self._last_root = None

    def wrap(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
        traced.__wrapped__ = fn
        return traced

    # counters taken at call time, before the span opens

    def _archive_read(self, args, kwargs):
        self.counts["archive_bytes_read"] += os.path.getsize(args[0])

    def _trials_scored(self, args, kwargs):
        self.counts["trials_scored"] += len(args[3])

    def _pseudo_labelled(self, args, kwargs):
        self.counts["pseudo_labelled"] += len(args[0])

    def _backward(self, args, kwargs):
        """Count loss roots of main (non-critic) steps and their nodes."""
        root = args[0]
        parent = self.spans[self.stack[-1]][0] if self.stack else ""
        if parent == "trainer.critic_step":
            return
        self.counts["main_backward_calls"] += 1
        if root is not self._last_root:
            self._last_root = root
            self.counts["main_roots"] += 1
            self.nodes[parent] = count_nodes(root)

    def install(self, advda):
        """Replace the traced public functions of the `advda` modules."""
        hooks = {"corpus.read_archive": self._archive_read,
                 "metrics.score_trials": self._trials_scored,
                 "trainer.pseudo_label": self._pseudo_labelled,
                 "autodiff.backward": self._backward}
        wrapped = {}
        for mod_name, attrs in TRACED.items():
            mod = getattr(advda, mod_name)
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                owner, _, leaf = attr.rpartition(".")
                target = getattr(mod, owner) if owner else mod
                raw = vars(target)[leaf] if owner else getattr(mod, leaf)
                if isinstance(raw, classmethod):
                    fn = classmethod(self.wrap(name, raw.__func__,
                                               hooks.get(name)))
                else:
                    fn = self.wrap(name, raw, hooks.get(name))
                setattr(target, leaf, fn)
                wrapped[name] = fn
        for (mod_name, attr), name in ALIASES.items():
            setattr(getattr(advda, mod_name), attr, wrapped[name])
        # the command module calls the stages through names it imported
        for stage in PIPELINE_STAGES:
            setattr(advda.cli, stage,
                    self.wrap(f"pipeline.{stage}",
                              getattr(advda.pipeline, stage)))

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "parent": parent, "name": name,
                                    "start": t0, "end": t1}) + "\n")

    # -----------------------------------------------------------------------
    # per-layer metrics

    def layer_metrics(self) -> dict:
        total = defaultdict(float)      # inclusive seconds per span name
        calls = defaultdict(int)
        self_s = defaultdict(float)     # self seconds per span name
        for name, parent, t0, t1 in self.spans:
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            self_s[name] += d
            if parent >= 0:
                self_s[self.spans[parent][0]] -= d

        def incl(*names):
            return sum(total[n] for n in names)

        def layer_self(layer):
            return sum(v for n, v in self_s.items()
                       if n.split(".")[0] == layer)

        def per_call_ms(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        c = self.counts
        roots = c["main_roots"]
        return {
            "cli.self_s": layer_self("cli"),
            "pipeline.self_s": layer_self("pipeline"),
            "corpus.generate_s": self_s["corpus.generate_corpus"]
            + self_s["corpus.generate_domain"],
            "corpus.read_archive_s": incl("corpus.read_archive"),
            "corpus.read_archive_calls": calls["corpus.read_archive"],
            "corpus.archive_mb_read": c["archive_bytes_read"] / 2**20,
            "corpus.write_archive_s": incl("corpus.write_archive"),
            "corpus.manifest_io_s": incl("corpus.read_manifest",
                                         "corpus.write_manifest"),
            "network.graph_build_s": incl(
                "network.build_embedding", "network.build_embedding_batch",
                "network.build_critic", "network.build_classifier"),
            "network.extract_s": incl("network.extract_embedding"),
            "network.extract_calls": calls["network.extract_embedding"],
            "network.checkpoint_io_s": incl("network.save_checkpoint",
                                            "network.load_checkpoint"),
            "autodiff.evaluate_s": incl("autodiff.evaluate"),
            "autodiff.evaluate_calls": calls["autodiff.evaluate"],
            "autodiff.backward_s": incl("autodiff.backward"),
            "autodiff.backward_calls": calls["autodiff.backward"],
            "autodiff.backward_per_step_n":
                c["main_backward_calls"] / roots if roots else 0.0,
            "autodiff.nodes_base_step":
                self.nodes.get("trainer.train_baseline", 0),
            "autodiff.nodes_adapt_step": self.nodes.get("trainer.main_step", 0),
            "autodiff.sgd_step_s": incl("autodiff.sgd_step"),
            "trainer.sample_s": incl("trainer.MinibatchSampler.sample"),
            "trainer.critic_step_ms": per_call_ms("trainer.critic_step"),
            "trainer.main_step_ms": per_call_ms("trainer.main_step"),
            "trainer.train_self_s": self_s["trainer.train"],
            "trainer.train_baseline_self_s": self_s["trainer.train_baseline"],
            "trainer.pseudo_label_s": incl("trainer.pseudo_label"),
            "trainer.pseudo_label_n": int(c["pseudo_labelled"]),
            "backend.lda_s": incl("backend.estimate_transform"),
            "backend.plda_em_s": incl("backend.plda_train_em"),
            "backend.plda_adapt_s": incl("backend.plda_adapt"),
            "backend.apply_transform_s": incl("backend.apply_transform"),
            "backend.apply_transform_calls": calls["backend.apply_transform"],
            "backend.bundle_io_s": incl("backend.save_bundle",
                                        "backend.load_bundle"),
            "metrics.score_trials_s": incl("metrics.score_trials"),
            "metrics.trials_scored_n": int(c["trials_scored"]),
            "metrics.report_s": incl("metrics.evaluation_report",
                                     "metrics.write_report"),
            "metrics.file_io_s": incl(
                "metrics.TrialList.read", "metrics.TrialList.write",
                "metrics.ScoreSet.read", "metrics.ScoreSet.write"),
        }


def count_nodes(root) -> int:
    """Distinct nodes reachable from `root` through `parents`."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
