"""Staged experiment pipeline: corpus -> baseline -> adaptation -> backend
-> scoring -> report.

Every stage reads and writes files under the configured run directory
with fixed names, records a per-stage run manifest (config echo, input
and output digests, wall clock), and is deterministic given the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import backend as be
from . import corpus as cp
from . import metrics as mt
from . import network as net
from . import trainer as tr
from .schema import at_least, check, hints, within

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


def _strict(cls, data: dict, where: str, stage_set=()):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    fixed = set(data) & set(stage_set)
    if fixed:
        raise ConfigError(f"{where}: keys {sorted(fixed)} are set by the "
                          f"stages and cannot be configured")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


@dataclass
class TrialsSection:
    nontarget_per_target: int = at_least(1, default=4)

    def __post_init__(self):
        check(self)


# Every section's class, and the keys in it that the stages always set.
_SECTIONS = {
    "corpus": (cp.CorpusConfig, ()),
    "backend": (be.BackendConfig, ()),
    "trials": (TrialsSection, ()),
    "network": (net.NetworkConfig, ("frame_dim", "n_source_classes",
                                    "n_target_classes", "use_domain_bit")),
    "train_base": (tr.TrainConfig, ("mode", "scope", "seed")),
    "train_adapt": (tr.TrainConfig, ("mode", "scope", "seed")),
}


@dataclass
class ExperimentConfig:
    seed: int = at_least(0, default=1)
    out_dir: str = "run"
    corpus: cp.CorpusConfig = field(default_factory=cp.CorpusConfig)
    network: dict = field(default_factory=dict)
    train_base: dict = field(default_factory=dict)
    train_adapt: dict = field(default_factory=dict)
    backend: be.BackendConfig = field(default_factory=be.BackendConfig)
    trials: TrialsSection = field(default_factory=TrialsSection)
    # the report gives one minDCF for each of the two priors, named by it
    priors: tuple[float, float] = within(0, 1, default=(0.01, 0.005),
                                         open=True)

    def __post_init__(self):
        check(self)
        if self.priors[0] == self.priors[1]:
            raise ValueError(f"priors must differ, got {list(self.priors)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config: expected an object")
        built = {name: _strict(kind, data.get(name, {}), name, stage_set)
                 for name, (kind, stage_set) in _SECTIONS.items()}
        # the network and training sections stay the override dicts that
        # the stages build their configs from
        out = _strict(cls, {**data, **{
            name: dict(data.get(name, {}))
            if hints(cls)[name] is dict else section
            for name, section in built.items()}}, "config")
        out._check_across_sections(built["network"], built["train_base"],
                                   built["train_adapt"])
        return out

    def _check_across_sections(self, network, train_base, train_adapt):
        """Constraints that tie values across sections or to one stage."""
        # only adaptation has warm-up epochs
        if 0 < train_adapt.epochs <= train_adapt.warmup_epochs:
            raise ConfigError("train_adapt.warmup_epochs must be less than "
                              "train_adapt.epochs")
        # LDA finds at most one dimension fewer than there are classes
        for key, bound in (("network.embed_dim", network.embed_dim),
                           ("corpus.source_speakers-1",
                            self.corpus.source_speakers - 1)):
            if self.backend.lda_dim > bound:
                raise ConfigError(f"backend.lda_dim={self.backend.lda_dim} "
                                  f"exceeds {key}={bound}")
        # splicing needs every segment longer than its widest context
        span = max(abs(o) for ctx in network.tdnn_contexts for o in ctx)
        lengths = {"corpus.frames_range[0]": self.corpus.frames_range[0],
                   "train_base.segment_frames[0]": train_base.segment_frames[0],
                   "train_adapt.segment_frames[0]":
                       train_adapt.segment_frames[0]}
        for key, n in lengths.items():
            if n <= span:
                raise ConfigError(
                    f"{key}={n} frames is not longer than the widest "
                    f"network.tdnn_contexts offset {span}")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return asdict(self)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def tag_for(mode: str | None, scope: str) -> str:
    """Tag of a system's files; mode None is the unadapted baseline."""
    if mode is None:
        return "baseline"
    safe = mode.replace("+", "_")
    return safe if scope == "all" else f"{safe}_postpool"


def _checkpoint(cfg: ExperimentConfig, tag: str) -> str:
    """Run-directory checkpoint of the system `tag`."""
    return cfg.path("base.ckpt" if tag == "baseline" else f"adapt_{tag}.ckpt")


# ---------------------------------------------------------------------------
# run manifests


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _stage(cfg: ExperimentConfig, name: str, inputs, outputs):
    """Run a stage's body: check its inputs exist, time it, and write the
    manifest for `outputs`.  A body that raises leaves no manifest."""
    for p in inputs:
        if not os.path.exists(p):
            raise FileNotFoundError(f"stage {name!r} input missing: {p}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.monotonic()
    yield
    manifest = {"wall_clock_s": time.monotonic() - t0,  # before hashing
                "stage": name, "tool_version": TOOL_VERSION,
                "config": cfg.to_dict(),
                "inputs": {p: _sha256(p) for p in inputs},
                "outputs": {p: _sha256(p) for p in outputs}}
    path = cfg.path(f"{name}.manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


@contextlib.contextmanager
def _section(name: str):
    """Name the config section in the errors of a training loop."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from e


def _set_paths(cfg: ExperimentConfig, name: str):
    """Feature archive and manifest of the source, target or eval set."""
    return cfg.path(f"{name}.xvf"), cfg.path(f"{name}.tsv")


# ---------------------------------------------------------------------------
# stages


def cmd_synth(cfg: ExperimentConfig) -> list:
    """Generate source, adaptation-target and evaluation archives + trials."""
    sets = {name: _set_paths(cfg, name) for name in cp.SETS}
    trials_path = cfg.path("trials.txt")
    outputs = [*sum(sets.values(), ()), trials_path]
    with _stage(cfg, "synth", [], outputs):
        data = cp.generate_corpus(cfg.corpus, cfg.seed)
        for name, (xvf, tsv) in sets.items():
            archive, records = data[name]
            cp.write_archive(xvf, archive)
            cp.write_manifest(tsv, records)
        make_trials(data["eval"][1], cfg.trials.nontarget_per_target,
                    seed=cfg.seed).write(trials_path)
    return outputs


def make_trials(records, nontarget_per_target: int, seed: int) -> mt.TrialList:
    """All same-speaker pairs as targets plus sampled cross-speaker pairs."""
    by_speaker = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r.utt_id)
    groups = [by_speaker[spk] for spk in sorted(by_speaker)]
    pairs = [p for utts in groups for p in itertools.combinations(utts, 2)]
    enroll, test = [e for e, _ in pairs], [t for _, t in pairs]
    n_target = len(enroll)
    wanted = n_non = nontarget_per_target * n_target
    if n_non > 0 and len(groups) < 2:
        raise ValueError(f"nontarget trials need at least 2 eval speakers, "
                         f"got {len(groups)}")
    # unordered cross-speaker pairs: (N^2 - sum of n_s^2) / 2
    sizes = [len(utts) for utts in groups]
    available = (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2
    if wanted > available:
        raise ValueError(
            f"trials.nontarget_per_target={nontarget_per_target} asks for "
            f"{wanted} nontarget trials, but only {available} distinct "
            f"cross-speaker pairs exist; lower it or add eval speakers")
    # equally likely pairs take at most about wanted * (ln(available) + 1)
    # draws on average (coupon collector); the budget leaves a wide margin
    budget = 200000 + int(wanted * (np.log1p(available) + 20))
    rng = np.random.default_rng([seed, 99])
    seen = set(pairs)
    attempts = 0
    while n_non > 0 and attempts < budget:
        s1, s2 = rng.choice(len(groups), size=2, replace=False)
        u1 = groups[s1][rng.integers(0, len(groups[s1]))]
        u2 = groups[s2][rng.integers(0, len(groups[s2]))]
        if (u1, u2) not in seen and (u2, u1) not in seen:
            seen.add((u1, u2))
            enroll.append(u1)
            test.append(u2)
            n_non -= 1
        attempts += 1
    if n_non > 0:
        raise ValueError(
            f"trials.nontarget_per_target={nontarget_per_target} asks for "
            f"{wanted} nontarget trials, but {attempts} draws found only "
            f"{wanted - n_non} distinct pairs; lower it or add eval speakers")
    # the targets come first
    return mt.TrialList(enroll, test, np.arange(len(enroll)) < n_target)


def _load_feats(xvf, tsv):
    return cp.read_archive(xvf), cp.read_manifest(tsv)


def cmd_train_base(cfg: ExperimentConfig) -> str:
    """Train the source-only baseline network and checkpoint it."""
    source = _set_paths(cfg, "source")
    tgt_tsv = cfg.path("target.tsv")
    out, log_path = _checkpoint(cfg, "baseline"), cfg.path("base.log.jsonl")
    with _stage(cfg, "train_base", [*source, tgt_tsv], [out, log_path]):
        src_feats, src_records = _load_feats(*source)
        src_labels = tr.labels_from_manifest(src_records)
        n_source = len(set(src_labels.values()))
        n_target = len({r.speaker_id for r in cp.read_manifest(tgt_tsv)})
        # the baseline allocates a domain-bit network so every adaptation
        # mode can start from the same checkpoint
        ncfg = net.NetworkConfig(**{
            **cfg.network, "frame_dim": cfg.corpus.frame_dim,
            "n_source_classes": n_source, "n_target_classes": n_target,
            "use_domain_bit": True})
        params = net.init_network(ncfg, seed=cfg.seed)
        tcfg = tr.TrainConfig(**{**cfg.train_base, "seed": cfg.seed})
        with _section("train_base"):
            params, log = tr.train_baseline(params, tcfg, src_feats,
                                            src_labels)
        net.save_checkpoint(out, params)
        tr.write_train_log(log_path, log)
    return out


def cmd_adapt(cfg: ExperimentConfig, mode: str, scope: str = "all") -> str:
    """Adapt the baseline checkpoint with the given mode and scope."""
    tag = tag_for(mode, scope)
    base = _checkpoint(cfg, "baseline")
    source, target = _set_paths(cfg, "source"), _set_paths(cfg, "target")
    out = _checkpoint(cfg, tag)
    log_path = cfg.path(f"adapt_{tag}.log.jsonl")
    with _stage(cfg, f"adapt_{tag}", [base, *source, *target],
                [out, log_path]):
        params = net.load_checkpoint(base)
        src_feats, src_records = _load_feats(*source)
        tgt_feats, tgt_records = _load_feats(*target)
        src_labels = tr.labels_from_manifest(src_records)
        tcfg = tr.TrainConfig(**{**cfg.train_adapt, "mode": mode,
                                 "scope": scope, "seed": cfg.seed})
        target_labels = None
        if tcfg.supervised_target:
            if cfg.backend.pseudo_threshold is not None:
                target_labels = tr.pseudo_label_utterances(
                    params, tgt_feats, cfg.backend.pseudo_threshold)
                net.resize_target_head(params,
                                       len(set(target_labels.values())),
                                       seed=cfg.seed)
            else:
                target_labels = tr.labels_from_manifest(tgt_records)
        with _section("train_adapt"):
            params, log = tr.train(params, tcfg, src_feats, src_labels,
                                   tgt_feats, target_labels)
        net.save_checkpoint(out, params)
        tr.write_train_log(log_path, log)
    return out


def cmd_extract(cfg: ExperimentConfig, checkpoint: str, tag: str) -> list:
    """Extract embeddings for the source, target and eval sets.  A
    checkpoint in the run directory must be the one of `tag`."""
    own = _checkpoint(cfg, tag)
    path = os.path.abspath(checkpoint)
    if os.path.dirname(path) == os.path.abspath(cfg.out_dir) \
            and path != os.path.abspath(own):
        raise ValueError(f"checkpoint {checkpoint} does not belong to tag "
                         f"{tag!r}, whose checkpoint is {own}")
    sets = [_set_paths(cfg, name) for name in cp.SETS]
    outputs = [cfg.path(f"emb_{name}_{tag}.xvf") for name in cp.SETS]
    with _stage(cfg, f"extract_{tag}", [checkpoint, *sum(sets, ())], outputs):
        params = net.load_checkpoint(checkpoint)
        for paths, out in zip(sets, outputs):
            feats, records = _load_feats(*paths)
            vecs = net.extract_embedding(
                params, [feats[r.utt_id] for r in records],
                [0 if r.domain == "source" else 1 for r in records])
            cp.write_archive(out, {r.utt_id: vec[None, :].astype(np.float32)
                                   for r, vec in zip(records, vecs)})
    return outputs


def _read_embeddings(path) -> dict:
    return {u: np.asarray(fr[0], dtype=np.float64)
            for u, fr in cp.read_archive(path).items()}


def cmd_backend(cfg: ExperimentConfig, tag: str) -> str:
    """LDA + PLDA on source embeddings; center scoring at the target mean."""
    src_emb = cfg.path(f"emb_source_{tag}.xvf")
    tgt_emb = cfg.path(f"emb_target_{tag}.xvf")
    src_tsv = cfg.path("source.tsv")
    out = cfg.path(f"backend_{tag}.advb")
    with _stage(cfg, f"backend_{tag}", [src_emb, tgt_emb, src_tsv], [out]):
        src_embs = _read_embeddings(src_emb)
        tgt_embs = _read_embeddings(tgt_emb)
        labels_map = tr.labels_from_manifest(cp.read_manifest(src_tsv))
        uids = sorted(src_embs)
        vectors = np.stack([src_embs[u] for u in uids])
        labels = np.asarray([labels_map[u] for u in uids])
        bs = cfg.backend
        train_tf = be.estimate_transform(vectors, labels, bs.lda_dim,
                                         length_norm=bs.length_norm)
        projected = np.stack([be.apply_transform(train_tf, v)
                              for v in vectors])
        model = be.plda_train_em(projected, labels, bs.plda_iterations)
        # evaluation data is centered at the adaptation-set mean instead
        adapt_mean = np.stack(list(tgt_embs.values())).mean(axis=0)
        eval_tf = be.BackendTransform(mean=adapt_mean, lda=train_tf.lda,
                                      length_norm=bs.length_norm)
        be.save_bundle(out, eval_tf, model)
    return out


def cmd_backend_adapt(cfg: ExperimentConfig, tag: str) -> str:
    """Kaldi-style covariance adaptation of the PLDA on target embeddings."""
    bundle = cfg.path(f"backend_{tag}.advb")
    tgt_emb = cfg.path(f"emb_target_{tag}.xvf")
    out = cfg.path(f"backend_{tag}_adapted.advb")
    with _stage(cfg, f"backend_adapt_{tag}", [bundle, tgt_emb], [out]):
        transform, model = be.load_bundle(bundle)
        vectors = np.stack([be.apply_transform(transform, v)
                            for v in _read_embeddings(tgt_emb).values()])
        be.save_bundle(out, transform,
                       be.plda_adapt(model, vectors, cfg.backend))
    return out


def cmd_score(cfg: ExperimentConfig, tag: str, adapted: bool = False) -> str:
    suffix = "_adapted" if adapted else ""
    bundle = cfg.path(f"backend_{tag}{suffix}.advb")
    eval_emb = cfg.path(f"emb_eval_{tag}.xvf")
    trials_path = cfg.path("trials.txt")
    out = cfg.path(f"scores_{tag}{suffix}.txt")
    with _stage(cfg, f"score_{tag}{suffix}", [bundle, eval_emb, trials_path],
                [out]):
        transform, model = be.load_bundle(bundle)
        mt.score_trials(transform, model, _read_embeddings(eval_emb),
                        mt.TrialList.read(trials_path)).write(out)
    return out


def cmd_eval(cfg: ExperimentConfig, tag: str, adapted: bool = False) -> dict:
    suffix = "_adapted" if adapted else ""
    scores_path = cfg.path(f"scores_{tag}{suffix}.txt")
    trials_path = cfg.path("trials.txt")
    out = cfg.path(f"report_{tag}{suffix}.json")
    with _stage(cfg, f"eval_{tag}{suffix}", [scores_path, trials_path],
                [out]):
        report = mt.evaluation_report(mt.ScoreSet.read(scores_path),
                                      mt.TrialList.read(trials_path),
                                      cfg.priors)
        mt.write_report(out, report)
    return report


def cmd_report(cfg: ExperimentConfig) -> dict:
    """Collect all per-mode reports into one comparison table."""
    inputs = sorted(glob.glob(os.path.join(glob.escape(cfg.out_dir),
                                           "report_*.json")))
    if not inputs:
        raise FileNotFoundError("no per-mode reports found; run eval first")
    out = cfg.path("comparison.json")
    with _stage(cfg, "report", inputs, [out]):
        rows = {}
        for path in inputs:
            tag = os.path.basename(path)[len("report_"):-len(".json")]
            with open(path) as f:
                rows[tag] = json.load(f)
        mt.write_report(out, rows)
    return rows


# (mode, scope) of each system compared; mode None is the unadapted baseline
VARIANTS = ((None, "all"), ("sup", "all"), ("adv", "all"),
            ("adv+sup", "all"), ("adv+sup", "post-pool"),
            ("adv+lan+sup", "all"))


def run_experiment(cfg: ExperimentConfig, variants=VARIANTS) -> dict:
    """Every stage of the comparison: synth and train-base; for each
    variant, adapt (not the baseline), extract, both backends, score and
    eval; then `report`, whose rows it returns."""
    cmd_synth(cfg)
    base = cmd_train_base(cfg)
    for mode, scope in variants:
        tag = tag_for(mode, scope)
        ckpt = base if mode is None else cmd_adapt(cfg, mode, scope)
        cmd_extract(cfg, ckpt, tag)
        cmd_backend(cfg, tag)
        cmd_backend_adapt(cfg, tag)
        for adapted in (False, True):
            cmd_score(cfg, tag, adapted=adapted)
            cmd_eval(cfg, tag, adapted=adapted)
    return cmd_report(cfg)
