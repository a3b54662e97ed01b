"""Staged experiment pipeline: corpus -> baseline -> adaptation -> backend
-> scoring -> report.

Every stage reads and writes files under the configured run directory
with fixed names, records a per-stage run manifest (config echo, input
and output digests, wall clock), and is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
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

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


def _strict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


@dataclass
class CorpusSection:
    frame_dim: int = 10
    source_speakers: int = 200
    source_utts_per_speaker: int = 20
    target_speakers: int = 50
    target_utts_per_speaker: int = 10
    eval_speakers: int = 30
    eval_utts_per_speaker: int = 6
    frames_range: tuple = (30, 60)
    speaker_scale: float = 1.0
    channel_scale: float = 0.3
    noise_scale: float = 0.5
    shift_rotation: float = 0.5
    shift_offset: float = 1.5
    target_cov_scale: float = 1.0
    second_language: bool = False
    augment_copies: int = 0
    augment_scale: float = 0.1

    def spec(self, seed: int, target_speakers=None,
             target_utts=None) -> cp.CorpusSpec:
        a, b = cp.make_domain_shift(self.frame_dim, self.shift_rotation,
                                    self.shift_offset, seed=0)
        return cp.CorpusSpec(
            frame_dim=self.frame_dim,
            source_speakers=self.source_speakers,
            source_utts_per_speaker=self.source_utts_per_speaker,
            target_speakers=target_speakers or self.target_speakers,
            target_utts_per_speaker=target_utts or self.target_utts_per_speaker,
            frames_range=tuple(self.frames_range),
            speaker_scale=self.speaker_scale,
            channel_scale=self.channel_scale,
            noise_scale=self.noise_scale,
            shift_a=a, shift_b=b,
            target_cov_scale=self.target_cov_scale,
            second_language=self.second_language,
            augment_copies=self.augment_copies,
            augment_scale=self.augment_scale,
            seed=seed)


@dataclass
class BackendSection:
    lda_dim: int = 16
    plda_iterations: int = 10
    xi: float = 0.25
    eta: float = 0.75
    length_norm: bool = True
    pseudo_threshold: float | None = None  # cluster target labels if set


@dataclass
class TrialsSection:
    nontarget_per_target: int = 4


@dataclass
class ExperimentConfig:
    seed: int = 1
    out_dir: str = "run"
    corpus: CorpusSection = field(default_factory=CorpusSection)
    network: dict = field(default_factory=dict)
    train_base: dict = field(default_factory=dict)
    train_adapt: dict = field(default_factory=dict)
    backend: BackendSection = field(default_factory=BackendSection)
    trials: TrialsSection = field(default_factory=TrialsSection)
    priors: tuple = (0.01, 0.005)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        out = cls()
        if "seed" in data:
            out.seed = int(data["seed"])
        if "out_dir" in data:
            out.out_dir = str(data["out_dir"])
        if "corpus" in data:
            out.corpus = _strict(CorpusSection, data["corpus"], "corpus")
        if "backend" in data:
            out.backend = _strict(BackendSection, data["backend"], "backend")
        if "trials" in data:
            out.trials = _strict(TrialsSection, data["trials"], "trials")
        if "priors" in data:
            out.priors = tuple(data["priors"])
        # stored as override dicts; building the config once here
        # rejects bad keys and values at load
        for section, section_cls in (("network", net.NetworkConfig),
                                     ("train_base", tr.TrainConfig),
                                     ("train_adapt", tr.TrainConfig)):
            if section in data:
                _strict(section_cls, data[section], section)
                setattr(out, section, dict(data[section]))
        return out

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return asdict(self)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def tag_for(mode: str, scope: str) -> str:
    safe = mode.replace("+", "_")
    return safe if scope == "all" else f"{safe}_postpool"


# ---------------------------------------------------------------------------
# run manifests


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg: ExperimentConfig, stage: str, inputs, outputs,
                    elapsed: float) -> None:
    manifest = {
        "stage": stage,
        "tool_version": TOOL_VERSION,
        "config": cfg.to_dict(),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "wall_clock_s": elapsed,
    }
    path = cfg.path(f"{stage}.manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def _stage(cfg: ExperimentConfig, name: str, inputs: list):
    os.makedirs(cfg.out_dir, exist_ok=True)
    for p in inputs:
        if not os.path.exists(p):
            raise FileNotFoundError(f"stage {name!r} input missing: {p}")
    return time.monotonic()


# ---------------------------------------------------------------------------
# stages


def cmd_synth(cfg: ExperimentConfig) -> dict:
    """Generate source, adaptation-target and evaluation archives + trials."""
    t0 = _stage(cfg, "synth", [])
    spec = cfg.corpus.spec(cfg.seed)
    data = cp.generate_corpus(spec)
    outputs = []
    for domain in ("source", "target"):
        archive, records = data[domain]
        cp.write_archive(cfg.path(f"{domain}.xvf"), archive)
        cp.write_manifest(cfg.path(f"{domain}.tsv"), records)
        outputs += [cfg.path(f"{domain}.xvf"), cfg.path(f"{domain}.tsv")]
    # evaluation set: fresh target-domain speakers under the same shift
    eval_spec = cfg.corpus.spec(cfg.seed + 1000,
                                target_speakers=cfg.corpus.eval_speakers,
                                target_utts=cfg.corpus.eval_utts_per_speaker)
    archive, records = cp.generate_domain(eval_spec, "target")
    archive = {u.replace("tgt-", "ev-", 1): fr for u, fr in archive.items()}
    records = [cp.ManifestRecord(r.utt_id.replace("tgt-", "ev-", 1),
                                 r.speaker_id.replace("tgt-", "ev-", 1),
                                 r.domain, r.language, r.frames)
               for r in records]
    cp.write_archive(cfg.path("eval.xvf"), archive)
    cp.write_manifest(cfg.path("eval.tsv"), records)
    trials = make_trials(records, cfg.trials.nontarget_per_target,
                         seed=cfg.seed)
    trials.write(cfg.path("trials.txt"))
    outputs += [cfg.path("eval.xvf"), cfg.path("eval.tsv"),
                cfg.path("trials.txt")]
    _write_manifest(cfg, "synth", [], outputs, time.monotonic() - t0)
    return {"outputs": outputs}


def make_trials(records, nontarget_per_target: int, seed: int) -> mt.TrialList:
    """All same-speaker pairs as targets plus sampled cross-speaker pairs."""
    by_speaker = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r.utt_id)
    trials = []
    for spk in sorted(by_speaker):
        utts = by_speaker[spk]
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                trials.append(mt.Trial(utts[i], utts[j], True))
    wanted = nontarget_per_target * len(trials)
    n_non = wanted
    rng = np.random.default_rng([seed, 99])
    speakers = sorted(by_speaker)
    if n_non > 0 and len(speakers) < 2:
        raise ValueError(f"nontarget trials need at least 2 eval speakers, "
                         f"got {len(speakers)}")
    seen = {(t.enroll, t.test) for t in trials}
    attempts = 0
    while n_non > 0 and attempts < 200000:
        s1, s2 = rng.choice(len(speakers), size=2, replace=False)
        u1 = by_speaker[speakers[s1]][rng.integers(
            0, len(by_speaker[speakers[s1]]))]
        u2 = by_speaker[speakers[s2]][rng.integers(
            0, len(by_speaker[speakers[s2]]))]
        if (u1, u2) not in seen and (u2, u1) not in seen:
            seen.add((u1, u2))
            trials.append(mt.Trial(u1, u2, False))
            n_non -= 1
        attempts += 1
    if n_non > 0:
        raise ValueError(
            f"trials.nontarget_per_target={nontarget_per_target} asks for "
            f"{wanted} nontarget trials, but {attempts} draws found only "
            f"{wanted - n_non} distinct pairs; lower it or add eval speakers")
    return mt.TrialList(trials)


def _load_feats(cfg, name):
    archive = cp.read_archive(cfg.path(f"{name}.xvf"))
    records = cp.read_manifest(cfg.path(f"{name}.tsv"))
    return archive, records


def _network_config(cfg: ExperimentConfig, n_source: int, n_target: int,
                    use_bit: bool) -> net.NetworkConfig:
    overrides = dict(cfg.network)
    overrides.setdefault("frame_dim", cfg.corpus.frame_dim)
    overrides["n_source_classes"] = n_source
    overrides["n_target_classes"] = n_target
    overrides["use_domain_bit"] = use_bit
    return net.NetworkConfig(**overrides)


def cmd_train_base(cfg: ExperimentConfig) -> str:
    """Train the source-only baseline network and checkpoint it."""
    inputs = [cfg.path("source.xvf"), cfg.path("source.tsv"),
              cfg.path("target.tsv")]
    t0 = _stage(cfg, "train_base", inputs)
    src_feats, src_records = _load_feats(cfg, "source")
    tgt_records = cp.read_manifest(cfg.path("target.tsv"))
    src_labels = tr.labels_from_manifest(src_records)
    n_source = len(set(src_labels.values()))
    n_target = len({r.speaker_id for r in tgt_records})
    # the baseline allocates a domain-bit network so every adaptation
    # mode can start from the same checkpoint
    ncfg = _network_config(cfg, n_source, n_target, use_bit=True)
    params = net.init_network(ncfg, seed=cfg.seed)
    tcfg = tr.TrainConfig(**{**cfg.train_base, "seed": cfg.seed})
    params, log = tr.train_baseline(params, tcfg, src_feats, src_labels)
    out = cfg.path("base.ckpt")
    net.save_checkpoint(out, params)
    tr.write_train_log(cfg.path("base.log.jsonl"), log)
    _write_manifest(cfg, "train_base", inputs,
                    [out, cfg.path("base.log.jsonl")],
                    time.monotonic() - t0)
    return out


def cmd_adapt(cfg: ExperimentConfig, mode: str, scope: str = "all") -> str:
    """Adapt the baseline checkpoint with the given mode and scope."""
    tag = tag_for(mode, scope)
    inputs = [cfg.path("base.ckpt"), cfg.path("source.xvf"),
              cfg.path("source.tsv"), cfg.path("target.xvf"),
              cfg.path("target.tsv")]
    t0 = _stage(cfg, f"adapt_{tag}", inputs)
    params = net.load_checkpoint(cfg.path("base.ckpt"))
    src_feats, src_records = _load_feats(cfg, "source")
    tgt_feats, tgt_records = _load_feats(cfg, "target")
    src_labels = tr.labels_from_manifest(src_records)
    tcfg = tr.TrainConfig(**{**cfg.train_adapt, "mode": mode,
                             "scope": scope, "seed": cfg.seed})
    target_labels = None
    if tcfg.supervised_target:
        if cfg.backend.pseudo_threshold is not None:
            target_labels = tr.pseudo_label_utterances(
                params, tgt_feats, cfg.backend.pseudo_threshold, bit=1)
            net.resize_target_head(params,
                                   len(set(target_labels.values())),
                                   seed=cfg.seed)
        else:
            target_labels = tr.labels_from_manifest(tgt_records)
    params, log = tr.train(params, tcfg, src_feats, src_labels, tgt_feats,
                           target_labels)
    out = cfg.path(f"adapt_{tag}.ckpt")
    net.save_checkpoint(out, params)
    tr.write_train_log(cfg.path(f"adapt_{tag}.log.jsonl"), log)
    _write_manifest(cfg, f"adapt_{tag}", inputs,
                    [out, cfg.path(f"adapt_{tag}.log.jsonl")],
                    time.monotonic() - t0)
    return out


def cmd_extract(cfg: ExperimentConfig, checkpoint: str, tag: str) -> dict:
    """Extract embeddings for the source, target and eval sets."""
    inputs = [checkpoint] + [cfg.path(f"{n}.{e}") for n in
                             ("source", "target", "eval")
                             for e in ("xvf", "tsv")]
    t0 = _stage(cfg, f"extract_{tag}", inputs)
    params = net.load_checkpoint(checkpoint)
    outputs = []
    for name in ("source", "target", "eval"):
        feats, records = _load_feats(cfg, name)
        embs = {}
        for r in records:
            bit = 0 if r.domain == "source" else 1
            vec = net.extract_embedding(
                params, np.asarray(feats[r.utt_id], dtype=np.float64),
                bit=bit)
            embs[r.utt_id] = vec[None, :].astype(np.float32)
        out = cfg.path(f"emb_{name}_{tag}.xvf")
        cp.write_archive(out, embs)
        outputs.append(out)
    _write_manifest(cfg, f"extract_{tag}", inputs, outputs,
                    time.monotonic() - t0)
    return {"outputs": outputs}


def _read_embeddings(path) -> dict:
    return {u: np.asarray(fr[0], dtype=np.float64)
            for u, fr in cp.read_archive(path).items()}


def cmd_backend(cfg: ExperimentConfig, tag: str) -> str:
    """LDA + PLDA on source embeddings; center scoring at the target mean."""
    inputs = [cfg.path(f"emb_source_{tag}.xvf"),
              cfg.path(f"emb_target_{tag}.xvf"), cfg.path("source.tsv")]
    t0 = _stage(cfg, f"backend_{tag}", inputs)
    src_embs = _read_embeddings(cfg.path(f"emb_source_{tag}.xvf"))
    tgt_embs = _read_embeddings(cfg.path(f"emb_target_{tag}.xvf"))
    src_records = cp.read_manifest(cfg.path("source.tsv"))
    labels_map = tr.labels_from_manifest(src_records)
    uids = sorted(src_embs)
    vectors = np.stack([src_embs[u] for u in uids])
    labels = np.asarray([labels_map[u] for u in uids])
    bs = cfg.backend
    train_tf = be.estimate_transform(vectors, labels, bs.lda_dim,
                                     length_norm=bs.length_norm)
    projected = np.stack([be.apply_transform(train_tf, v) for v in vectors])
    model = be.plda_train_em(projected, labels, bs.plda_iterations)
    # evaluation data is centered at the adaptation-set mean instead
    adapt_mean = np.stack(list(tgt_embs.values())).mean(axis=0)
    eval_tf = be.BackendTransform(mean=adapt_mean, lda=train_tf.lda,
                                  length_norm=bs.length_norm)
    out = cfg.path(f"backend_{tag}.advb")
    be.save_bundle(out, eval_tf, model)
    _write_manifest(cfg, f"backend_{tag}", inputs, [out],
                    time.monotonic() - t0)
    return out


def cmd_backend_adapt(cfg: ExperimentConfig, tag: str,
                      xi: float | None = None,
                      eta: float | None = None) -> str:
    """Kaldi-style covariance adaptation of the PLDA on target embeddings."""
    inputs = [cfg.path(f"backend_{tag}.advb"),
              cfg.path(f"emb_target_{tag}.xvf")]
    t0 = _stage(cfg, f"backend_adapt_{tag}", inputs)
    transform, model = be.load_bundle(cfg.path(f"backend_{tag}.advb"))
    tgt_embs = _read_embeddings(cfg.path(f"emb_target_{tag}.xvf"))
    vectors = np.stack([be.apply_transform(transform, v)
                        for v in tgt_embs.values()])
    p = be.AdaptParams(xi=cfg.backend.xi if xi is None else xi,
                       eta=cfg.backend.eta if eta is None else eta)
    adapted = be.plda_adapt(model, vectors, p)
    out = cfg.path(f"backend_{tag}_adapted.advb")
    be.save_bundle(out, transform, adapted)
    _write_manifest(cfg, f"backend_adapt_{tag}", inputs, [out],
                    time.monotonic() - t0)
    return out


def cmd_score(cfg: ExperimentConfig, tag: str, adapted: bool = False) -> str:
    suffix = "_adapted" if adapted else ""
    bundle = cfg.path(f"backend_{tag}{suffix}.advb")
    inputs = [bundle, cfg.path(f"emb_eval_{tag}.xvf"), cfg.path("trials.txt")]
    t0 = _stage(cfg, f"score_{tag}{suffix}", inputs)
    transform, model = be.load_bundle(bundle)
    embs = _read_embeddings(cfg.path(f"emb_eval_{tag}.xvf"))
    trials = mt.TrialList.read(cfg.path("trials.txt"))
    scores = mt.score_trials(transform, model, embs, trials)
    out = cfg.path(f"scores_{tag}{suffix}.txt")
    scores.write(out)
    _write_manifest(cfg, f"score_{tag}{suffix}", inputs, [out],
                    time.monotonic() - t0)
    return out


def cmd_eval(cfg: ExperimentConfig, tag: str, adapted: bool = False) -> dict:
    suffix = "_adapted" if adapted else ""
    inputs = [cfg.path(f"scores_{tag}{suffix}.txt"), cfg.path("trials.txt")]
    t0 = _stage(cfg, f"eval_{tag}{suffix}", inputs)
    scores = mt.ScoreSet.read(cfg.path(f"scores_{tag}{suffix}.txt"))
    trials = mt.TrialList.read(cfg.path("trials.txt"))
    report = mt.evaluation_report(scores, trials, cfg.priors)
    out = cfg.path(f"report_{tag}{suffix}.json")
    mt.write_report(out, report)
    _write_manifest(cfg, f"eval_{tag}{suffix}", inputs, [out],
                    time.monotonic() - t0)
    return report


def cmd_report(cfg: ExperimentConfig) -> dict:
    """Collect all per-mode reports into one comparison table."""
    t0 = _stage(cfg, "report", [])
    rows = {}
    for fname in sorted(os.listdir(cfg.out_dir)):
        if fname.startswith("report_") and fname.endswith(".json"):
            with open(cfg.path(fname)) as f:
                rows[fname[len("report_"):-len(".json")]] = json.load(f)
    if not rows:
        raise FileNotFoundError("no per-mode reports found; run eval first")
    out = cfg.path("comparison.json")
    with open(out, "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(cfg, "report", [], [out], time.monotonic() - t0)
    return rows


def run_variant(cfg: ExperimentConfig, mode: str | None,
                scope: str = "all", backend_adapt: bool = False) -> dict:
    """Adapt (or reuse the baseline when mode is None), extract, score, eval."""
    if mode is None:
        tag, ckpt = "baseline", cfg.path("base.ckpt")
    else:
        tag = tag_for(mode, scope)
        ckpt = cmd_adapt(cfg, mode, scope)
    cmd_extract(cfg, ckpt, tag)
    cmd_backend(cfg, tag)
    if backend_adapt:
        cmd_backend_adapt(cfg, tag)
    cmd_score(cfg, tag, adapted=backend_adapt)
    return cmd_eval(cfg, tag, adapted=backend_adapt)
