import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from advda import cli
from advda import corpus as cp
from advda import pipeline as pl
from advda.pipeline import ConfigError, ExperimentConfig


def read_json(path):
    with open(path) as f:
        return json.load(f)


def desk_config_dict(out_dir):
    return {
        "seed": 5,
        "out_dir": str(out_dir),
        "corpus": {
            "frame_dim": 5,
            "source_speakers": 6,
            "source_utts_per_speaker": 4,
            "target_speakers": 4,
            "target_utts_per_speaker": 3,
            "eval_speakers": 5,
            "eval_utts_per_speaker": 3,
            "frames_range": [12, 18],
            "shift_offset": 2.0,
        },
        "network": {
            "tdnn_widths": [6, 6],
            "tdnn_contexts": [[-1, 0, 1], [0]],
            "embed_dim": 8,
            "post_pool_widths": [8, 6],
            "critic_widths": [8, 8],
        },
        "train_base": {
            "epochs": 1,
            "warmup_epochs": 0,
            "minibatches_per_epoch": 2,
            "source_batch": 4,
            "target_batch": 4,
            "segment_frames": [10, 14],
            "rate_main": 0.2,
        },
        "train_adapt": {
            "epochs": 2,
            "warmup_epochs": 1,
            "minibatches_per_epoch": 2,
            "critic_steps": 2,
            "source_batch": 4,
            "target_batch": 4,
            "segment_frames": [10, 14],
            "rate_main": 0.05,
        },
        "backend": {"lda_dim": 4, "plda_iterations": 5},
    }


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One full pipeline run shared by the assertions below."""
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig.from_dict(desk_config_dict(out))
    pl.cmd_synth(cfg)
    pl.cmd_train_base(cfg)
    base_report = pl.run_variant(cfg, mode=None)
    adapt_report = pl.run_variant(cfg, mode="adv+sup", backend_adapt=True)
    rows = pl.cmd_report(cfg)
    return cfg, base_report, adapt_report, rows


# ---------------------------------------------------------------------------
# config parsing


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict({"sede": 1})


def test_config_rejects_unknown_section_key():
    with pytest.raises(ConfigError, match="corpus"):
        ExperimentConfig.from_dict({"corpus": {"speakers": 10}})
    with pytest.raises(ConfigError, match="network"):
        ExperimentConfig.from_dict({"network": {"hidden": 3}})
    with pytest.raises(ConfigError, match="train_adapt"):
        ExperimentConfig.from_dict({"train_adapt": {"lr": 0.1}})


def test_config_rejects_bad_section_values():
    with pytest.raises(ConfigError, match="network.*critic_widths"):
        ExperimentConfig.from_dict({"network": {"critic_widths": [8]}})
    with pytest.raises(ConfigError, match="train_base.*mode"):
        ExperimentConfig.from_dict({"train_base": {"mode": "semi"}})
    with pytest.raises(ConfigError, match="train_adapt.*warmup"):
        ExperimentConfig.from_dict(
            {"train_adapt": {"epochs": 2, "warmup_epochs": 2}})


@pytest.mark.parametrize("data, match", [
    ({"backend": {"lda_dim": 17}, "network": {"embed_dim": 16,
                                              "post_pool_widths": [16, 16]}},
     r"backend\.lda_dim=17 exceeds network\.embed_dim=16"),
    ({"backend": {"lda_dim": 65}}, r"lda_dim=65 exceeds .*embed_dim=64"),
    ({"priors": [0.01, 1.0]}, r"priors\[1\]=1\.0"),
    ({"priors": [0.0, 0.1]}, r"priors\[0\]=0\.0"),
    ({"priors": ["0.5", 0.1]}, r"priors\[0\]='0\.5'"),
    ({"priors": 0.5}, "priors: expected a list of two"),
    ({"priors": [0.5]}, "priors: expected a list of two"),
    ({"corpus": {"frames_range": 30}}, "corpus: frames_range"),
    ({"corpus": {"frames_range": [9, 3]}}, "corpus: frames_range"),
    ({"corpus": {"frames_range": [3, 9]}},
     r"corpus\.frames_range\[0\]=3 frames .* offset 3"),
    ({"train_base": {"segment_frames": [2, 9]},
      "network": {"tdnn_contexts": [[-2, 0, 2], [0], [0], [0], [0]]}},
     r"train_base\.segment_frames\[0\]=2 frames .* offset 2"),
    ({"train_adapt": {"segment_frames": [1, 9]}},
     r"train_adapt\.segment_frames\[0\]=1"),
])
def test_config_rejects_inconsistent_sections(data, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(data)


def test_config_accepts_segments_just_longer_than_context():
    cfg = ExperimentConfig.from_dict(
        {"corpus": {"frames_range": [4, 9]},
         "train_base": {"segment_frames": [4, 9]},
         "backend": {"lda_dim": 64}, "priors": [0.5, 0.25]})
    assert cfg.corpus.frames_range == [4, 9]


def test_config_rejects_non_object_section():
    with pytest.raises(ConfigError, match="expected an object"):
        ExperimentConfig.from_dict({"backend": 7})
    with pytest.raises(ConfigError, match="expected an object"):
        ExperimentConfig.from_dict({"train_base": [1, 2]})


def test_config_defaults_and_overrides(tmp_path):
    data = desk_config_dict(tmp_path)
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.seed == 5
    assert cfg.corpus.frame_dim == 5
    assert cfg.backend.xi == 0.25          # untouched default
    assert cfg.trials.nontarget_per_target == 4
    assert cfg.priors == (0.01, 0.005)


def test_config_file_roundtrip(tmp_path):
    data = desk_config_dict(tmp_path / "run")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    cfg = ExperimentConfig.load(path)
    again = ExperimentConfig.from_dict(
        {k: v for k, v in cfg.to_dict().items()
         if k in ("seed", "out_dir", "corpus", "backend", "trials")})
    assert again.corpus == cfg.corpus
    assert again.backend == cfg.backend


def test_tag_for():
    assert pl.tag_for("adv+sup", "all") == "adv_sup"
    assert pl.tag_for("adv", "post-pool") == "adv_postpool"
    assert pl.tag_for("sup", "all") == "sup"


# ---------------------------------------------------------------------------
# trial construction


def test_make_trials_composition():
    records = []
    for s in range(4):
        for u in range(3):
            records.append(cp.ManifestRecord(f"ev-{s}-{u}", f"spk{s}",
                                             "target", "lang1", 20))
    trials = pl.make_trials(records, nontarget_per_target=2, seed=0)
    targets = [t for t in trials if t.target]
    nons = [t for t in trials if not t.target]
    # all within-speaker pairs: C(3,2) per speaker
    assert len(targets) == 4 * 3
    assert len(nons) == 2 * len(targets)
    spk = {r.utt_id: r.speaker_id for r in records}
    for t in targets:
        assert spk[t.enroll] == spk[t.test]
    for t in nons:
        assert spk[t.enroll] != spk[t.test]


def test_make_trials_deterministic():
    records = [cp.ManifestRecord(f"u{s}-{u}", f"spk{s}", "target", "l", 20)
               for s in range(5) for u in range(3)]
    t1 = pl.make_trials(records, 3, seed=7)
    t2 = pl.make_trials(records, 3, seed=7)
    assert list(t1) == list(t2)


def test_make_trials_never_comes_up_short():
    # 150 x 12 at 25 nontargets per target needs more distinct pairs than
    # the draw budget finds
    records = [cp.ManifestRecord(f"u{s}-{u}", f"spk{s}", "target", "l", 20)
               for s in range(150) for u in range(12)]
    with pytest.raises(ValueError, match="trials.nontarget_per_target"):
        pl.make_trials(records, nontarget_per_target=25, seed=0)


def test_make_trials_single_speaker():
    records = [cp.ManifestRecord(f"u{u}", "spk0", "target", "l", 20)
               for u in range(3)]
    with pytest.raises(ValueError, match="at least 2 eval speakers, got 1"):
        pl.make_trials(records, nontarget_per_target=2, seed=0)


# ---------------------------------------------------------------------------
# individual stages


def test_synth_outputs_and_determinism(tmp_path):
    cfg1 = ExperimentConfig.from_dict(desk_config_dict(tmp_path / "a"))
    cfg2 = ExperimentConfig.from_dict(desk_config_dict(tmp_path / "b"))
    pl.cmd_synth(cfg1)
    pl.cmd_synth(cfg2)
    for name in ("source.xvf", "target.xvf", "eval.xvf", "source.tsv",
                 "target.tsv", "eval.tsv", "trials.txt"):
        assert pl._sha256(cfg1.path(name)) == pl._sha256(cfg2.path(name))
    manifest = read_json(cfg1.path("synth.manifest.json"))
    assert manifest["stage"] == "synth"
    assert set(manifest["outputs"]) == {cfg1.path(n) for n in
                                        ("source.xvf", "target.xvf",
                                         "eval.xvf", "source.tsv",
                                         "target.tsv", "eval.tsv",
                                         "trials.txt")}


def test_synth_eval_set_is_fresh_target_domain(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    pl.cmd_synth(cfg)
    records = cp.read_manifest(cfg.path("eval.tsv"))
    assert all(r.utt_id.startswith("ev-") for r in records)
    assert all(r.domain == "target" for r in records)
    assert len({r.speaker_id for r in records}) == 5
    # eval features differ from the adaptation target set
    tgt = cp.read_archive(cfg.path("target.xvf"))
    ev = cp.read_archive(cfg.path("eval.xvf"))
    assert not set(tgt) & set(ev)


def test_stage_missing_input(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    with pytest.raises(FileNotFoundError, match="input missing"):
        pl.cmd_train_base(cfg)


def test_cmd_eval_hand_built_example(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(cfg.path("trials.txt"), "w") as f:
        f.write("e1 t1 target\ne2 t2 target\n"
                "e1 t2 nontarget\ne2 t1 nontarget\n")
    with open(cfg.path("scores_demo.txt"), "w") as f:
        f.write("e1 t1 3.0\ne2 t2 2.0\ne1 t2 -1.0\ne2 t1 -2.0\n")
    report = pl.cmd_eval(cfg, "demo")
    assert report["eer_pct"] == 0.0
    assert report["min_dcf_001"] == 0.0
    on_disk = read_json(cfg.path("report_demo.json"))
    assert on_disk == report


# ---------------------------------------------------------------------------
# end-to-end desk run


def test_run_produces_all_artifacts(desk_run):
    cfg, _, _, _ = desk_run
    expected = ["base.ckpt", "base.log.jsonl", "adapt_adv_sup.ckpt",
                "adapt_adv_sup.log.jsonl", "emb_source_baseline.xvf",
                "emb_eval_adv_sup.xvf", "backend_baseline.advb",
                "backend_adv_sup.advb", "backend_adv_sup_adapted.advb",
                "scores_baseline.txt", "scores_adv_sup_adapted.txt",
                "report_baseline.json", "report_adv_sup_adapted.json",
                "comparison.json"]
    for name in expected:
        assert os.path.exists(cfg.path(name)), name


def test_run_reports_are_valid(desk_run):
    _, base_report, adapt_report, rows = desk_run
    for report in (base_report, adapt_report):
        assert set(report) == {"eer_pct", "min_dcf_001", "min_dcf_0005",
                               "dcf_avg"}
        assert 0.0 <= report["eer_pct"] <= 100.0
        assert 0.0 <= report["min_dcf_001"] <= 1.0 + 1e-12
    assert rows["baseline"] == pytest.approx(base_report)
    assert rows["adv_sup_adapted"] == pytest.approx(adapt_report)


def test_run_manifests_record_digests(desk_run):
    cfg, _, _, _ = desk_run
    manifest = read_json(cfg.path("train_base.manifest.json"))
    assert manifest["inputs"][cfg.path("source.xvf")] == \
        pl._sha256(cfg.path("source.xvf"))
    assert cfg.path("base.ckpt") in manifest["outputs"]
    assert manifest["wall_clock_s"] >= 0.0
    assert manifest["config"]["seed"] == 5


def test_run_embeddings_shape(desk_run):
    cfg, _, _, _ = desk_run
    embs = cp.read_archive(cfg.path("emb_eval_adv_sup.xvf"))
    records = cp.read_manifest(cfg.path("eval.tsv"))
    assert sorted(embs) == sorted(r.utt_id for r in records)
    for v in embs.values():
        assert v.shape == (1, 8)
        assert v.dtype == np.float32


def test_eval_is_idempotent(desk_run):
    cfg, base_report, _, _ = desk_run
    again = pl.cmd_eval(cfg, "baseline")
    assert again == pytest.approx(base_report)


def test_pseudo_label_variant_runs(desk_run):
    cfg, _, _, _ = desk_run
    import copy
    cfg2 = copy.deepcopy(cfg)
    cfg2.backend.pseudo_threshold = 0.3
    report = pl.run_variant(cfg2, mode="adv+sup", scope="post-pool")
    assert 0.0 <= report["eer_pct"] <= 100.0
    assert os.path.exists(cfg.path("adapt_adv_sup_postpool.ckpt"))


def test_report_requires_some_eval(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with pytest.raises(FileNotFoundError, match="report"):
        pl.cmd_report(cfg)


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(desk_config_dict(tmp_path / "run")))
    return path


def test_cli_synth_and_overrides(tmp_path):
    path = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(cli.main, ["synth", "--config", str(path),
                                      "--out", str(tmp_path / "other"),
                                      "--seed", "9"])
    assert result.exit_code == 0, result.output
    assert os.path.exists(tmp_path / "other" / "source.xvf")
    manifest = read_json(tmp_path / "other" / "synth.manifest.json")
    assert manifest["config"]["seed"] == 9


def test_cli_rejects_bad_mode(tmp_path):
    path = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(cli.main, ["adapt", "--config", str(path),
                                      "--mode", "dann"])
    assert result.exit_code != 0
    assert "dann" in result.output


def test_cli_missing_config():
    runner = CliRunner()
    result = runner.invoke(cli.main, ["synth", "--config", "no-such.json"])
    assert result.exit_code != 0


def test_cli_full_pipeline(tmp_path):
    path = write_config(tmp_path)
    out = str(tmp_path / "run")
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli.main, [*args, "--config", str(path),
                                          "--out", out])
        assert result.exit_code == 0, result.output
        return result.output

    run("synth")
    run("train-base")
    run("extract", "--ckpt", os.path.join(out, "base.ckpt"),
        "--tag", "baseline")
    run("backend", "--tag", "baseline")
    run("backend-adapt", "--tag", "baseline", "--xi", "0.25", "--eta", "0.75")
    run("score", "--tag", "baseline", "--adapted")
    eval_out = run("eval", "--tag", "baseline", "--adapted")
    assert "eer_pct=" in eval_out
    report_out = run("report")
    assert "baseline_adapted" in report_out
