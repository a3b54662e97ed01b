import ctypes
import json
import os
import types

import numpy as np
import pytest
from click.testing import CliRunner

from advda import cli
from advda import corpus as cp
from advda import network as net
from advda import pipeline as pl
from advda import trainer as tr
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
    rows = pl.run_experiment(cfg, [(None, "all"), ("adv+sup", "all")])
    return cfg, rows


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
    # periodic checkpoints are gone: the key is rejected, not ignored
    with pytest.raises(ConfigError, match="unknown keys.*checkpoint_every"):
        ExperimentConfig.from_dict({"train_adapt": {"checkpoint_every": 5}})
    # so are the corpus augmentation keys
    with pytest.raises(ConfigError,
                       match=r"corpus: unknown keys \['augment_copies'\]"):
        ExperimentConfig.from_dict({"corpus": {"augment_copies": 1}})
    with pytest.raises(ConfigError,
                       match=r"corpus: unknown keys \['augment_scale'\]"):
        ExperimentConfig.from_dict({"corpus": {"augment_scale": 0.1}})


def test_config_rejects_bad_section_values():
    with pytest.raises(ConfigError, match="network.*critic_widths"):
        ExperimentConfig.from_dict({"network": {"critic_widths": [0]}})
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
    ({"trials": {"nontarget_per_target": 0}},
     "trials: nontarget_per_target must be at least 1, got 0"),
    ({"backend": {"lda_dim": 0}}, "backend: lda_dim must be at least 1"),
    ({"backend": {"lda_dim": 8}, "corpus": {"source_speakers": 6}},
     r"backend\.lda_dim=8 exceeds corpus\.source_speakers-1=5"),
    ({"backend": {"plda_iterations": 0}},
     "backend: plda_iterations must be at least 1, got 0"),
    ({"backend": {"xi": -0.1}}, "backend: xi must be at least 0, got -0.1"),
    ({"backend": {"eta": -1}}, "backend: eta must be at least 0, got -1"),
    ({"backend": {"pseudo_threshold": 5}},
     r"backend: pseudo_threshold must lie in \[-1, 1\], got 5"),
    ({"backend": {"pseudo_threshold": -1.5}}, "backend: pseudo_threshold"),
    ({"backend": {"lda_dim": "8"}}, "backend: lda_dim must be at least 1, "
                                    "got '8'"),
    ({"backend": {"plda_iterations": 2.5}},
     "backend: plda_iterations must be at least 1, got 2.5"),
    ({"trials": {"nontarget_per_target": True}},
     "trials: nontarget_per_target must be at least 1, got True"),
    ({"seed": 1.7}, "seed must be at least 0, got 1.7"),
    ({"seed": "abc"}, "seed must be at least 0, got 'abc'"),
    ({"out_dir": None}, "config: out_dir: expected a string, got None"),
    ({"out_dir": 5}, "config: out_dir: expected a string, got 5"),
    ({"train_base": {"epochs": "3"}},
     "train_base: epochs must be at least 0, got '3'"),
    ({"corpus": {"eval_speakers": 0}},
     "corpus: eval_speakers must be at least 2, got 0"),
    ({"corpus": {"eval_utts_per_speaker": 0}},
     "corpus: eval_utts_per_speaker must be at least 2, got 0"),
    ({"corpus": {"second_language": "no"}},
     "corpus: second_language: expected a boolean, got 'no'"),
    ({"backend": {"length_norm": "no"}},
     "backend: length_norm: expected a boolean, got 'no'"),
    ({"network": {"frame_dim": 7}},
     r"network: keys \['frame_dim'\] are set by the stages"),
    ({"train_adapt": {"critic_steps": 0}},
     "train_adapt: critic_steps must be at least 1, got 0"),
    ({"corpus": {"target_speakers": 0}},
     "corpus: target_speakers must be at least 1, got 0"),
    ({"seed": -1}, "config: seed must be at least 0, got -1"),
    ({"corpus": {"shift_offset": float("nan")}},
     "corpus: shift_offset must be finite, got nan"),
    ({"network": {"leaky_slope": float("inf")}},
     "network: leaky_slope must be finite, got inf"),
    ({"priors": [0.05, 0.05]}, r"priors must differ, got \[0\.05, 0\.05\]"),
])
def test_config_rejects_inconsistent_sections(data, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(data)


def test_config_file_with_json_nan_is_rejected(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text('{"corpus": {"shift_offset": NaN}}')
    with pytest.raises(ConfigError, match="corpus: shift_offset must be "
                                          "finite, got nan"):
        ExperimentConfig.load(path)


@pytest.mark.parametrize("section, key", [
    ("network", "frame_dim"), ("network", "n_source_classes"),
    ("network", "n_target_classes"), ("network", "use_domain_bit"),
    *[(section, key) for section in ("train_base", "train_adapt")
      for key in ("mode", "scope", "seed")],
])
def test_config_rejects_keys_the_stages_set(section, key):
    # even a valid value, which the stage would overwrite
    kind = net.NetworkConfig if section == "network" else tr.TrainConfig
    value = getattr(kind(), key)
    with pytest.raises(ConfigError, match=rf"{section}: keys \['{key}'\] "
                                          r"are set by the stages"):
        ExperimentConfig.from_dict({section: {key: value}})


def test_config_accepts_segments_just_longer_than_context():
    cfg = ExperimentConfig.from_dict(
        {"corpus": {"frames_range": [4, 9]},
         "train_base": {"segment_frames": [4, 9]},
         "backend": {"lda_dim": 64}, "priors": [0.5, 0.25]})
    assert cfg.corpus.frames_range == (4, 9)


def test_config_accepts_boundary_values():
    cfg = ExperimentConfig.from_dict(
        {"seed": 0, "corpus": {"source_speakers": 6},
         "backend": {"lda_dim": 5, "plda_iterations": 1, "xi": 0.0,
                     "eta": 0, "pseudo_threshold": -1.0},
         "trials": {"nontarget_per_target": 1}})
    assert cfg.backend.lda_dim == 5 and cfg.seed == 0
    ExperimentConfig.from_dict({"backend": {"pseudo_threshold": 1}})


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
    data.update(trials={"nontarget_per_target": 3}, priors=[0.05, 0.5])
    data["backend"]["xi"] = 0              # an int in a float field
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    cfg = ExperimentConfig.load(path)
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert set(echo) == set(data)
    again = ExperimentConfig.from_dict(echo)
    assert again == cfg
    # no value is converted: the echo reads back to the same bytes
    assert again.backend.xi == 0 and type(again.backend.xi) is int
    assert json.dumps(again.to_dict()) == json.dumps(echo)


def test_manifest_config_echo_loads_back(desk_run):
    cfg = desk_run[0]
    for name in ("synth", "train_base", "adapt_adv_sup"):
        echo = read_json(cfg.path(f"{name}.manifest.json"))["config"]
        again = ExperimentConfig.from_dict(echo)
        assert again == cfg
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(echo, sort_keys=True)


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
    # all within-speaker pairs: C(3,2) per speaker
    assert trials.target.sum() == 4 * 3
    assert (~trials.target).sum() == 2 * 4 * 3
    spk = {r.utt_id: r.speaker_id for r in records}
    for e, t, target in zip(trials.enroll, trials.test, trials.target):
        assert (spk[e] == spk[t]) == target


def test_make_trials_deterministic():
    records = [cp.ManifestRecord(f"u{s}-{u}", f"spk{s}", "target", "l", 20)
               for s in range(5) for u in range(3)]
    t1 = pl.make_trials(records, 3, seed=7)
    t2 = pl.make_trials(records, 3, seed=7)
    assert (t1.enroll, t1.test) == (t2.enroll, t2.test)
    assert t1.target.tolist() == t2.target.tolist()


def test_make_trials_never_comes_up_short():
    # 3 speakers x 2 utterances have 12 cross-speaker pairs; 5 nontargets
    # for each of the 3 targets ask for 15, refused from the count alone
    records = [cp.ManifestRecord(f"u{s}-{u}", f"spk{s}", "target", "l", 20)
               for s in range(3) for u in range(2)]
    with pytest.raises(ValueError, match=r"trials.nontarget_per_target=5 "
                       r"asks for 15 .* only 12 distinct"):
        pl.make_trials(records, nontarget_per_target=5, seed=0)


def test_make_trials_can_take_every_cross_speaker_pair():
    records = [cp.ManifestRecord(f"u{s}-{u}", f"spk{s}", "target", "l", 20)
               for s in range(3) for u in range(2)]
    trials = pl.make_trials(records, nontarget_per_target=4, seed=0)
    pairs = {frozenset(p) for p, target in zip(
        zip(trials.enroll, trials.test), trials.target) if not target}
    assert (~trials.target).sum() == len(pairs) == 12
    speaker = {r.utt_id: r.speaker_id for r in records}
    assert all(speaker[a] != speaker[b] for a, b in pairs)


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


def test_cmd_eval_names_dcfs_after_the_configured_priors(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {**desk_config_dict(tmp_path), "priors": [0.05, 0.5]})
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(cfg.path("trials.txt"), "w") as f:
        f.write("e1 t1 target\ne2 t2 target\ne3 t3 target\n"
                "e1 t2 nontarget\ne2 t1 nontarget\n")
    with open(cfg.path("scores_demo.txt"), "w") as f:
        f.write("e1 t1 3.0\ne2 t2 2.0\ne3 t3 0.0\n"
                "e1 t2 2.5\ne2 t1 -1.0\n")
    report = pl.cmd_eval(cfg, "demo")
    assert set(report) == {"eer_pct", "min_dcf_005", "min_dcf_05",
                           "dcf_avg"}
    # the two priors give different costs, so a swap would show
    assert report["min_dcf_005"] == pytest.approx(2 / 3)
    assert report["min_dcf_05"] == pytest.approx(0.5)


def test_cmd_eval_rejects_score_file_missing_a_trial(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(cfg.path("trials.txt"), "w") as f:
        f.write("e1 t1 target\ne2 t1 nontarget\n")
    with open(cfg.path("scores_demo.txt"), "w") as f:
        f.write("e1 t1 3.0\n")
    with pytest.raises(ValueError, match="no score for trial e2 t1"):
        pl.cmd_eval(cfg, "demo")
    assert not os.path.exists(cfg.path("eval_demo.manifest.json"))


# ---------------------------------------------------------------------------
# end-to-end desk run


def test_run_produces_all_artifacts(desk_run):
    cfg, _ = desk_run
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
    cfg, rows = desk_run
    assert set(rows) == {"baseline", "baseline_adapted", "adv_sup",
                         "adv_sup_adapted"}
    for tag, report in rows.items():
        assert set(report) == {"eer_pct", "min_dcf_001", "min_dcf_0005",
                               "dcf_avg"}
        assert 0.0 <= report["eer_pct"] <= 100.0
        assert 0.0 <= report["min_dcf_001"] <= 1.0 + 1e-12
        assert read_json(cfg.path(f"report_{tag}.json")) == report


def test_run_manifests_record_digests(desk_run):
    cfg, _ = desk_run
    manifest = read_json(cfg.path("train_base.manifest.json"))
    assert manifest["inputs"][cfg.path("source.xvf")] == \
        pl._sha256(cfg.path("source.xvf"))
    assert cfg.path("base.ckpt") in manifest["outputs"]
    assert manifest["wall_clock_s"] >= 0.0
    assert manifest["config"]["seed"] == 5


def test_run_embeddings_shape(desk_run):
    cfg, _ = desk_run
    embs = cp.read_archive(cfg.path("emb_eval_adv_sup.xvf"))
    records = cp.read_manifest(cfg.path("eval.tsv"))
    assert sorted(embs) == sorted(r.utt_id for r in records)
    for v in embs.values():
        assert v.shape == (1, 8)
        assert v.dtype == np.float32


def test_eval_is_idempotent(desk_run):
    cfg, rows = desk_run
    again = pl.cmd_eval(cfg, "baseline")
    assert again == pytest.approx(rows["baseline"])


def test_pseudo_label_variant_runs(tmp_path):
    data = desk_config_dict(tmp_path)
    data["backend"]["pseudo_threshold"] = 0.3
    cfg = ExperimentConfig.from_dict(data)
    rows = pl.run_experiment(cfg, [("adv+sup", "post-pool")])
    assert set(rows) == {"adv_sup_postpool", "adv_sup_postpool_adapted"}
    assert 0.0 <= rows["adv_sup_postpool"]["eer_pct"] <= 100.0
    assert os.path.exists(cfg.path("adapt_adv_sup_postpool.ckpt"))


def test_report_requires_some_eval(tmp_path):
    cfg = ExperimentConfig.from_dict(desk_config_dict(tmp_path))
    os.makedirs(cfg.out_dir, exist_ok=True)
    with pytest.raises(FileNotFoundError, match="report"):
        pl.cmd_report(cfg)
    missing = ExperimentConfig.from_dict(desk_config_dict(tmp_path / "no"))
    with pytest.raises(FileNotFoundError,
                       match="no per-mode reports found; run eval first"):
        pl.cmd_report(missing)
    assert not os.path.exists(missing.out_dir)


def test_report_manifest_lists_the_reports_it_read(desk_run):
    cfg, rows = desk_run
    inputs = read_json(cfg.path("report.manifest.json"))["inputs"]
    assert inputs == {cfg.path(f"report_{tag}.json"):
                      pl._sha256(cfg.path(f"report_{tag}.json"))
                      for tag in rows}


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


def test_cli_rejects_negative_seed_before_writing(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "other"
    result = CliRunner().invoke(cli.main, ["synth", "--config", str(path),
                                           "--out", str(out), "--seed", "-1"])
    assert result.exit_code == 2
    assert "Error: seed must be at least 0, got -1" in result.output
    assert not out.exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**desk_config_dict(tmp_path / "run"),
                                "sed": 3}))
    result = CliRunner().invoke(cli.main, ["synth", "--config", str(path)])
    assert result.exit_code == 2
    assert "Error: config: unknown keys ['sed']" in result.output
    assert not (tmp_path / "run").exists()


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


def test_cli_stage_error_is_one_line(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    scores = out / "scores_baseline.txt"
    scores.write_text("a b 1.0\nc d x1\n")
    (out / "trials.txt").write_text("a b target\nc d nontarget\n")
    result = CliRunner().invoke(cli.main, ["eval", "--config", str(path),
                                           "--tag", "baseline"])
    assert result.exit_code == 1
    assert result.output == f"Error: {scores}:2: bad score line\n"
    assert not list(out.glob("*.manifest.json"))


def test_cli_missing_input_leaves_no_run_directory(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "new"
    result = CliRunner().invoke(cli.main, ["backend-adapt", "--config",
                                           str(path), "--out", str(out),
                                           "--tag", "x"])
    assert result.exit_code == 1
    assert result.output == (f"Error: stage 'backend_adapt_x' input "
                             f"missing: {out / 'backend_x.advb'}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, key, before, argv, manifest, error", [
    ("train_base", "rate_main", ["synth"], ["train-base"], "train_base",
     "train_base: epoch 0: non-finite value in op 'affine'; try a lower "
     "rate_main"),
    # the adversarial term, weighted by delta, enters the descent only
    # after warm-up epoch 0; the critic steps, weighted by gamma, run from
    # the start
    ("train_adapt", "delta", ["synth", "train-base"], ["adapt", "--mode",
                                                       "adv"], "adapt_adv",
     "train_adapt: epoch 1: non-finite value in op 'affine'; try a lower "
     "rate_critic, rate_main, gamma or delta"),
    ("train_adapt", "gamma", ["synth", "train-base"], ["adapt", "--mode",
                                                       "adv"], "adapt_adv",
     "train_adapt: epoch 0: non-finite value in op 'affine'; try a lower "
     "rate_critic, rate_main or gamma"),
])
def test_cli_diverging_training_is_one_error_line(tmp_path, section, key,
                                                  before, argv, manifest,
                                                  error):
    data = desk_config_dict(tmp_path / "run")
    data[section][key] = 1e300
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    runner = CliRunner()
    for stage in before:
        assert runner.invoke(cli.main, [stage, "--config",
                                        str(path)]).exit_code == 0
    result = runner.invoke(cli.main, [*argv, "--config", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {error}\n"
    assert not (tmp_path / "run" / f"{manifest}.manifest.json").exists()


def test_cli_extract_refuses_another_systems_checkpoint(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    runner = CliRunner()
    for stage in ("synth", "train-base"):
        assert runner.invoke(cli.main, [stage, "--config",
                                        str(path)]).exit_code == 0
    base = out / "base.ckpt"
    result = runner.invoke(cli.main, ["extract", "--config", str(path),
                                      "--ckpt", str(base), "--tag", "adv"])
    assert result.exit_code == 1
    assert result.output == (f"Error: checkpoint {base} does not belong to "
                             f"tag 'adv', whose checkpoint is "
                             f"{out / 'adapt_adv.ckpt'}\n")
    assert not list(out.glob("*_adv.*"))
    # the run directory's own pairing, under another spelling of its path
    result = runner.invoke(cli.main, [
        "extract", "--config", str(path), "--tag", "baseline",
        "--ckpt", os.path.relpath(out / "." / "base.ckpt")])
    assert result.exit_code == 0, result.output
    # a checkpoint from elsewhere takes any tag
    elsewhere = tmp_path / "copy.ckpt"
    elsewhere.write_bytes(base.read_bytes())
    result = runner.invoke(cli.main, ["extract", "--config", str(path),
                                      "--ckpt", str(elsewhere),
                                      "--tag", "adv"])
    assert result.exit_code == 0, result.output
    assert (out / "emb_eval_adv.xvf").exists()


def test_cli_run_prints_the_report_table(tmp_path):
    path = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(cli.main, ["run", "--config", str(path)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].split() == ["system", "EER%", "DCF"]
    assert len(lines) == 1 + 2 * len(pl.VARIANTS) == 13
    assert {line.split()[0] for line in lines[1:]} == {
        tag + suffix for tag in (pl.tag_for(*v) for v in pl.VARIANTS)
        for suffix in ("", "_adapted")}
    again = runner.invoke(cli.main, ["report", "--config", str(path)])
    assert again.exit_code == 0, again.output
    assert again.output == result.output


def test_cli_keeps_freed_memory_once_per_invocation(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_freed_memory",
                        lambda: calls.append("keep"))
    monkeypatch.setattr(cli, "cmd_synth",
                        lambda cfg: calls.append("synth") or [])
    path = write_config(tmp_path)
    runner = CliRunner()
    for _ in range(2):
        result = runner.invoke(cli.main, ["synth", "--config", str(path)])
        assert result.exit_code == 0, result.output
    assert calls == ["keep", "synth"] * 2


def test_keep_freed_memory_sets_both_thresholds(monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli.keep_freed_memory()
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20),
                     (cli.M_TRIM_THRESHOLD, 256 << 20)]


def test_keep_freed_memory_without_mallopt_does_nothing(monkeypatch):
    # a C library without mallopt, and none at all: no error either way
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    cli.keep_freed_memory()

    def no_library(name):
        raise OSError("no C library")
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    cli.keep_freed_memory()


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
    run("backend-adapt", "--tag", "baseline")
    run("score", "--tag", "baseline", "--adapted")
    eval_out = run("eval", "--tag", "baseline", "--adapted")
    assert "eer_pct=" in eval_out
    report_out = run("report")
    assert "baseline_adapted" in report_out
