import re

import numpy as np
import pytest

from advda import corpus as cp
from advda.corpus import CorpusConfig, ManifestRecord


def small_corpus(**kw):
    base = dict(frame_dim=6, source_speakers=8, source_utts_per_speaker=4,
                target_speakers=5, target_utts_per_speaker=3,
                frames_range=(20, 30))
    base.update(kw)
    return CorpusConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_spec_rejects_bad_counts():
    with pytest.raises(ValueError, match="source_speakers must be at least 1"):
        small_corpus(source_speakers=0)
    with pytest.raises(ValueError,
                       match="target_utts_per_speaker must be at least 1"):
        small_corpus(target_utts_per_speaker=0)


def test_make_domain_shift_well_conditioned():
    for seed in range(5):
        a, b = cp.make_domain_shift(10, rotation=0.5, offset=1.5, seed=seed)
        s = np.linalg.svd(a, compute_uv=False)
        assert s.max() <= 2.0 + 1e-12
        assert s.min() >= 0.5 - 1e-12
        assert b.shape == (10,)


# ---------------------------------------------------------------------------
# generation


def test_generation_deterministic():
    c1 = cp.generate_corpus(small_corpus(), 7)
    c2 = cp.generate_corpus(small_corpus(), 7)
    for domain in ("source", "target", "eval"):
        a1, m1 = c1[domain]
        a2, m2 = c2[domain]
        assert m1 == m2
        assert set(a1) == set(a2)
        for uid in a1:
            np.testing.assert_array_equal(a1[uid], a2[uid])


def test_generation_seed_changes_data():
    a1, _ = cp.generate_domain(small_corpus(), "source", 7)
    a2, _ = cp.generate_domain(small_corpus(), "source", 8)
    uid = next(iter(a1))
    assert not np.array_equal(a1[uid], a2[uid])


def test_generation_shapes_and_dtype():
    archive, records = cp.generate_domain(small_corpus(), "source", 7)
    assert len(records) == 8 * 4
    for r in records:
        frames = archive[r.utt_id]
        assert frames.dtype == np.float32
        assert frames.shape == (r.frames, 6)
        assert 20 <= r.frames <= 30
        assert r.domain == "source"
        assert r.speaker_id.startswith("src-spk")


def test_generation_unknown_domain():
    with pytest.raises(ValueError, match="domain"):
        cp.generate_domain(small_corpus(), "dev", 7)


def test_degenerate_scales_collapse_variation():
    cfg = small_corpus(speaker_scale=0.0, channel_scale=0.0, noise_scale=0.0)
    archive, _ = cp.generate_domain(cfg, "source", 7)
    for frames in archive.values():
        np.testing.assert_array_equal(frames, 0.0)


def test_zero_noise_constant_frames_per_utterance():
    archive, _ = cp.generate_domain(small_corpus(noise_scale=0.0), "source",
                                    7)
    for frames in archive.values():
        np.testing.assert_allclose(frames - frames[0], 0.0, atol=1e-6)


def test_moment_oracle_source():
    # the pooled mean is ~0 and the pooled covariance approaches
    # (speaker^2 + channel^2 + noise^2) I within 5%; frames within a
    # speaker are correlated, so many speakers are needed, not just
    # many frames
    cfg = CorpusConfig(frame_dim=4, source_speakers=3000,
                       source_utts_per_speaker=3, target_speakers=1,
                       target_utts_per_speaker=1, frames_range=(10, 15),
                       speaker_scale=1.0, channel_scale=0.3, noise_scale=0.5)
    archive, _ = cp.generate_domain(cfg, "source", 3)
    frames = np.concatenate([f for f in archive.values()]).astype(np.float64)
    assert frames.shape[0] >= 90000
    expected_var = 1.0 + 0.3 ** 2 + 0.5 ** 2
    assert np.abs(frames.mean(axis=0)).max() <= 0.05 * expected_var
    cov = np.cov(frames.T, bias=True)
    np.testing.assert_allclose(np.diag(cov), expected_var,
                               rtol=0.05)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 0.05 * expected_var


def test_moment_oracle_target_affine():
    # target frames are (source-process frames) @ A.T + b, so the pooled
    # moments follow the affine image of the source moments; the map is
    # the shift-seed-0 one for every corpus seed
    m = 4
    a, b = cp.make_domain_shift(m, rotation=0.6, offset=1.2, seed=0)
    cfg = CorpusConfig(frame_dim=m, source_speakers=1,
                       source_utts_per_speaker=1, target_speakers=3000,
                       target_utts_per_speaker=3, frames_range=(10, 15),
                       speaker_scale=1.0, channel_scale=0.3, noise_scale=0.5,
                       shift_rotation=0.6, shift_offset=1.2)
    archive, _ = cp.generate_domain(cfg, "target", 3)
    frames = np.concatenate([f for f in archive.values()]).astype(np.float64)
    expected_var = 1.0 + 0.3 ** 2 + 0.5 ** 2
    expected_cov = expected_var * a @ a.T
    scale = np.abs(expected_cov).max()
    np.testing.assert_allclose(frames.mean(axis=0), b,
                               atol=0.05 * scale)
    np.testing.assert_allclose(np.cov(frames.T, bias=True), expected_cov,
                               atol=0.05 * scale)


def test_domains_linearly_separable():
    # large enough offset that utterance means separate linearly despite
    # unit-scale speaker variation
    cfg = small_corpus(source_speakers=60, source_utts_per_speaker=5,
                       target_speakers=60, target_utts_per_speaker=5,
                       shift_rotation=0.5, shift_offset=4.0)
    corpus = cp.generate_corpus(cfg, 7)
    xs, ys = [], []
    for label, domain in enumerate(("source", "target")):
        archive, _ = corpus[domain]
        for frames in archive.values():
            xs.append(frames.mean(axis=0))
            ys.append(label)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    # least-squares linear classifier on utterance means
    design = np.concatenate([xs, np.ones((len(xs), 1))], axis=1)
    w, *_ = np.linalg.lstsq(design, 2.0 * ys - 1.0, rcond=None)
    acc = np.mean((design @ w > 0) == (ys == 1))
    assert acc > 0.90


def test_second_language_split():
    cfg = small_corpus(target_speakers=6, second_language=True)
    _, records = cp.generate_domain(cfg, "target", 7)
    langs = {r.speaker_id: r.language for r in records}
    assert set(langs.values()) == {"lang1", "lang2"}
    n2 = sum(1 for v in langs.values() if v == "lang2")
    assert n2 == 3


def test_generate_corpus_sets():
    # the eval set has its own ids and counts, and target-domain records
    # (extraction reads the domain bit from that column)
    cfg = small_corpus(eval_speakers=4, eval_utts_per_speaker=2,
                       second_language=True)
    corpus = cp.generate_corpus(cfg, 7)
    assert list(corpus) == ["source", "target", "eval"]
    archive, records = corpus["eval"]
    assert len(records) == len(archive) == 4 * 2
    assert {r.domain for r in records} == {"target"}
    assert {r.language for r in records} == {"lang1", "lang2"}
    assert all(r.utt_id.startswith("ev-") and r.speaker_id.startswith(
        "ev-spk") for r in records)


def test_eval_set_shares_the_target_language_maps():
    # with no speaker, channel or frame noise every frame is its
    # language's offset, which the target and eval sets must share
    cfg = small_corpus(eval_speakers=4, eval_utts_per_speaker=2,
                       second_language=True, speaker_scale=0.0,
                       channel_scale=0.0, noise_scale=0.0)
    corpus = cp.generate_corpus(cfg, 1)
    offsets = {}
    for name in ("target", "eval"):
        archive, records = corpus[name]
        for r in records:
            offset = offsets.setdefault(r.language, archive[r.utt_id][0])
            assert (archive[r.utt_id] == offset).all(), (name, r.utt_id)
    assert set(offsets) == {"lang1", "lang2"}
    assert not np.array_equal(offsets["lang1"], offsets["lang2"])


# ---------------------------------------------------------------------------
# archive I/O


def test_archive_roundtrip(tmp_path, rng):
    records = {f"utt{i}": rng.normal(size=(5 + i, 3)).astype(np.float32)
               for i in range(4)}
    path = tmp_path / "feats.xvf"
    cp.write_archive(path, records)
    back = cp.read_archive(path)
    assert list(back) == list(records)
    for uid in records:
        np.testing.assert_array_equal(back[uid], records[uid])
        assert back[uid].dtype == np.float32


def test_archive_empty_roundtrip(tmp_path):
    path = tmp_path / "feats.xvf"
    cp.write_archive(path, {})
    assert cp.read_archive(path) == {}


def test_archive_truncation_reports_offset(tmp_path, rng):
    records = {"u0": rng.normal(size=(10, 4)).astype(np.float32)}
    path = tmp_path / "feats.xvf"
    cp.write_archive(path, records)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(ValueError, match="byte"):
        cp.read_archive(path)


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "feats.xvf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        cp.read_archive(path)


def test_archive_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        cp.write_archive(tmp_path / "x.xvf", {"u": np.zeros(4)})


# ---------------------------------------------------------------------------
# manifest I/O


def test_manifest_roundtrip(tmp_path):
    records = [ManifestRecord("u0", "spk0", "source", "lang0", 30),
               ManifestRecord("u1", "spk1", "target", "lang1", 45)]
    path = tmp_path / "manifest.tsv"
    cp.write_manifest(path, records)
    assert cp.read_manifest(path) == records


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("wrong\theader\n")
    with pytest.raises(ValueError, match="header"):
        cp.read_manifest(path)


@pytest.mark.parametrize("row", ["u1\ts\tsource\tl\tx3",
                                 "u1\ts\tsource\tl\t-3",
                                 "u1\ts\tsource\tl",
                                 "u1\ts\tsource\tl\t3\t4"])
def test_manifest_bad_row_names_the_line(tmp_path, row):
    path = tmp_path / "manifest.tsv"
    cp.write_manifest(path, [ManifestRecord("u0", "s", "source", "l", 3)])
    with open(path, "a") as f:
        f.write(row + "\n")
    message = re.escape(f"{path}:3: bad manifest row") + "$"
    with pytest.raises(ValueError, match=message):
        cp.read_manifest(path)


def test_manifest_duplicate_utt(tmp_path):
    path = tmp_path / "manifest.tsv"
    cp.write_manifest(path, [ManifestRecord("u0", "s", "source", "l", 3)])
    with open(path, "a") as f:
        f.write("u0\ts\tsource\tl\t3\n")
    with pytest.raises(ValueError, match="duplicate"):
        cp.read_manifest(path)
