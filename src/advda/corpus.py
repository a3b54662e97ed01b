"""Synthetic multi-domain utterance features and feature-archive I/O.

Utterances are sampled from a Gaussian speaker space: each speaker has a
mean vector, each utterance adds a channel offset and per-frame noise.
Target-domain frames are additionally passed through a global affine map
(with an optional second map for a second target language), which gives
the two domains different marginal distributions that adaptation has to
close.  `CorpusConfig` describes the corpus, apart from its seed.
Archives are little-endian binary ("XVF1", framed as in `container`, with
float32 frame records), manifests TSV.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .schema import at_least, check

ARCHIVE_MAGIC = b"XVF1"
ARCHIVE_VERSION = 1

MANIFEST_COLUMNS = ("utt_id", "speaker_id", "domain", "language", "frames")


@dataclass(frozen=True)
class ManifestRecord:
    utt_id: str
    speaker_id: str
    domain: str          # "source" | "target"
    language: str
    frames: int


@dataclass
class CorpusConfig:
    """The `corpus` section of an experiment config."""
    frame_dim: int = at_least(1, default=10)
    source_speakers: int = at_least(1, default=200)
    source_utts_per_speaker: int = at_least(1, default=20)
    target_speakers: int = at_least(1, default=50)
    target_utts_per_speaker: int = at_least(1, default=10)
    # trials need two eval speakers, and a target trial two utterances
    eval_speakers: int = at_least(2, default=30)
    eval_utts_per_speaker: int = at_least(2, default=6)
    frames_range: tuple[int, int] = at_least(1, default=(30, 60))
    speaker_scale: float = at_least(0, default=1.0)
    channel_scale: float = at_least(0, default=0.3)
    noise_scale: float = at_least(0, default=0.5)
    # the target map, the same for every corpus seed (shift seed 0)
    shift_rotation: float = 0.5
    shift_offset: float = 1.5
    # half the target and half the eval speakers get a second language
    # tag and map, the same map for both sets (shift seed: corpus seed + 1)
    second_language: bool = False

    def __post_init__(self):
        check(self)
        lo, hi = self.frames_range
        if hi < lo:
            raise ValueError(f"frames_range must have lo <= hi, got {lo, hi}")


def make_domain_shift(frame_dim: int, rotation: float = 0.5,
                      offset: float = 1.0, seed: int = 0):
    """Well-conditioned affine (A, b): rotation-ish map plus an offset."""
    rng = np.random.default_rng([seed, 7])
    q, _ = np.linalg.qr(rng.standard_normal((frame_dim, frame_dim)))
    a = (1.0 - rotation) * np.eye(frame_dim) + rotation * q
    # keep the map invertible and tame
    u, s, vt = np.linalg.svd(a)
    s = np.clip(s, 0.5, 2.0)
    a = u @ np.diag(s) @ vt
    b = offset * rng.standard_normal(frame_dim) / np.sqrt(frame_dim)
    return a, b


# each set's id prefix, RNG stream code and seed offset: the eval set
# draws fresh speakers from the target's stream under a later seed, and
# under the target's language maps
SETS = {"source": ("src", 0, 0), "target": ("tgt", 1, 0),
        "eval": ("ev", 1, 1000)}


def generate_domain(cfg: CorpusConfig, domain: str, seed: int):
    """Archive dict (utt_id -> float32 frames) and manifest records of the
    source, target or eval set; eval records carry domain "target"."""
    if domain not in SETS:
        raise ValueError(f"unknown domain {domain!r}")
    prefix, code, offset = SETS[domain]
    n_spk = getattr(cfg, f"{domain}_speakers")
    n_utt = getattr(cfg, f"{domain}_utts_per_speaker")
    shifted = domain != "source"
    m = cfg.frame_dim
    set_seed = seed + offset
    spk_rng = np.random.default_rng([set_seed, code, 10**6])
    means = cfg.speaker_scale * spk_rng.standard_normal((n_spk, m))
    if shifted:
        shift_a, shift_b = make_domain_shift(m, cfg.shift_rotation,
                                             cfg.shift_offset, seed=0)
    if cfg.second_language and shifted:
        a2, b2 = make_domain_shift(m, rotation=0.7, offset=1.5, seed=seed + 1)
    archive = {}
    records = []
    lo, hi = cfg.frames_range
    for s in range(n_spk):
        lang2 = cfg.second_language and shifted and s >= n_spk // 2
        for u in range(n_utt):
            rng = np.random.default_rng([set_seed, code, s * n_utt + u])
            t = int(rng.integers(lo, hi + 1))
            channel = cfg.channel_scale * rng.standard_normal(m)
            frames = means[s] + channel + cfg.noise_scale * \
                rng.standard_normal((t, m))
            if lang2:
                frames = frames @ a2.T + b2
            elif shifted:
                frames = frames @ shift_a.T + shift_b
            uid = f"{prefix}-{s:04d}-{u:03d}"
            archive[uid] = frames.astype(np.float32)
            records.append(ManifestRecord(
                uid, f"{prefix}-spk{s:04d}", "target" if shifted else "source",
                "lang2" if lang2 else ("lang1" if shifted else "lang0"), t))
    return archive, records


def generate_corpus(cfg: CorpusConfig, seed: int):
    """(archive, manifest) pair of each set, deterministic given the seed."""
    return {domain: generate_domain(cfg, domain, seed) for domain in SETS}


# ---------------------------------------------------------------------------
# archive I/O


def write_archive(path, records: dict) -> None:
    """records: utt_id -> (T, m) float32 array."""
    with open(path, "wb") as f:
        container.write_header(f, ARCHIVE_MAGIC, ARCHIVE_VERSION)
        f.write(struct.pack("<Q", len(records)))
        for uid, frames in records.items():
            frames = np.ascontiguousarray(frames, dtype="<f4")
            if frames.ndim != 2:
                raise ValueError(f"frames for {uid!r} must be 2-D")
            ub = uid.encode("utf-8")
            f.write(struct.pack("<I", len(ub)))
            f.write(ub)
            f.write(struct.pack("<II", frames.shape[0], frames.shape[1]))
            f.write(frames.tobytes())


def read_archive(path) -> dict:
    records = {}
    with open(path, "rb") as f:
        r = container.Reader(f, "archive")
        r.header(ARCHIVE_MAGIC, ARCHIVE_VERSION)
        (count,) = r.unpack("<Q", "record count")
        for _ in range(count):
            (nlen,) = r.unpack("<I", "utt-id length")
            uid = r.take(nlen, "utt-id").decode("utf-8")
            if uid in records:
                raise ValueError(f"duplicate utt-id {uid!r} in archive")
            t, m = r.unpack("<II", "frame header")
            data = np.frombuffer(r.take(4 * t * m, f"frames of {uid}"),
                                 dtype="<f4").reshape(t, m)
            records[uid] = data.astype(np.float32)
    return records


def write_manifest(path, records) -> None:
    with open(path, "w") as f:
        f.write("\t".join(MANIFEST_COLUMNS) + "\n")
        for r in records:
            f.write(f"{r.utt_id}\t{r.speaker_id}\t{r.domain}\t"
                    f"{r.language}\t{r.frames}\n")


def read_manifest(path):
    records = []
    seen = set()
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if tuple(header) != MANIFEST_COLUMNS:
            raise ValueError(f"bad manifest header in {path}")
        for lineno, line in enumerate(f, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            # five columns, the last a frame count
            if len(parts) != 5 or not parts[4].isdecimal():
                raise ValueError(f"{path}:{lineno}: bad manifest row")
            if parts[0] in seen:
                raise ValueError(f"{path}:{lineno}: duplicate utt-id")
            seen.add(parts[0])
            records.append(ManifestRecord(parts[0], parts[1], parts[2],
                                          parts[3], int(parts[4])))
    return records
