"""The benchmark's workloads: one experiment config each, plus which
steps are called in the first round only and which several times in
every round.

The experiment seed comes from the command line; everything else about a
workload is fixed here, so the counts in a traced run repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: dict            # ExperimentConfig fields except seed/out_dir
    mode: str                   # adaptation mode passed to `advda adapt`
    once: tuple = ()            # steps run in the first round only
    # Calls per round of a short step, so that each round samples it for
    # about a second; a step not named is called once.
    repeat: dict = field(default_factory=dict)
    checks: tuple = ()          # workload-only oracles


# The criterion-4 reference config of tests/test_acceptance.py
# (reference_experiment), cut to 2 baseline epochs (120 steps) and
# 3 adaptation epochs (90 outer steps of 5 critic steps each).
REFERENCE_ADAPT = Workload(
    name="reference-adapt",
    experiment={
        "corpus": {"eval_speakers": 50, "eval_utts_per_speaker": 10,
                   "shift_offset": 3.0, "shift_rotation": 1.0},
        "network": {"tdnn_widths": [24, 24],
                    "tdnn_contexts": [[-1, 0, 1], [0]],
                    "embed_dim": 16, "post_pool_widths": [16, 16],
                    "critic_widths": [24, 24]},
        "train_base": {"epochs": 2, "warmup_epochs": 0,
                       "minibatches_per_epoch": 60, "source_batch": 48,
                       "segment_frames": [30, 50], "rate_main": 1.0},
        "train_adapt": {"epochs": 3, "warmup_epochs": 1,
                        "minibatches_per_epoch": 30, "source_batch": 48,
                        "target_batch": 48, "segment_frames": [30, 50],
                        "critic_steps": 5, "rate_critic": 0.01,
                        "rate_main": 0.1, "delta": 0.2},
        "backend": {"lda_dim": 12, "plda_iterations": 8},
    },
    mode="adv+sup",
    once=("train-base", "adapt"),
    repeat={"backend": 4, "score": 3},
    checks=("critic_gap",),
)

# Wide frame-level layers on long segments: few graph nodes, big arrays,
# peak RSS ~5x the others, and the domain-bit columns in use.
WIDE_LANG = Workload(
    name="wide-lang",
    experiment={
        "corpus": {"frame_dim": 30, "source_speakers": 30,
                   "source_utts_per_speaker": 8, "target_speakers": 16,
                   "target_utts_per_speaker": 8, "eval_speakers": 16,
                   "eval_utts_per_speaker": 8, "frames_range": [150, 250],
                   "shift_offset": 3.0, "shift_rotation": 1.0,
                   "second_language": True},
        "network": {"tdnn_widths": [128, 128, 128, 128, 256],
                    "tdnn_contexts": [[-2, -1, 0, 1, 2], [-2, 0, 2],
                                      [-3, 0, 3], [0], [0]],
                    "embed_dim": 64, "post_pool_widths": [64, 64],
                    "critic_widths": [64, 64]},
        "train_base": {"epochs": 2, "warmup_epochs": 0,
                       "minibatches_per_epoch": 4, "source_batch": 16,
                       "segment_frames": [150, 250], "rate_main": 0.5},
        "train_adapt": {"epochs": 1, "warmup_epochs": 0,
                        "minibatches_per_epoch": 2, "source_batch": 16,
                        "target_batch": 16, "segment_frames": [150, 250],
                        "critic_steps": 5, "rate_critic": 0.01,
                        "rate_main": 0.05, "delta": 0.2},
        "backend": {"lda_dim": 16, "plda_iterations": 8},
    },
    mode="adv+lan+sup",
    once=("train-base",),
    repeat={"backend": 20, "score": 12},
)

# Brief training, then pseudo-labels and a large evaluation set:
# clustering, forward-only extraction, PLDA and scoring do the work.
PSEUDO_EVAL = Workload(
    name="pseudo-eval",
    experiment={
        "corpus": {"source_speakers": 100, "source_utts_per_speaker": 10,
                   "target_speakers": 60, "target_utts_per_speaker": 10,
                   "eval_speakers": 150, "eval_utts_per_speaker": 12,
                   "shift_offset": 3.0, "shift_rotation": 1.0},
        "network": {"tdnn_widths": [24, 24],
                    "tdnn_contexts": [[-1, 0, 1], [0]],
                    "embed_dim": 16, "post_pool_widths": [16, 16],
                    "critic_widths": [24, 24]},
        "train_base": {"epochs": 2, "warmup_epochs": 0,
                       "minibatches_per_epoch": 15, "source_batch": 32,
                       "segment_frames": [30, 50], "rate_main": 1.0},
        "train_adapt": {"epochs": 2, "warmup_epochs": 1,
                        "minibatches_per_epoch": 5, "source_batch": 32,
                        "target_batch": 32, "segment_frames": [30, 50],
                        "critic_steps": 5, "rate_critic": 0.01,
                        "rate_main": 0.1, "delta": 0.2},
        "backend": {"lda_dim": 12, "plda_iterations": 8,
                    "pseudo_threshold": 0.85},
        "trials": {"nontarget_per_target": 4},
    },
    mode="adv+sup",
    repeat={"backend": 8},
    checks=("pseudo_labels",),
)

WORKLOADS = {w.name: w for w in (REFERENCE_ADAPT, WIDE_LANG, PSEUDO_EVAL)}
