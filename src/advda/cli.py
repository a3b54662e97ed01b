"""Command-line entry points for the experiment pipeline."""

from __future__ import annotations

import ctypes
import dataclasses
import functools

import click

from .pipeline import ExperimentConfig, cmd_adapt, cmd_backend, \
    cmd_backend_adapt, cmd_eval, cmd_extract, cmd_report, cmd_score, \
    cmd_synth, cmd_train_base, run_experiment
from .trainer import MODES, SCOPES


def with_config(command):
    """Give a command the --config, --out and --seed options and call it
    with the loaded experiment config in their place."""
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--out", default=None, help="override run directory")
    @click.option("--seed", default=None, type=int,
                  help="override global seed")
    @functools.wraps(command)
    def load_and_run(config_path, out, seed, **kwargs):
        # replace() checks the overrides as the config file's values are
        overrides = {name: value for name, value in
                     (("out_dir", out), ("seed", seed)) if value is not None}
        try:
            cfg = dataclasses.replace(ExperimentConfig.load(config_path),
                                      **overrides)
        except ValueError as err:   # ConfigError, or JSON that does not parse
            raise click.UsageError(str(err)) from err
        try:
            return command(cfg, **kwargs)
        except (ValueError, FileNotFoundError) as err:  # bad or missing input
            raise click.ClickException(str(err)) from err
    return load_and_run


# glibc's mallopt parameter numbers
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> None:
    """Keep freed memory in the process rather than give it back to the OS.

    Each training step frees arrays that the next step allocates again.
    By default glibc trims the top of the heap after the frees and maps
    larger arrays anew, so every step faults the same pages back in.
    Here arrays under 32 MiB come from the heap, and up to 256 MiB of
    free heap top stays.  Both are set, as setting one turns off glibc's
    dynamic threshold.  Without glibc's `mallopt` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


@click.group()
def main():
    """Adversarial domain adaptation experiments for speaker embeddings."""
    keep_freed_memory()


def echo_table(rows):
    """Print the comparison table: EER and mean minDCF of each system."""
    click.echo(f"{'system':<24}{'EER%':>8}{'DCF':>8}")
    for tag in sorted(rows):
        r = rows[tag]
        click.echo(f"{tag:<24}{r['eer_pct']:>8.2f}{r['dcf_avg']:>8.3f}")


@main.command()
@with_config
def run(cfg):
    """Run every stage of the comparison and print its table."""
    echo_table(run_experiment(cfg))


@main.command()
@with_config
def synth(cfg):
    """Generate the synthetic corpus, eval set and trial list."""
    for path in cmd_synth(cfg):
        click.echo(path)


@main.command("train-base")
@with_config
def train_base(cfg):
    """Train the source-only baseline model."""
    click.echo(cmd_train_base(cfg))


@main.command()
@with_config
@click.option("--mode", type=click.Choice(MODES), default="adv+sup")
@click.option("--scope", type=click.Choice(SCOPES), default="all")
def adapt(cfg, mode, scope):
    """Adapt the baseline checkpoint."""
    click.echo(cmd_adapt(cfg, mode, scope))


@main.command()
@with_config
@click.option("--ckpt", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tag", required=True,
              help="label for the embedding files, e.g. baseline")
def extract(cfg, ckpt, tag):
    """Extract embeddings for all corpus sets from a checkpoint."""
    for path in cmd_extract(cfg, ckpt, tag):
        click.echo(path)


@main.command()
@with_config
@click.option("--tag", required=True)
def backend(cfg, tag):
    """Train the LDA + PLDA backend on the tagged embeddings."""
    click.echo(cmd_backend(cfg, tag))


@main.command("backend-adapt")
@with_config
@click.option("--tag", required=True)
def backend_adapt(cfg, tag):
    """Unsupervised covariance adaptation of the PLDA."""
    click.echo(cmd_backend_adapt(cfg, tag))


@main.command()
@with_config
@click.option("--tag", required=True)
@click.option("--adapted", is_flag=True, default=False)
def score(cfg, tag, adapted):
    """Score the evaluation trials against a backend bundle."""
    click.echo(cmd_score(cfg, tag, adapted=adapted))


@main.command("eval")
@with_config
@click.option("--tag", required=True)
@click.option("--adapted", is_flag=True, default=False)
def eval_(cfg, tag, adapted):
    """Compute EER and minDCF for a score file."""
    report = cmd_eval(cfg, tag, adapted=adapted)
    click.echo(f"eer_pct={report['eer_pct']:.3f} "
               f"dcf_avg={report['dcf_avg']:.4f}")


@main.command()
@with_config
def report(cfg):
    """Collect all per-mode reports into a comparison table."""
    echo_table(cmd_report(cfg))


if __name__ == "__main__":
    main()
