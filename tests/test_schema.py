import dataclasses

import pytest

from advda import backend as be
from advda import corpus as cp
from advda import network as net
from advda import pipeline as pl
from advda import schema
from advda import trainer as tr

CONFIG_CLASSES = (cp.CorpusConfig, be.BackendConfig, pl.TrialsSection,
                  pl.ExperimentConfig, net.NetworkConfig, tr.TrainConfig)
NAN = float("nan")
NAN_OF = {float: NAN, float | None: NAN, tuple[float, float]: (NAN, NAN)}


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_every_config_field_is_declared_and_checked(cls):
    cls()                                   # every default passes
    for f in dataclasses.fields(cls):
        tp = schema.hints(cls)[f.name]
        schema.describe(tp)                 # a supported annotation
        with pytest.raises(ValueError, match=rf"^{f.name}[: ]"):
            cls(**{f.name: object()})
        if tp in NAN_OF:                     # a float field
            with pytest.raises(ValueError, match=rf"^{f.name} must be "
                                                 r"finite, got \(?nan"):
                cls(**{f.name: NAN_OF[tp]})


def test_describe_rejects_unsupported_annotations():
    with pytest.raises(KeyError):
        schema.describe(list[int])
    with pytest.raises(KeyError):
        schema.describe(tuple[int, int, int])


def test_hints_are_cached_per_class():
    assert schema.hints(tr.TrainConfig) is schema.hints(tr.TrainConfig)


def test_lists_become_tuples_and_numbers_stay_as_given():
    cfg = net.NetworkConfig(tdnn_widths=[6, 6], tdnn_contexts=[[-1, 0, 1],
                                                               [0]],
                            bn_momentum=1)
    assert cfg.tdnn_widths == (6, 6)
    assert cfg.tdnn_contexts == ((-1, 0, 1), (0,))
    assert cfg.bn_momentum == 1 and type(cfg.bn_momentum) is int


@pytest.mark.parametrize("kwargs, match", [
    ({"gamma": True}, "gamma must be at least 0, got True"),
    ({"mode": "semi"}, r"mode: expected one of \['sup', 'adv', "),
    ({"segment_frames": [8]},
     r"segment_frames: expected a list of two integers, got \[8\]"),
    ({"segment_frames": [8, 0]},
     r"segment_frames must be at least 1, got segment_frames\[1\]=0"),
    ({"segment_frames": [12, 8]},
     r"segment_frames must have lo <= hi, got \(12, 8\)"),
])
def test_train_config_messages_name_the_key(kwargs, match):
    with pytest.raises(ValueError, match=match):
        tr.TrainConfig(**kwargs)


def test_warmup_bound_names_the_adaptation_key():
    with pytest.raises(pl.ConfigError, match=r"^train_adapt\.warmup_epochs "
                       r"must be less than train_adapt\.epochs$"):
        pl.ExperimentConfig.from_dict(
            {"train_adapt": {"epochs": 2, "warmup_epochs": 2}})


def test_warmup_bound_skips_the_baseline():
    # baseline training has no warm-up, so the default 3 is not read
    cfg = pl.ExperimentConfig.from_dict({"train_base": {"epochs": 2}})
    assert cfg.train_base == {"epochs": 2}


@pytest.mark.parametrize("kwargs, match", [
    ({"tdnn_contexts": [[-1, 0, 1], []]}, "tdnn_contexts: expected a "
                                          "non-empty list of non-empty"),
    ({"critic_widths": []},
     "critic_widths: expected a non-empty list of integers"),
    ({"bn_momentum": 1.5}, r"bn_momentum must lie in \[0, 1\], got 1.5"),
    ({"use_domain_bit": 1}, "use_domain_bit: expected a boolean, got 1"),
])
def test_network_config_messages_name_the_key(kwargs, match):
    with pytest.raises(ValueError, match=match):
        net.NetworkConfig(**kwargs)


def test_optional_bounded_field():
    assert be.BackendConfig(pseudo_threshold=None).pseudo_threshold is None
    with pytest.raises(ValueError, match="pseudo_threshold must lie in"):
        be.BackendConfig(pseudo_threshold="0.5")
    with pytest.raises(ValueError, match="xi must be at least 0, got -1"):
        be.BackendConfig(xi=-1)
