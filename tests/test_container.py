"""Round trips and damaged-file handling of the three binary formats that
share `advda.container`: checkpoints, backend bundles and archives."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advda import backend as be
from advda import container
from advda import corpus as cp
from advda import network as net
from advda.backend import BackendTransform, PldaModel

FUZZ = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TINY = net.NetworkConfig(frame_dim=3, tdnn_widths=(4,),
                         tdnn_contexts=((-1, 0, 1),), embed_dim=3,
                         post_pool_widths=(3, 2), critic_widths=(2, 2),
                         n_source_classes=2, n_target_classes=3,
                         use_domain_bit=True)

f64 = st.floats(allow_nan=True, allow_infinity=True)
archives = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2,
                                            min_side=0, max_side=5),
               elements=st.floats(width=32)),
    max_size=4)


def param_sets(params):
    return (params.extractor, params.heads, params.critic)


def random_params(data):
    params = net.init_network(TINY, seed=0)
    for ps in param_sets(params):
        for name in ps.names():
            shape = ps.value(name).shape
            ps.set_value(name, data.draw(hnp.arrays(np.float64, shape,
                                                    elements=f64)))
    return params


def random_bundle(data):
    # random values in the shapes a bundle must have: mean (d,),
    # lda (r, d), mu (r,), between and within (r, r)
    r, d = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    mean, lda, mu, between, within = (
        data.draw(hnp.arrays(np.float64, shape, elements=f64))
        for shape in ((d,), (r, d), (r,), (r, r), (r, r)))
    return (BackendTransform(mean=mean, lda=lda,
                             length_norm=data.draw(st.booleans())),
            PldaModel(mu=mu, between=between, within=within))


def bundle_arrays(transform, model):
    return (transform.mean, transform.lda, model.mu, model.between,
            model.within)


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_prefixes_rejected(path, load):
    data = path.read_bytes()
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(ValueError):
            load(path)


# ---------------------------------------------------------------------------
# bit-exact round trips


@FUZZ
@given(data=st.data())
def test_checkpoint_roundtrip_bit_exact(tmp_path, data):
    params = random_params(data)
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, params)
    loaded = net.load_checkpoint(path)
    for ps_a, ps_b in zip(param_sets(params), param_sets(loaded)):
        assert ps_a.names() == ps_b.names()
        for name in ps_a.names():
            assert_bits_equal(ps_a.value(name), ps_b.value(name))


@FUZZ
@given(data=st.data())
def test_bundle_roundtrip_bit_exact(tmp_path, data):
    transform, model = random_bundle(data)
    path = tmp_path / "backend.advb"
    be.save_bundle(path, transform, model)
    t2, m2 = be.load_bundle(path)
    assert t2.length_norm == transform.length_norm
    for a, b in zip(bundle_arrays(transform, model), bundle_arrays(t2, m2)):
        assert_bits_equal(a, b)


@FUZZ
@given(records=archives)
def test_archive_roundtrip_bit_exact(tmp_path, records):
    path = tmp_path / "feats.xvf"
    cp.write_archive(path, records)
    back = cp.read_archive(path)
    assert list(back) == list(records)
    for uid in records:
        assert_bits_equal(back[uid], records[uid])


# ---------------------------------------------------------------------------
# every strict prefix of a valid file is a ValueError


@settings(FUZZ, max_examples=3)
@given(data=st.data())
def test_checkpoint_prefixes_rejected(tmp_path, data):
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(path, random_params(data))
    assert_prefixes_rejected(path, net.load_checkpoint)


@settings(FUZZ, max_examples=5)
@given(data=st.data())
def test_bundle_prefixes_rejected(tmp_path, data):
    path = tmp_path / "backend.advb"
    be.save_bundle(path, *random_bundle(data))
    assert_prefixes_rejected(path, be.load_bundle)


@settings(FUZZ, max_examples=5)
@given(records=archives)
def test_archive_prefixes_rejected(tmp_path, records):
    path = tmp_path / "feats.xvf"
    cp.write_archive(path, records)
    assert_prefixes_rejected(path, cp.read_archive)


def test_truncation_names_kind_and_offset(tmp_path):
    path = tmp_path / "backend.advb"
    be.save_bundle(path, BackendTransform(np.zeros(2), np.eye(2)),
                   PldaModel(np.zeros(2), np.eye(2), np.eye(2)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match=r"truncated bundle .* at byte \d+"):
        be.load_bundle(path)


# ---------------------------------------------------------------------------
# array names must match the format's


def write_bundle(path, names, meta=None, shapes=None):
    """A bundle whose arrays are zeros of `shapes` (2 x 2 by default)."""
    shapes = shapes or {}
    with open(path, "wb") as f:
        container.write_header(f, be.BUNDLE_MAGIC, be.BUNDLE_VERSION)
        container.write_json(f, {"length_norm": True} if meta is None
                             else meta)
        container.write_arrays(f, [(n, np.zeros(shapes.get(n, (2, 2))))
                                   for n in names])


@pytest.mark.parametrize("names, message", [
    (("mean", "lda", "mu", "between", "bogus"), "unknown bundle array"),
    (("mean", "mean", "mu", "between", "within"), "duplicate bundle array"),
])
def test_bundle_rejects_bad_names(tmp_path, names, message):
    path = tmp_path / "backend.advb"
    write_bundle(path, names)
    with pytest.raises(ValueError, match=message):
        be.load_bundle(path)


GOOD_SHAPES = {"mean": (3,), "lda": (2, 3), "mu": (2,), "between": (2, 2),
               "within": (2, 2)}


def test_bundle_of_good_shapes_loads(tmp_path):
    path = tmp_path / "backend.advb"
    write_bundle(path, be.BUNDLE_ARRAYS, shapes=GOOD_SHAPES)
    transform, model = be.load_bundle(path)
    assert transform.lda.shape == (2, 3) and model.within.shape == (2, 2)


@pytest.mark.parametrize("meta, message", [
    ([True], "meta block must be an object"),
    ({}, "boolean 'length_norm'"),
    ({"length_norm": "yes"}, "boolean 'length_norm'"),
    ({"length_norm": 1}, "boolean 'length_norm'"),
    ({"length_norm": 0}, "boolean 'length_norm'"),
])
def test_bundle_rejects_bad_meta(tmp_path, meta, message):
    path = tmp_path / "backend.advb"
    write_bundle(path, be.BUNDLE_ARRAYS, meta=meta, shapes=GOOD_SHAPES)
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"bundle {where}: .*{message}"):
        be.load_bundle(path)


@pytest.mark.parametrize("name, shape", [
    ("mean", (2,)), ("lda", (2, 3, 1)), ("mu", (3,)), ("between", (3, 3)),
    ("within", (2, 3)),
])
def test_bundle_rejects_inconsistent_shapes(tmp_path, name, shape):
    path = tmp_path / "backend.advb"
    write_bundle(path, be.BUNDLE_ARRAYS, shapes={**GOOD_SHAPES, name: shape})
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"bundle {where}: array '{name}'"):
        be.load_bundle(path)


def test_reader_rejects_missing_names(tmp_path):
    path = tmp_path / "arrays.bin"
    with open(path, "wb") as f:
        container.write_arrays(f, [("a", np.zeros(3))])
    with open(path, "rb") as f:
        with pytest.raises(ValueError, match=r"missing arrays \['b'\]"):
            container.Reader(f, "test file").arrays(1, ("a", "b"))
