import numpy as np
import pytest
import scipy.stats

from advda import backend as be
from advda.backend import BackendConfig, BackendTransform, PldaModel

from conftest import plda_llr, rel_err


def random_model(rng, r, b_scale=1.0, w_scale=1.0):
    a = rng.normal(size=(r, r))
    between = b_scale * (a @ a.T / r + 0.1 * np.eye(r))
    c = rng.normal(size=(r, r))
    within = w_scale * (c @ c.T / r + 0.1 * np.eye(r))
    return PldaModel(mu=rng.normal(size=r), between=between, within=within)


def sample_from(model, rng, n_classes, n_per_class, return_draws=False):
    lb = np.linalg.cholesky(model.between)
    lw = np.linalg.cholesky(model.within)
    r = model.mu.shape[0]
    vectors, labels, latents, noises = [], [], [], []
    for c in range(n_classes):
        y = model.mu + lb @ rng.normal(size=r)
        latents.append(y)
        for _ in range(n_per_class):
            e = lw @ rng.normal(size=r)
            noises.append(e)
            vectors.append(y + e)
            labels.append(c)
    out = np.asarray(vectors), np.asarray(labels)
    if return_draws:
        out += (np.asarray(latents), np.asarray(noises))
    return out


# ---------------------------------------------------------------------------
# transform


def test_apply_transform_norm(rng):
    t = BackendTransform(mean=np.zeros(4), lda=np.eye(4), length_norm=True)
    y = be.apply_transform(t, rng.normal(size=4))
    assert np.linalg.norm(y) == pytest.approx(2.0, abs=1e-9)


def test_apply_transform_zero_vector_errors():
    t = BackendTransform(mean=np.ones(3), lda=np.eye(3), length_norm=True)
    with pytest.raises(ValueError, match="zero"):
        be.apply_transform(t, np.ones(3))


def test_apply_transform_step_by_step_oracle(rng):
    mean = rng.normal(size=5)
    lda = rng.normal(size=(3, 5))
    t = BackendTransform(mean=mean, lda=lda, length_norm=True)
    x = rng.normal(size=5)
    v = lda @ (x - mean)
    expected = np.sqrt(3) * v / np.linalg.norm(v)
    np.testing.assert_allclose(be.apply_transform(t, x), expected, rtol=1e-12)


def test_apply_transform_without_length_norm(rng):
    mean = rng.normal(size=5)
    lda = rng.normal(size=(3, 5))
    t = BackendTransform(mean=mean, lda=lda, length_norm=False)
    x = rng.normal(size=5)
    np.testing.assert_allclose(be.apply_transform(t, x), lda @ (x - mean))


# ---------------------------------------------------------------------------
# LDA


def test_lda_two_separable_classes(rng):
    direction = np.array([1.0, 0.0])
    x0 = rng.normal(size=(200, 2)) * [0.2, 1.0] - 3 * direction
    x1 = rng.normal(size=(200, 2)) * [0.2, 1.0] + 3 * direction
    vectors = np.concatenate([x0, x1])
    labels = np.array([0] * 200 + [1] * 200)
    lda = be.estimate_lda(vectors, labels, 1)
    cos = abs(lda[0] @ direction) / np.linalg.norm(lda[0])
    assert cos >= 0.99


def test_lda_single_class_errors(rng):
    with pytest.raises(ValueError, match="classes"):
        be.estimate_lda(rng.normal(size=(10, 3)), np.zeros(10), 1)


def test_lda_rank_bound(rng):
    vectors = rng.normal(size=(20, 5))
    labels = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="rank"):
        be.estimate_lda(vectors, labels, 2)


def test_lda_diagonalizes_within_class(rng):
    vectors, labels = [], []
    means = rng.normal(size=(6, 4)) * 3
    for c in range(6):
        xs = means[c] + rng.normal(size=(30, 4))
        vectors.append(xs)
        labels += [c] * 30
    vectors = np.concatenate(vectors)
    labels = np.asarray(labels)
    lda = be.estimate_lda(vectors, labels, 3)
    # recompute the (floored) within scatter exactly as a check basis
    sw = np.zeros((4, 4))
    for c in range(6):
        xc = vectors[labels == c]
        xc0 = xc - xc.mean(axis=0)
        sw += xc0.T @ xc0
    sw /= vectors.shape[0]
    sw += be.EIG_FLOOR * np.eye(4)
    np.testing.assert_allclose(lda @ sw @ lda.T, np.eye(3), atol=1e-8)


# ---------------------------------------------------------------------------
# PLDA EM


def test_plda_em_recovers_generating_model(rng):
    true = random_model(rng, 10)
    vectors, labels, latents, noises = sample_from(
        true, rng, 500, 10, return_draws=True)
    model = be.plda_train_em(vectors, labels, iterations=25)
    # compare against the empirical covariances of the actual draws: the
    # population matrices carry ~sqrt(r/n_classes) sampling noise the
    # estimator cannot see past
    emp_between = np.cov(latents.T, bias=True)
    emp_within = np.cov(noises.T, bias=True)
    rb = np.linalg.norm(model.between - emp_between) / \
        np.linalg.norm(emp_between)
    rw = np.linalg.norm(model.within - emp_within) / \
        np.linalg.norm(emp_within)
    assert rb <= 0.10
    assert rw <= 0.10


def test_plda_em_singleton_classes_rejected(rng):
    vectors = rng.normal(size=(5, 3))
    with pytest.raises(ValueError, match="single"):
        be.plda_train_em(vectors, np.arange(5))


def test_plda_em_loglik_monotone(rng):
    # oracle: each class's stacked vectors are one Gaussian draw with
    # covariance I (x) W + J (x) B, the latent class mean integrated out
    true = random_model(rng, 4)
    vectors, labels = sample_from(true, rng, 40, 5)
    lls = []
    for k in range(16):
        model = be.plda_train_em(vectors, labels, iterations=k)
        ll = 0.0
        for c in np.unique(labels):
            g = vectors[labels == c]
            n = g.shape[0]
            cov = np.kron(np.eye(n), model.within) \
                + np.kron(np.ones((n, n)), model.between)
            ll += scipy.stats.multivariate_normal.logpdf(
                g.ravel(), np.tile(model.mu, n), cov)
        lls.append(ll)
    diffs = np.diff(lls)
    assert np.all(diffs >= -1e-8)


# ---------------------------------------------------------------------------
# scoring


def _grid_gaussian_integral(model, vecs, nodes=600):
    """Numeric-integration oracle for r=2: marginalize the latent class
    mean on a wide trapezoid grid; returns log p(all vecs share a class)."""
    pts = np.stack([model.mu] + list(vecs))
    spread = 10.0 * np.sqrt(max(
        np.linalg.eigvalsh(model.between).max(),
        np.linalg.eigvalsh(model.within).max()))
    lo = pts.min(axis=0) - spread
    hi = pts.max(axis=0) + spread
    g0 = np.linspace(lo[0], hi[0], nodes)
    g1 = np.linspace(lo[1], hi[1], nodes)
    cell = (g0[1] - g0[0]) * (g1[1] - g1[0])
    yi, yj = np.meshgrid(g0, g1, indexing="ij")
    ys = np.stack([yi.ravel(), yj.ravel()], axis=1)

    def log_density(center, cov):
        d = center - ys
        cinv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        return (-np.log(2 * np.pi) - 0.5 * logdet
                - 0.5 * np.einsum("ij,jk,ik->i", d, cinv, d, optimize=True))

    total = log_density(model.mu, model.between)
    for v in vecs:
        total += log_density(v, model.within)
    return float(np.log(np.exp(total).sum() * cell))


def test_plda_score_symmetric(rng):
    model = random_model(rng, 5)
    e, t = rng.normal(size=5), rng.normal(size=5)
    assert abs(plda_llr(model, e, t)
               - plda_llr(model, t, e)) <= 1e-10


def test_plda_score_zero_between_gives_zero_llr(rng):
    r = 3
    c = rng.normal(size=(r, r))
    model = PldaModel(mu=np.zeros(r), between=np.zeros((r, r)),
                      within=c @ c.T / r + 0.2 * np.eye(r))
    for _ in range(5):
        llr = plda_llr(model, rng.normal(size=r), rng.normal(size=r))
        assert abs(llr) <= 1e-6


def test_plda_score_dimension_mismatch(rng):
    model = random_model(rng, 3)
    with pytest.raises(ValueError, match="dimension"):
        plda_llr(model, np.zeros(3), np.zeros(4))


def test_scoring_invariant_to_joint_shift(rng):
    # shifting enroll, test and mu together leaves the LLR unchanged
    model = random_model(rng, 4)
    e, t = rng.normal(size=4), rng.normal(size=4)
    shift = rng.normal(size=4)
    shifted = PldaModel(mu=model.mu + shift, between=model.between,
                        within=model.within)
    assert plda_llr(model, e, t) == pytest.approx(
        plda_llr(shifted, e + shift, t + shift), abs=1e-9)


# ---------------------------------------------------------------------------
# adaptation


def test_adapt_no_excess_is_identity(rng):
    model = random_model(rng, 4)
    # adaptation data drawn from the model's own total covariance
    total = model.between + model.within
    l = np.linalg.cholesky(total)
    vectors = model.mu + rng.normal(size=(20000, 4)) @ l.T
    # force the empirical covariance to match the model exactly
    vectors = (vectors - vectors.mean(axis=0))
    cov = np.cov(vectors.T, bias=True)
    fix = np.linalg.cholesky(total) @ np.linalg.inv(np.linalg.cholesky(cov))
    vectors = vectors @ fix.T + model.mu
    adapted = be.plda_adapt(model, vectors, BackendConfig(xi=0.4, eta=0.6))
    np.testing.assert_allclose(adapted.between, model.between, atol=1e-7)
    np.testing.assert_allclose(adapted.within, model.within, atol=1e-7)


def test_adapt_split_sums_to_observed_variance(rng):
    model = random_model(rng, 5)
    vectors = rng.normal(size=(4000, 5)) @ rng.normal(size=(5, 5)) * 1.5
    p = BackendConfig(xi=0.3, eta=0.7)
    adapted = be.plda_adapt(model, vectors, p)
    # with xi + eta = 1 the adapted total covariance, whitened by the old
    # total, has eigenvalue max(v, 1) per direction of observed variance v
    total = model.between + model.within
    cov = np.cov(vectors.T, bias=True)
    evals, evecs = np.linalg.eigh(total)
    whiten = evecs @ np.diag(evals ** -0.5) @ evecs.T
    v = np.linalg.eigvalsh(whiten @ cov @ whiten.T)
    new_total = whiten @ (adapted.between + adapted.within) @ whiten.T
    np.testing.assert_allclose(np.linalg.eigvalsh(new_total),
                               np.maximum(v, 1.0), atol=1e-8)


def test_adapt_zero_shares_is_identity(rng):
    model = random_model(rng, 4)
    vectors = rng.normal(size=(500, 4)) * 3.0
    adapted = be.plda_adapt(model, vectors, BackendConfig(xi=0.0, eta=0.0))
    np.testing.assert_allclose(adapted.between, model.between, atol=1e-8)
    np.testing.assert_allclose(adapted.within, model.within, atol=1e-8)


def test_adapt_default_preset():
    p = BackendConfig()
    assert p.xi == 0.25
    assert p.eta == 0.75


def test_adapt_negative_share_rejected():
    with pytest.raises(ValueError):
        BackendConfig(xi=-0.1, eta=0.5)


def test_adapt_preserves_symmetry_psd(rng):
    model = random_model(rng, 6)
    vectors = rng.normal(size=(300, 6)) * 2.0
    adapted = be.plda_adapt(model, vectors, BackendConfig())
    adapted.validate()


def test_adapt_shrinks_covariance_when_data_scarce(rng):
    model = random_model(rng, 8)
    vectors = rng.normal(size=(5, 8))    # fewer vectors than dimensions
    adapted = be.plda_adapt(model, vectors, BackendConfig())
    adapted.validate()


# ---------------------------------------------------------------------------
# EER consistency between true and recovered models


def test_em_model_eer_close_to_true_model(rng):
    from advda.metrics import eer_from_scores
    true = random_model(rng, 10)
    vectors, labels = sample_from(true, rng, 500, 10)
    model = be.plda_train_em(vectors, labels, iterations=25)
    # held-out trials from the generating model
    ev, el = sample_from(true, rng, 150, 4)
    tgt_pairs, non_pairs = [], []
    for c in range(150):
        idx = np.flatnonzero(el == c)
        tgt_pairs.append((ev[idx[0]], ev[idx[1]]))
        tgt_pairs.append((ev[idx[2]], ev[idx[3]]))
    perm = rng.permutation(150)
    for i in range(150):
        j = (i + 1) % 150
        a = ev[np.flatnonzero(el == perm[i])[0]]
        b = ev[np.flatnonzero(el == perm[j])[1]]
        non_pairs.append((a, b))
        a = ev[np.flatnonzero(el == perm[i])[2]]
        b = ev[np.flatnonzero(el == perm[j])[3]]
        non_pairs.append((a, b))

    def eer_of(m):
        sc = be.PldaScorer(m)
        tgt = sc.score(np.stack([p[0] for p in tgt_pairs]),
                       np.stack([p[1] for p in tgt_pairs]))
        non = sc.score(np.stack([p[0] for p in non_pairs]),
                       np.stack([p[1] for p in non_pairs]))
        return eer_from_scores(tgt, non)

    assert abs(eer_of(model) - eer_of(true)) <= 1.0


# ---------------------------------------------------------------------------
# bundle


def test_bundle_roundtrip(tmp_path, rng):
    t = BackendTransform(mean=rng.normal(size=6),
                         lda=rng.normal(size=(3, 6)), length_norm=True)
    model = random_model(rng, 3)
    path = tmp_path / "backend.advb"
    be.save_bundle(path, t, model)
    t2, m2 = be.load_bundle(path)
    np.testing.assert_array_equal(t.mean, t2.mean)
    np.testing.assert_array_equal(t.lda, t2.lda)
    assert t2.length_norm
    np.testing.assert_array_equal(model.between, m2.between)
    np.testing.assert_array_equal(model.within, m2.within)


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "backend.advb"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        be.load_bundle(path)
