"""Verification backend: centering, LDA, length-norm, PLDA, adaptation.

The PLDA here is the two-covariance model: a class mean drawn from
N(mu, B) and observations drawn from N(class mean, W).  Scoring uses the
simultaneously diagonalized form; unsupervised adaptation redistributes
the excess variance of adaptation data between B and W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import container
from .schema import at_least, check, within

BUNDLE_MAGIC = b"ADVB"
BUNDLE_VERSION = 1

EIG_FLOOR = 1e-8


@dataclass
class BackendTransform:
    mean: np.ndarray          # (d,) centering mean
    lda: np.ndarray           # (r, d) projection rows
    length_norm: bool = True


@dataclass
class PldaModel:
    mu: np.ndarray            # (r,)
    between: np.ndarray       # (r, r) symmetric PSD
    within: np.ndarray        # (r, r) symmetric PD

    def validate(self):
        r = self.mu.shape[0]
        for name, m in (("between", self.between), ("within", self.within)):
            if m.shape != (r, r):
                raise ValueError(f"{name} covariance has wrong shape")
            if not np.allclose(m, m.T, atol=1e-8):
                raise ValueError(f"{name} covariance not symmetric")
        if np.linalg.eigvalsh(self.between).min() < -1e-8:
            raise ValueError("between covariance not PSD")
        if np.linalg.eigvalsh(self.within).min() <= 0:
            raise ValueError("within covariance not PD")


@dataclass
class BackendConfig:
    """The `backend` section of an experiment config."""
    # lda_dim's upper bounds are in the cross-section checks
    lda_dim: int = at_least(1, default=16)
    plda_iterations: int = at_least(1, default=10)
    # shares of the excess variance given to between- and within-class
    xi: float = at_least(0, default=0.25)
    eta: float = at_least(0, default=0.75)
    length_norm: bool = True
    # cluster target labels at this cosine similarity if set
    pseudo_threshold: float | None = within(-1, 1, default=None)

    def __post_init__(self):
        check(self)


def _sym(m):
    return 0.5 * (m + m.T)


def _floor_psd(m, floor=EIG_FLOOR):
    w, v = np.linalg.eigh(_sym(m))
    return _sym(v @ np.diag(np.maximum(w, floor)) @ v.T)


def apply_transform(t: BackendTransform, x: np.ndarray) -> np.ndarray:
    """Center, project, and length-normalize to radius sqrt(r)."""
    x = np.asarray(x, dtype=np.float64)
    y = t.lda @ (x - t.mean)
    if t.length_norm:
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise ValueError("cannot length-normalize a zero vector")
        y = np.sqrt(y.shape[0]) * y / norm
    return y


def estimate_lda(vectors: np.ndarray, labels, r: int) -> np.ndarray:
    """Top-r generalized eigenvectors of (between, within) scatter.

    Rows satisfy row_i @ within @ row_j.T = delta_ij.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("LDA needs at least 2 classes")
    d = vectors.shape[1]
    if r > min(d, len(classes) - 1):
        raise ValueError(f"LDA dim {r} exceeds rank bound")
    gmean = vectors.mean(axis=0)
    sb = np.zeros((d, d))
    sw = np.zeros((d, d))
    for c in classes:
        xc = vectors[labels == c]
        if xc.shape[0] < 2:
            raise ValueError(f"class {c!r} has fewer than 2 vectors")
        cmean = xc.mean(axis=0)
        diff = cmean - gmean
        sb += xc.shape[0] * np.outer(diff, diff)
        xc0 = xc - cmean
        sw += xc0.T @ xc0
    sb /= vectors.shape[0]
    sw /= vectors.shape[0]
    sw += EIG_FLOOR * np.eye(d)
    evals, evecs = scipy.linalg.eigh(_sym(sb), _sym(sw))
    order = np.argsort(evals)[::-1][:r]
    return evecs[:, order].T


def estimate_transform(vectors, labels, r,
                       length_norm=True) -> BackendTransform:
    """Fit centering mean and LDA on labeled training vectors."""
    vectors = np.asarray(vectors, dtype=np.float64)
    mean = vectors.mean(axis=0)
    lda = estimate_lda(vectors - mean, labels, r)
    return BackendTransform(mean=mean, lda=lda, length_norm=length_norm)


def plda_train_em(vectors: np.ndarray, labels,
                  iterations: int = 20) -> PldaModel:
    """Fit the two-covariance PLDA by EM.

    Per-iteration log-likelihood is monotone non-decreasing.  Raises if
    the within-class covariance is unidentifiable (all singleton classes).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    groups = [vectors[labels == c] for c in np.unique(labels)]
    if len(groups) < 2:
        raise ValueError("PLDA training needs at least 2 classes")
    if all(g.shape[0] < 2 for g in groups):
        raise ValueError(
            "within-class covariance unidentifiable: every class has a "
            "single utterance")
    r = vectors.shape[1]
    n_total = vectors.shape[0]
    mu = vectors.mean(axis=0)
    gv = np.cov(vectors.T, bias=True).reshape(r, r)
    between = _floor_psd(0.5 * gv, 1e-6)
    within = _floor_psd(0.5 * gv, 1e-6)
    for _ in range(iterations):
        b_inv = np.linalg.inv(between)
        w_inv = np.linalg.inv(within)
        eyy_sum = np.zeros((r, r))
        resid = np.zeros((r, r))
        mu_acc = np.zeros(r)
        for g in groups:
            n = g.shape[0]
            d = g - mu
            lam = b_inv + n * w_inv
            lam_inv = np.linalg.inv(lam)
            q = w_inv @ d.sum(axis=0)
            m = lam_inv @ q
            eyy_sum += np.outer(m, m) + lam_inv
            e = d - m
            resid += e.T @ e + n * lam_inv
            mu_acc += (g - m).sum(axis=0)
        mu = mu_acc / n_total
        between = _floor_psd(eyy_sum / len(groups))
        within = _floor_psd(resid / n_total)
    return PldaModel(mu=mu, between=between, within=within)


def _joint_diagonalize(a, b):
    """(T, v) with T a T' = I (a's eigenvalues floored at `EIG_FLOOR`) and
    T b T' = diag(v)."""
    evals, evecs = np.linalg.eigh(_sym(a))
    whiten = evecs @ np.diag(np.maximum(evals, EIG_FLOOR) ** -0.5) @ evecs.T
    v, u = np.linalg.eigh(_sym(whiten @ b @ whiten.T))
    return u.T @ whiten, v


class PldaScorer:
    """Precomputed diagonalized model for fast batch scoring."""

    def __init__(self, model: PldaModel):
        if model.mu.shape[0] != model.between.shape[0]:
            raise ValueError("model dimension mismatch")
        self.model = model
        self.t, psi = _joint_diagonalize(model.within, model.between)
        self.psi = np.maximum(psi, 0.0)

    def score(self, enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
        """Row-wise LLRs for paired (n, r) enroll and test arrays."""
        enroll = np.asarray(enroll, dtype=np.float64)
        test = np.asarray(test, dtype=np.float64)
        if enroll.shape != test.shape or enroll.shape[1] != self.model.mu.shape[0]:
            raise ValueError("enroll/test dimension mismatch")
        e = (enroll - self.model.mu) @ self.t.T
        t_ = (test - self.model.mu) @ self.t.T
        psi = self.psi
        # per-dimension 2x2 Gaussian with cov [[psi+1, psi], [psi, psi+1]]
        var_m = psi + 1.0
        det_same = var_m ** 2 - psi ** 2
        # inverse of the 2x2: (1/det) [[psi+1, -psi], [-psi, psi+1]]
        q_same = (var_m * (e ** 2 + t_ ** 2) - 2 * psi * e * t_) / det_same
        ll_same = -0.5 * (np.log(det_same) + q_same)
        ll_diff = -0.5 * (2 * np.log(var_m) + (e ** 2 + t_ ** 2) / var_m)
        return (ll_same - ll_diff).sum(axis=1)


def plda_adapt(model: PldaModel, vectors: np.ndarray,
               cfg: BackendConfig) -> PldaModel:
    """Redistribute the adaptation data's excess variance into the model.

    In the basis where the model's total covariance is identity and the
    adaptation covariance diagonal, each axis with observed variance
    v > 1 contributes excess e = v - 1: xi*e is added to the
    between-class diagonal and eta*e to the within-class diagonal.
    """
    model.validate()
    vectors = np.asarray(vectors, dtype=np.float64)
    r = model.mu.shape[0]
    if vectors.ndim != 2 or vectors.shape[1] != r:
        raise ValueError("adaptation vectors have wrong dimension")
    cov = np.cov(vectors.T, bias=True).reshape(r, r)
    if vectors.shape[0] < r:
        # too few vectors for a stable full covariance: shrink to diagonal
        cov = 0.9 * cov + 0.1 * np.diag(np.diag(cov))
    # T (B + W) T' = I, T cov T' = diag(v)
    t, v = _joint_diagonalize(model.between + model.within, cov)
    t_inv = np.linalg.inv(t)
    excess = np.maximum(v - 1.0, 0.0)
    b_t = t @ model.between @ t.T + cfg.xi * np.diag(excess)
    w_t = t @ model.within @ t.T + cfg.eta * np.diag(excess)
    between = _sym(t_inv @ b_t @ t_inv.T)
    within = _sym(t_inv @ w_t @ t_inv.T)
    return PldaModel(mu=model.mu.copy(), between=between, within=within)


# ---------------------------------------------------------------------------
# backend bundle: header, meta JSON, five named f64 arrays

BUNDLE_ARRAYS = ("mean", "lda", "mu", "between", "within")


def save_bundle(path, transform: BackendTransform, model: PldaModel) -> None:
    with open(path, "wb") as f:
        container.write_header(f, BUNDLE_MAGIC, BUNDLE_VERSION)
        container.write_json(f, {"length_norm": transform.length_norm})
        container.write_arrays(f, zip(BUNDLE_ARRAYS, (
            transform.mean, transform.lda, model.mu, model.between,
            model.within)))


def load_bundle(path):
    """Read a bundle; any malformed content raises `ValueError`."""
    with open(path, "rb") as f:
        r = container.Reader(f, "bundle")
        r.header(BUNDLE_MAGIC, BUNDLE_VERSION)
        meta = r.json("meta")
        if not isinstance(meta, dict) or \
                type(meta.get("length_norm")) is not bool:
            raise ValueError(f"bundle {path}: meta block must be an object "
                             f"with a boolean 'length_norm', got {meta!r}")
        arrs = r.arrays(len(BUNDLE_ARRAYS), BUNDLE_ARRAYS)
    dims = {}
    for name, axes in (("lda", "rd"), ("mean", "d"), ("mu", "r"),
                       ("between", "rr"), ("within", "rr")):
        shape = arrs[name].shape
        if len(shape) != len(axes) or \
                any(dims.setdefault(a, n) != n for a, n in zip(axes, shape)):
            raise ValueError(f"bundle {path}: array {name!r} has shape "
                             f"{shape}, expected ({', '.join(axes)}) for "
                             f"lda (r, d) = {arrs['lda'].shape}")
    transform = BackendTransform(mean=arrs["mean"], lda=arrs["lda"],
                                 length_norm=meta["length_norm"])
    model = PldaModel(mu=arrs["mu"], between=arrs["between"],
                      within=arrs["within"])
    return transform, model
