"""Fusion of agent posteriors in linear Gaussian estimation models.

K agents observe y_k = H_k theta + n_k with jointly Gaussian noise whose
blocks may be correlated across agents. Each agent's posterior is summarized
by a local statistic t_k; treating the stacked statistic as an observation
of theta gives a fused posterior that accounts for the correlation, unlike
naive product rules. The oracle posterior conditioned on the raw
observations is computed alongside for comparison whenever the full noise
covariance is invertible.

One fusion path, ``vector_fusion``, gives matrix-valued agent weights W_k
plus the quadratic correction G that makes the weighted likelihood product
exact; scalar weights are its d_theta = 1 case. Each model matrix (prior,
noise block, local precision, joint noise) is factorized once per model.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, RankError, SingularityError, finite_vector, whole_number
from .gaussian import Gaussian, from_information, pd_inverse, symmetric, symmetrize
from .grid import GridDensity, OpinionProfile
from .pooling import multiplicative_pool

PSD_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Observation model y_k = H_k theta + n_k with joint noise covariance.

    Fields
    ------
    H_blocks : K observation matrices, each d_{y_k} x d_theta with
        d_{y_k} >= d_theta and full column rank.
    Sigma : full noise covariance over the stacked observation, symmetric
        positive semidefinite with positive definite diagonal blocks.
    prior_mean, prior_cov : Gaussian prior on theta, prior_mean finite and
        prior_cov symmetric positive definite.
    """

    H_blocks: tuple[np.ndarray, ...]
    Sigma: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray

    def __post_init__(self):
        blocks = tuple(np.atleast_2d(np.asarray(h, dtype=np.float64)).copy() for h in self.H_blocks)
        if not blocks:
            raise DimensionError("need at least one agent block")
        d_theta = blocks[0].shape[1]
        for k, h in enumerate(blocks):
            if h.shape[1] != d_theta:
                raise DimensionError(f"H block {k} has {h.shape[1]} columns, expected {d_theta}")
            if h.shape[0] < d_theta:
                raise DimensionError(
                    f"H block {k} has fewer rows ({h.shape[0]}) than parameters ({d_theta})"
                )
            if not np.all(np.isfinite(h)):
                raise ValueError(f"H block {k} has non-finite entries")
            if np.linalg.matrix_rank(h) < d_theta:
                raise RankError(f"H block {k} is column rank deficient")
        d_y = sum(h.shape[0] for h in blocks)
        sigma = symmetric(self.Sigma, "Sigma", d_y)
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] < PSD_TOL * max(1.0, eigs[-1]):
            raise ValueError(f"Sigma has negative eigenvalue {eigs[0]:.3e}")
        prior_mean = finite_vector(self.prior_mean, d_theta, "prior mean")
        prior_cov = symmetric(self.prior_cov, "prior covariance", d_theta)
        for arr in (*blocks, sigma, prior_mean, prior_cov):
            arr.flags.writeable = False
        object.__setattr__(self, "H_blocks", blocks)
        object.__setattr__(self, "Sigma", sigma)
        object.__setattr__(self, "prior_mean", prior_mean)
        object.__setattr__(self, "prior_cov", prior_cov)
        # validates the prior, each noise block and the reduced covariance, in order
        self.prior_precision
        self.sigma_tilde_inv

    @property
    def K(self) -> int:
        return len(self.H_blocks)

    @property
    def d_theta(self) -> int:
        return self.H_blocks[0].shape[1]

    @property
    def d_y(self) -> int:
        return self.Sigma.shape[0]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(h.shape[0] for h in self.H_blocks)

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Rows (lo, hi) of each agent's block in the stacked observation."""
        hi = np.cumsum(self.block_sizes)
        return tuple(zip((hi - self.block_sizes).tolist(), hi.tolist()))

    def sigma_block(self, k: int) -> np.ndarray:
        lo, hi = self.spans[k]
        return self.Sigma[lo:hi, lo:hi]

    @cached_property
    def prior_precision(self) -> np.ndarray:
        return pd_inverse(self.prior_cov, "prior covariance")

    @cached_property
    def _noise_block_inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(pd_inverse(self.sigma_block(k), f"diagonal noise block {k}") for k in range(self.K))

    @cached_property
    def noise_precision(self) -> np.ndarray | None:
        """Sigma^{-1}, or None when the joint noise covariance is singular."""
        try:
            return pd_inverse(self.Sigma)
        except SingularityError:
            return None

    @cached_property
    def local_precisions(self) -> tuple[np.ndarray, ...]:
        """H_k^T Sigma_kk^{-1} H_k per agent."""
        return tuple(
            symmetrize(h.T @ inv_block @ h)
            for h, inv_block in zip(self.H_blocks, self._noise_block_inverses)
        )

    @cached_property
    def local_covariances(self) -> tuple[np.ndarray, ...]:
        """(H_k^T Sigma_kk^{-1} H_k)^{-1} per agent; RankError if singular."""
        out = []
        for k, gram in enumerate(self.local_precisions):
            try:
                out.append(pd_inverse(gram))
            except SingularityError as exc:
                raise RankError(f"agent {k} statistic map is rank deficient") from exc
        return tuple(out)

    @cached_property
    def V_blocks(self) -> tuple[np.ndarray, ...]:
        """Per-agent statistic maps (H_k^T S^{-1} H_k)^{-1} H_k^T S^{-1}."""
        out = []
        for k, h in enumerate(self.H_blocks):
            v = self.local_covariances[k] @ h.T @ self._noise_block_inverses[k]
            if np.max(np.abs(v @ h - np.eye(self.d_theta))) > 1e-10:
                raise RankError(f"agent {k} statistic map fails the identity check")
            out.append(v)
        return tuple(out)

    @cached_property
    def V(self) -> np.ndarray:
        """Block-diagonal stack of the V_blocks, (K d_theta) x d_y."""
        dt = self.d_theta
        out = np.zeros((self.K * dt, self.d_y))
        for k, (v, (lo, hi)) in enumerate(zip(self.V_blocks, self.spans)):
            out[k * dt : (k + 1) * dt, lo:hi] = v
        return out

    @cached_property
    def Sigma_tilde(self) -> np.ndarray:
        """Covariance of the stacked local statistics, V Sigma V^T."""
        return symmetrize(self.V @ self.Sigma @ self.V.T)

    @cached_property
    def sigma_tilde_inv(self) -> np.ndarray:
        return pd_inverse(self.Sigma_tilde, "reduced covariance")

    @cached_property
    def ones_kron(self) -> np.ndarray:
        return np.kron(np.ones((self.K, 1)), np.eye(self.d_theta))


@dataclass(frozen=True, eq=False)
class SupraFusionResult:
    """What ``vector_fusion`` computes.

    ``vector_weights`` (one d_theta x d_theta W_k per agent), ``G``,
    ``Sigma_tilde``, ``Sigma_hat_inv`` and ``posterior`` are always set.
    ``oracle`` is set when ``y`` was given and the joint noise covariance
    is invertible.
    """

    posterior: Gaussian
    oracle: Gaussian | None
    vector_weights: tuple[np.ndarray, ...]
    Sigma_tilde: np.ndarray
    Sigma_hat_inv: np.ndarray
    G: np.ndarray

    @property
    def scalar_weights(self) -> np.ndarray | None:
        """The [0, 0] entries of the W_k when d_theta = 1, else None."""
        return np.array([w[0, 0] for w in self.vector_weights]) if self.G.shape == (1, 1) else None


def local_statistics(model: LinearGaussianModel, y) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Per-agent statistics t_k = V_k y_k, stacked, plus the maps V_k."""
    y = finite_vector(y, model.d_y, "observation")
    parts = [v @ y[lo:hi] for v, (lo, hi) in zip(model.V_blocks, model.spans)]
    return np.concatenate(parts), model.V_blocks


def global_likelihood_params(model: LinearGaussianModel) -> tuple[np.ndarray, np.ndarray]:
    """The reduced covariance of the stacked statistics and the fused
    precision it induces on theta."""
    ones = model.ones_kron
    sigma_hat_inv = symmetrize(ones.T @ model.sigma_tilde_inv @ ones)
    return model.Sigma_tilde, sigma_hat_inv


def _conjugate_update(model: LinearGaussianModel, precision, shift, what: str) -> Gaussian:
    """Posterior of theta from the prior and a Gaussian likelihood in
    information form: precision H^T N H and shift H^T N y, N the noise
    precision."""
    prior_prec = model.prior_precision
    return from_information(precision + prior_prec, shift + prior_prec @ model.prior_mean, what)


def _observed_update(model: LinearGaussianModel, noise_precision, y, what: str) -> Gaussian:
    """Conjugate update on the raw observation y = H theta + n."""
    H = np.vstack(model.H_blocks)
    return _conjugate_update(model, H.T @ noise_precision @ H, H.T @ noise_precision @ y, what)


def scalar_fusion(model: LinearGaussianModel, t, y=None) -> SupraFusionResult:
    """``vector_fusion`` of a scalar-parameter model; DimensionError for
    any other model."""
    if model.d_theta != 1:
        raise DimensionError("scalar fusion needs a one-dimensional parameter")
    return vector_fusion(model, t, y)


def vector_fusion(model: LinearGaussianModel, t, y=None) -> SupraFusionResult:
    """Fused posterior with matrix-valued agent weights.

    W_k = (H_k^T S_kk^{-1} H_k)^{-1} (e_k kron I)^T SigmaTilde^{-1} (1 kron I);
    G is the quadratic correction making the weighted likelihood product
    exact. The posterior is the conjugate update under the fused precision.
    When the raw observation ``y`` is supplied and the joint noise
    covariance is invertible, the oracle posterior is filled in as well.
    """
    dt, K = model.d_theta, model.K
    t = finite_vector(t, K * dt, "statistic")
    sti = model.sigma_tilde_inv
    ones = model.ones_kron
    _, sigma_hat_inv = global_likelihood_params(model)
    vector_weights = []
    G = sigma_hat_inv.copy()
    for k in range(K):
        block_row = sti[k * dt : (k + 1) * dt, :]  # (e_k kron I)^T SigmaTilde^{-1}
        wk = model.local_covariances[k] @ block_row @ ones
        vector_weights.append(wk)
        G = G - wk.T @ model.local_precisions[k] @ wk
    G = symmetrize(G)
    posterior = _conjugate_update(model, sigma_hat_inv, ones.T @ sti @ t, "fused posterior precision")
    oracle = None
    if y is not None:
        y = finite_vector(y, model.d_y, "observation")
        if model.noise_precision is not None:  # the oracle needs invertible joint noise
            oracle = _observed_update(model, model.noise_precision, y, "oracle posterior precision")
    return SupraFusionResult(
        posterior=posterior,
        oracle=oracle,
        vector_weights=tuple(vector_weights),
        Sigma_tilde=model.Sigma_tilde,
        Sigma_hat_inv=sigma_hat_inv,
        G=G,
    )


def substituted_oracle(model: LinearGaussianModel, y) -> Gaussian:
    """Oracle recomputed with the joint precision replaced by
    V^T (V Sigma V^T)^{-1} V.

    This reproduces the fused posterior exactly: the substitution is what
    discarding the raw observations in favor of the local statistics costs.
    """
    y = finite_vector(y, model.d_y, "observation")
    M = model.V.T @ model.sigma_tilde_inv @ model.V
    return _observed_update(model, M, y, "substituted posterior precision")


def _private_shared_counts(K, r0, r) -> tuple[int, int, np.ndarray]:
    """K, r0 and the r_k as ints. ValueError unless each is a whole number
    (`whole_number`), r0 >= 0 and every r_k >= 1; DimensionError unless there are K r_k."""
    K, r0 = whole_number(K, "K"), whole_number(r0, "shared count")
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    counts = [whole_number(n, "private count") for n in r.ravel().tolist()]
    if K < 1 or r.shape != (K,):
        raise DimensionError(f"need K={K} private counts, got {r.size}")
    if r0 < 0 or min(counts) < 1:
        raise ValueError("private counts must be positive and the shared count nonnegative")
    return K, r0, np.array(counts, dtype=np.int64)


def private_shared_model(K: int, r0: int, r) -> LinearGaussianModel:
    """Scalar-parameter model where each agent sees r0 shared and r_k
    private unit-variance observations of theta, under a N(0, 1) prior.

    The shared observations occupy the leading r0 coordinates of every
    agent's block, making the cross covariance an identity on that corner.
    """
    K, r0, r = _private_shared_counts(K, r0, r)
    sizes = r0 + r
    sigma = np.eye(int(sizes.sum()))
    shared = np.concatenate([lo + np.arange(r0) for lo in np.cumsum(sizes) - sizes])
    sigma[np.ix_(shared, shared)] = np.tile(np.eye(r0), (K, K))
    H_blocks = tuple(np.ones((n, 1)) for n in sizes)
    return LinearGaussianModel(H_blocks, sigma, [0.0], [[1.0]])


def private_shared_weights(K: int, r0: int, r) -> np.ndarray:
    """Closed-form scalar fusion weights for the private/shared model.

    w_k = 1 - (K-1)/r_k * (1/r0 + sum_j 1/r_j)^{-1}; with no shared
    observations every weight is 1 and fusion is the plain product rule.
    """
    K, r0, r = _private_shared_counts(K, r0, r)
    if r0 == 0:
        return np.ones(K)
    total = 1.0 / float(r0) + float(np.sum(1.0 / r))
    return 1.0 - (K - 1.0) / (r * total)


def multiplicative_posterior_fusion(
    prior: GridDensity, posteriors: OpinionProfile, weights=None
) -> GridDensity:
    """Fuse agent posteriors by the weighted product rule against the prior.

    Computes the normalization of prior^(1 - sum w) * prod post_k^{w_k}.
    All-ones weights give the conditionally-independent fusion rule.
    """
    return multiplicative_pool(posteriors, prior, weights)


def expfam_fuse_statistics(t_list, t0) -> np.ndarray:
    """Sum the local natural statistics onto the prior statistic, all finite vectors of one length."""
    out = finite_vector(t0, np.size(t0), "prior statistic")
    for i, t in enumerate(t_list):
        out += finite_vector(t, out.size, f"statistic {i}")
    return out
