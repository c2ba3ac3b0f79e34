"""Time-reversible substitution models (GTR family) and their spectra.

All likelihood kernels in the paper assume the *general time-reversible*
(GTR) model class: the instantaneous rate matrix ``Q`` satisfies detailed
balance ``pi_i Q_ij = pi_j Q_ji``, which (a) makes the likelihood
independent of root placement (the pulley principle the ``evaluate``
kernel relies on) and (b) lets ``Q`` be symmetrised by ``diag(sqrt(pi))``
so its eigendecomposition is real and numerically stable.

The decomposition ``Q = U diag(lambda) U^-1`` is *the* data structure of
the PLF: transition matrices are ``P(t) = U diag(exp(lambda t)) U^-1``
and the branch-length derivative kernels (``derivativeSum`` /
``derivativeCore``) work directly in the eigenbasis, where
``d/dt exp(lambda t)`` is diagonal.

Rates are normalised so one unit of branch length equals one expected
substitution per site, the convention used by RAxML/ExaML.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "SubstitutionModel",
    "jc69",
    "k80",
    "hky85",
    "gtr",
    "poisson_protein",
    "DNA_RATE_ORDER",
]

# RAxML's ordering of the six DNA exchangeability parameters.
DNA_RATE_ORDER = ("AC", "AG", "AT", "CG", "CT", "GT")


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition ``Q = U diag(eigenvalues) U_inv``.

    ``inv_right`` is ``U_inv`` pre-multiplied into nothing — kernels use
    both factors separately: ``newview`` applies full ``P(t)`` matrices,
    while the derivative kernels project CLAs onto the eigenbasis once
    and then evaluate all Newton–Raphson iterations with diagonal
    exponentials only (the computational trick behind the paper's
    ``derivativeSum`` pre-computation).
    """

    eigenvalues: np.ndarray  # (n_states,)
    u: np.ndarray  # (n_states, n_states) right eigenvectors as columns
    u_inv: np.ndarray  # (n_states, n_states)

    def transition_matrix(self, t: float) -> np.ndarray:
        """``P(t) = U diag(exp(lambda t)) U^-1`` for branch length ``t >= 0``."""
        if not t >= 0:  # also refuses NaN
            raise ValueError(f"negative or NaN branch length {t}")
        return (self.u * np.exp(self.eigenvalues * t)) @ self.u_inv

    def transition_matrices(self, ts: np.ndarray) -> np.ndarray:
        """Batched ``P(t)`` for an array of branch lengths, ``(len(ts), s, s)``."""
        ts = np.asarray(ts, dtype=np.float64)
        expo = np.exp(np.multiply.outer(ts, self.eigenvalues))  # (k, s)
        return np.einsum("ij,kj,jl->kil", self.u, expo, self.u_inv)


@dataclass(frozen=True)
class SubstitutionModel:
    """A reversible substitution model: exchangeabilities + frequencies.

    Parameters
    ----------
    name:
        Display name (``"GTR"``, ``"JC69"``...).
    exchangeabilities:
        Upper-triangle symmetric rate multipliers, length
        ``n(n-1)/2`` in row-major upper-triangle order (for DNA:
        AC, AG, AT, CG, CT, GT — :data:`DNA_RATE_ORDER`).
    frequencies:
        Stationary state frequencies ``pi`` (positive, sum to 1).
    """

    name: str
    exchangeabilities: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        ex = np.asarray(self.exchangeabilities, dtype=np.float64)
        pi = np.asarray(self.frequencies, dtype=np.float64)
        n = pi.shape[0]
        if ex.shape != (n * (n - 1) // 2,):
            raise ValueError(
                f"expected {n * (n - 1) // 2} exchangeabilities for {n} states, "
                f"got {ex.shape}"
            )
        if np.any(ex <= 0):
            raise ValueError("exchangeabilities must be positive")
        if np.any(pi <= 0):
            raise ValueError("frequencies must be positive")
        if not np.isclose(pi.sum(), 1.0, atol=1e-8):
            raise ValueError(f"frequencies sum to {pi.sum()}, not 1")
        object.__setattr__(self, "exchangeabilities", ex)
        object.__setattr__(self, "frequencies", pi)

    @property
    def n_states(self) -> int:
        return self.frequencies.shape[0]

    def rate_matrix(self) -> np.ndarray:
        """Normalised GTR rate matrix ``Q`` (rows sum to zero).

        ``Q_ij = s_ij * pi_j`` for ``i != j``, scaled so the expected
        substitution rate ``-sum_i pi_i Q_ii`` equals 1.
        """
        n = self.n_states
        q = np.zeros((n, n), dtype=np.float64)
        iu = np.triu_indices(n, k=1)
        q[iu] = self.exchangeabilities
        q = q + q.T
        q *= self.frequencies[None, :]
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        mean_rate = -float(np.dot(self.frequencies, np.diag(q)))
        return q / mean_rate

    def eigen(self) -> EigenSystem:
        """Real eigendecomposition via pi-symmetrisation.

        ``B = D^{1/2} Q D^{-1/2}`` with ``D = diag(pi)`` is symmetric for
        reversible ``Q``; ``eigh(B)`` then gives orthonormal ``W`` and the
        (real) spectrum, from which ``U = D^{-1/2} W`` and
        ``U^{-1} = W^T D^{1/2}``.
        """
        q = self.rate_matrix()
        sqrt_pi = np.sqrt(self.frequencies)
        b = (sqrt_pi[:, None] * q) / sqrt_pi[None, :]
        lam, w = np.linalg.eigh((b + b.T) / 2.0)
        u = w / sqrt_pi[:, None]
        u_inv = w.T * sqrt_pi[None, :]
        return EigenSystem(eigenvalues=lam, u=u, u_inv=u_inv)

    def with_parameters(
        self,
        exchangeabilities: np.ndarray | None = None,
        frequencies: np.ndarray | None = None,
    ) -> "SubstitutionModel":
        """Copy with some parameters replaced (used by model optimisation)."""
        return SubstitutionModel(
            name=self.name,
            exchangeabilities=(
                self.exchangeabilities if exchangeabilities is None else exchangeabilities
            ),
            frequencies=self.frequencies if frequencies is None else frequencies,
        )


def jc69() -> SubstitutionModel:
    """Jukes–Cantor 1969: equal rates, equal frequencies."""
    return SubstitutionModel("JC69", np.ones(6), np.full(4, 0.25))


def k80(kappa: float = 2.0) -> SubstitutionModel:
    """Kimura 1980: transition/transversion ratio ``kappa``, equal freqs."""
    ex = np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0])
    return SubstitutionModel("K80", ex, np.full(4, 0.25))


def hky85(kappa: float = 2.0, frequencies: np.ndarray | None = None) -> SubstitutionModel:
    """Hasegawa–Kishino–Yano 1985: ``kappa`` plus free base frequencies."""
    if frequencies is None:
        frequencies = np.full(4, 0.25)
    ex = np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0])
    return SubstitutionModel("HKY85", ex, np.asarray(frequencies, dtype=np.float64))


def gtr(
    exchangeabilities: np.ndarray | None = None,
    frequencies: np.ndarray | None = None,
) -> SubstitutionModel:
    """General time-reversible DNA model (the paper's model)."""
    if exchangeabilities is None:
        exchangeabilities = np.ones(6)
    if frequencies is None:
        frequencies = np.full(4, 0.25)
    return SubstitutionModel(
        "GTR",
        np.asarray(exchangeabilities, dtype=np.float64),
        np.asarray(frequencies, dtype=np.float64),
    )


def poisson_protein(frequencies: np.ndarray | None = None) -> SubstitutionModel:
    """Poisson (equal-exchangeability) 20-state protein model.

    Protein support is one of the paper's stated future-work extensions
    (Sec. VII); the kernels are state-count generic, so this model
    exercises the 20-state code paths.
    """
    if frequencies is None:
        frequencies = np.full(20, 0.05)
    return SubstitutionModel(
        "PoissonAA", np.ones(190), np.asarray(frequencies, dtype=np.float64)
    )
