"""Dense complex linear algebra: validated states and measurements, and
stacked effect products.

States, measurement effects and observables are plain ``numpy`` arrays of
``complex128``; the light dataclasses below (:class:`Ket`,
:class:`DensityMatrix`, :class:`Povm`) add construction-time validation and
freeze their arrays so every value is immutable after construction.  Past
that boundary, effects are stacked as ``[input, outcome, i, j]`` arrays.  All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# Centralized tolerances.  Dimensions in play are at most a few thousand, so
# double precision leaves ample headroom.
STRUCTURAL_TOL = 1e-10   # POVM positivity/completeness, density-matrix PSD floor
HERMITIAN_TOL = 1e-12    # max |M - M^dagger| for Hermitian-flagged matrices
NORM_TOL = 1e-12         # ket norm / density trace deviation
IMAG_TOL = 1e-8          # largest tolerated imaginary residue of a probability

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# Diagonal/antidiagonal measurement directions saturating the CHSH maximum.
SIGMA_PLUS = (SIGMA_Z + SIGMA_X) / np.sqrt(2.0)
SIGMA_MINUS = (SIGMA_Z - SIGMA_X) / np.sqrt(2.0)


def _frozen(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square 2-D complex array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionMismatch("matrix dimension must be >= 1")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def hermiticity_defect(arr: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each coerced matrix of ``arr[..., d, d]`` from its adjoint."""
    return np.abs(arr - arr.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def require_hermitian(m, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    arr = as_complex_matrix(m)
    defect = hermiticity_defect(arr)
    if defect > tol:
        raise NotHermitian(f"{what} deviates from Hermiticity by {defect:.3e}")
    return arr


def stack_effects(povms) -> np.ndarray:
    """Effects of a POVM list as one array indexed ``[input, outcome, i, j]``."""
    return np.array([p.effects for p in povms])


def effect_products(alice, bob) -> np.ndarray:
    """Stacked effect products ``K[x, y, a, b] = alice[x, a] (x) bob[y, b]``
    with the left factor most significant.  This broadcast multiply matches
    ``np.kron`` bit for bit; ``einsum`` does not on complex effects."""
    (m_a, o_a, d_a, _), (m_b, o_b, d_b, _) = alice.shape, bob.shape
    products = alice[:, None, :, None, :, None, :, None] * bob[None, :, None, :, None, :, None, :]
    return products.reshape(m_a, m_b, o_a, o_b, d_a * d_b, d_a * d_b)


@dataclass(frozen=True)
class Ket:
    """Normalized pure-state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise DimensionMismatch("ket dimension must be >= 1")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("ket contains NaN or Inf amplitudes")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _frozen(arr))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def _check_density(arr: np.ndarray) -> None:
    """Raise unless every coerced matrix of ``arr[..., d, d]`` is Hermitian, of unit trace and
    positive semidefinite: each rule in turn over the whole stack, naming its worst offender."""
    defect = hermiticity_defect(arr).max()
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"density matrix deviates from Hermiticity by {defect:.3e}")
    trace = max(np.trace(arr, axis1=-2, axis2=-1).ravel().tolist(), key=lambda t: abs(t - 1.0))
    if abs(trace - 1.0) > NORM_TOL:
        raise ValueError(f"density matrix trace {trace} deviates from 1")
    min_eig = np.linalg.eigvalsh((arr + arr.conj().swapaxes(-1, -2)) / 2)[..., 0].min()
    if min_eig < -STRUCTURAL_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = as_complex_matrix(self.matrix)
        _check_density(arr)
        object.__setattr__(self, "matrix", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """Ordered list of measurement effects, one per outcome: Hermitian
    matrices of one dimension with eigenvalues in [-tol, 1 + tol] that sum to
    the identity within ``tol = STRUCTURAL_TOL`` entrywise."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(as_complex_matrix(e) for e in self.effects)
        if not effects:
            raise ValueError("invalid POVM: no effects given")
        dim = effects[0].shape[0]
        for k, e in enumerate(effects):
            if e.shape[0] != dim:
                raise ValueError(f"invalid POVM: effect {k}: dimension {e.shape[0]} != {dim}")
            defect = hermiticity_defect(e)
            if defect > STRUCTURAL_TOL:
                raise ValueError(f"invalid POVM: effect {k}: not Hermitian (defect {defect:.3e})")
            eigs = np.linalg.eigvalsh((e + e.conj().T) / 2)
            if eigs[0] < -STRUCTURAL_TOL:
                raise ValueError(f"invalid POVM: effect {k}: negative eigenvalue {eigs[0]:.3e}")
            if eigs[-1] > 1 + STRUCTURAL_TOL:
                raise ValueError(f"invalid POVM: effect {k}: eigenvalue {eigs[-1]:.6f} exceeds 1")
        defect = float(np.max(np.abs(sum(effects) - np.eye(dim))))
        if defect > STRUCTURAL_TOL:
            raise ValueError("invalid POVM: completeness: effects sum deviates from "
                             f"identity by {defect:.3e}")
        object.__setattr__(self, "effects", tuple(_frozen(e) for e in effects))

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


def povm_from_observable(observable) -> Povm:
    """Two-outcome projective POVM of a +/-1 observable.  Outcome index 0
    corresponds to eigenvalue +1 throughout the package."""
    obs = require_hermitian(observable, what="observable")
    eye = np.eye(obs.shape[0])
    return Povm(((eye + obs) / 2, (eye - obs) / 2))


def maximally_entangled_ket(local_dim: int = 2) -> Ket:
    """The state sum_k |kk> / sqrt(d) on a d x d bipartite space: the identity, flattened."""
    return Ket(np.eye(local_dim).ravel() / np.sqrt(local_dim))
