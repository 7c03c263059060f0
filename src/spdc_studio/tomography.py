"""Sixteen-setting two-qubit state tomography.

Forward simulation draws Poisson coincidence counts for the canonical
sixteen projective settings (James et al., PRA 64, 052312 (2001)).
Reconstruction minimizes the Poisson deviance over a full complex factor
T of rho = T T~ / tr(T T~), which keeps every iterate a valid density
matrix, with BFGS on the closed-form gradient, starting from linear
(Stokes) inversion. BFGS is numpy code in scipy, so the fit uses only
numpy's BLAS pool (see ``mle_reconstruct``).

Single-qubit analysis kets, written in the (H, V) basis:

    H = (1, 0)            V = (0, 1)
    D = (H + V)/sqrt(2)   A = (H - V)/sqrt(2)
    R = (H + iV)/sqrt(2)  L = (H - iV)/sqrt(2)

The handedness convention (which circular ket carries +i) varies across
labs; this one is fixed here and used consistently everywhere.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, read_input
from .polarization import PAULI_PRODUCTS, TwoQubitState, _expectations
from .rng import substream

__all__ = [
    "KETS",
    "ProjectorSetting",
    "TomographyRecord",
    "MleResult",
    "standard_16_settings",
    "expected_probability",
    "simulate_counts",
    "linear_inversion",
    "mle_reconstruct",
    "save_records",
    "load_records",
]

_SQRT2 = math.sqrt(2.0)

KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    "L": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
}

# Canonical informationally complete sequence from the standard
# sixteen-measurement recipe.
_SETTING_LABELS = (
    "HH", "HV", "VV", "VH",
    "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD",
    "VD", "VL", "HL", "RL",
)


@dataclass(frozen=True)
class ProjectorSetting:
    """One coincidence setting: a pure analysis ket per arm."""

    label: str
    arm1: np.ndarray
    arm2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("arm1", "arm2"):
            ket = np.asarray(getattr(self, name), dtype=complex)
            if ket.shape != (2,):
                raise ConfigError(f"{name} must be a 2-component ket")
            if abs(np.vdot(ket, ket).real - 1.0) > 1e-9:
                raise ConfigError(f"{name} must be unit-norm")
            object.__setattr__(self, name, ket)

    @property
    def operator(self) -> np.ndarray:
        """Rank-1 coincidence projector P1 x P2."""
        p1 = np.outer(self.arm1, self.arm1.conj())
        p2 = np.outer(self.arm2, self.arm2.conj())
        return np.kron(p1, p2)


@dataclass(frozen=True)
class TomographyRecord:
    """Observed coincidences for one setting."""

    setting: ProjectorSetting
    counts: int
    acquisition_scale: float

    def __post_init__(self) -> None:
        if self.counts < 0:
            raise ConfigError("counts must be non-negative")
        if not (math.isfinite(self.acquisition_scale)
                and self.acquisition_scale > 0):
            raise ConfigError("acquisition_scale must be positive and finite")


@dataclass(frozen=True)
class MleResult:
    state: TwoQubitState
    deviance: float
    iterations: int
    converged: bool


def standard_16_settings() -> list[ProjectorSetting]:
    """The canonical sixteen settings, in acquisition order."""
    return [
        ProjectorSetting(label=lab, arm1=KETS[lab[0]], arm2=KETS[lab[1]])
        for lab in _SETTING_LABELS
    ]


def setting_from_label(label: str) -> ProjectorSetting:
    """Setting for any two-letter combination of H, V, D, A, R, L."""
    if len(label) != 2 or label[0] not in KETS or label[1] not in KETS:
        raise ConfigError(f"unknown setting label {label!r}")
    return ProjectorSetting(label=label, arm1=KETS[label[0]], arm2=KETS[label[1]])


def expected_probability(rho: TwoQubitState, setting: ProjectorSetting) -> float:
    """Born-rule coincidence probability Tr(rho P1 x P2)."""
    p = _expectations(rho.matrix, setting.operator[None])[0]
    return float(np.clip(p, 0.0, 1.0))


def simulate_counts(rho: TwoQubitState, settings: list[ProjectorSetting],
                    pairs_per_setting: float, seed: int
                    ) -> list[TomographyRecord]:
    """Poisson coincidence counts for each setting, deterministic per seed."""
    if not pairs_per_setting > 0:
        raise ConfigError("pairs_per_setting must be positive")
    ops = np.array([s.operator for s in settings]).reshape(-1, 4, 4)
    means = pairs_per_setting * np.clip(_expectations(rho.matrix, ops), 0, 1)
    counts = substream(seed, "tomography.counts").poisson(means)
    return [TomographyRecord(setting=setting, counts=int(n),
                             acquisition_scale=pairs_per_setting)
            for setting, n in zip(settings, counts)]


def linear_inversion(records: list[TomographyRecord]) -> TwoQubitState:
    """Least-squares Stokes inversion of measured frequencies,
    projected onto the physical (PSD, unit-trace) set."""
    if len(records) < 16:
        raise ConfigError(f"need at least 16 records, got {len(records)}")
    ops = np.array([rec.setting.operator for rec in records])
    design = _expectations(ops, PAULI_PRODUCTS) / 4.0
    if np.linalg.matrix_rank(design, tol=1e-8) < 16:
        raise ConfigError("tomography settings are not informationally "
                          "complete (design matrix rank < 16)")
    freqs = np.array([rec.counts / rec.acquisition_scale for rec in records])
    coeffs, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    rho = np.tensordot(coeffs, PAULI_PRODUCTS, axes=1) / 4.0
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    clipped = np.clip(eigvals, 0.0, None)
    if clipped.sum() <= 0:
        clipped = np.ones(4)
    rho = (eigvecs * clipped) @ eigvecs.conj().T
    rho /= np.real(np.trace(rho))
    return TwoQubitState(matrix=rho)


def _deviance(x: np.ndarray, ops: np.ndarray, counts: np.ndarray,
              scales: np.ndarray) -> tuple[float, np.ndarray]:
    """Poisson deviance sum_k [m_k - n_k - n_k log(m_k/n_k)] of the state
    rho = T T~ / tau, tau = tr(T T~), with m_k = N_k p_k = N_k tr(O_k rho),
    and its gradient in x, the complex 4x4 factor T viewed as 32 floats.

    The gradient is X = 2 (G - g 1) T / tau viewed the same way, with
    G = sum_k (N_k - n_k/p_k) O_k and g = tr(G rho) (Rehacek et al.,
    PRA 75, 042108 (2007)).
    """
    t = x.view(complex).reshape(4, 4)
    tau = np.vdot(t, t).real
    rho = t @ t.conj().T / tau
    # the floor keeps n/m finite where a predicted mean underflows
    means = np.maximum(scales * _expectations(rho, ops), 1e-12)
    excess = means - counts
    # term by term: the total of m - n log m, offset by the saturated
    # constant afterwards, cancels to rounding noise above ftol; n = 0
    # contributes m alone
    terms = excess - counts * np.log1p(excess / np.maximum(counts, 1.0))
    g_op = np.einsum("k,kij->ij", scales * excess / means, ops)
    grad = 2.0 * (g_op - np.trace(g_op @ rho).real * np.eye(4)) @ t / tau
    return float(np.sum(terms)), grad.ravel().view(float)


def mle_reconstruct(records: list[TomographyRecord]) -> MleResult:
    """Maximum-likelihood state estimate under the Poisson counting model.

    BFGS minimizes the deviance of ``_deviance`` with its closed-form
    gradient over a full complex factor T; rho = T T~ / tr(T T~) is
    positive and unit trace by construction. The start T0 = V sqrt(L)
    diagonalizes the projected linear inversion mixed with 0.1 % of the
    maximally mixed state: the gradient of a zero column of T is zero, so
    a rank-deficient start would keep its rank. Non-convergence is
    reported through the ``converged`` flag rather than an exception; a
    stop on precision loss counts as non-convergence.

    scipy's BFGS and its line search are numpy code, so the fit touches
    only numpy's BLAS pool, with tiny calls. L-BFGS-B would run its
    compiled core on scipy's separate OpenBLAS pool; where both pools
    span the same cores, handoffs between them stall for a scheduler
    tick, slowing the fit and the numpy products around it.
    """
    init = linear_inversion(records)  # also validates the design
    ops = np.array([rec.setting.operator for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    scales = np.array([rec.acquisition_scale for rec in records], dtype=float)

    eigvals, eigvecs = np.linalg.eigh(0.999 * init.matrix
                                      + 0.001 * np.eye(4) / 4.0)
    t0 = eigvecs * np.sqrt(eigvals)
    result = minimize(_deviance, t0.ravel().view(float),
                      args=(ops, counts, scales), jac=True, method="BFGS",
                      options={"maxiter": 2000, "gtol": 1e-4})

    t = result.x.view(complex).reshape(4, 4)
    rho = t @ t.conj().T
    return MleResult(
        state=TwoQubitState(matrix=rho / np.trace(rho).real),
        deviance=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
    )


def save_records(records: list[TomographyRecord], path: str | Path) -> None:
    """CSV with columns label,counts,acquisition_scale."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "counts", "acquisition_scale"])
        for rec in records:
            writer.writerow([rec.setting.label, rec.counts,
                             f"{rec.acquisition_scale:.17g}"])


def load_records(path: str | Path) -> list[TomographyRecord]:
    reader = csv.DictReader(io.StringIO(read_input(path, "records file"),
                                        newline=""))
    if reader.fieldnames != ["label", "counts", "acquisition_scale"]:
        raise ConfigError(
            f"{path}: expected header label,counts,acquisition_scale"
        )
    records = []
    for row in reader:
        try:
            records.append(TomographyRecord(
                setting=setting_from_label(row["label"]),
                counts=int(row["counts"]),
                acquisition_scale=float(row["acquisition_scale"]),
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed row {row}: {exc}") from exc
    if not records:
        raise ConfigError(f"{path}: no tomography records found")
    return records
