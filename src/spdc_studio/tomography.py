"""Sixteen-setting two-qubit state tomography.

Forward simulation draws Poisson coincidence counts for the canonical
sixteen projective settings; reconstruction runs a maximum-likelihood fit
over a Cholesky-style parameterization that keeps every iterate a valid
density matrix, seeded by linear (Stokes) inversion.

Single-qubit analysis kets, written in the (H, V) basis:

    H = (1, 0)            V = (0, 1)
    D = (H + V)/sqrt(2)   A = (H - V)/sqrt(2)
    R = (H + iV)/sqrt(2)  L = (H - iV)/sqrt(2)

The handedness convention (which circular ket carries +i) varies across
labs; this one is fixed here and used consistently everywhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError
from .polarization import PAULI, TwoQubitState
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
        if not self.acquisition_scale > 0:
            raise ConfigError("acquisition_scale must be positive")


@dataclass(frozen=True)
class MleResult:
    state: TwoQubitState
    neg_log_likelihood: float
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
    p = float(np.real(np.trace(rho.matrix @ setting.operator)))
    return min(max(p, 0.0), 1.0)


def simulate_counts(rho: TwoQubitState, settings: list[ProjectorSetting],
                    pairs_per_setting: float, seed: int
                    ) -> list[TomographyRecord]:
    """Poisson coincidence counts for each setting, deterministic per seed."""
    if not pairs_per_setting > 0:
        raise ConfigError("pairs_per_setting must be positive")
    rng = substream(seed, "tomography.counts")
    records = []
    for setting in settings:
        mean = pairs_per_setting * expected_probability(rho, setting)
        records.append(TomographyRecord(
            setting=setting,
            counts=int(rng.poisson(mean)),
            acquisition_scale=pairs_per_setting,
        ))
    return records


def _pauli_basis() -> np.ndarray:
    ops = []
    for s1 in "ixyz":
        for s2 in "ixyz":
            ops.append(np.kron(PAULI[s1], PAULI[s2]))
    return np.array(ops)


def _design_matrix(records: list[TomographyRecord]) -> np.ndarray:
    basis = _pauli_basis()
    design = np.empty((len(records), 16))
    for k, rec in enumerate(records):
        op = rec.setting.operator
        for a in range(16):
            design[k, a] = float(np.real(np.trace(basis[a] @ op))) / 4.0
    return design


def linear_inversion(records: list[TomographyRecord]) -> TwoQubitState:
    """Least-squares Stokes inversion of measured frequencies,
    projected onto the physical (PSD, unit-trace) set."""
    if len(records) < 16:
        raise ConfigError(f"need at least 16 records, got {len(records)}")
    design = _design_matrix(records)
    if np.linalg.matrix_rank(design, tol=1e-8) < 16:
        raise ConfigError("tomography settings are not informationally "
                          "complete (design matrix rank < 16)")
    freqs = np.array([rec.counts / rec.acquisition_scale for rec in records])
    coeffs, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    rho = np.tensordot(coeffs, _pauli_basis(), axes=1) / 4.0
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    clipped = np.clip(eigvals, 0.0, None)
    if clipped.sum() <= 0:
        clipped = np.ones(4)
    rho = (eigvecs * clipped) @ eigvecs.conj().T
    rho /= np.real(np.trace(rho))
    return TwoQubitState(matrix=rho)


_TRIL_ROWS, _TRIL_COLS = np.tril_indices(4, k=-1)


def _params_to_t(t: np.ndarray) -> np.ndarray:
    tri = np.zeros((4, 4), dtype=complex)
    tri[np.diag_indices(4)] = t[:4]
    tri[_TRIL_ROWS, _TRIL_COLS] = t[4:10] + 1j * t[10:16]
    return tri


def _t_to_params(tri: np.ndarray) -> np.ndarray:
    t = np.empty(16)
    t[:4] = np.real(np.diag(tri))
    off = tri[_TRIL_ROWS, _TRIL_COLS]
    t[4:10] = off.real
    t[10:16] = off.imag
    return t


def _rho_of(t: np.ndarray) -> np.ndarray:
    tri = _params_to_t(t)
    rho = tri @ tri.conj().T
    return rho / np.real(np.trace(rho))


def mle_reconstruct(records: list[TomographyRecord]) -> MleResult:
    """Maximum-likelihood state estimate under the Poisson counting model.

    Minimizes sum_k [N_k p_k - n_k log(N_k p_k)] over a triangular-factor
    parameterization rho = T T~ / Tr(T T~), which is positive and unit
    trace by construction. Initialized from the projected linear
    inversion. Non-convergence is reported through the ``converged`` flag
    rather than an exception.
    """
    init = linear_inversion(records)  # also validates the design
    ops = np.array([rec.setting.operator for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    scales = np.array([rec.acquisition_scale for rec in records], dtype=float)

    # small admixture of the maximally mixed state keeps the Cholesky
    # factor well-defined when the linear inversion is rank-deficient
    rho0 = 0.999 * init.matrix + 0.001 * np.eye(4) / 4.0
    t0 = _t_to_params(np.linalg.cholesky(rho0))

    floor = 1e-12

    def nll(t: np.ndarray) -> float:
        rho = _rho_of(t)
        probs = np.real(np.einsum("kij,ji->k", ops, rho))
        means = np.clip(scales * probs, floor, None)
        return float(np.sum(means - counts * np.log(means)))

    result = minimize(nll, t0, method="L-BFGS-B",
                      options={"maxiter": 2000, "ftol": 1e-10, "gtol": 1e-9})

    state = TwoQubitState(matrix=_rho_of(result.x))
    return MleResult(
        state=state,
        neg_log_likelihood=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
    )


def save_records(records: list[TomographyRecord], path: str | Path) -> None:
    """CSV with columns label,counts,acquisition_scale."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "counts", "acquisition_scale"])
        for rec in records:
            writer.writerow([rec.setting.label, rec.counts,
                             f"{rec.acquisition_scale:.17g}"])


def load_records(path: str | Path) -> list[TomographyRecord]:
    if not Path(path).exists():
        raise ConfigError(f"{path}: no such records file")
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["label", "counts", "acquisition_scale"]:
            raise ConfigError(
                f"{path}: expected header label,counts,acquisition_scale"
            )
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
