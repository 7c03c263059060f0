"""Sixteen-setting two-qubit state tomography.

Forward simulation draws Poisson coincidence counts for the canonical
sixteen projective settings (James et al., PRA 64, 052312 (2001)).
Reconstruction minimizes the Poisson deviance over a full complex factor
T of rho = T T~ / tr(T T~), which keeps every iterate a valid density
matrix. It starts from linear (Stokes) inversion and takes damped Newton
(Levenberg-Marquardt) steps on the deviance's exact Hessian, in numpy
(see ``minimize``).

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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, open_input
from .polarization import PAULI_PRODUCTS, TwoQubitState, _expectations
from .rng import substream

__all__ = [
    "KETS",
    "ProjectorSetting",
    "TomographyRecord",
    "MleResult",
    "standard_16_settings",
    "check_pairs",
    "simulate_counts",
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

# the most counts a record may hold: the fit reads them as floats, whose
# integers are exact up to here
_MAX_COUNTS = 2**53
# the most pairs per setting: numpy's Poisson sampler takes means up to
# about 9.2e18, and the fit's deviance overflows past about 1e154
MAX_PAIRS = 1e18
_MAX_PAIRS_SHOWN = f"{MAX_PAIRS:.0e}".replace("+", "")  # "1e18"

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
    """One coincidence setting, named by its two analysis kets: ``label``
    is two letters over ``KETS``, arm 1 first."""

    label: str

    def __post_init__(self) -> None:
        if not (isinstance(self.label, str) and len(self.label) == 2
                and set(self.label) <= KETS.keys()):
            raise ConfigError(f"unknown setting label {self.label!r}")


def _projectors(settings: list[ProjectorSetting]) -> np.ndarray:
    """The settings' projectors P1 x P2 = |a1 a2><a1 a2|, one (n, 4, 4)
    stack built in one pass."""
    arms = np.array([[KETS[c] for c in s.label] for s in settings])
    arms = arms.reshape(-1, 2, 2)
    kets = (arms[:, 0, :, None] * arms[:, 1, None, :]).reshape(-1, 4)
    return kets[:, :, None] * kets[:, None, :].conj()


@dataclass(frozen=True)
class TomographyRecord:
    """Observed coincidences for one setting."""

    setting: ProjectorSetting
    counts: int
    acquisition_scale: float

    def __post_init__(self) -> None:
        if self.counts < 0:
            raise ConfigError("counts must be non-negative")
        scale = self.acquisition_scale
        # the frequency counts / scale seeds the fit
        if not (0 < scale <= MAX_PAIRS and math.isfinite(self.counts / scale)):
            raise ConfigError(f"acquisition_scale must be positive and "
                              f"finite, at most {_MAX_PAIRS_SHOWN}, with "
                              f"counts / acquisition_scale finite, got {scale}")


@dataclass(frozen=True)
class MleResult:
    state: TwoQubitState
    deviance: float
    iterations: int
    converged: bool


def standard_16_settings() -> list[ProjectorSetting]:
    """The canonical sixteen settings, in acquisition order."""
    return [ProjectorSetting(lab) for lab in _SETTING_LABELS]


def check_pairs(pairs: float, name: str) -> None:
    """ConfigError naming ``name`` unless 0 < ``pairs`` <= MAX_PAIRS."""
    if not 0 < pairs <= MAX_PAIRS:
        raise ConfigError(f"{name} must be positive and finite, at most "
                          f"{_MAX_PAIRS_SHOWN}, got {pairs}")


def simulate_counts(rho: TwoQubitState, settings: list[ProjectorSetting],
                    pairs_per_setting: float, seed: int
                    ) -> list[TomographyRecord]:
    """Poisson coincidence counts for each setting, deterministic per seed."""
    check_pairs(pairs_per_setting, "pairs_per_setting")
    ops = _projectors(settings)
    means = pairs_per_setting * np.clip(_expectations(rho.matrix, ops), 0, 1)
    counts = substream(seed, "tomography.counts").poisson(means)
    if np.any(counts > _MAX_COUNTS):  # load_records would refuse them
        raise ConfigError(f"{pairs_per_setting:g} pairs per setting drew a "
                          f"count of {counts.max()}, which exceeds 2**53, "
                          f"the most a record holds")
    return [TomographyRecord(setting=setting, counts=int(n),
                             acquisition_scale=pairs_per_setting)
            for setting, n in zip(settings, counts)]


def _stokes_inversion(ops: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Least-squares Stokes inversion of the frequencies measured with the
    projector stack ``ops``, projected onto the physical (PSD, unit-trace)
    set: the density matrix ``mle_reconstruct`` starts from."""
    design = _expectations(ops, PAULI_PRODUCTS) / 4.0
    coeffs, _, _, singular = np.linalg.lstsq(design, freqs, rcond=None)
    if np.count_nonzero(singular > 1e-8) < 16:
        raise ConfigError("tomography settings are not informationally "
                          "complete (design matrix rank < 16)")
    rho = np.tensordot(coeffs, PAULI_PRODUCTS, axes=1) / 4.0
    rho = 0.5 * (rho + rho.conj().T)
    eigvals, eigvecs = np.linalg.eigh(rho)
    clipped = np.clip(eigvals, 0.0, None)
    if clipped.sum() <= 0:
        clipped = np.ones(4)
    rho = (eigvecs * clipped) @ eigvecs.conj().T
    return rho / np.real(np.trace(rho))


# the 32 unit vectors of the floats of T, as complex 4x4 matrices
_UNIT_FACTORS = np.eye(32).view(complex).reshape(32, 4, 4)


def _deviance(x: np.ndarray, ops: np.ndarray, counts: np.ndarray,
              scales: np.ndarray, hessian: bool = False) -> tuple:
    """Poisson deviance sum_k [m_k - n_k - n_k log(m_k/n_k)] of the state
    rho = T T~ / tau, tau = tr(T T~), with m_k = N_k p_k = N_k tr(O_k rho),
    and its gradient in x, the complex 4x4 factor T viewed as 32 floats;
    with ``hessian``, also its Hessian in x.

    The gradient is X = 2 (G - g 1) T / tau viewed the same way, with
    G = sum_k (N_k - n_k/p_k) O_k and g = tr(G rho) (Rehacek et al.,
    PRA 75, 042108 (2007)). The Hessian is
    J_w^T J_w + (2/tau) [L(G - g 1) - x X^T - X x^T]: the rows of J_w are
    (N_k sqrt(n_k) / m_k) dp_k/dx, with dp_k/dx = 2 (O_k - p_k) T / tau
    viewed as 32 floats, and L(M) is the real 32x32 matrix of T -> M T.
    """
    t = x.view(complex).reshape(4, 4)
    tau = np.vdot(t, t).real
    rho = t @ t.conj().T / tau
    probs = _expectations(rho, ops)
    # the floor keeps n/m finite where a predicted mean underflows
    means = np.maximum(scales * probs, 1e-12)
    excess = means - counts
    # term by term: the total of m - n log m, offset by the saturated
    # constant afterwards, cancels to rounding noise above the stopping
    # tolerance; n = 0 contributes m alone. log(m/n) is log1p(m/n - 1)
    # near m = n, but log(m/n) itself where m << n, since there m/n - 1
    # can round to -1
    ratio = excess / np.maximum(counts, 1.0)
    far = ratio < -0.5
    log_ratio = np.log1p(np.where(far, 0.0, ratio))
    log_ratio[far] = np.log(means[far] / counts[far])
    terms = excess - counts * log_ratio
    value = float(np.sum(terms))
    g_op = np.einsum("k,kij->ij", scales * excess / means, ops)
    shifted = g_op - np.trace(g_op @ rho).real * np.eye(4)
    grad = (2.0 * shifted @ t / tau).ravel().view(float)
    if not hessian:
        return value, grad
    dp = 2.0 * (ops @ t - probs[:, None, None] * t) / tau
    jw = ((scales * np.sqrt(counts) / means)[:, None]
          * dp.reshape(len(ops), 16).view(float))
    lmat = (shifted @ _UNIT_FACTORS).reshape(32, 16).view(float).T
    cross = np.outer(x, grad)
    hess = jw.T @ jw + (2.0 / tau) * (lmat - cross - cross.T)
    return value, grad, hess


class NewtonResult(NamedTuple):
    """``minimize``'s result, with the field names of scipy's."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def minimize(fun, x0: np.ndarray, args: tuple,
             options: dict) -> NewtonResult:
    """Minimize ``fun`` by damped Newton (Levenberg-Marquardt) steps on its
    exact Hessian; ``fun(x, *args, hessian=True)`` returns the value, the
    gradient g and the Hessian H. ``options["maxiter"]`` caps the
    iterations.

    A trial step s solves (H + lam 1) s = -g, with lam at least 1e-12 of
    max |H| and the smallest normal float, and large enough that H + lam 1
    has a Cholesky factor; while it has none, lam <- max(4 lam, 1e-6 max
    |H|), so lam grows even where H underflows to zero. For the deviance
    the floor covers the 17-dimensional gauge T -> c T U, along which it is
    constant: g has no component there beyond rounding, so neither has s.
    A step is taken when it gains more than 0.1 of the model's predicted
    decrease -(g.s + s.H.s / 2); otherwise lam grows the same way and s is
    solved again. After a step that gains more than 0.75 of the
    prediction, lam /= 4. The fit has converged when a step's decrease,
    or a predicted decrease, is at most 1e-14 max(1, f), and f is finite;
    a step predicted to gain no more is the last, and is kept unless it
    raises f by more than that. A non-finite max |H|, lam, trial value or
    predicted decrease ends the fit as not converged.

    The shift is found by Cholesky rather than from the spectrum of H: at
    32 rows numpy's ``eigh`` runs LAPACK's divide and conquer, whose
    threaded BLAS calls stall for milliseconds when another process holds
    the second core.
    """
    maxiter = options["maxiter"]
    x = np.array(x0, dtype=float)
    f, grad, hess = fun(x, *args, hessian=True)
    nit, nfev, lam, converged = 0, 1, 0.0, False
    while not converged and nit < maxiter:
        nit += 1
        scale = np.abs(hess).max()
        tol = 1e-14 * max(1.0, f)
        while True:
            lam = max(lam, 1e-12 * scale, np.finfo(float).tiny)
            if not (math.isfinite(scale) and math.isfinite(lam)):
                return NewtonResult(x, f, nit, nfev, False)
            shifted = hess + lam * np.eye(x.size)
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:  # H + lam 1 is not positive
                lam = max(4.0 * lam, 1e-6 * scale)
                continue
            step = np.linalg.solve(shifted, -grad)
            # -(g.s + s.H.s / 2), with s.H.s = -g.s - lam s.s
            predicted = 0.5 * (lam * (step @ step) - grad @ step)
            trial = x + step
            f_trial, g_trial, h_trial = fun(trial, *args, hessian=True)
            nfev += 1
            if not (math.isfinite(f_trial) and math.isfinite(predicted)):
                return NewtonResult(x, f, nit, nfev, False)
            decrease = f - f_trial
            # a step predicted to gain at most tol is the last one
            converged = predicted <= tol
            if decrease > 0.1 * predicted or converged:
                break
            lam = max(4.0 * lam, 1e-6 * scale)
        if decrease >= -tol:
            x, f, grad, hess = trial, f_trial, g_trial, h_trial
        converged = converged or decrease <= tol
        if decrease > 0.75 * predicted:
            lam /= 4.0
    return NewtonResult(x, f, nit, nfev, converged and math.isfinite(f))


def mle_reconstruct(records: list[TomographyRecord]) -> MleResult:
    """Maximum-likelihood state estimate under the Poisson counting model.

    ``minimize`` takes damped Newton steps on the deviance of ``_deviance``,
    with its closed-form gradient and Hessian, over a full complex factor
    T; rho = T T~ / tr(T T~) is positive and unit trace by construction.
    The start T0 = V sqrt(L) diagonalizes the projected linear inversion
    mixed with 0.1 % of the maximally mixed state: the gradient of a zero
    column of T is zero, so a rank-deficient start would keep its rank.
    Non-convergence within 100 iterations is reported through the
    ``converged`` flag rather than an exception.
    """
    if len(records) < 16:
        raise ConfigError(f"need at least 16 records, got {len(records)}")
    ops = _projectors([rec.setting for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    scales = np.array([rec.acquisition_scale for rec in records], dtype=float)
    init = _stokes_inversion(ops, counts / scales)  # validates the design

    eigvals, eigvecs = np.linalg.eigh(0.999 * init + 0.001 * np.eye(4) / 4.0)
    t0 = eigvecs * np.sqrt(eigvals)
    result = minimize(_deviance, t0.ravel().view(float),
                      args=(ops, counts, scales), options={"maxiter": 100})

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
    with open_input(path, "records file") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["label", "counts", "acquisition_scale"]:
            raise ConfigError(
                f"{path}: expected header label,counts,acquisition_scale"
            )
        records = []
        for row in reader:
            try:
                records.append(TomographyRecord(
                    setting=ProjectorSetting(row["label"]),
                    counts=int(row["counts"]),
                    acquisition_scale=float(row["acquisition_scale"]),
                ))
                if records[-1].counts > _MAX_COUNTS:
                    raise ValueError(f"counts must be at most 2**53, got "
                                     f"{records[-1].counts}")
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: malformed row {row}: {exc}"
                                  ) from exc
    if not records:
        raise ConfigError(f"{path}: no tomography records found")
    return records
