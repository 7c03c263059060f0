"""Two-qubit polarization states and entanglement metrics.

States live in the basis order (HH, HV, VH, VV). Constructors cover the
ideal Bell projectors, Werner mixtures, and the physically central route:
building the polarization density matrix from the 2x2 spectral lobe-overlap
matrix after the frequency degree of freedom is traced out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BASIS_LABELS",
    "PAULI",
    "BellKind",
    "TwoQubitState",
    "MetricReport",
    "bell_state",
    "werner_state",
    "rho_from_lobes",
    "purity",
    "concurrence",
    "fidelity",
    "chsh_max",
    "analyzer_projector",
    "predicted_visibility",
    "trace_distance",
    "metric_report",
]

BASIS_LABELS = ("HH", "HV", "VH", "VV")

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PSD_TOL = 1e-9
_HERMITIAN_TOL = 1e-10


class BellKind(enum.Enum):
    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"
    PHI_MINUS = "phi_minus"
    PHI_PLUS = "phi_plus"


_BELL_VECTORS = {
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
}


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated 4x4 density matrix in the (HH, HV, VH, VV) basis.

    Construction enforces Hermiticity, unit trace, and positivity.
    Eigenvalues above -1e-9 are treated as numerical noise, clipped to zero
    with the state renormalized; anything more negative is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise ConfigError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.all(np.isfinite(rho.view(float))):
            raise ConfigError("density matrix contains non-finite entries")
        if np.linalg.norm(rho - rho.conj().T) > _HERMITIAN_TOL:
            raise ConfigError("density matrix is not Hermitian")
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > 1e-9:
            raise ConfigError(f"density matrix trace is {trace}, expected 1")
        rho = 0.5 * (rho + rho.conj().T)
        eigvals, eigvecs = np.linalg.eigh(rho)
        if eigvals[0] < -_PSD_TOL:
            raise ConfigError(
                f"density matrix has eigenvalue {eigvals[0]:.3e} below the "
                f"-{_PSD_TOL} positivity tolerance"
            )
        if eigvals[0] < 0:
            clipped = np.clip(eigvals, 0.0, None)
            rho = (eigvecs * clipped) @ eigvecs.conj().T
            rho = rho / np.real(np.trace(rho))
        object.__setattr__(self, "matrix", rho)

    def to_json_dict(self) -> dict:
        return {
            "basis": list(BASIS_LABELS),
            "matrix": [[[float(z.real), float(z.imag)] for z in row]
                       for row in self.matrix],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TwoQubitState":
        try:
            entries = payload["matrix"]
            rho = np.array([[complex(re, im) for re, im in row]
                            for row in entries])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed density-matrix JSON: {exc}") from exc
        basis = payload.get("basis")
        if basis is not None and list(basis) != list(BASIS_LABELS):
            raise ConfigError(f"unsupported basis order {basis}")
        return cls(matrix=rho)


def bell_state(kind: BellKind) -> TwoQubitState:
    """Pure Bell projector. PSI_MINUS carries the minus sign on VH."""
    vec = _BELL_VECTORS[kind]
    return TwoQubitState(matrix=np.outer(vec, vec.conj()))


def werner_state(p: float) -> TwoQubitState:
    """p |psi-><psi-| + (1 - p) I/4 for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("Werner mixing parameter must lie in [0, 1]")
    rho = p * bell_state(BellKind.PSI_MINUS).matrix + (1.0 - p) * np.eye(4) / 4.0
    return TwoQubitState(matrix=rho)


def rho_from_lobes(f_mn: np.ndarray) -> TwoQubitState:
    """Polarization state left after tracing out frequency.

    ``f_mn`` is the 2x2 lobe-overlap matrix [[f11, f12], [f21, f22]] of a
    normalized two-lobe JSA. The result occupies the {HV, VH} block:

        rho[HV, HV] = f11   rho[HV, VH] = f21
        rho[VH, HV] = f12   rho[VH, VH] = f22

    For the ideal antisymmetric spectrum (f12 = -1/2) this is exactly the
    psi-minus projector.
    """
    f_mn = np.asarray(f_mn, dtype=complex)
    if f_mn.shape != (2, 2):
        raise ConfigError("lobe-overlap matrix must be 2x2")
    f11, f12 = f_mn[0, 0], f_mn[0, 1]
    f21, f22 = f_mn[1, 0], f_mn[1, 1]
    if abs(f11.imag) > 1e-9 or abs(f22.imag) > 1e-9:
        raise ConfigError("diagonal lobe overlaps must be real")
    if abs(f11 + f22 - 1.0) > 1e-6:
        raise ConfigError("lobe overlaps must satisfy f11 + f22 = 1")
    if abs(f12 - np.conj(f21)) > 1e-9:
        raise ConfigError("lobe overlaps must satisfy f12 = conj(f21)")
    if abs(f12) > math.sqrt(max(f11.real * f22.real, 0.0)) + 1e-9:
        raise ConfigError(
            "inconsistent lobe overlaps: |f12| exceeds sqrt(f11 f22)"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = f11
    rho[1, 2] = f21
    rho[2, 1] = f12
    rho[2, 2] = f22
    return TwoQubitState(matrix=rho)


def purity(rho: TwoQubitState) -> float:
    """Tr(rho^2)."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def concurrence(rho: TwoQubitState) -> float:
    """Wootters concurrence, 0 (separable) to 1 (Bell state)."""
    yy = np.kron(PAULI["y"], PAULI["y"])
    r = rho.matrix @ yy @ rho.matrix.conj() @ yy
    eigvals = np.linalg.eigvals(r)
    lams = np.sqrt(np.clip(np.real(eigvals), 0.0, None))
    lams = np.sort(lams)[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T


def fidelity(rho: TwoQubitState, target: TwoQubitState) -> float:
    """Uhlmann fidelity; reduces to <psi|rho|psi> for a pure target."""
    if purity(target) > 1.0 - 1e-9:
        return float(np.real(np.trace(rho.matrix @ target.matrix)))
    s = _psd_sqrt(rho.matrix)
    inner = _psd_sqrt(s @ target.matrix @ s)
    return float(np.real(np.trace(inner)) ** 2)


def correlation_matrix(rho: TwoQubitState) -> np.ndarray:
    """T_ij = Tr(rho sigma_i x sigma_j) for i, j in (x, y, z)."""
    t = np.empty((3, 3))
    for i, si in enumerate("xyz"):
        for j, sj in enumerate("xyz"):
            op = np.kron(PAULI[si], PAULI[sj])
            t[i, j] = float(np.real(np.trace(rho.matrix @ op)))
    return t


def chsh_max(rho: TwoQubitState) -> float:
    """Largest CHSH value over all analyzer settings.

    S = 2 sqrt(m1 + m2) with m1 >= m2 the two largest eigenvalues of
    T^T T, where T is the Pauli correlation matrix.
    """
    t = correlation_matrix(rho)
    m = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return float(2.0 * math.sqrt(max(m[0] + m[1], 0.0)))


def _analyzer(theta: float) -> np.ndarray:
    """Plus/minus polarization analyzer: +1 along theta, -1 perpendicular."""
    return (math.cos(2 * theta) * PAULI["z"]
            + math.sin(2 * theta) * PAULI["x"])


def analyzer_projector(theta: float) -> np.ndarray:
    """Projector onto linear polarization at ``theta`` radians from H."""
    return 0.5 * (PAULI["i"] + _analyzer(theta))


_BASIS_ANGLES = {
    "H": 0.0, "V": math.pi / 2, "D": math.pi / 4, "A": 3 * math.pi / 4,
}


def predicted_visibility(rho: TwoQubitState, basis: str) -> float:
    """Fringe visibility with one analyzer fixed on the given basis angle.

    ``basis`` picks the fixed analyzer: H, V, D or A. The coincidence
    probability as the second analyzer rotates is
    p(theta) = (K0 + Kz cos 2theta + Kx sin 2theta)/2 with
    K_s = Tr(rho P1 x sigma_s), so V = sqrt(Kz^2 + Kx^2)/K0 in closed
    form, no angle sweep needed.
    """
    if basis not in _BASIS_ANGLES:
        raise ConfigError(f"unknown basis {basis!r}, expected one of "
                          f"{sorted(_BASIS_ANGLES)}")
    p1 = analyzer_projector(_BASIS_ANGLES[basis])

    def coeff(op2: np.ndarray) -> float:
        return float(np.real(np.trace(rho.matrix @ np.kron(p1, op2))))

    k0 = coeff(PAULI["i"])
    if k0 < 1e-12:
        raise ConfigError("fixed analyzer sits on a dark state; no fringe")
    swing = math.hypot(coeff(PAULI["z"]), coeff(PAULI["x"]))
    return swing / k0


def trace_distance(rho: TwoQubitState, sigma: TwoQubitState) -> float:
    """Half the trace norm of rho - sigma."""
    eigvals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(eigvals)))


@dataclass(frozen=True)
class MetricReport:
    """The headline entanglement metrics of one state."""

    purity: float
    concurrence: float
    fidelity_to_target: float
    chsh_s: float


def metric_report(rho: TwoQubitState) -> MetricReport:
    """Bundle purity, concurrence, fidelity to psi-minus and CHSH S."""
    return MetricReport(
        purity=purity(rho),
        concurrence=concurrence(rho),
        fidelity_to_target=fidelity(rho, bell_state(BellKind.PSI_MINUS)),
        chsh_s=chsh_max(rho),
    )
