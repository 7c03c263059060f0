#!/usr/bin/env python3
"""Regenerate the data files bundled with the package.

Two artifacts are produced under src/spdc_studio/data:

* qst_reference_state.json -- polarization density matrix assembled from
  a small set of frozen X-state parameters (lobe populations, inter-lobe
  coherence magnitude and phase, residual HH/VV terms), projected onto
  the physical cone and renormalized.

* measured_jsi.csv -- synthetic stand-in for a dispersive time-of-flight
  measurement of the two-lobe joint spectrum. Two round super-Gaussian
  lobes with a slight width mismatch and amplitude imbalance, blurred to
  the 0.83 nm instrument resolution; the shape parameters are tuned so
  the standard analysis pipeline reproduces the reference lobe weights,
  coherence and Schmidt purity.

qst_reference_state.json regenerates byte for byte. measured_jsi.csv
regenerates only to rounding: the shape fit runs on BLAS and LAPACK, whose
rounding depends on the thread count and the host, so cells move by about
1e-14 of the peak (tests/test_grid_io.py holds them within 1e-12). Run the
script after changing either recipe and commit the regenerated files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.optimize import least_squares

from spdc_studio import reference
from spdc_studio.grid_io import save_jsi_csv
from spdc_studio.optics import TWO_PI_C, FrequencyGrid
from spdc_studio.polarization import (TwoQubitState, metric_report,
                                      predicted_visibility)
from spdc_studio.spectral import JsiGrid, jsa_from_jsi, two_lobe_summary

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "spdc_studio" / "data"

# ------------------------------------------------------- tomography state

# Frozen X-state parameters. e1/e2 are the residual HH/VV populations,
# dq splits the HV/VH balance, m and phi set the inter-lobe coherence,
# g the small HH<->VV coherence.
QST_PARAMS = {
    "e1": 0.014077,
    "e2": 0.004624,
    "dq": 0.016847,
    "m": 0.482178,
    "phi_deg": 12.4103,
    "g": 0.008069,
}


def build_reference_state(params: dict = QST_PARAMS) -> TwoQubitState:
    e1, e2 = params["e1"], params["e2"]
    q = (1.0 - e1 - e2) / 2.0
    m = params["m"]
    phi = np.deg2rad(params["phi_deg"])
    g = params["g"]

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = e1
    rho[1, 1] = q + params["dq"] / 2.0
    rho[2, 2] = q - params["dq"] / 2.0
    rho[3, 3] = e2
    rho[1, 2] = -m * np.exp(-1j * phi)
    rho[2, 1] = np.conj(rho[1, 2])
    rho[0, 3] = rho[3, 0] = g

    # the raw parameter set sits a hair outside the physical cone
    # (smallest eigenvalue about -5e-7); project and renormalize
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * vals) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return TwoQubitState(matrix=rho)


def write_reference_state() -> None:
    state = build_reference_state()
    payload = {"schema_version": 1, **state.to_json_dict()}
    path = DATA_DIR / "qst_reference_state.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

    rep = metric_report(state)
    print(f"wrote {path}")
    print(f"  purity      {rep['purity']:.4f} (ref {reference.QST_PURITY})")
    print(f"  concurrence {rep['concurrence']:.4f} (ref {reference.QST_CONCURRENCE})")
    print(f"  fidelity    {rep['fidelity_psi_minus']:.4f} (ref {reference.QST_FIDELITY})")
    print(f"  CHSH S      {rep['chsh_s']:.4f} (ref {reference.QST_CHSH})")
    for basis in ("H", "V", "D", "A"):
        v = predicted_visibility(state, basis)
        print(f"  V_{basis}         {v:.4f} (ref {reference.VISIBILITY[basis]})")


# --------------------------------------------------------- measured JSI

GRID_SAMPLES = 240
WINDOW_NM = (1500.0, 1620.0)
CENTERS_NM = (1548.0, 1572.0)
CUT_NM = 1560.0
LOBE_FWHM_NM = 13.0
BLUR_FWHM_NM = reference.TOF_RESOLUTION_NM


def synth_jsi(p: float, w2: float, a2: float) -> JsiGrid:
    """Two-lobe intensity: exponent p, lobe-2 width scale w2, amplitude a2."""
    grid = FrequencyGrid.wavelength_window(WINDOW_NM[0] * 1e-9,
                                           WINDOW_NM[1] * 1e-9, GRID_SAMPLES)
    lam_s = TWO_PI_C / grid.signal_axis[:, None] * 1e9
    lam_i = TWO_PI_C / grid.idler_axis[None, :] * 1e9
    c1, c2 = CENTERS_NM
    half = 0.5 * LOBE_FWHM_NM / (np.log(2.0) / 2.0) ** (1.0 / (2.0 * p))

    def blob(center_s: float, center_i: float, scale: float) -> np.ndarray:
        z = ((lam_s - center_s) ** 2 + (lam_i - center_i) ** 2) / (scale * half) ** 2
        return np.exp(-z**p)

    amp = blob(c1, c2, 1.0) - a2 * blob(c2, c1, w2)
    intensity = amp**2

    dlam = float(np.abs(np.diff(lam_s[:, 0])).mean())
    sigma_cells = (BLUR_FWHM_NM / 2.3548) / dlam
    intensity = gaussian_filter(intensity, sigma_cells, mode="constant")
    return JsiGrid(grid=grid, intensity=intensity / intensity.max())


def pipeline_metrics(jsi: JsiGrid) -> dict:
    summary = two_lobe_summary(jsa_from_jsi(jsi), CUT_NM * 1e-9)
    f_mn = summary["f_mn"].real
    return {"purity": summary["schmidt_purity"], "f11": f_mn[0, 0],
            "f22": f_mn[1, 1], "f12": f_mn[0, 1],
            "eta": summary["overlap_integral"]}


def tune_jsi() -> tuple[JsiGrid, dict]:
    targets = (reference.SCHMIDT_PURITY_MEASURED, reference.LOBE_COHERENCE_F12,
               reference.LOBE_WEIGHT_F11)

    def residuals(x: np.ndarray) -> list[float]:
        m = pipeline_metrics(synth_jsi(x[0], x[1], x[2]))
        return [m["purity"] - targets[0], m["f12"] - targets[1],
                m["f11"] - targets[2]]

    fit = least_squares(residuals, x0=[1.75, 1.097, 1.006],
                        bounds=([1.05, 1.0, 0.9], [3.0, 1.5, 1.1]),
                        xtol=1e-10, ftol=1e-12, diff_step=1e-4)
    p, w2, a2 = fit.x
    jsi = synth_jsi(p, w2, a2)
    metrics = pipeline_metrics(jsi)
    print(f"tuned lobes: p={p:.6f} w2={w2:.6f} a2={a2:.6f} "
          f"(residual norm {np.linalg.norm(fit.fun):.2e})")
    return jsi, metrics


def write_measured_jsi() -> None:
    jsi, metrics = tune_jsi()
    path = DATA_DIR / "measured_jsi.csv"
    save_jsi_csv(path, jsi, comment=(
        "synthetic two-lobe joint spectral intensity, blurred to the "
        "0.83 nm time-of-flight resolution"))
    print(f"wrote {path}")
    print(f"  Schmidt purity {metrics['purity']:.4f} "
          f"(ref {reference.SCHMIDT_PURITY_MEASURED})")
    print(f"  f11 {metrics['f11']:.4f} (ref {reference.LOBE_WEIGHT_F11})")
    print(f"  f22 {metrics['f22']:.4f} (ref {reference.LOBE_WEIGHT_F22})")
    print(f"  f12 {metrics['f12']:.4f} (ref {reference.LOBE_COHERENCE_F12})")
    print(f"  overlap {metrics['eta']:.4f} (ref {reference.OVERLAP_MEASURED})")


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    write_reference_state()
    write_measured_jsi()
    return 0


if __name__ == "__main__":
    sys.exit(main())
