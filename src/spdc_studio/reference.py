"""Published reference values for the source this toolkit models.

The consolidated report compares run artifacts against these numbers.
A few are inputs too: ``spdc-studio visibility`` simulates its sweep from
``SQUEEZING_SLOPE``, the report's bookkeeping rows start from the quoted
powers and count rates, and ``scripts/make_fixtures.py`` fits the
measured-spectrum fixture to the measured Schmidt purity, f11 and f12, so
those rows check arithmetic, not an independent prediction. The JSA,
tomography and time-of-flight physics read none of them.
"""

from __future__ import annotations

import math

__all__ = [
    "OVERLAP_THEORY",
    "OVERLAP_MEASURED",
    "SCHMIDT_PURITY_THEORY",
    "SCHMIDT_PURITY_MEASURED",
    "LOBE_CENTERS_NM",
    "LOBE_WEIGHT_F11",
    "LOBE_WEIGHT_F22",
    "LOBE_COHERENCE_F12",
    "SPECTRUM_CONCURRENCE",
    "SPECTRUM_PURITY",
    "QST_PURITY",
    "QST_CONCURRENCE",
    "QST_FIDELITY",
    "QST_CHSH",
    "VISIBILITY",
    "SINGLES_RATES_HZ",
    "COINCIDENCE_RATE_HZ",
    "GENERATION_RATE_HZ",
    "HERALDING_EFFICIENCY",
    "PEAK_POWER_W",
    "KAPPA_REFERENCE",
    "KAPPA_AT_FULL_POWER",
    "FULL_POWER_W",
    "MU_AT_FULL_POWER",
    "R_AT_FULL_POWER",
    "SQUEEZING_DB_AT_FULL_POWER",
    "SQUEEZING_SLOPE",
    "TOF_RESOLUTION_NM",
    "WALKOFF_FS",
]

# Joint-spectrum results: the overlap between the signal and idler
# single-photon spectra, and the Schmidt-mode purity of the full JSA.
OVERLAP_THEORY = 0.998
OVERLAP_MEASURED = 0.992
SCHMIDT_PURITY_THEORY = 0.496
SCHMIDT_PURITY_MEASURED = 0.494
LOBE_CENTERS_NM = (1548.0, 1572.0)

# Two-lobe decomposition of the measured joint spectrum and the
# polarization density matrix it implies.
LOBE_WEIGHT_F11 = 0.4971
LOBE_WEIGHT_F22 = 0.5028
LOBE_COHERENCE_F12 = -0.4978
SPECTRUM_CONCURRENCE = 0.9956
SPECTRUM_PURITY = 0.9955

# Quantum state tomography of the generated polarization state.
QST_PURITY = 0.948
QST_CONCURRENCE = 0.948
QST_FIDELITY = 0.963
QST_CHSH = 2.747

# Two-photon fringe visibilities, one analyzer fixed per label.
VISIBILITY = {"H": 0.94, "V": 1.00, "D": 0.90, "A": 0.90}

# Count-rate bookkeeping at full pump power.
SINGLES_RATES_HZ = (20e3, 20e3)
COINCIDENCE_RATE_HZ = 6e3
GENERATION_RATE_HZ = SINGLES_RATES_HZ[0] * SINGLES_RATES_HZ[1] / COINCIDENCE_RATE_HZ
HERALDING_EFFICIENCY = COINCIDENCE_RATE_HZ / math.sqrt(
    SINGLES_RATES_HZ[0] * SINGLES_RATES_HZ[1])

# Pump and gain bookkeeping. kappa is the dimensionless coupling quoted
# against a 50 mW / 0.5 reference point; full power is 620 mW average.
PEAK_POWER_W = 80e3
KAPPA_REFERENCE = (0.050, 0.5)
KAPPA_AT_FULL_POWER = 1.8
FULL_POWER_W = 0.620

# Multi-pair emission at full power: mean pair number per pulse and the
# equivalent two-mode squeezing, r = asinh(sqrt(mu)).
MU_AT_FULL_POWER = 0.1
R_AT_FULL_POWER = math.asinh(math.sqrt(MU_AT_FULL_POWER))
SQUEEZING_DB_AT_FULL_POWER = 10.0 * math.log10(math.exp(-2.0 * R_AT_FULL_POWER))

# Squeezing slope r = C sqrt(P) calibrated so full pump power reproduces
# the quoted mean pair number. Used as the forward-model truth when the
# CLI simulates a power sweep.
SQUEEZING_SLOPE = R_AT_FULL_POWER / math.sqrt(FULL_POWER_W)

# Dispersive time-of-flight spectrometer resolution.
TOF_RESOLUTION_NM = 0.83

# Residual polarization walk-off after the compensation crystal.
WALKOFF_FS = 1.3
