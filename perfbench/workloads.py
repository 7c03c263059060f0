"""The benchmark workloads: inputs drawn from the seed, one timed pass, and
the checks on its outputs.

Every call into the package goes through a module attribute
(``optics.compute_jsa``, not a name imported from it), so that the traced
run sees the same calls through its wrappers.

A workload object is built once per process. ``prepare`` makes the inputs
(untimed), ``run_pass`` is the timed unit of work, and ``check`` inspects a
pass's outputs (untimed). Operations and checks are counted in a ``Ledger``.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

from spdc_studio import (cli, config, fixtures, grid_io, measurement, optics,
                         polarization, spectral)

# Expected values of the output checks. They restate the report bands and
# the acceptance criteria; the smoke test replaces one to see it fail.
REPORT_TOTALS = "Totals: 28 pass, 0 fail, 0 not run."
DEFAULT_OVERLAP_MIN = 0.995
DEFAULT_PURITY = (0.5, 0.01)
LOBE_WEIGHT_SUM_TOL = 1e-9
TOF_CENTER_TOL_NM = 0.3
TOF_OVERLAP_MIN = 0.98


class Ledger:
    """Counts operations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; a raised exception is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self._fail(f"operation {label}: {traceback.format_exc()}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check {label} failed {detail}".rstrip())

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(message, file=sys.stderr)


# --------------------------------------------------------------- pipeline

_PIPELINE_ARTIFACTS = ("simulate-jsa/summary.json", "analyze-jsi/summary.json",
                       "tomography/report.json", "tomography/rho.json",
                       "visibility/squeezing.json")


# The CLI runs at its default seed, the run for which the package promises
# "28 pass, 0 fail, 0 not run". The report grades simulated data against
# fixed bands, so at other seeds shot noise can put a row outside its band
# without any fault in the code: at seed 259755429 the likelihood maximum
# itself has purity 0.934, against 0.948 +/- 0.01 (truth 0.947), and the
# MLE reaches it. The benchmark seed therefore does not reach the CLI.
PIPELINE_CLI_SEED = "0"


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spdc-studio {' '.join(argv)} exited {code}")


class Pipeline:
    """The five commands of scripts/run_full_pipeline.py, in process, at
    the CLI's default seed."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = PIPELINE_CLI_SEED
        self.work_dir = work_dir
        self.reference_hashes: dict[str, str] | None = None

    def prepare(self) -> None:
        self.jsi_path = str(fixtures.measured_jsi_path())

    def run_pass(self, ledger: Ledger, index: int) -> Path:
        out = self.work_dir / f"pass-{index}"
        s = self.seed
        for argv in (
                ["simulate-jsa", "--seed", s, "--out", f"{out}/simulate-jsa"],
                ["analyze-jsi", self.jsi_path, "--out", f"{out}/analyze-jsi"],
                ["tomography", "--simulate", "reference-fixture",
                 "--seed", s, "--out", f"{out}/tomography"],
                ["visibility", "--seed", s, "--out", f"{out}/visibility"],
                ["report", str(out), "--out", f"{out}/report"]):
            ledger.op(argv[0], _run_cli, argv)
        return out

    def check(self, ledger: Ledger, out: Path) -> None:
        report = out / "report" / "report.md"
        totals = report.read_text().splitlines()[-1] if report.exists() else ""
        ledger.check("report totals", totals == REPORT_TOTALS, repr(totals))
        hashes = {}
        for name in _PIPELINE_ARTIFACTS:
            path = out / name
            hashes[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                            if path.exists() else None)
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        for name, digest in hashes.items():
            ledger.check(f"{name} byte-identical across passes",
                         digest is not None
                         and digest == self.reference_hashes[name])
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- spectra

class Spectra:
    """Source-design sweep through the library: JSA assembly, Schmidt SVD,
    lobe analysis, the domain-sampled PMF, a TOF round trip and a grid
    read-back."""

    n_designs = 6
    tof_pairs = 1_000_000

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        configs = [config.RunConfig()]
        for _ in range(self.n_designs):
            configs.append(config.RunConfig(
                pump=optics.PumpSpec(
                    bandwidth_fwhm=rng.uniform(6.0, 8.0) * 1e-9),
                crystal=optics.CrystalSpec(pmf_a=rng.uniform(2600.0, 2800.0),
                                           temperature=rng.uniform(20.0, 30.0))))
        self.designs = []
        for cfg in configs:
            lam1, lam2 = optics.design_lobe_wavelengths(
                cfg.crystal, cfg.pump, window=cfg.window)
            self.designs.append((cfg, 0.5 * (lam1 + lam2)))
        self.grid = config.make_grid(configs[0])
        default_jsa = optics.compute_jsa(self.grid, configs[0].crystal,
                                         configs[0].pump)
        self.written = spectral.jsi_of(default_jsa)
        self.jsi_path = self.work_dir / "jsi.csv"
        grid_io.save_jsi_csv(self.jsi_path, self.written)

    def _design(self, cfg, cut: float) -> dict:
        jsa = optics.compute_jsa(self.grid, cfg.crystal, cfg.pump)
        sr = spectral.schmidt(jsa)
        lobes = spectral.split_lobes(jsa, cut)
        f = spectral.lobe_overlap_matrix(lobes)
        spectral.single_lobe_purity(lobes, "f1")
        spectral.single_lobe_purity(lobes, "f2")
        polarization.metric_report(polarization.rho_from_lobes(f))
        return {"jsa": jsa, "purity": sr.purity, "f": f,
                "overlap": spectral.overlap_integral(jsa)}

    def _domains(self) -> optics.JsaGrid:
        cfg = self.designs[0][0]
        return optics.compute_jsa(self.grid, cfg.crystal, cfg.pump,
                                  pmf_mode=optics.PmfMode.FROM_DOMAINS)

    def _tof(self, jsa) -> dict:
        fiber, det = measurement.FiberSpec(), measurement.DetectorSpec()
        direct = spectral.lobe_metrics(spectral.jsi_of(jsa), 1560e-9)
        hist = measurement.tof_simulate(jsa, fiber, det, self.tof_pairs,
                                        self.seed)
        recon = measurement.tof_reconstruct(hist, fiber, det)
        return {"direct": direct,
                "recon": spectral.lobe_metrics(recon, 1560e-9),
                "overlap": spectral.overlap_integral(
                    spectral.jsa_from_jsi(recon))}

    def _readback(self) -> dict:
        jsi = grid_io.load_jsi_csv(self.jsi_path)
        jsa = spectral.jsa_from_jsi(jsi)
        spectral.schmidt(jsa)
        f = spectral.lobe_overlap_matrix(spectral.split_lobes(jsa, 1560e-9))
        polarization.metric_report(polarization.rho_from_lobes(f))
        spectral.overlap_integral(jsa)
        return {"jsi": jsi, "jsa": jsa, "f": f}

    def run_pass(self, ledger: Ledger, index: int) -> dict:
        designs = [ledger.op(f"design {k}", self._design, cfg, cut)
                   for k, (cfg, cut) in enumerate(self.designs)]
        out = {"designs": designs,
               "domains": ledger.op("domain-sampled JSA", self._domains),
               "readback": ledger.op("jsi.csv read-back", self._readback)}
        if designs[0] is not None:
            out["tof"] = ledger.op("TOF round trip", self._tof,
                                   designs[0]["jsa"])
        return out

    def check(self, ledger: Ledger, out: dict) -> None:
        default = out["designs"][0]
        if default is not None:
            ledger.check("default overlap",
                         default["overlap"] >= DEFAULT_OVERLAP_MIN,
                         f"{default['overlap']:.6f}")
            target, tol = DEFAULT_PURITY
            ledger.check("default Schmidt purity",
                         abs(default["purity"] - target) <= tol,
                         f"{default['purity']:.6f}")
        for k, d in enumerate(out["designs"] + [out["readback"]]):
            if d is None:
                continue
            ledger.check(f"JSA {k} finite",
                         bool(np.all(np.isfinite(d["jsa"].amplitude))))
            weight = float(d["f"][0, 0].real + d["f"][1, 1].real)
            ledger.check(f"JSA {k} f11 + f22 = 1",
                         abs(weight - 1.0) <= LOBE_WEIGHT_SUM_TOL,
                         f"{weight!r}")
        if out["domains"] is not None:
            ledger.check("domain-sampled JSA finite",
                         bool(np.all(np.isfinite(out["domains"].amplitude))))
        if out["readback"] is not None:
            ledger.check("jsi.csv reads back bit-exactly", np.array_equal(
                out["readback"]["jsi"].intensity, self.written.intensity))
        tof = out.get("tof")
        if tof is not None:
            for side in ("short", "long"):
                shift = abs(tof["recon"][side]["center_nm"]
                            - tof["direct"][side]["center_nm"])
                ledger.check(f"TOF {side} lobe centre",
                             shift <= TOF_CENTER_TOL_NM, f"{shift:.4f} nm")
            ledger.check("TOF overlap", tof["overlap"] >= TOF_OVERLAP_MIN,
                         f"{tof['overlap']:.5f}")


WORKLOADS = {"pipeline": Pipeline, "spectra": Spectra}
