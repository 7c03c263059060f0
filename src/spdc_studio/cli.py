"""Command-line front end.

Five subcommands cover the standard workflow:

* ``simulate-jsa``  build the designed joint spectral amplitude, save it
  exactly as ``jsa.npy`` and run the two-lobe analysis on it at the design
  cut.
* ``analyze-jsi``   the same two-lobe analysis, down to the polarization
  density matrix it implies, of a joint spectral intensity CSV file.
* ``tomography``    sixteen-setting coincidence tomography, either on
  simulated counts or on a records file, with MLE reconstruction.
* ``visibility``    pump-power sweep of two-photon visibility and the
  squeezing parameters inferred from it.
* ``report``        one markdown table comparing prior run artifacts with
  the published reference values.

All outputs are deterministic for a given config and seed: JSON is
written with sorted keys, no timestamps are recorded, and every random
draw goes through named substreams of the run seed.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, fixtures, grid_io, reference
from .config import COMMAND_SAMPLES, load_run_config, make_grid
from .errors import ConfigError, ConvergenceError, read_json
from .measurement import (DetectorSpec, FiberSpec, RateRecord,
                          estimate_squeezing, multipair_visibility,
                          rates_summary, tof_resolution)
from .optics import (CrystalSpec, JsaGrid, PumpSpec, compute_jsa,
                     coupling_coefficient, design_lobe_wavelengths,
                     peak_power, temporal_walkoff, transform_limited_fwhm)
from .polarization import (BellKind, TwoQubitState, bell_state,
                           metric_report, predicted_visibility,
                           rho_from_lobes, trace_distance, werner_state)
from .rng import check_seed
from .spectral import jsa_from_jsi, two_lobe_summary
from .tomography import (load_records, mle_reconstruct, save_records,
                         simulate_counts, standard_16_settings)

SCHEMA_VERSION = 1
_N_TRIALS = 200_000
_DEFAULT_POWERS_MW = "50,155,310,620"

_ARTIFACTS = {
    "simulate-jsa": "summary.json",
    "analyze-jsi": "summary.json",
    "tomography": "report.json",
    "visibility": "squeezing.json",
}


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    # json encodes np.float64 as a float; arrays and numpy ints and bools
    # go through tolist
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=lambda obj: obj.tolist()) + "\n",
                    encoding="utf-8")


def _out_dir(path: str | None, command: str) -> Path:
    """Create and return the output directory, ``runs/<command>`` unless
    ``path`` names one. Commands call it only once their input checks have
    passed, so a run that exits 2 leaves none."""
    out = Path(path or Path("runs") / command)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc
    return out


# ---------------------------------------------------------------- commands

def _two_lobe_summary(jsa: JsaGrid, cut: float) -> dict:
    """The two-lobe analysis shared by ``simulate-jsa`` and ``analyze-jsi``:
    ``spectral.two_lobe_summary`` of ``jsa`` at the signal cut wavelength
    ``cut`` (m) as JSON, with the polarization state its f_mn implies.
    """
    summary = two_lobe_summary(jsa, cut)
    f_mn = summary["f_mn"]
    rho = rho_from_lobes(f_mn)
    f11, f22, f12 = float(f_mn[0, 0].real), float(f_mn[1, 1].real), f_mn[0, 1]
    return {
        **summary,
        "f_mn": {"f11": f11, "f22": f22,
                 "f12": [float(f12.real), float(f12.imag)]},
        "concurrence_bound": 2.0 * math.sqrt(max(f11 * f22, 0.0)),
        **metric_report(rho),
        "visibility": {b: predicted_visibility(rho, b)
                       for b in ("H", "V", "D", "A")},
    }


_NPY_BLOCK = 64  # rows per block written to jsa.npy


def _save_complex_npy(path: Path, amplitude: np.ndarray) -> None:
    """Store ``amplitude`` exactly, as complex128 whatever its in-memory
    dtype, with the bytes of ``np.save(path, amplitude.astype(complex))``:
    the format's version 1.0 header, then one block of rows at a time, so
    no whole complex copy is made. The summary's "grid" block rebuilds its
    axes."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
              "fortran_order": False, "shape": amplitude.shape}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, amplitude.shape[0], _NPY_BLOCK):
            fh.write(amplitude[start:start + _NPY_BLOCK].astype(complex))


def cmd_simulate_jsa(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, samples=args.samples, seed=args.seed,
                          output_dir=args.out)
    jsa = compute_jsa(make_grid(cfg), cfg.crystal, cfg.pump)
    lam1, lam2 = cfg.design_lobes
    cut = 0.5 * (lam1 + lam2)
    summary = {
        "command": "simulate-jsa",
        "seed": cfg.seed,
        "grid": {"samples": cfg.samples,
                 "window_nm": list(cfg.window_nm)},
        "design_lobe_centers_nm": [lam1 * 1e9, lam2 * 1e9],
        "cut_nm": cut * 1e9,
        "walkoff_fs": {
            "h_short_v_long": temporal_walkoff(cfg.crystal, lam1, lam2) * 1e15,
            "h_long_v_short": temporal_walkoff(cfg.crystal, lam2, lam1) * 1e15,
        },
        **_two_lobe_summary(jsa, cut),
    }
    out = _out_dir(cfg.output_dir, "simulate-jsa")
    _save_complex_npy(out / "jsa.npy", jsa.amplitude)
    _write_json(out / _ARTIFACTS["simulate-jsa"], summary)
    print(f"simulate-jsa: overlap {summary['overlap_integral']:.6f}, "
          f"Schmidt purity {summary['schmidt_purity']:.6f} -> {out}")
    return 0


def cmd_analyze_jsi(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.cut_nm) and args.cut_nm > 0):
        raise ConfigError(f"--cut-nm must be positive and finite, "
                          f"got {args.cut_nm}")
    cut = args.cut_nm * 1e-9
    jsa = jsa_from_jsi(grid_io.load_jsi_csv(args.jsi_file))
    summary = {
        "command": "analyze-jsi",
        "input": Path(args.jsi_file).name,
        "cut_nm": args.cut_nm,
        **_two_lobe_summary(jsa, cut),
    }
    out = _out_dir(args.out, "analyze-jsi")
    _write_json(out / _ARTIFACTS["analyze-jsi"], summary)
    print(f"analyze-jsi: concurrence {summary['concurrence']:.6f}, "
          f"purity {summary['purity']:.6f} -> {out}")
    return 0


def _simulated_state(label: str):
    if label == "psi-minus":
        return bell_state(BellKind.PSI_MINUS)
    if label == "reference-fixture":
        return fixtures.load_reference_state()
    if label.startswith("werner:"):
        try:
            p = float(label.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad Werner parameter in {label!r}") from exc
        return werner_state(p)
    raise ConfigError(
        f"unknown --simulate target {label!r}; expected psi-minus, "
        f"reference-fixture, or werner:<p>")


def cmd_tomography(args: argparse.Namespace) -> int:
    n = args.n_per_setting
    # numpy's Poisson sampler takes means up to about 9.2e18
    if n is not None and not 0 < n <= 1e18:
        raise ConfigError(f"--n-per-setting must be positive and finite, "
                          f"at most 1e18, got {n}")

    truth = None
    if args.records is not None:
        if n is not None:
            raise ConfigError(
                "--n-per-setting sets the pairs of simulated counts and "
                "cannot be combined with --records, whose acquisition_scale "
                "column gives the pairs per setting")
        records = load_records(args.records)
        source = f"records:{Path(args.records).name}"
        # the records' own pairs per setting; null when they differ
        scales = {rec.acquisition_scale for rec in records}
        n = scales.pop() if len(scales) == 1 else None
    else:
        if args.state_file is not None:
            doc = read_json(args.state_file, "state file")
            try:
                truth = TwoQubitState.from_json_dict(doc)
            except ConfigError as exc:
                raise ConfigError(f"{args.state_file}: {exc}") from exc
            source = f"state-file:{Path(args.state_file).name}"
        else:
            truth = _simulated_state(args.simulate)
            source = f"simulate:{args.simulate}"
        if n is None:
            n = 1e5
        records = simulate_counts(truth, standard_16_settings(), n,
                                  args.seed)

    result = mle_reconstruct(records)
    if not result.converged:
        raise ConvergenceError("MLE reconstruction did not converge")

    report = {
        "command": "tomography",
        "source": source,
        "seed": args.seed,
        "n_per_setting": n,
        "converged": result.converged,
        "iterations": result.iterations,
        "deviance": result.deviance,
        **metric_report(result.state),
        "visibility": {b: predicted_visibility(result.state, b)
                       for b in ("H", "V", "D", "A")},
    }
    if truth is not None:
        report["truth"] = {
            **metric_report(truth),
            "trace_distance_to_reconstruction":
                trace_distance(result.state, truth),
        }
    # the report is whole before the directory is made: a reconstruction
    # with a dark analyzer port exits 2 and must leave none
    out = _out_dir(args.out, "tomography")
    if truth is not None:
        save_records(records, out / "records.csv")
    _write_json(out / "rho.json", result.state.to_json_dict())
    _write_json(out / _ARTIFACTS["tomography"], report)
    print(f"tomography: S {report['chsh_s']:.4f}, concurrence "
          f"{report['concurrence']:.4f} ({result.iterations} iterations) "
          f"-> {out}")
    return 0


def _parse_powers(text: str) -> list[float]:
    try:
        powers = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --powers list {text!r}: {exc}") from exc
    if not powers:
        raise ConfigError("--powers list is empty")
    # by 1 kW the sampled visibility is 0; far past it sinh^2(r) overflows
    if not all(0 < p <= 1e6 for p in powers):
        raise ConfigError(f"pump powers must be positive and finite, at most "
                          f"1e6 mW, got {text!r}")
    # each power keys its point in squeezing.json
    keys = [f"{p:g}" for p in powers]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"pump power {key} mW appears more than once "
                              f"in --powers {text!r}")
    return powers


def cmd_visibility(args: argparse.Namespace) -> int:
    powers_mw = _parse_powers(args.powers)
    det = DetectorSpec()

    observed = []
    for k, mw in enumerate(powers_mw):
        r_true = reference.SQUEEZING_SLOPE * math.sqrt(mw * 1e-3)
        v_hv = multipair_visibility(r_true, det, _N_TRIALS, args.seed,
                                    stream=f"visibility.hv.{k}")
        v_da = multipair_visibility(r_true, det, _N_TRIALS, args.seed,
                                    stream=f"visibility.da.{k}")
        observed.append((mw, v_hv, v_da))

    est = estimate_squeezing([(mw * 1e-3, v_hv) for mw, v_hv, _ in observed],
                             det)
    # one power gives its own slope, more are fit by least squares
    fit_method = "least_squares" if len(observed) > 1 else "per_point"

    points = {}
    for (mw, v_hv, v_da), inv in zip(observed, est["points"]):
        points[f"{mw:g}"] = {
            "pump_power_mw": mw,
            "visibility_hv": v_hv,
            "visibility_da": v_da,
            "r": inv["r"],
            "mu": inv["mu"],
            "squeezing_db": inv["squeezing_db"],
        }
    out = _out_dir(args.out, "visibility")

    c_fit = est["C_per_sqrt_w"]
    _write_json(out / _ARTIFACTS["visibility"], {
        "command": "visibility",
        "seed": args.seed,
        "n_trials": _N_TRIALS,
        "fit_method": fit_method,
        "C_per_sqrt_w": c_fit,
        "points": points,
    })
    top = max(points.values(), key=lambda p: p["pump_power_mw"])
    print(f"visibility: C {c_fit:.4f} /sqrt(W); at "
          f"{top['pump_power_mw']:g} mW mu {top['mu']:.4f}, "
          f"{top['squeezing_db']:.3f} dB -> {out}")
    return 0


# ------------------------------------------------------------------ report

def _band(target: float, tol: float, shown: str = "{} +/- {}"):
    """A reference text, ``shown`` filled in with ``target`` and ``tol``,
    and the check it prints: |value - target| <= tol."""
    return shown.format(target, tol), lambda v: abs(v - target) <= tol


def _report_templates() -> list[tuple]:
    """The artifact rows: command, quantity, the keys leading to its value
    in the command's artifact, reference text and check."""
    ref = reference
    full_mw = f"{ref.FULL_POWER_W * 1e3:g}"
    # reconstruction noise at 1e5 pairs/setting adds to the published
    # tolerance, hence the wider band than the direct fringe-scan check
    visibilities = [
        ("tomography", f"visibility, {b} analyzer fixed", ("visibility", b),
         *_band(ref.VISIBILITY[b], 0.04, "{} +/- {} (reconstructed)"))
        for b in ("H", "V", "D", "A")]
    return [
        ("simulate-jsa", "spectral overlap (designed JSA)",
         ("overlap_integral",),
         f"{ref.OVERLAP_THEORY} (pass: >= 0.995)", lambda v: v >= 0.995),
        ("simulate-jsa", "Schmidt purity (designed JSA)", ("schmidt_purity",),
         *_band(ref.SCHMIDT_PURITY_THEORY, 0.01)),
        ("simulate-jsa", "short lobe peak (nm)", ("lobes", "short", "peak_nm"),
         *_band(ref.LOBE_CENTERS_NM[0], 1)),
        ("simulate-jsa", "long lobe peak (nm)", ("lobes", "long", "peak_nm"),
         *_band(ref.LOBE_CENTERS_NM[1], 1)),
        ("analyze-jsi", "spectral overlap (measured JSI)",
         ("overlap_integral",), *_band(ref.OVERLAP_MEASURED, 0.003)),
        ("analyze-jsi", "Schmidt purity (measured JSI)", ("schmidt_purity",),
         *_band(ref.SCHMIDT_PURITY_MEASURED, 0.01)),
        ("analyze-jsi", "lobe weight f11", ("f_mn", "f11"),
         *_band(ref.LOBE_WEIGHT_F11, 0.002)),
        ("analyze-jsi", "lobe weight f22", ("f_mn", "f22"),
         *_band(ref.LOBE_WEIGHT_F22, 0.002)),
        ("analyze-jsi", "lobe coherence Re f12", ("f_mn", "f12", 0),
         *_band(ref.LOBE_COHERENCE_F12, 0.002)),
        ("analyze-jsi", "concurrence from spectrum", ("concurrence",),
         *_band(ref.SPECTRUM_CONCURRENCE, 0.002)),
        ("analyze-jsi", "purity from spectrum", ("purity",),
         *_band(ref.SPECTRUM_PURITY, 0.003)),
        ("tomography", "reconstructed purity", ("purity",),
         *_band(ref.QST_PURITY, 0.01)),
        ("tomography", "reconstructed concurrence", ("concurrence",),
         *_band(ref.QST_CONCURRENCE, 0.01)),
        ("tomography", "fidelity to psi-minus", ("fidelity_psi_minus",),
         *_band(ref.QST_FIDELITY, 0.01)),
        ("tomography", "CHSH S", ("chsh_s",), *_band(ref.QST_CHSH, 0.03)),
        *visibilities,
        ("visibility", "squeezing slope C (1/sqrt W)", ("C_per_sqrt_w",),
         f"{ref.SQUEEZING_SLOPE:.4f} +/- 5%",
         lambda v: abs(v - ref.SQUEEZING_SLOPE) <= 0.05 * ref.SQUEEZING_SLOPE),
        ("visibility", f"mean pair number at {full_mw} mW",
         ("points", full_mw, "mu"), *_band(ref.MU_AT_FULL_POWER, 0.02)),
        ("visibility", f"squeezing at {full_mw} mW (dB)",
         ("points", full_mw, "squeezing_db"),
         *_band(ref.SQUEEZING_DB_AT_FULL_POWER, 0.15, "{:.3f} +/- {}")),
    ]


def _artifact_value(doc, keys: tuple, path: Path, label: str
                    ) -> float | None:
    """The value ``keys`` lead to in ``doc``, as a float; None when one of
    them is missing. A value that is not a finite JSON number raises
    ConfigError naming ``path``."""
    value = doc
    try:
        for key in keys:
            value = value[key]
    except KeyError:
        return None
    except (TypeError, IndexError) as exc:
        # a container on its way (the artifact too) is of the wrong kind
        raise ConfigError(f"{path}: cannot read {label}: {exc}") from exc
    # a bool is an int subclass; json also decodes NaN, +-Infinity and
    # integers past the float range, which the comparison rejects
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: {label} must be a finite JSON number, "
                          f"got {json.dumps(value)}")
    return float(value)


def _computed_rows() -> list[tuple]:
    """The derived rows: quantity, value, reference text and check."""
    ref = reference
    pump, crystal = PumpSpec(), CrystalSpec()
    rates = rates_summary(RateRecord(ref.SINGLES_RATES_HZ[0],
                                     ref.SINGLES_RATES_HZ[1],
                                     ref.COINCIDENCE_RATE_HZ))
    lam1, lam2 = design_lobe_wavelengths(crystal, pump)
    return [
        ("peak pump power (kW)",
         peak_power(pump, transform_limited_fwhm(pump)) / 1e3,
         *_band(ref.PEAK_POWER_W / 1e3, 5, "{:g} +/- {}")),
        ("coupling kappa at full power",
         coupling_coefficient(ref.FULL_POWER_W, ref.KAPPA_REFERENCE),
         *_band(ref.KAPPA_AT_FULL_POWER, 0.05)),
        ("pair generation rate (kHz)", rates["generation_rate_hz"] / 1e3,
         *_band(ref.GENERATION_RATE_HZ / 1e3, 0.5, "{:.1f} +/- {}")),
        ("heralding efficiency", rates["heralding_efficiency"],
         *_band(ref.HERALDING_EFFICIENCY, 0.005)),
        ("TOF spectrometer resolution (nm)",
         tof_resolution(FiberSpec(), DetectorSpec()) * 1e9,
         *_band(ref.TOF_RESOLUTION_NM, 0.01)),
        ("residual walk-off (fs)",
         abs(temporal_walkoff(crystal, lam1, lam2)) * 1e15,
         f"{ref.WALKOFF_FS} published (pass: <= 5)", lambda v: v <= 5.0),
    ]


def cmd_report(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs_dir)
    artifacts = {}
    for command, filename in _ARTIFACTS.items():
        path = runs_dir / command / filename
        artifacts[command] = (read_json(path, "run artifact")
                              if path.exists() else None)

    if all(v is None for v in artifacts.values()):
        expected = ", ".join(str(runs_dir / c / f)
                             for c, f in _ARTIFACTS.items())
        raise ConfigError(f"no run artifacts under {runs_dir}; expected any "
                          f"of: {expected}")

    lines = [
        "# spdc-studio consolidated report",
        "",
        f"Artifacts read from `{runs_dir}`. Each row compares this build's "
        f"output with the published reference value for the source.",
        "",
        "| quantity | this run | reference | status |",
        "|---|---|---|---|",
    ]
    counts = {"pass": 0, "fail": 0, "not run": 0}

    def row(label, value, ref_text, check):
        status = ("not run" if value is None
                  else "pass" if check(value) else "fail")
        counts[status] += 1
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"| {label} | {shown} | {ref_text} | {status} |")

    for command, label, keys, ref_text, check in _report_templates():
        doc = artifacts[command]
        row(label, None if doc is None else _artifact_value(
            doc, keys, runs_dir / command / _ARTIFACTS[command], label),
            ref_text, check)

    lines += ["", "## derived bookkeeping", "",
              "| quantity | this build | reference | status |",
              "|---|---|---|---|"]
    for computed in _computed_rows():
        row(*computed)

    lines += ["", "## artifacts", ""]
    for command, filename in _ARTIFACTS.items():
        state = "found" if artifacts[command] is not None else "missing"
        lines.append(f"- `{command}/{filename}`: {state}")
    lines += ["",
              f"Totals: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['not run']} not run.", ""]

    out = _out_dir(args.out, "report")
    (out / "report.md").write_text("\n".join(lines), encoding="utf-8")
    print(f"report: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['not run']} not run -> {out / 'report.md'}")
    return 0


# ------------------------------------------------------------------ parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses; the command runs by name, so a
    ``cmd_*`` function rebound on the module is the one called."""
    parser = argparse.ArgumentParser(
        prog="spdc-studio",
        description="Simulation and analysis toolkit for domain-engineered "
                    "photon-pair sources.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=False):
        if needs_config:
            p.add_argument("--config", default=None,
                           help="JSON source configuration")
            p.add_argument("--samples", type=int, default=None,
                           help="grid samples per axis; overrides the "
                                "config's grid.samples (default "
                                f"{COMMAND_SAMPLES})")
        # with a config, an explicit --seed beats the config's "seed",
        # which beats 0
        p.add_argument("--seed", type=int, default=None if needs_config else 0,
                       help="run seed; all randomness derives from it")
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<command>)")

    p = sub.add_parser("simulate-jsa",
                       help="designed JSA (jsa.npy) and its two-lobe summary")
    common(p, needs_config=True)

    p = sub.add_parser("analyze-jsi",
                       help="two-lobe analysis of a JSI CSV file")
    p.add_argument("jsi_file", help="joint spectral intensity CSV")
    p.add_argument("--cut-nm", type=float, default=1560.0,
                   help="wavelength separating the two lobes (nm)")
    common(p)

    p = sub.add_parser("tomography",
                       help="16-setting tomography with MLE reconstruction")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--records", default=None,
                     help="coincidence records CSV to reconstruct from")
    src.add_argument("--state-file", default=None,
                     help="density-matrix JSON to simulate counts from")
    src.add_argument("--simulate", default="psi-minus",
                     help="simulated truth: psi-minus, reference-fixture, "
                          "or werner:<p>")
    p.add_argument("--n-per-setting", type=float, default=None,
                   help="pairs per setting when simulating (default 1e5)")
    common(p)

    p = sub.add_parser("visibility",
                       help="power sweep of visibility and squeezing fit")
    p.add_argument("--powers", default=_DEFAULT_POWERS_MW,
                   help="comma-separated pump powers in mW")
    common(p)

    p = sub.add_parser("report",
                       help="consolidated report against reference values")
    p.add_argument("runs_dir", nargs="?", default="runs",
                   help="directory holding per-command outputs")
    p.add_argument("--out", default=None,
                   help="output directory (default runs/report)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
