"""Property test over the CLI's input surface.

Whatever a config file, a records file, a state file or an option holds,
a command ends with status 0, 2 or 3, within a time limit and without a
RuntimeWarning, and a run that exits 2 leaves no output directory.
"""

import contextlib
import dataclasses
import json
import signal
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_studio.cli import main
from spdc_studio.config import load_run_config, make_grid
from spdc_studio.grid_io import load_jsi_csv, save_jsi_csv
from spdc_studio.optics import CrystalSpec, PumpSpec, compute_jsa
from spdc_studio.polarization import werner_state
from spdc_studio.spectral import JsiGrid, jsi_of
from spdc_studio.tomography import standard_16_settings

_LIMIT_S = 10.0  # per command; each takes milliseconds

# every float and integer JSON and the CLI can carry, NaN, the infinities
# and integers past the float range among them
_NUMBERS = st.one_of(st.floats(), st.integers(),
                     st.sampled_from([0, -1, 5e-324, 1e-320, 1e308,
                                      10 ** 400]))
_JSON = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=4),
                  st.lists(_NUMBERS, max_size=3))
_LABELS = [s.label for s in standard_16_settings()]


def _section(spec):
    """A config section of drawn entries, each value near its default or
    any JSON."""
    defaults = {f.name: f.default for f in dataclasses.fields(spec)}

    def entry(key):
        if key == "pulse_shape":
            near = st.sampled_from(["sech2", "gaussian"])
        elif key in defaults:
            near = st.floats(0.8, 1.25).map(lambda x: x * defaults[key])
        else:
            near = st.nothing()
        return st.tuples(st.just(key), st.one_of(near, _JSON))

    keys = st.sampled_from(sorted(defaults) + ["typo"])
    return st.lists(keys.flatmap(entry), max_size=3).map(dict)


# any JSON, or a config of drawn sections; any JSON in place of one
# section at most
_CONFIGS = st.one_of(_JSON, st.fixed_dictionaries({}, optional={
    "pump": _section(PumpSpec),
    "crystal": _section(CrystalSpec),
    "grid": st.fixed_dictionaries({}, optional={
        "window_nm": st.one_of(
            st.lists(st.one_of(_NUMBERS, st.floats(1300, 1800)),
                     min_size=2, max_size=2), _JSON),
        "samples": _JSON}),
    "seed": st.one_of(st.integers(0, 2 ** 32), _JSON),
}), st.sampled_from(["pump", "crystal", "grid"]).flatmap(
    lambda key: st.fixed_dictionaries({key: _JSON})))


@st.composite
def _records(draw):
    """A records file: the sixteen settings with drawn counts and one
    drawn scale, and now and then a row of drawn text."""
    counts = draw(st.sampled_from([
        st.integers(0, 2 ** 53),
        st.one_of(st.integers(), st.floats(), st.text(max_size=3))]))
    scale = draw(st.one_of(st.floats(1e-300, 1e18), st.floats(),
                           st.integers(),
                           st.sampled_from([1, 1e5, 1e18, 1e-290]))
                 .map(str))
    rows = [f"{label},{draw(counts.map(str))},{scale}" for label in _LABELS]
    rows += draw(st.lists(st.text(max_size=12).map(
        lambda text: text.replace("\n", "").replace("\r", "")), max_size=1))
    return "label,counts,acquisition_scale\n" + "\n".join(rows) + "\n"


_STATES = st.one_of(
    st.floats(0, 1).map(lambda p: werner_state(p).to_json_dict()),
    st.fixed_dictionaries(
        {"matrix": st.lists(st.lists(st.lists(_NUMBERS, min_size=2,
                                              max_size=2),
                                     min_size=4, max_size=4),
                            min_size=4, max_size=4)},
        optional={"basis": _JSON}),
    _JSON)

_FLOAT_OPTIONS = st.one_of(st.floats(), st.integers(), st.floats(1e-3, 1e6))
_POWERS = st.one_of(
    st.lists(_FLOAT_OPTIONS, min_size=1, max_size=3).map(
        lambda values: ",".join(map(str, values))),
    st.text(max_size=8))

_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the command if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"command ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _check(argv, files=None):
    """Run ``main(argv)`` in a fresh directory holding ``files`` and assert
    the four properties."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in (files or {}).items():
            (root / name).write_text(text, encoding="utf-8")
        out = root / "out"
        argv = [a.replace("{root}", tmp) for a in argv]
        with warnings.catch_warnings(), _deadline(_LIMIT_S):
            warnings.simplefilter("error", RuntimeWarning)
            start = time.perf_counter()
            code = main([*argv, "--out", str(out)])
            elapsed = time.perf_counter() - start
        assert code in (0, 2, 3)
        assert elapsed < _LIMIT_S
        if code == 2:
            assert not out.exists()


@pytest.fixture(scope="module")
def small_jsi(tmp_path_factory):
    """The designed JSI on a 64-sample grid, as a CSV file."""
    cfg = load_run_config(samples=64)
    path = tmp_path_factory.mktemp("jsi") / "jsi.csv"
    save_jsi_csv(path, jsi_of(compute_jsa(make_grid(cfg), cfg.crystal,
                                          cfg.pump)))
    return path


@_PROPERTY
@given(config=_CONFIGS)
def test_simulate_jsa_config(config):
    _check(["simulate-jsa", "--config", "{root}/run.json", "--samples=64"],
           {"run.json": json.dumps(config)})


@_PROPERTY
@given(samples=st.one_of(st.just(64), st.integers(max_value=63),
                         st.integers(min_value=4097)))
def test_simulate_jsa_samples(samples):
    # a 64-sample grid, or none that validation lets through
    _check(["simulate-jsa", f"--samples={samples}"])


@_PROPERTY
@given(cut=st.one_of(st.floats(), st.floats(1450, 1670)))
def test_analyze_jsi_cut(small_jsi, cut):
    _check(["analyze-jsi", str(small_jsi), f"--cut-nm={cut!r}"])


@_PROPERTY
@given(peak=st.one_of(st.sampled_from([0.0, 5e-324, 1e300]),
                      st.floats(0, 1e308)))
def test_analyze_jsi_scaled(small_jsi, peak):
    # the small JSI rescaled to the drawn peak value: all-zero, subnormal,
    # or past where its weighted total overflows
    jsi = load_jsi_csv(small_jsi)
    scaled = jsi.intensity / jsi.intensity.max()
    scaled *= peak
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scaled.csv"
        save_jsi_csv(path, JsiGrid(grid=jsi.grid, intensity=scaled))
        _check(["analyze-jsi", str(path)])


@_PROPERTY
@given(records=_records())
def test_tomography_records(records):
    _check(["tomography", "--records", "{root}/records.csv"],
           {"records.csv": records})


@_PROPERTY
@given(state=_STATES,
       pairs=st.one_of(st.none(), st.floats(1, 1e18), _FLOAT_OPTIONS))
def test_tomography_state_file_and_pairs(state, pairs):
    pairs_option = [] if pairs is None else [f"--n-per-setting={pairs!r}"]
    _check(["tomography", "--state-file", "{root}/state.json",
            *pairs_option], {"state.json": json.dumps(state)})


@_PROPERTY
@given(powers=_POWERS)
def test_visibility_powers(powers):
    _check(["visibility", f"--powers={powers}"])
