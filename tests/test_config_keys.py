"""The config key table: README's copy of it, and a fuzzer drawn from it.

`harness.KEYS` holds each key's default, type and bounds. README's key table must
list the same keys, defaults, choices and bounds. The fuzzer replaces preset values
with tokens at, below and beyond each bound (and tokens no key accepts) and checks
the exit contract: a config loads or raises a ConfigError that names a
`[section] key`, and a run exits 0, 2 or 3, with no output after an exit 2.
"""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qnes.cli import main
from qnes.harness import KEYS, REQUIRED, ConfigError, _angle, load_config

ROOT = Path(__file__).resolve().parents[1]
PRESETS = [p for p in sorted((ROOT / "configs").glob("*.ini"))
           if p.stem != "variance_scan_q18_full"]  # variance_scan_q8 at full size

NAMED = re.compile(r"\[(\w+)\] (\w+)")
BOUND = re.compile(r"(>=|<=|>|<) (-?\d[\d.e+-]*)")

# tokens every key is tried with: malformed, empty, non-finite, past the float range,
# repeated, or valid only for some keys
GENERIC = ["", "nan", "inf", "-inf", "1e308", "-1e308", "pi/0", "pi/", "abc", "9" * 400,
           "1.5", "pi", "0x10", "0 0", "1 1 1", "2 two", "1e-400", "1000000"]
UNKNOWN = [("optimizer", "walker"), ("experiment", "max_iteration"), ("ansatz", "kind"),
           ("hybrid", "snapshot_interval"), ("annealing", "steps")]


def cli_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text[text.index("## CLI"):text.index("## Output formats")]


def readme_rows() -> dict[tuple[str, str], list[str]]:
    """README's key table: (section, key) -> [default, type, range] cells."""
    rows = {}
    for line in cli_section().splitlines():
        match = re.fullmatch(r"\| `\[(\w+)\] (\w+)` \|(.*)\|", line)
        if match:
            rows[match[1], match[2]] = [cell.strip() for cell in match[3].split("|")]
    return rows


def expected_bounds(key) -> set[tuple[str, float]]:
    bounds = set()
    if math.isfinite(key.low):
        bounds.add((">" if key.above else ">=", float(key.low)))
    if math.isfinite(key.high):
        bounds.add(("<=", float(key.high)))
    return bounds


def test_readme_key_table_matches_keys():
    rows = readme_rows()
    assert list(rows) == list(KEYS)
    for (section, name), key in KEYS.items():
        default, kind, bounds = rows[section, name]
        where = f"[{section}] {name}"
        if key.default is REQUIRED:
            assert default == "required", where
        elif key.default is None:
            assert default.startswith("unset"), where
        else:
            assert default == f"`{key.default}`", where
        if isinstance(key.kind, tuple):
            assert re.findall(r"`(\w+)`", kind) == list(key.kind), where
        assert ("one or more distinct" in kind) == key.many, where
        assert {(op, float(value)) for op, value in BOUND.findall(bounds)} == \
            expected_bounds(key), where


def test_readme_names_only_keys_in_the_table():
    named = {match for match in re.findall(r"`\[(\w+)\] (\w+)`", cli_section())
             if match != ("section", "key")}  # the placeholder in "names the `[section] key`"
    assert named == set(KEYS)


def edge_tokens(key) -> list[str]:
    """Tokens at, just past and far past each of the key's bounds, plus its choices."""
    if isinstance(key.kind, tuple):
        return [*key.kind, key.kind[0].upper(), f"{key.kind[0]} {key.kind[-1]}"]
    tokens = []
    for bound in (key.low, key.high):
        if not math.isfinite(bound):
            continue
        if key.kind is int:
            tokens += [str(int(bound) + step) for step in (-1000, -1, 0, 1, 1000)]
        else:
            tokens += [repr(float(value)) for value in (
                bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf),
                bound - 1e6, bound * 1e300 or 1e300)]
    if key.kind in (int, float, _angle):
        tokens += ["-1", "0", "1", "2", "3"]
    if key.many:
        tokens += ["3 4", "pi/8 0.39269908169872414", "1  1", "\t5\n6"]
    return tokens


def assert_loads_or_names_a_key(preset, overrides):
    try:
        load_config(preset, overrides)
    except ConfigError as exc:
        drawn = {tuple(dotted.split(".", 1)) for dotted in overrides}
        assert set(NAMED.findall(str(exc))) & (set(KEYS) | drawn), \
            f"{preset.stem} {overrides}: {exc}"


@pytest.mark.parametrize("dotted", [f"{s}.{k}" for s, k in KEYS])
def test_every_edge_token_of_every_key(dotted):
    preset = ROOT / "configs" / "stateprep_q5_l10_snes.ini"
    for token in GENERIC + edge_tokens(KEYS[tuple(dotted.split("."))]):
        assert_loads_or_names_a_key(preset, {dotted: token})


@st.composite
def overrides(draw):
    """One or two keys of the table (or an unknown key), each set to a drawn token."""
    drawn = {}
    for _ in range(draw(st.integers(1, 2))):
        section, name = draw(st.sampled_from(list(KEYS) + UNKNOWN))
        key = KEYS.get((section, name))
        pool = GENERIC + (edge_tokens(key) if key else [])
        drawn[f"{section}.{name}"] = draw(st.sampled_from(pool))
    return drawn


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(preset=st.sampled_from(PRESETS), drawn=overrides())
def test_presets_with_drawn_values_load_or_name_a_key(preset, drawn):
    assert_loads_or_names_a_key(preset, drawn)


# values that keep a run to a few milliseconds
TINY = {
    ("experiment", "kind"): ["stateprep", "vqe", "variance_scan", "batch", "hybrid",
                             "compare_gd"],
    ("experiment", "seeds"): ["0", "3"],
    ("experiment", "max_iterations"): ["0", "1", "2"],
    ("ansatz", "family"): ["rpqc", "alpqc"],
    ("ansatz", "qubits"): ["3", "4"],
    ("ansatz", "layers"): ["1", "2"],
    ("optimizer", "kind"): ["snes", "xnes", "gd"],
    ("optimizer", "sigma_init"): ["0.1", "1000"],
    ("optimizer", "workers"): ["0", "2"],
    ("optimizer", "walkers"): ["2", "5"],
    ("optimizer", "stop_threshold"): ["0", "1e308"],
    ("gradient_descent", "learning_rate"): ["0.1", "1e308"],
    ("gradient_descent", "max_iterations"): [None, "0", "2"],
    ("batch", "strategy"): ["random", "layer_wise", "qubit_wise", "layer_block",
                            "qubit_block"],
    ("batch", "size"): ["1", "3"],
    ("variance_scan", "num_inits"): ["2", "3"],
    ("variance_scan", "sigma_values"): ["pi/8", "0.1 1000"],
    ("variance_scan", "walker_counts"): ["1", "1 3"],
    ("hybrid", "warmup"): ["0", "3"],
    ("vqe", "hamiltonian"): [None, "bundled:h2"],
}
FAULTS = ["", "nan", "-1", "pi/0", "abc", "9" * 400, "0 0", "1e-400"]


@st.composite
def tiny_configs(draw):
    """A tiny config that loads, or, half the time, one key set to a fault."""
    values = {key: draw(st.sampled_from(choices)) for key, choices in TINY.items()}
    # follow the rules that tie sections together, so that most fault-free draws run
    kind = values["experiment", "kind"]
    if kind == "variance_scan":
        values["ansatz", "family"] = "rpqc"
    if kind == "hybrid" or kind in ("batch", "compare_gd") and values["optimizer", "kind"] == "gd":
        values["optimizer", "kind"] = "snes"
    if kind in ("stateprep", "variance_scan", "vqe"):
        values["vqe", "hamiltonian"] = "bundled:h2" if kind == "vqe" else None
    fault = draw(st.none() | st.sampled_from([*KEYS, *UNKNOWN]))
    if fault is not None:
        values[fault] = draw(st.sampled_from(FAULTS))
    lines, sections = [], {}
    for (section, name), value in values.items():
        if value is not None:
            sections.setdefault(section, []).append(f"{name} = {value}")
    for section, entries in sections.items():
        lines += [f"[{section}]", *entries]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=tiny_configs())
def test_tiny_drawn_runs_exit_zero_two_or_three(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.ini"
        config.write_text(text, encoding="utf-8")
        out = Path(tmp) / "o"
        code = main(["run", str(config), "--out", str(out)])
        assert code in (0, 2, 3), text
        if code == 2:
            assert not out.exists(), text
