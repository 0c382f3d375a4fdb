import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qnes import harness
from qnes.ansatz import AnsatzSpec
from qnes.batching import PartitionStrategy
from qnes.cli import main
from qnes.gradients import GdConfig, loss_functions
from qnes.hamiltonian import bundled_hamiltonian_path, load_pauli_file
from qnes.harness import (
    ConfigError,
    load_config,
    parse_config_text,
    read_trace_csv,
    run_experiment,
    summarize,
)
from qnes.nes import NesConfig
from qnes.numerics import SeededRng

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

STATEPREP_CONFIG = """
[experiment]
kind = stateprep
seeds = 0 1
max_iterations = 12
out = {out}

[ansatz]
family = rpqc
qubits = 3
layers = 2
structure_seed = 7

[optimizer]
kind = snes
walkers = 6
sigma_init = 0.1
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def constant_trace_csv(path, losses, iterations=None):
    lines = ["# qnes-trace v1", "iteration,evaluations,loss,spread_max,batch_cursor"]
    for it, loss in zip(iterations or range(len(losses)), losses):
        lines.append(f"{it},{it * 4},{loss!r},0.1,0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestConfigParsing:
    def test_minimal_stateprep(self, tmp_path):
        config = parse_config_text(STATEPREP_CONFIG.format(out="runs/x"), base_dir=tmp_path)
        assert config.experiment == "stateprep"
        assert config.seeds == (0, 1)
        assert config.nes.population == 6
        assert config.template.family == "rpqc"

    def test_option_objects_built_at_load(self, tmp_path):
        text = (
            "[experiment]\nkind = compare_gd\nseeds = 2\nmax_iterations = 40\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 2\n"
            "[optimizer]\nwalkers = 6\nstop_threshold = 0\n"
            "[gradient_descent]\nlearning_rate = 0.1\n"
            "[batch]\nstrategy = layer_block\nsize = 3\n"
        )
        config = parse_config_text(text, base_dir=tmp_path)
        assert config.nes == NesConfig(population=6, max_iterations=40, stop_threshold=0.0)
        assert config.gd == GdConfig(learning_rate=0.1, max_iterations=40, tolerance=1e-8)
        assert config.partition == PartitionStrategy("layer_block", 3)
        assert (config.scan.num_inits, config.scan.walker_counts) == (500, (1, 2, 4, 8))
        assert config.scan.observable.num_qubits == 3
        with_gd_iterations = parse_config_text(text, tmp_path,
                                               {"gradient_descent.max_iterations": "0"})
        assert with_gd_iterations.gd.max_iterations == 0
        stateprep = parse_config_text(STATEPREP_CONFIG.format(out="runs/x"), base_dir=tmp_path)
        assert stateprep.gd is None

    def test_unknown_experiment(self, tmp_path):
        text = STATEPREP_CONFIG.format(out="runs/x").replace("kind = stateprep", "kind = anneal", 1)
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text(text, base_dir=tmp_path)

    def test_state_must_fit_in_physical_memory(self, tmp_path, monkeypatch):
        # the kernel holds a state and its temporary, 32 * 2**Q bytes: 1 MiB fits 15 qubits
        # and not 16; nothing is allocated
        monkeypatch.setattr(harness, "_physical_memory", lambda: 2**20)
        text = STATEPREP_CONFIG.format(out="runs/x")
        config = parse_config_text(text, tmp_path, {"ansatz.qubits": "15"})
        assert config.template.num_qubits == 15
        with pytest.raises(ConfigError, match=r"\[ansatz\] qubits = 16: .* 32 \* 2\*\*16 bytes"):
            parse_config_text(text, tmp_path, {"ansatz.qubits": "16"})

    def test_walkers_must_fit_in_physical_memory(self, tmp_path, monkeypatch):
        # 1 MiB of memory; per walker: the 6-parameter sample and point rows (16 * 6 bytes),
        # plus one cached random stream for the strategy; nothing is allocated
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr("qnes.harness.os.sysconf", pages.__getitem__)
        text = STATEPREP_CONFIG.format(out="runs/x")
        for key, per_walker, value in (("optimizer.walkers", 96 + harness.STREAM_BYTES, "{}"),
                                       ("variance_scan.walker_counts", 96, "1 {}")):
            fits = 2**20 // per_walker
            parse_config_text(text, tmp_path, {key: value.format(fits)})
            name = "[{}] {}".format(*key.split("."))
            with pytest.raises(ConfigError, match=re.escape(f"{name} = {fits + 1}: ")):
                parse_config_text(text, tmp_path, {key: value.format(fits + 1)})

    def test_scan_values_must_fit_in_physical_memory(self, tmp_path, monkeypatch):
        # 1 MiB of memory; per initialization, one float for each of the default grid's
        # 3 * 4 cells and one for the exact column (8 * 13 bytes); nothing is allocated
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr("qnes.harness.os.sysconf", pages.__getitem__)
        text = STATEPREP_CONFIG.format(out="runs/x")
        fits = 2**20 // (8 * 13)
        config = parse_config_text(text, tmp_path, {"variance_scan.num_inits": str(fits)})
        assert config.scan.num_inits == fits
        name = re.escape(f"[variance_scan] num_inits = {fits + 1}: ")
        with pytest.raises(ConfigError, match=name):
            parse_config_text(text, tmp_path, {"variance_scan.num_inits": str(fits + 1)})

    @pytest.mark.parametrize("key", ["optimizer.sigma_init", "variance_scan.sigma_values"])
    def test_widths_have_an_upper_bound(self, tmp_path, key):
        text = STATEPREP_CONFIG.format(out="runs/x")
        config = parse_config_text(text, tmp_path, {key: "1000"})
        assert 1000.0 in (config.sigma_init, *config.scan.sigma_values)
        name = "[{}] {}".format(*key.split("."))
        for value in ("1000.0000001", "1e308"):
            with pytest.raises(ConfigError, match=rf"{re.escape(name)}: .*must be <= 1000"):
                parse_config_text(text, tmp_path, {key: value})

    def test_gate_cap_names_layers_before_building(self, tmp_path, monkeypatch):
        monkeypatch.setattr("qnes.ansatz.AnsatzSpec.build", None)  # the guard must not build
        text = STATEPREP_CONFIG.format(out="runs/x")
        with pytest.raises(ConfigError, match=r"\[ansatz\] layers = 20000: .* 100,003 gates"):
            parse_config_text(text, tmp_path, {"ansatz.layers": "20000"})  # 3 + 20000 * 5

    def test_empty_seeds_rejected(self, tmp_path):
        text = STATEPREP_CONFIG.format(out="runs/x").replace("seeds = 0 1", "seeds =")
        with pytest.raises(ConfigError):
            parse_config_text(text, base_dir=tmp_path)

    def test_missing_ansatz_section(self, tmp_path):
        with pytest.raises(ConfigError, match="ansatz"):
            parse_config_text("[experiment]\nkind = stateprep\nseeds = 0\n", base_dir=tmp_path)

    def test_gd_requires_learning_rate(self, tmp_path):
        text = STATEPREP_CONFIG.format(out="runs/x").replace("kind = snes", "kind = gd")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text(text, base_dir=tmp_path)

    def test_vqe_requires_existing_hamiltonian(self, tmp_path):
        text = (
            "[experiment]\nkind = vqe\nseeds = 0\nout = runs/v\n"
            "[ansatz]\nfamily = rpqc\nqubits = 2\nlayers = 2\nstructure_seed = 1\n"
            "[vqe]\nhamiltonian = missing.txt\n"
        )
        with pytest.raises(ConfigError, match="not found"):
            parse_config_text(text, base_dir=tmp_path)

    def test_bundled_hamiltonian_resolves(self, tmp_path):
        text = (
            "[experiment]\nkind = vqe\nseeds = 0\nout = runs/v\n"
            "[ansatz]\nfamily = rpqc\nqubits = 2\nlayers = 2\nstructure_seed = 1\n"
            "[vqe]\nhamiltonian = bundled:h2\n"
        )
        config = parse_config_text(text, base_dir=tmp_path)
        assert config.hamiltonian.num_qubits == 2

    def test_pi_fraction_tokens(self, tmp_path):
        text = (
            "[experiment]\nkind = variance_scan\nseeds = 0\nout = runs/v\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 2\nstructure_seed = 1\n"
            "[variance_scan]\nnum_inits = 5\nsigma_values = pi/8 pi/16 0.25\nwalker_counts = 1 2\n"
        )
        config = parse_config_text(text, base_dir=tmp_path)
        assert np.allclose(config.scan.sigma_values, (np.pi / 8, np.pi / 16, 0.25))

    def test_variance_scan_needs_rpqc(self, tmp_path):
        text = (
            "[experiment]\nkind = variance_scan\nseeds = 0\n"
            "[ansatz]\nfamily = alpqc\nqubits = 3\nlayers = 2\n"
        )
        with pytest.raises(ConfigError, match=r"\[ansatz\] family"):
            parse_config_text(text, base_dir=tmp_path)

    def test_override_via_load_config(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="runs/x"))
        config = load_config(path, overrides={"optimizer.walkers": "9"})
        assert config.nes.population == 9

    def test_bad_override_key(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="runs/x"))
        with pytest.raises(ConfigError, match="section.key"):
            load_config(path, overrides={"walkers": "9"})

    def test_unknown_key_in_file_rejected(self, tmp_path):
        text = STATEPREP_CONFIG.format(out="runs/x") + "[hybrid]\nwarm_up = 3\n"
        with pytest.raises(ConfigError, match=r"unknown config key \[hybrid\] warm_up"):
            parse_config_text(text, base_dir=tmp_path)

    def test_percent_in_file_is_literal(self, tmp_path):
        config = parse_config_text(STATEPREP_CONFIG.format(out="runs/50%x"), base_dir=tmp_path)
        assert config.out_dir == tmp_path / "runs" / "50%x"
        assert config.echo["experiment.out"] == "runs/50%x"

    def test_one_parse_and_one_validation_per_load(self, tmp_path, monkeypatch):
        import qnes.harness as harness_module

        counts = {"parser": 0, "validate": 0}

        class CountingParser(harness_module.configparser.ConfigParser):
            def __init__(self, *args, **kwargs):
                counts["parser"] += 1
                super().__init__(*args, **kwargs)

        original = harness_module._validate

        def counting_validate(config):
            counts["validate"] += 1
            original(config)

        monkeypatch.setattr(harness_module.configparser, "ConfigParser", CountingParser)
        monkeypatch.setattr(harness_module, "_validate", counting_validate)
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="runs/x"))
        config = load_config(path, overrides={"optimizer.walkers": "9"}, seeds=[4, 2],
                             out_dir=tmp_path / "o")
        assert counts == {"parser": 1, "validate": 1}
        assert (config.nes.population, config.seeds, config.out_dir) == (9, (4, 2), tmp_path / "o")
        assert config.echo["experiment.seeds"] == "4 2"
        assert config.echo["experiment.out"] == str(tmp_path / "o")


    @pytest.mark.parametrize("preset", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
    def test_every_preset_loads(self, preset):
        config = load_config(preset)
        assert config.seeds
        echo = config.echo
        spec = AnsatzSpec(echo["ansatz.family"], int(echo["ansatz.qubits"]),
                          int(echo["ansatz.layers"]), int(echo.get("ansatz.structure_seed", 0)))
        assert config.template == spec.build()

    def test_run_builds_the_template_once(self, tmp_path, monkeypatch):
        calls = []
        original = AnsatzSpec.build

        def counting_build(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(AnsatzSpec, "build", counting_build)
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=tmp_path / "o"))
        assert main(["run", str(path), "--override", "experiment.max_iterations=2"]) == 0
        assert len(calls) == 1


class TestRunExperiment:
    def test_threaded_walkers_write_the_vectorized_data_rows(self, tmp_path):
        def data_rows(workers):
            out = tmp_path / f"workers{workers}"
            run_experiment(load_config(CONFIGS / "batch_q10_l50_snes.ini", seeds=[0], out_dir=out,
                                       overrides={"experiment.max_iterations": "2",
                                                  "optimizer.workers": str(workers)}))
            return {p.name: [line for line in p.read_text().splitlines()
                             if not line.startswith("#")] for p in sorted(out.glob("*.csv"))}

        threaded = data_rows(2)
        assert len(threaded["trace_seed0.csv"]) == 4  # schema line plus iterations 0..2
        assert threaded == data_rows(0)

    def test_stateprep_writes_traces_and_summary(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=tmp_path / "out"))
        config = load_config(path)
        run_experiment(config)
        for seed in (0, 1):
            data = read_trace_csv(tmp_path / "out" / f"trace_seed{seed}.csv")
            assert list(data["iteration"]) == list(range(13))
            assert list(data["evaluations"]) == [6 * t for t in range(13)]
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "iteration,loss_mean,loss_min,loss_max" in summary

    def test_replay_is_bit_identical(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=tmp_path / "out"))
        run_experiment(load_config(path))
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
        }
        run_experiment(load_config(path))
        second = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
        }
        assert first == second

    def test_vqe_reports_reference_energy(self, tmp_path, capsys):
        text = (
            f"[experiment]\nkind = vqe\nseeds = 3\nmax_iterations = 30\nout = {tmp_path/'v'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 2\nlayers = 3\nstructure_seed = 2\n"
            "[optimizer]\nkind = snes\nwalkers = 8\n"
            "[vqe]\nhamiltonian = bundled:h2\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        assert "exact_ground_energy" in capsys.readouterr().out
        trace_text = (tmp_path / "v" / "trace_seed3.csv").read_text()
        assert "# exact_ground_energy: -1.857275030202" in trace_text

    def test_vqe_reference_energy_has_no_qubit_ceiling(self, tmp_path):
        # 13 qubits of 0.3 X_q + 0.4 Z_q: the ground energy is -13 * 0.5
        terms = "".join(f"0.3 X{q}\n0.4 Z{q}\n" for q in range(13))
        (tmp_path / "h13.txt").write_text(f"qubits 13\n{terms}")
        text = (
            f"[experiment]\nkind = vqe\nseeds = 0\nmax_iterations = 1\nout = {tmp_path/'v'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 13\nlayers = 1\nstructure_seed = 2\n"
            "[optimizer]\nkind = snes\nwalkers = 4\n"
            "[vqe]\nhamiltonian = h13.txt\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        header = [line for line in (tmp_path / "v" / "trace_seed0.csv").read_text().splitlines()
                  if line.startswith("# exact_ground_energy: ")]
        assert len(header) == 1
        assert abs(float(header[0].split(": ")[1]) + 6.5) <= 1e-10

    def test_hybrid_writes_gradient_snapshots(self, tmp_path):
        text = (
            f"[experiment]\nkind = hybrid\nseeds = 0\nmax_iterations = 6\nout = {tmp_path/'h'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 2\nstructure_seed = 1\n"
            "[optimizer]\nkind = snes\nwalkers = 6\n"
            "[gradient_descent]\nlearning_rate = 0.1\nmax_iterations = 4\n"
            "[hybrid]\nwarmup = 3\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        snapshots = (tmp_path / "h" / "trace_seed0_gradients.csv").read_text()
        assert "iteration,param_index,gradient" in snapshots
        rows = [line for line in snapshots.splitlines()
                if line and not line.startswith(("#", "iteration"))]
        assert len(rows) == 2 * 6  # two snapshots, one row per parameter

    def test_batch_cursor_column_populated(self, tmp_path):
        text = (
            f"[experiment]\nkind = batch\nseeds = 0\nmax_iterations = 8\nout = {tmp_path/'b'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 4\nstructure_seed = 1\n"
            "[optimizer]\nkind = snes\nwalkers = 6\n"
            "[batch]\nstrategy = layer_wise\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        data = read_trace_csv(tmp_path / "b" / "trace_seed0.csv")
        assert list(data["batch_cursor"][1:5]) == [0, 1, 2, 3]

    def test_compare_gd_writes_both_sets(self, tmp_path):
        text = (
            f"[experiment]\nkind = compare_gd\nseeds = 0\nmax_iterations = 5\nout = {tmp_path/'c'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 2\nstructure_seed = 1\n"
            "[optimizer]\nkind = snes\nwalkers = 6\n"
            "[gradient_descent]\nlearning_rate = 0.1\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        names = {p.name for p in (tmp_path / "c").iterdir()}
        assert {"trace_seed0_nes.csv", "trace_seed0_gd.csv",
                "summary_nes.csv", "summary_gd.csv"} <= names

    def test_partial_traces_survive_runtime_failure(self, tmp_path, monkeypatch):
        import qnes.harness as harness_module

        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=tmp_path / "out"))
        config = load_config(path, seeds=[0, 1, 2])
        original = harness_module._run_nes
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("walker backend crashed")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness_module, "_run_nes", failing)
        with pytest.raises(RuntimeError, match="crashed"):
            run_experiment(config)
        assert (tmp_path / "out" / "trace_seed0.csv").exists()
        assert (tmp_path / "out" / "trace_seed1.csv").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_variance_scan_csv_schema(self, tmp_path):
        text = (
            f"[experiment]\nkind = variance_scan\nseeds = 0\nout = {tmp_path/'s'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 1\nstructure_seed = 1\n"
            "[variance_scan]\nnum_inits = 4\nsigma_values = pi/8\nwalker_counts = 1 2\n"
        )
        run_experiment(parse_config_text(text, base_dir=tmp_path))
        scan = (tmp_path / "s" / "variance_scan.csv").read_text()
        assert "sigma_init,k,variance_surrogate,variance_exact" in scan
        rows = [line for line in scan.splitlines()
                if line and not line.startswith(("#", "sigma_init"))]
        assert len(rows) == 2


class TestSummarize:
    def test_single_trace_summary_is_identity(self, tmp_path):
        path = tmp_path / "a.csv"
        constant_trace_csv(path, [0.5, 0.4, 0.3])
        rows = summarize([path])
        assert rows == [(0, 0.5, 0.5, 0.5), (1, 0.4, 0.4, 0.4), (2, 0.3, 0.3, 0.3)]

    def test_two_constant_traces(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2, 0.2])
        constant_trace_csv(b, [0.4, 0.4])
        rows = summarize([a, b])
        assert rows[0] == (0, pytest.approx(0.3), 0.2, 0.4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize([])

    def test_unequal_lengths_use_common_prefix(self, tmp_path):
        # the summary.csv rule: a seed that stopped early bounds the rows
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2, 0.2])
        constant_trace_csv(b, [0.4, 0.4, 0.4])
        assert summarize([b, a]) == [(0, pytest.approx(0.3), 0.2, 0.4),
                                     (1, pytest.approx(0.3), 0.2, 0.4)]

    def test_mismatched_grids_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2, 0.2])
        constant_trace_csv(b, [0.4, 0.4, 0.4], iterations=[0, 2, 3])
        with pytest.raises(ValueError, match="mismatched"):
            summarize([a, b])


COMPARE_GD = ["--override", "experiment.kind=compare_gd"]
HYBRID = ["--override", "experiment.kind=hybrid",
          "--override", "gradient_descent.learning_rate=0.1"]
SCAN = ["--override", "experiment.kind=variance_scan", "--seed", "0",
        "--override", "variance_scan.num_inits=2"]


class TestCli:
    def test_run_and_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", str(path), "--seed", "5"]) == 0
        assert (tmp_path / "out" / "trace_seed5.csv").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path, STATEPREP_CONFIG.format(out="o").replace("kind = snes", "kind = gd")
        )
        assert main(["run", str(path)]) == 2

    def test_missing_config_exit_two(self, capsys):
        assert main(["run", "/nonexistent/config.ini"]) == 2

    def test_config_name_too_long_exit_two(self, tmp_path, capsys):
        path = tmp_path / ("c" * 400 + ".ini")
        assert main(["run", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err

    def test_directory_config_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(STATEPREP_CONFIG.format(out="o").encode() + b"# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_override_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        assert main(["run", str(path), "--override", "walkers9"]) == 2

    @pytest.mark.parametrize("layers", ["2000000", "100000000"])
    def test_huge_layer_count_exits_two_at_once(self, tmp_path, capsys, layers):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        start = time.perf_counter()
        assert main(["run", str(path), "--override", f"ansatz.layers={layers}"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"[ansatz] layers = {layers}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, key", [
        ("optimizer.walkers=1000000000", "[optimizer] walkers = 1000000000"),
        ("variance_scan.walker_counts=1000000000", "[variance_scan] walker_counts = 1000000000"),
        ("variance_scan.num_inits=1000000000000", "[variance_scan] num_inits = 1000000000000"),
        ("optimizer.sigma_init=1e308", "[optimizer] sigma_init"),
        ("variance_scan.sigma_values=1e308", "[variance_scan] sigma_values"),
    ])
    def test_huge_walker_count_or_width_exits_two_at_once(self, tmp_path, capsys, override,
                                                          key):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        start = time.perf_counter()
        assert main(["run", str(path), "--override", override]) == 2
        assert time.perf_counter() - start < 1.0
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, key", [
        ("experiment.max_iterations=abc", "[experiment] max_iterations"),
        ("experiment.seeds=0 x", "[experiment] seeds"),
        ("ansatz.qubits=three", "[ansatz] qubits"),
        ("ansatz.family=qaoa", "[ansatz] family"),
        ("optimizer.sigma_init=wide", "[optimizer] sigma_init"),
        ("gradient_descent.learning_rate=fast", "[gradient_descent] learning_rate"),
        ("variance_scan.sigma_values=pi/0", "[variance_scan] sigma_values"),
        ("vqe.hamiltonian=bundled:h2", "[vqe] hamiltonian"),
    ])
    def test_invalid_value_exit_two_names_key(self, tmp_path, capsys, override, key):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        assert main(["run", str(path), "--override", override]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        (["--override", "experiment.kind=batch", "--override", "batch.strategy=random"],
         "[batch] size"),
        (["--override", "experiment.kind=batch", "--override", "batch.strategy=layer_block"],
         "[batch] size"),
        (["--override", "experiment.kind=batch", "--override", "batch.strategy=qubit_block",
          "--override", "batch.size=0"], "[batch] size"),
        (["--override", "experiment.seeds=0 -1"], "[experiment] seeds"),
        (["--seed", "2", "--seed", "-3"], "[experiment] seeds"),
        (["--override", "ansatz.qubits=1"], "[ansatz] qubits"),
        (["--override", "ansatz.family=alpqc", "--override", "ansatz.qubits=2"],
         "[ansatz] qubits"),
        (["--override", "ansatz.layers=0"], "[ansatz] layers"),
        (["--override", "experiment.kind=hybrid", "--override", "optimizer.kind=xnes",
          "--override", "gradient_descent.learning_rate=0.1"], "[optimizer] kind"),
        (["--override", "experiment.kind=compare_gd", "--override", "optimizer.kind=gd",
          "--override", "gradient_descent.learning_rate=0.1"], "[optimizer] kind"),
        # 3 qubits x 2 layers: rpqc has 6 parameters, alpqc 2 * (3 - 1) * 2 = 8
        (["--override", "experiment.kind=batch", "--override", "batch.size=7"], "[batch] size"),
        (["--override", "experiment.kind=batch", "--override", "batch.strategy=layer_block",
          "--override", "ansatz.family=alpqc", "--override", "batch.size=9"], "[batch] size"),
        (["--override", "optimizer.walker=8"], "[optimizer] walker"),
        (["--override", "experiment.max_iteration=3"], "[experiment] max_iteration"),
        (["--override", "DEFAULT.seeds=3"], "[ansatz] seeds"),
        (["--override", "experiment.kind=vqe", "--override", "vqe.hamiltonian=four_qubits.txt"],
         "[vqe] hamiltonian"),
        (["--override", "experiment.kind=vqe", "--override", "vqe.hamiltonian=bad_factor.txt"],
         "[vqe] hamiltonian"),
        (COMPARE_GD + ["--override", "gradient_descent.learning_rate=-1"],
         "[gradient_descent] learning_rate"),
        (["--override", "experiment.max_iterations=-1"], "[experiment] max_iterations"),
        (HYBRID + ["--override", "hybrid.warmup=-1"], "[hybrid] warmup"),
        (SCAN + ["--override", "variance_scan.walker_counts=0"], "[variance_scan] walker_counts"),
        (["--override", "optimizer.sigma_init=inf"], "[optimizer] sigma_init"),
        (COMPARE_GD + ["--override", "gradient_descent.learning_rate=0.1",
                       "--override", "gradient_descent.max_iterations=-3"],
         "[gradient_descent] max_iterations"),
        (SCAN + ["--override", "variance_scan.sigma_values=0"], "[variance_scan] sigma_values"),
        (SCAN + ["--override", "variance_scan.sigma_values="], "[variance_scan] sigma_values"),
        (["--override", "optimizer.stop_threshold=nan"], "[optimizer] stop_threshold"),
        (["--override", "optimizer.walkers=1"], "[optimizer] walkers"),
        (["--override", "ansatz.structure_seed=-1"], "[ansatz] structure_seed"),
        (["--override", "optimizer.workers=-4"], "[optimizer] workers"),
        (HYBRID + ["--override", "hybrid.snapshot_interval=2"], "[hybrid] snapshot_interval"),
        (["--override", "experiment.seeds=0 0"], "[experiment] seeds"),
        (["--seed", "1", "--seed", "1"], "[experiment] seeds"),
        (["--override", "experiment.kind=variance_scan", "--override", "experiment.seeds=3 4",
          "--override", "variance_scan.num_inits=2"], "[experiment] seeds"),
        (["--override", "experiment.kind=variance_scan", "--seed", "3", "--seed", "4",
          "--override", "variance_scan.num_inits=2"], "[experiment] seeds"),
        (["--override", "experiment.out="], "[experiment] out"),
        (["--override", "optimizer.kind=canonical"], "[optimizer] kind"),
        (["--override", "optimizer.kind=bogus"], "[optimizer] kind"),
        (["--override", "experiment.kind=bogus"], "[experiment] kind"),
        (["--override", "optimizer.kind=gd", "--override", "optimizer.walkers=1",
          "--override", "gradient_descent.learning_rate=0.1"], "[optimizer] walkers"),
        (["--override", "ansatz.qubits=40"], "[ansatz] qubits"),
        (SCAN + ["--override", "variance_scan.walker_counts=2 2",
                 "--override", "variance_scan.sigma_values=pi/8"], "[variance_scan] walker_counts"),
        (SCAN + ["--override", "variance_scan.sigma_values=pi/8 0.39269908169872414"],
         "[variance_scan] sigma_values"),
        # [batch] size is range-checked whether or not the kind or strategy reads it
        (["--override", "batch.size=-5"], "[batch] size"),
        (["--override", "batch.size=0"], "[batch] size"),
        (["--override", "batch.strategy=layer_wise", "--override", "batch.size=-1"],
         "[batch] size"),
        (["--override", "optimizer.walkers=" + "9" * 400], "[optimizer] walkers"),
        (["--override", "experiment.max_iterations=" + "9" * 400],
         "[experiment] max_iterations"),
        (["--override", "experiment.kind=vqe", "--override", "vqe.hamiltonian=" + "h" * 400],
         "[vqe] hamiltonian"),
        (["--override", "experiment.out=" + "o" * 400], "[experiment] out"),
    ], ids=["random-no-size", "layer-block-no-size", "qubit-block-size-0", "config-seed",
            "cli-seed", "rpqc-1-qubit", "alpqc-2-qubits", "0-layers", "hybrid-xnes",
            "compare-gd-gd", "rpqc-size-above-params", "alpqc-size-above-params",
            "typo-walker", "typo-max-iteration", "default-section",
            "hamiltonian-wider-than-ansatz", "hamiltonian-parse-error",
            "gd-learning-rate-negative", "max-iterations-negative", "warmup-negative",
            "scan-walker-count-0", "sigma-init-inf", "gd-max-iterations-negative",
            "scan-sigma-0", "scan-sigma-empty", "stop-threshold-nan", "snes-one-walker",
            "structure-seed-negative",
            "workers-negative",
            "snapshot-interval-negative", "config-seeds-repeated", "cli-seeds-repeated",
            "scan-two-config-seeds", "scan-two-cli-seeds", "out-empty", "canonical",
            "optimizer-kind-unknown", "experiment-kind-unknown", "gd-one-walker",
            "state-beyond-memory", "scan-walker-count-repeated", "scan-sigma-repeated",
            "stateprep-size-negative", "stateprep-size-0", "layer-wise-size-negative",
            "walkers-past-float-range", "max-iterations-past-float-range",
            "hamiltonian-name-too-long", "out-name-too-long"])
    def test_rejected_at_load_before_output(self, tmp_path, capsys, args, key):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        # the config's circuit has 3 qubits
        write_config(tmp_path, "qubits 4\n1.0 Z0 Z3\n", "four_qubits.txt")
        write_config(tmp_path, "qubits 3\n1.0 W0\n", "bad_factor.txt")
        assert main(["run", str(path), *args]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "circuit.txt").exists()

    @pytest.mark.parametrize("out", ["", " "])
    def test_empty_out_flag_rejected(self, tmp_path, capsys, monkeypatch, out):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), "--out", out]) == 2
        assert "[experiment] out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_out_through_a_file_rejected(self, tmp_path, capsys, monkeypatch, out, where):
        config_out = out if where == "config" else "o"
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out=config_out))
        (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), *(["--out", out] if where == "flag" else [])]) == 2
        assert "[experiment] out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "afile"])
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"

    def test_dot_out_writes_into_config_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="."))
        assert main(["run", str(path), "--override", "experiment.max_iterations=2"]) == 0
        assert (tmp_path / "circuit.txt").exists()

    def test_batch_size_up_to_parameter_count_accepted(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        for family, size in (("rpqc", "6"), ("alpqc", "8")):
            config = load_config(path, overrides={"experiment.kind": "batch",
                                                  "ansatz.family": family, "batch.size": size})
            assert config.partition.batch_size == config.template.num_params

    def test_preset_batch_size_above_parameter_count(self, tmp_path, capsys):
        preset = CONFIGS / "batch_q10_l50_snes.ini"
        assert main(["run", str(preset), "--override", "batch.size=501",
                     "--override", f"experiment.out={tmp_path / 'o'}"]) == 2
        assert "[batch] size must be in [1, 500]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, trace_name", [
        ("hybrid", "trace_seed4.csv"),
        ("compare_gd", "trace_seed4_nes.csv"),
        ("compare_gd", "trace_seed4_gd.csv"),
        ("batch", "trace_seed4.csv"),
    ])
    def test_hamiltonian_sets_the_loss_of_every_optimizer(self, tmp_path, capsys, kind,
                                                           trace_name):
        text = (
            f"[experiment]\nkind = {kind}\nseeds = 4\nmax_iterations = 3\nout = {tmp_path/'h'}\n"
            "[ansatz]\nfamily = rpqc\nqubits = 2\nlayers = 3\nstructure_seed = 2\n"
            "[optimizer]\nkind = snes\nwalkers = 6\n"
            "[gradient_descent]\nlearning_rate = 0.1\nmax_iterations = 2\n"
            "[hybrid]\nwarmup = 2\n"
            "[batch]\nstrategy = layer_wise\n"
            "[vqe]\nhamiltonian = bundled:h2\n"
        )
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        template = AnsatzSpec("rpqc", 2, 3, 2).build()
        mu0 = SeededRng(4).uniform(template.num_params, 0.0, 2.0 * np.pi)
        h2 = load_pauli_file(bundled_hamiltonian_path("h2"))
        trace_path = tmp_path / "h" / trace_name
        loss, _ = loss_functions(template, h2)
        assert read_trace_csv(trace_path)["loss"][0] == loss(mu0[None, :])[0]
        assert "# exact_ground_energy: -1.857275030202" in trace_path.read_text()

    def test_summarize_subcommand(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        constant_trace_csv(a, [0.25, 0.2])
        out = tmp_path / "summary.csv"
        assert main(["summarize", str(a), "--out", str(out)]) == 0
        assert "0,0.25,0.25,0.25" in out.read_text()

    def test_percent_in_override_is_literal(self, tmp_path, capsys):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        out = tmp_path / "runs" / "50%"
        assert main(["run", str(path), "--override", f"experiment.out={out}"]) == 0
        header = (out / "trace_seed0.csv").read_text().splitlines()[1]
        assert json.loads(header.removeprefix("# config: "))["experiment.out"] == str(out)

    def test_summarize_reproduces_run_summary(self, tmp_path, capsys):
        # with 8 or more seeds numpy's pairwise sum of a column differs from a row-wise mean
        preset = CONFIGS / "stateprep_q5_l10_snes.ini"
        out = tmp_path / "run"
        assert main(["run", str(preset), "--out", str(out),
                     "--override", "experiment.max_iterations=30"]) == 0
        seeds = load_config(preset).seeds
        assert len(seeds) >= 8
        traces = [str(out / f"trace_seed{seed}.csv") for seed in seeds]
        assert main(["summarize", *traces, "--out", str(tmp_path / "s.csv")]) == 0

        def data_rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        rows = data_rows(out / "summary.csv")
        assert len(rows) == 32
        assert data_rows(tmp_path / "s.csv") == rows

    def test_summarize_failure_exit_three(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2, 0.2])
        constant_trace_csv(b, [0.2, 0.2], iterations=[0, 2])
        assert main(["summarize", str(a), str(b), "--out", str(tmp_path / "s.csv")]) == 3

    def test_summarize_rejects_files_that_are_not_traces(self, tmp_path, capsys):
        # CSVs a run writes beside its traces; trace_seed*.csv also matches the snapshot file
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        assert main(["run", str(path), *HYBRID, "--override", "experiment.seeds=0"]) == 0
        for name in ("trace_seed0_gradients.csv", "summary.csv"):
            other = tmp_path / "o" / name
            assert main(["summarize", str(tmp_path / "o" / "trace_seed0.csv"), str(other),
                         "--out", str(tmp_path / "s.csv")]) == 3
            assert f"{other} is not a trace CSV" in capsys.readouterr().err
            assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("row, reason", [("1,4,0.4", "expected 5 fields, got 3"),
                                             ("1,4,abc,0.1,0", "could not convert")])
    def test_summarize_names_the_line_of_a_malformed_row(self, tmp_path, capsys, row, reason):
        a = tmp_path / "a.csv"
        constant_trace_csv(a, [0.25])
        a.write_text(a.read_text() + row + "\n", encoding="utf-8")
        assert main(["summarize", str(a), "--out", str(tmp_path / "s.csv")]) == 3
        assert f"{a} line 4: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_summarize_write_failure_exit_three(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        constant_trace_csv(a, [0.25, 0.2])
        out = tmp_path / "missing_dir" / "s.csv"
        assert main(["summarize", str(a), "--out", str(out)]) == 3
        assert "runtime failure" in capsys.readouterr().err
        assert not out.parent.exists()
