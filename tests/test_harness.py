import numpy as np
import pytest

from qnes.ansatz import AnsatzSpec
from qnes.cli import main
from qnes.hamiltonian import bundled_hamiltonian_path, load_pauli_file, vqe_fitness
from qnes.harness import (
    ConfigError,
    load_config,
    parse_config_text,
    read_trace_csv,
    run_experiment,
    summarize,
)
from qnes.numerics import SeededRng

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


def constant_trace_csv(path, losses):
    lines = ["# qnes-trace v1", "iteration,evaluations,loss,spread_max,batch_cursor"]
    for it, loss in enumerate(losses):
        lines.append(f"{it},{it * 4},{loss!r},0.1,0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestConfigParsing:
    def test_minimal_stateprep(self, tmp_path):
        config = parse_config_text(STATEPREP_CONFIG.format(out="runs/x"), base_dir=tmp_path)
        assert config.experiment == "stateprep"
        assert config.seeds == (0, 1)
        assert config.walkers == 6
        assert config.ansatz.family == "rpqc"

    def test_unknown_experiment(self, tmp_path):
        text = STATEPREP_CONFIG.format(out="runs/x").replace("kind = stateprep", "kind = anneal", 1)
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text(text, base_dir=tmp_path)

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
        assert config.hamiltonian_path.exists()

    def test_pi_fraction_tokens(self, tmp_path):
        text = (
            "[experiment]\nkind = variance_scan\nseeds = 0\nout = runs/v\n"
            "[ansatz]\nfamily = rpqc\nqubits = 3\nlayers = 2\nstructure_seed = 1\n"
            "[variance_scan]\nnum_inits = 5\nsigma_values = pi/8 pi/16 0.25\nwalker_counts = 1 2\n"
        )
        config = parse_config_text(text, base_dir=tmp_path)
        assert np.allclose(config.scan_sigma_values, (np.pi / 8, np.pi / 16, 0.25))

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
        assert config.walkers == 9

    def test_bad_override_key(self, tmp_path):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="runs/x"))
        with pytest.raises(ConfigError, match="section.key"):
            load_config(path, overrides={"walkers": "9"})


class TestRunExperiment:
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

    def test_mismatched_grids_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2, 0.2])
        constant_trace_csv(b, [0.4, 0.4, 0.4])
        with pytest.raises(ValueError, match="mismatched"):
            summarize([a, b])


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

    def test_bad_override_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        assert main(["run", str(path), "--override", "walkers9"]) == 2

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
    ], ids=["random-no-size", "layer-block-no-size", "qubit-block-size-0", "config-seed",
            "cli-seed", "rpqc-1-qubit", "alpqc-2-qubits", "0-layers", "hybrid-xnes",
            "compare-gd-gd"])
    def test_rejected_at_load_before_output(self, tmp_path, capsys, args, key):
        path = write_config(tmp_path, STATEPREP_CONFIG.format(out="o"))
        assert main(["run", str(path), *args]) == 2
        assert key in capsys.readouterr().err
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
        assert read_trace_csv(trace_path)["loss"][0] == vqe_fitness(template, mu0, h2)
        assert "# exact_ground_energy: -1.857275030202" in trace_path.read_text()

    def test_summarize_subcommand(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        constant_trace_csv(a, [0.25, 0.2])
        out = tmp_path / "summary.csv"
        assert main(["summarize", str(a), "--out", str(out)]) == 0
        assert "0,0.25,0.25,0.25" in out.read_text()

    def test_summarize_failure_exit_three(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        constant_trace_csv(a, [0.2])
        constant_trace_csv(b, [0.2, 0.2])
        assert main(["summarize", str(a), str(b), "--out", str(tmp_path / "s.csv")]) == 3
