import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invmh.cli
from invmh.cli import (
    EXAMPLE_CONFIGS,
    SAMPLERS,
    ConfigError,
    build_kernel,
    build_target,
    list_builtins,
    load_config,
    main,
    run,
)
from invmh.core import TargetPotential


def write_config(tmp_path: Path, config: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def rwmc_config(outdir: str, n_steps=400, seed=5) -> dict:
    return {
        "target": {"name": "standard_gaussian", "dim": 2},
        "sampler": {"name": "rwmc", "scale": 0.8},
        "run": {"n_steps": n_steps, "burn_in": 0, "n_chains": 1, "seed": seed},
        "output": {"directory": outdir, "thinning": 1},
    }


FD2 = {"name": "standard_gaussian", "dim": 2}
ANISO = {"name": "anisotropic_gaussian", "variances": [1.0, 0.25]}
ROSENBROCK = {"name": "rosenbrock", "dim": 2, "a": 1.0, "b": 5.0}
QUARTIC = {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 6}}}
LINEAR = {
    "name": "hilbert_linear",
    "eigenvalues": {"values": [1.0, 0.5, 0.25]},
    "coefficients": [0.5, -0.2, 0.1],
}


def experiment(outdir: Path, target: dict, sampler: dict, n_steps=200) -> dict:
    return {
        "target": target,
        "sampler": sampler,
        "run": {"n_steps": n_steps, "burn_in": 20, "n_chains": 1, "seed": 17},
        "output": {"directory": str(outdir), "thinning": 2},
    }


class TestCatalog:
    def test_list_mentions_samplers(self):
        text = list_builtins()
        assert "pcn" in text
        assert "rmhmc" in text
        assert "Targets:" in text

    def test_example_configs_validate(self):
        # Every documented example config builds a target and a kernel.
        for name, config in EXAMPLE_CONFIGS.items():
            kind, target, dim = build_target(config["target"])
            kernel = build_kernel(config["sampler"], kind, target, dim)
            assert kernel is not None, name


class TestValidation:
    def test_missing_seed(self, tmp_path):
        config = rwmc_config(str(tmp_path / "out"))
        del config["run"]["seed"]
        assert run(config) == 1

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "target": [,]\n}')
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "line 2" in str(info.value)

    def test_unknown_sampler(self, tmp_path, capsys):
        config = rwmc_config(str(tmp_path / "out"))
        config["sampler"]["name"] = "nuts"
        assert run(config) == 1
        assert "sampler.name" in capsys.readouterr().err

    def test_fd_sampler_on_hilbert_target(self, tmp_path, capsys):
        config = {
            "target": {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 4}}},
            "sampler": {"name": "mala", "delta": 0.5},
            "run": {"n_steps": 10, "burn_in": 0, "n_chains": 1, "seed": 1},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert run(config) == 1
        assert "finite-dimensional" in capsys.readouterr().err

    def test_wrong_type_is_path_addressed(self, tmp_path, capsys):
        config = rwmc_config(str(tmp_path / "out"))
        config["run"]["n_steps"] = "many"
        assert run(config) == 1
        assert "run.n_steps" in capsys.readouterr().err

    def test_malformed_numeric_params_are_config_errors(self, tmp_path, capsys):
        config = rwmc_config(str(tmp_path / "out"))
        config["sampler"]["scale"] = [1.0, 2.0, 3.0]  # wrong length for dim 2
        assert run(config) == 1
        config = rwmc_config(str(tmp_path / "out"))
        config["sampler"] = {"name": "hmc", "delta": 0.3, "mass": [[1.0, 2.0], [2.0, 1.0]]}
        assert run(config) == 1
        assert "positive definite" in capsys.readouterr().err


class TestRun:
    def test_pcn_flat_potential_unit_acceptance(self, tmp_path):
        # pCN with a zero potential accepts every proposal.
        outdir = tmp_path / "out"
        config = {
            "target": {
                "name": "hilbert_linear",
                "eigenvalues": {"power_law": {"d": 10, "c": 1.0, "p": 2.0}},
                "coefficients": 0.0,
            },
            "sampler": {"name": "pcn", "delta": 1.0},
            "run": {"n_steps": 100_000, "burn_in": 1000, "n_chains": 1, "seed": 12},
            "output": {"directory": str(outdir), "thinning": 100},
        }
        assert run(config) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["chains"][0]["acceptance_rate"] == 1.0

    def test_identical_config_byte_identical_csv(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(rwmc_config(str(out1))) == 0
        assert run(rwmc_config(str(out2))) == 0
        assert (out1 / "chain_000.csv").read_bytes() == (out2 / "chain_000.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(rwmc_config(str(out1)))
        run(rwmc_config(str(out2)), seed=99)
        assert (out1 / "chain_000.csv").read_bytes() != (out2 / "chain_000.csv").read_bytes()

    def test_oversized_mala_step_reports_low_acceptance(self, tmp_path):
        outdir = tmp_path / "out"
        config = {
            "target": {"name": "anisotropic_gaussian", "variances": [1.0, 1e-4]},
            "sampler": {"name": "mala", "delta": 1.0},
            "run": {"n_steps": 3000, "burn_in": 0, "n_chains": 1, "seed": 2},
            "output": {"directory": str(outdir)},
        }
        assert run(config) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["chains"][0]["acceptance_rate"] < 0.1

    def test_runtime_error_writes_report(self, tmp_path, capsys):
        # Starting the chain inside a zero-density region fails at runtime;
        # exit code 2 plus an error report on disk.
        outdir = tmp_path / "out"
        config = {
            "target": {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 3}}},
            "sampler": {"name": "pcn", "delta": 1.0},
            "run": {"n_steps": 10, "burn_in": 0, "n_chains": 1, "seed": 1, "q0": [1e300, 0.0, 0.0]},
            "output": {"directory": str(outdir)},
        }
        code = run(config)
        assert code == 2
        assert (outdir / "error.json").exists()

    def test_thinning_subsamples_rows(self, tmp_path):
        outdir = tmp_path / "out"
        config = rwmc_config(str(outdir), n_steps=100)
        config["output"]["thinning"] = 10
        run(config)
        lines = (outdir / "chain_000.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 11  # header + steps 0,10,...,100
        assert lines[1].startswith("0,")
        assert lines[2].startswith("10,")

    def test_multiple_chains_and_override(self, tmp_path):
        outdir = tmp_path / "out"
        assert run(rwmc_config(str(outdir)), n_chains=3) == 0
        for c in range(3):
            assert (outdir / f"chain_{c:03d}.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["chains"]) == 3
        # Chains use distinct seed streams.
        assert (outdir / "chain_000.csv").read_bytes() != (outdir / "chain_001.csv").read_bytes()

    def test_parallel_workers_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        config = rwmc_config(str(serial), n_steps=200)
        config["run"]["n_chains"] = 2
        run(config)
        config2 = rwmc_config(str(parallel), n_steps=200)
        config2["run"]["n_chains"] = 2
        run(config2, workers=2)
        for c in range(2):
            a = (serial / f"chain_{c:03d}.csv").read_bytes()
            b = (parallel / f"chain_{c:03d}.csv").read_bytes()
            assert a == b

    def test_import_loads_no_process_pool(self):
        # The process pool is imported by a run with workers > 1, not by the
        # module: at the top it added 16-32 ms to every start.
        code = "import sys, invmh.cli; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(invmh.cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_summary_echoes_config(self, tmp_path):
        outdir = tmp_path / "out"
        config = rwmc_config(str(outdir))
        run(config)
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["sampler"] == config["sampler"]
        assert summary["config"]["run"]["seed"] == 5
        assert "version" in summary


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "pcn" in capsys.readouterr().out

    def test_run_command(self, tmp_path):
        outdir = tmp_path / "out"
        path = write_config(tmp_path, rwmc_config(str(outdir), n_steps=50))
        assert main(["run", str(path)]) == 0
        assert (outdir / "summary.json").exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, text):
        # json.loads accepts NaN and Infinity; the run must not start.
        config = rwmc_config(str(tmp_path / "out"), n_steps=20)
        config["sampler"] = {"name": "mala", "delta": 0.5}
        path = write_config(tmp_path, config)
        path.write_text(path.read_text().replace("0.5", text))
        assert main(["run", str(path)]) == 1
        assert "sampler.delta" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_inf_hmc_zero_rotation_is_a_config_error(self, tmp_path, capsys):
        # delta1 = 0 with delta2 omitted rotates by 2 * delta1 = 0: no move.
        config = rwmc_config(str(tmp_path / "out"), n_steps=20)
        config["target"] = {"name": "hilbert_quartic", "eigenvalues": {"values": [1.0, 0.5]}}
        config["sampler"] = {"name": "inf_hmc", "delta1": 0.0}
        assert main(["run", str(write_config(tmp_path, config))]) == 1
        assert "delta2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    # A config for each field, with ``x`` in one of its entries.
    LIST_FIELDS = {
        "target.variances": lambda x: ({"name": "anisotropic_gaussian", "variances": [1.0, x]}, None),
        "target.eigenvalues.values": lambda x: (
            {"name": "hilbert_quartic", "eigenvalues": {"values": [x, 0.5]}}, None
        ),
        "target.coefficients": lambda x: (
            {
                "name": "hilbert_linear",
                "eigenvalues": {"power_law": {"d": 2}},
                "coefficients": [x, 1.0],
            },
            None,
        ),
        "run.q0": lambda x: ({"name": "standard_gaussian", "dim": 2}, [x, 0.0]),
    }

    @pytest.mark.parametrize(
        "field, value",
        [(field, x) for field in LIST_FIELDS for x in (math.nan, math.inf)] + [("run.q0", "a")],
    )
    def test_bad_list_entry_is_a_config_error(self, tmp_path, capsys, field, value):
        config = rwmc_config(str(tmp_path / "out"), n_steps=20)
        config["target"], q0 = self.LIST_FIELDS[field](value)
        if config["target"]["name"].startswith("hilbert"):
            config["sampler"] = {"name": "pcn", "delta": 0.5}
        if q0 is not None:
            config["run"]["q0"] = q0
        assert main(["run", str(write_config(tmp_path, config))]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    # Improper targets, each with the message that names its field.
    IMPROPER_TARGETS = {
        "rosenbrock.b=0": ({"name": "rosenbrock", "b": 0.0}, "target: b must be > 0"),
        "rosenbrock.b<0": ({"name": "rosenbrock", "b": -1.0}, "target: b must be > 0"),
        "power_law.p=1": (
            {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 4, "p": 1.0}}},
            "target.eigenvalues.power_law: p must be > 1",
        ),
        "power_law.p<1": (
            {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 4, "p": 0.5}}},
            "target.eigenvalues.power_law: p must be > 1",
        ),
    }

    @pytest.mark.parametrize("case", list(IMPROPER_TARGETS))
    def test_improper_target_is_a_config_error(self, tmp_path, capsys, case):
        config = rwmc_config(str(tmp_path / "out"), n_steps=20)
        config["target"], message = self.IMPROPER_TARGETS[case]
        if config["target"]["name"].startswith("hilbert"):
            config["sampler"] = {"name": "pcn", "delta": 0.5}
        assert main(["run", str(write_config(tmp_path, config))]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_output_dir_flag_wins_over_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("INVMH_OUTPUT_DIR", str(env_dir))
        config = rwmc_config(str(tmp_path / "cfg"), n_steps=20)
        del config["output"]["directory"]
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "summary.json").exists()
        assert not env_dir.exists()

    def test_env_var_used_as_default(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("INVMH_OUTPUT_DIR", str(env_dir))
        config = rwmc_config("ignored", n_steps=20)
        del config["output"]["directory"]
        path = write_config(tmp_path, config)
        assert main(["run", str(path)]) == 0
        assert (env_dir / "summary.json").exists()


class TestEverySampler:
    # One run per sampler in the table and per optional form it takes.
    RUNS = {
        "rwmc": (FD2, {"name": "rwmc", "scale": [0.5, 1.2]}),
        "mala": (ANISO, {"name": "mala", "delta": 0.8}),
        "hmc": (FD2, {"name": "hmc", "delta": 0.3, "n": 3}),
        "hmc.mass": (FD2, {"name": "hmc", "delta": 0.3, "n": 2, "mass": [2.0, 0.5]}),
        "relativistic_hmc": (
            FD2, {"name": "relativistic_hmc", "delta": 0.3, "n": 2, "m": 1.0, "c": 2.0}
        ),
        "rmhmc": (ROSENBROCK, {"name": "rmhmc", "delta": 0.2, "n": 3}),
        "surrogate_hmc": (
            ANISO, {"name": "surrogate_hmc", "delta": 0.3, "n": 2, "surrogate_scale": 0.9}
        ),
        "pcn": (QUARTIC, {"name": "pcn", "rho": 0.9}),
        "inf_mala": (QUARTIC, {"name": "inf_mala", "delta": 0.5}),
        "inf_hmc": (LINEAR, {"name": "inf_hmc", "delta1": 0.3, "delta2": 0.5, "n": 3}),
        "gen_langevin.grad": (QUARTIC, {"name": "gen_langevin", "delta": 0.5}),
        "gen_langevin.zero": (
            LINEAR, {"name": "gen_langevin", "delta": 0.5, "surrogate": "zero"}
        ),
    }

    def test_runs_cover_the_table(self):
        assert {sampler["name"] for _, sampler in self.RUNS.values()} == set(SAMPLERS)

    @pytest.mark.parametrize("case", list(RUNS))
    def test_runs_through_invmh_run(self, tmp_path, case):
        outdir = tmp_path / "out"
        config = experiment(outdir, *self.RUNS[case])
        assert main(["run", str(write_config(tmp_path, config))]) == 0
        lines = (outdir / "chain_000.csv").read_text().splitlines()
        assert len(lines) == 1 + 101  # header + steps 0, 2, ..., 200
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["sampler"] == config["sampler"]
        assert 0.0 < summary["chains"][0]["acceptance_rate"] <= 1.0


class TestConfigErrors:
    # Invalid configs, each with the whole line it prints.  Several hold two
    # errors, of which the one read first is reported.  A fourth entry, when
    # present, adds fields to the config's sections (or new sections).
    MALA = {"name": "mala", "delta": 0.5}
    PCN = {"name": "pcn", "delta": 0.5}
    CASES = {
        "unknown sampler": (
            FD2, {"name": "nuts"}, "sampler.name: unknown sampler 'nuts'; see `invmh list`"
        ),
        "fd sampler, hilbert target": (
            QUARTIC, MALA, "sampler.name: mala requires a finite-dimensional target"
        ),
        "hilbert sampler, fd target": (
            FD2, PCN, "sampler.name: pcn requires a Hilbert-space target"
        ),
        "kind before parameters": (
            FD2, {"name": "inf_hmc"}, "sampler.name: inf_hmc requires a Hilbert-space target"
        ),
        "sampler.surrogate": (
            QUARTIC,
            {"name": "gen_langevin", "delta": 0.5, "surrogate": "other"},
            "sampler.surrogate: expected 'grad' or 'zero'",
        ),
        "delta before surrogate": (
            QUARTIC,
            {"name": "gen_langevin", "surrogate": "other"},
            "sampler.delta: missing required field",
        ),
        "delta before mass": (
            FD2, {"name": "hmc", "mass": "abc"}, "sampler.delta: missing required field"
        ),
        "n before mass": (
            FD2,
            {"name": "hmc", "delta": 0.3, "n": 1.5, "mass": "abc"},
            "sampler.n: expected an integer, got 1.5",
        ),
        "mass before config checks": (
            FD2,
            {"name": "hmc", "delta": -0.3, "mass": "abc"},
            "sampler: could not convert string to float: 'abc'",
        ),
        "config checks before m": (
            FD2,
            {"name": "relativistic_hmc", "delta": 0.0, "m": "x"},
            "sampler: step size delta must be positive",
        ),
        "surrogate_scale before config checks": (
            FD2,
            {"name": "surrogate_hmc", "delta": 0.0, "surrogate_scale": "x"},
            "sampler.surrogate_scale: expected a finite number, got 'x'",
        ),
        "sampler": (
            FD2,
            {"name": "hmc", "delta": 0.3, "mass": [[1.0, 2.0], [2.0, 1.0]]},
            "sampler: matrix is not positive definite",
        ),
        # A non-finite entry of a 2-d value is named on the one line.
        "sampler, non-finite matrix": (
            FD2,
            {"name": "hmc", "delta": 0.3, "mass": [[1.0, 0.0], [0.0, math.nan]]},
            "sampler: mass must be finite, got nan at index [1, 1]",
        ),
        # A field the sampler does not read, misspelled or another's, is
        # reported before the fields it reads.
        "unknown field": (FD2, {"name": "mala", "detla": 3}, "sampler.detla: unknown field for mala"),
        "another sampler's field": (
            FD2, {"name": "mala", "delta": 0.5, "n": 50}, "sampler.n: unknown field for mala"
        ),
        "a mass relativistic_hmc ignores": (
            FD2,
            {"name": "relativistic_hmc", "delta": 0.3, "mass": [2.0, 2.0]},
            "sampler.mass: unknown field for relativistic_hmc",
        ),
        "sampler.scale": (
            FD2,
            {"name": "rwmc", "scale": [1.0, 2.0, 3.0]},
            "sampler.scale: scale must be a number or a list of length 1 or 2, got length 3",
        ),
        "sampler, hilbert": (
            QUARTIC,
            {"name": "pcn", "rho": 0.5, "delta": 0.5},
            "sampler: specify exactly one of rho or delta",
        ),
        "target": (
            {"name": "rosenbrock", "dim": 0}, MALA, "target: dim must be an integer >= 1, got 0"
        ),
        "target.variances": (
            {"name": "anisotropic_gaussian", "variances": [1.0, -1.0]},
            MALA,
            "target.variances: variances must be a nonempty positive vector",
        ),
        "target.coefficients": (
            {**LINEAR, "coefficients": "x"},
            PCN,
            "target.coefficients: could not convert string to float: 'x'",
        ),
        "target.coefficients length": (
            {**LINEAR, "coefficients": [0.5, -0.2]},
            PCN,
            "target.coefficients: coefficients must be a number or a list of length 1 or 3, "
            "got length 2",
        ),
        "target.eigenvalues.values": (
            {"name": "hilbert_quartic", "eigenvalues": {"values": [1.0, -0.5]}},
            PCN,
            "target.eigenvalues.values: eigenvalues must be strictly positive",
        ),
        "target.eigenvalues.power_law": (
            {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 4, "c": -1.0}}},
            PCN,
            "target.eigenvalues.power_law: eigenvalue scale must be positive",
        ),
        # Every section rejects a field it does not read, before the fields
        # it reads; the top level first.
        "target.dimm": (
            {"name": "rosenbrock", "dim": 0, "dimm": 5},
            MALA,
            "target.dimm: unknown field for rosenbrock",
        ),
        "another target's field": (
            {**FD2, "variances": [1.0, 2.0]},
            MALA,
            "target.variances: unknown field for standard_gaussian",
        ),
        "target.eigenvalues": (
            {"name": "hilbert_quartic", "eigenvalues": {"value": [1.0], "power_law": {"d": 4}}},
            PCN,
            "target.eigenvalues.value: unknown field",
        ),
        "target.eigenvalues both": (
            {"name": "hilbert_quartic", "eigenvalues": {"values": [1.0], "power_law": {"d": 4}}},
            PCN,
            "target.eigenvalues: expected exactly one of 'values' or 'power_law'",
        ),
        "target.eigenvalues empty": (
            {"name": "hilbert_quartic", "eigenvalues": {}},
            PCN,
            "target.eigenvalues: expected exactly one of 'values' or 'power_law'",
        ),
        "target.eigenvalues.power_law": (
            {"name": "hilbert_quartic", "eigenvalues": {"power_law": {"d": 4, "pp": 3.0}}},
            PCN,
            "target.eigenvalues.power_law.pp: unknown field",
        ),
        "run.burnin": (FD2, MALA, "run.burnin: unknown field", {"run": {"burnin": 50}}),
        "output.thining": (
            FD2, MALA, "output.thining: unknown field", {"output": {"thining": 10}}
        ),
        "top level": (
            {"name": "rosenbrock", "dimm": 5},
            MALA,
            "config.outptu: unknown field",
            {"run": {"burnin": 50}, "output": {"thining": 10}, "outptu": {}},
        ),
        "target before sampler": (
            {"name": "donut"},
            {"name": "nuts"},
            "target.name: unknown target 'donut'; see `invmh list`",
        ),
        # One case per kind of field.
        "float": (
            FD2,
            {"name": "mala", "delta": True},
            "sampler.delta: expected a finite number, got True",
        ),
        "int": (
            {"name": "standard_gaussian", "dim": 2.0},
            MALA,
            "target.dim: expected an integer, got 2.0",
        ),
        "str": (FD2, {"name": 3}, "sampler.name: expected a string, got 3"),
        "list": (
            {"name": "anisotropic_gaussian", "variances": "abc"},
            MALA,
            "target.variances: expected a list, got 'abc'",
        ),
        "object": (
            {"name": "hilbert_quartic", "eigenvalues": [1.0]},
            PCN,
            "target.eigenvalues: expected an object, got [1.0]",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_reports_the_first_error(self, tmp_path, capsys, case):
        target, sampler, message, *extra = self.CASES[case]
        config = experiment(tmp_path / "out", target, sampler)
        for section, fields in (extra[0] if extra else {}).items():
            config[section] = {**config.get(section, {}), **fields}
        assert main(["run", str(write_config(tmp_path, config))]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_surrogate_hmc_needs_a_gradient(self):
        flat = TargetPotential(eval=lambda q: 0.0)
        with pytest.raises(ConfigError, match="surrogate_hmc requires a target with a gradient"):
            build_kernel({"name": "surrogate_hmc", "delta": 0.3}, "fd", flat, 2)
