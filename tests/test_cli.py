"""Config parsing, subcommands, file outputs and the exit-code contract."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemnn
from chemnn.cli import ConfigError, load_config, main

from conftest import XOR_PLUS, XOR_SAMPLES

BASE_CFG = """
problem = xor
mode = phased
schedule.window = 50
schedule.max_cycles = 12
grid.size = 4
"""


def _write_cfg(tmp_path, text=BASE_CFG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfig:
    def test_preset_fills_training_setup(self, tmp_path):
        config = load_config(_write_cfg(tmp_path))
        assert config.train is not None
        np.testing.assert_array_equal(config.train.samples, XOR_SAMPLES)
        plus, _ = config.train.init_weights.stacked()
        np.testing.assert_array_equal(plus, XOR_PLUS)
        assert config.window == 50.0 and config.max_cycles == 12

    def test_custom_matrices(self, tmp_path):
        text = """
        train.samples = 1,0,1; 0,0,0
        train.batch_size = 2
        weights.plus = 3,3,2.5; 4,3,2; 2,3,2.5
        weights.minus = 4,4,1; 3,2,2.5; 1,2,4
        """
        config = load_config(_write_cfg(tmp_path, text))
        assert config.train.samples.shape == (2, 3)

    def test_unknown_key_rejected(self, tmp_path):
        # a typo, and the retired background-fill key
        for line in ("train.ete = 0.9\n", "train.default_conc = 1e-6\n"):
            with pytest.raises(ConfigError, match="unknown config key"):
                load_config(_write_cfg(tmp_path, line))

    def test_malformed_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write_cfg(tmp_path, "schedule.window = plenty\n"))

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write_cfg(tmp_path, "problem = xor\nmode = quantum\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = load_config(_write_cfg(tmp_path, "# comment\n\nproblem = or # inline\n"))
        assert config.train.samples[2, 2] == 1.0


class TestCompileCommand:
    def test_writes_program_and_species(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "compile"]) == 0
        program = (out / "program.txt").read_text()
        species = (out / "species.csv").read_text()
        assert "phase=O27" in program
        assert species.startswith("species,role,init\n")
        assert "half,half,0.5" in species

    def test_idempotent_rerun(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["--config", str(cfg), "--out", str(out), "compile"])
        first = (out / "program.txt").read_bytes()
        main(["--config", str(cfg), "--out", str(out), "compile"])
        assert (out / "program.txt").read_bytes() == first

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "compile"]) == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "integrator.method = rk5",
            "integrator.rel_tol = 0",
            # the fixed-step stepper and the unused seed are gone with their keys
            "integrator.method = rk45",
            "integrator.step = 0.01",
            "seed = 1",
            # non-finite values and an empty decision grid
            "integrator.rel_tol = nan",
            "schedule.window = inf",
            "train.threshold = nan",
            "weights.plus = 3,3,2.5; 4,3,inf; 2,3,2.5",
            "grid.size = 0",
            "grid.size = -2",
        ],
    )
    def test_bad_integrator_setting_is_config_error(self, tmp_path, capsys, setting):
        cfg = _write_cfg(tmp_path, BASE_CFG + setting + "\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "compile"]) == 1
        assert "numerical failure" not in capsys.readouterr().err



class TestSimulateCommand:
    def test_clock_ring_trajectory(self, tmp_path):
        from chemnn.oscillator import OscillatorSpec, build_oscillator
        from chemnn.crn import crn_to_text

        crn = build_oscillator(OscillatorSpec(4, 1.0))
        rxn_file = tmp_path / "ring.txt"
        rxn_file.write_text(crn_to_text(crn))
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\no1,1.0\no2,1e-6\no3,1e-6\no4,1e-6\n")
        out = tmp_path / "sim"
        code = main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "80"])
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) for v in row.split(",")[2:]] for row in rows[1:]])
        # successive pulses: at least three species exceed the threshold somewhere
        assert (data.max(axis=0) > 0.1).sum() >= 3

    def test_adder_trajectory(self, tmp_path):
        from chemnn.compiler import build_addition_gadget
        from chemnn.crn import crn_to_text

        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(crn_to_text(build_addition_gadget()))
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1.0\nb,2.0\nc,0.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "20"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        col = rows[0].split(",").index("c")
        assert float(rows[-1].split(",")[col]) == pytest.approx(3.0, abs=1e-5)

    @pytest.mark.parametrize("init, duration", [
        ("a,nan", "20"), ("a,inf", "20"), ("a,1.0", "nan"), ("a,1.0", "inf"), ("a,1.0", "-1"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, init, duration):
        from chemnn.compiler import build_addition_gadget
        from chemnn.crn import crn_to_text

        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(crn_to_text(build_addition_gadget()))
        init_file = tmp_path / "init.csv"
        init_file.write_text(f"species,init\n{init}\nb,2.0\nc,0.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), duration]) == 1
        assert not (out / "trajectory.csv").exists()

    def test_empty_reaction_file_rejected(self, tmp_path):
        rxn_file = tmp_path / "empty.txt"
        rxn_file.write_text("# nothing here\n")
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\n")
        assert main(["--out", str(tmp_path), "simulate", str(rxn_file), str(init_file), "1"]) == 1

    def test_corrupted_reaction_file_rejected(self, tmp_path):
        rxn_file = tmp_path / "bad.txt"
        rxn_file.write_text("a + b <- c ; k=1\n")
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1\n")
        assert main(["--out", str(tmp_path), "simulate", str(rxn_file), str(init_file), "1"]) == 1


class TestVerifyCommand:
    def test_passes_on_reference_setup(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "verify"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        summary = (out / "summary.txt").read_text()
        assert "FAIL" not in summary
        assert (out / "phase_report.csv").exists()

    def test_phase_report_matches_reference_exactly(self, tmp_path):
        """Window 50 settles every phase of the first XOR round: each row of
        phase_report.csv is within 1e-10 of the exact reference."""
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "verify"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        with open(out / "phase_report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["phase"] for row in rows} == {"O7", "O13", "O15", "O21", "O23", "O27", "O29"}
        worst = max(rows, key=lambda row: float(row["abs_dev"]))
        assert float(worst["abs_dev"]) <= 1e-10, worst

    def test_runs_without_scipy(self, tmp_path):
        """``import chemnn`` and one ``verify`` load no scipy module: chemnn
        needs numpy alone, and scipy is only a ``bench`` extra."""
        cfg = _write_cfg(tmp_path)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "verify"), "verify"]
        code = (
            "import sys\n"
            "import chemnn\n"
            "from chemnn.cli import main\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded(), loaded()[:3]\n"
            f"assert main({argv!r}) == 0\n"
            "assert not loaded(), loaded()[:3]\n"
        )
        src = str(Path(chemnn.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr


class TestTrainCommand:
    def test_single_round_outputs_and_determinism(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["--config", str(cfg), "--out", str(out1), "--max-cycles", "1", "train"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "--max-cycles", "1", "train"]) == 0
        log = (out1 / "train_log.csv").read_text().splitlines()
        assert len(log) == 2  # header plus exactly one round
        for name in ("train_log.csv", "weight_trajectory.csv", "decision_grid.csv",
                     "final_outputs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "decision_grid.svg").exists()
        assert (out1 / "weight_trajectory.svg").exists()
        grid_rows = (out1 / "decision_grid.csv").read_text().splitlines()
        assert len(grid_rows) == 1 + 16  # header + 4x4 grid

    def test_one_update_applied(self, tmp_path):
        from chemnn import oracle
        from conftest import XOR_MINUS

        cfg = _write_cfg(tmp_path)
        out = tmp_path / "t"
        main(["--config", str(cfg), "--out", str(out), "--max-cycles", "1", "train"])
        rows = (out / "weight_trajectory.csv").read_text().splitlines()
        decoded = np.array([float(v) for v in rows[1].split(",")[1:]])
        w = XOR_PLUS - XOR_MINUS
        batch = oracle.Batch.from_samples(XOR_SAMPLES[:2])
        n1, n2 = oracle.mbgd_step(w[:2], w[2:3], batch, 0.9)
        np.testing.assert_allclose(decoded, np.concatenate([n1.ravel(), n2.ravel()]), atol=1e-4)

    def test_oscillator_mode_one_round(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "osc"
        argv = ["--config", str(cfg), "--out", str(out), "--mode", "oscillator",
                "--max-cycles", "1", "train"]
        assert main(argv) == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert len(log) == 2  # header plus exactly one round
        assert "mode: oscillator" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override",
        [
            ["--max-cycles", "-3"],
            ["--max-cycles", "0"],
            ["--window", "0"],
            ["--window", "nan"],
            ["--window", "inf"],
        ],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, override):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *override, "train"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
