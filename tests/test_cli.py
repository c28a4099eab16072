"""Config parsing, subcommands, file outputs and the exit-code contract."""

import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemnn
from chemnn.cli import _KNOWN_KEYS, ConfigError, load_config, main

from conftest import ADDER, WIDE_CFG, XOR_MINUS, XOR_PLUS, XOR_SAMPLES, exact_replay_deviations

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


def _matrix(rows) -> str:
    return "; ".join(",".join(repr(float(v)) for v in row) for row in rows)


def _leaves(obj, path="config"):
    """Every leaf field of a config, by its dotted path."""
    if not dataclasses.is_dataclass(obj):
        return {path: obj}
    leaves = {}
    for f in dataclasses.fields(obj):
        leaves.update(_leaves(getattr(obj, f.name), f"{path}.{f.name}"))
    return leaves


def _same(a, b) -> bool:
    return type(a) is type(b) and np.shape(a) == np.shape(b) and bool(np.all(np.asarray(a) == b))


# Each config key, a value other than its default, and the fields that value sets.
_KEY_ROWS = [
    ("problem", "or", ("config.train.samples", "config.train.init_weights")),
    ("mode", "oscillator", ("config.mode",)),
    ("out", "elsewhere", ("config.output_dir",)),
    ("net.input_width", "3", ("config.net.input_width",)),
    ("net.hidden_width", "3", ("config.net.hidden_width",)),
    ("net.output_width", "2", ("config.net.output_width",)),
    ("train.samples", "1,0,0; 0,1,0; 1,1,1; 0,0,0", ("config.train.samples",)),
    ("train.batch_size", "4", ("config.train.batch_size",)),
    ("train.eta", "0.5", ("config.train.eta",)),
    # within the 1e-6 that TrainSpec allows between the threshold and the saddle
    ("train.threshold", "0.5000001", ("config.train.threshold",)),
    # every rate doubled: the same saddle, on half the time scale
    ("train.judge_rates", "16, 2, 4, 0.875", ("config.train.judge_rates",)),
    ("weights.plus", _matrix(XOR_PLUS + [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
     ("config.train.init_weights.w1_plus",)),
    ("weights.minus", _matrix(XOR_MINUS + [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
     ("config.train.init_weights.w2_minus",)),
    ("schedule.window", "50", ("config.window",)),
    ("schedule.max_cycles", "3", ("config.max_cycles",)),
    ("schedule.gate_eps", "0.01", ("config.gate_eps",)),
    ("integrator.rel_tol", "1e-6", ("config.integrator.rel_tol",)),
    ("integrator.abs_tol", "1e-9", ("config.integrator.abs_tol",)),
    ("grid.size", "4", ("config.grid_size",)),
]


class TestConfig:
    def test_preset_fills_training_setup(self, tmp_path):
        config = load_config(_write_cfg(tmp_path))
        assert config.train is not None
        np.testing.assert_array_equal(config.train.samples, XOR_SAMPLES)
        weights = config.train.init_weights
        np.testing.assert_array_equal(np.vstack([weights.w1_plus, weights.w2_plus]), XOR_PLUS)
        assert config.window == 50.0 and config.max_cycles == 12
        # without schedule.window, the default window lets every judgment window settle
        default = load_config(_write_cfg(tmp_path, "problem = xor\n", name="default.cfg"))
        assert default.window == 114.0 and default.max_cycles == 40

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

    @pytest.mark.parametrize("key, value, fields", _KEY_ROWS, ids=[row[0] for row in _KEY_ROWS])
    def test_each_key_sets_only_its_field(self, tmp_path, key, value, fields):
        base = _leaves(load_config(_write_cfg(tmp_path, "problem = xor\n", name="base.cfg")))
        text = "".join(f"{k} = {v}\n" for k, v in {"problem": "xor", key: value}.items())
        config = load_config(_write_cfg(tmp_path, text))
        changed = [path for path, leaf in _leaves(config).items() if not _same(leaf, base[path])]
        owners = [[name for name in fields if path == name or path.startswith(name + ".")]
                  for path in changed]
        assert all(owners) and {name for found in owners for name in found} == set(fields), changed

    def test_every_key_at_its_default_is_the_xor_preset(self, tmp_path):
        defaults = {
            "problem": "xor",
            "mode": "phased",
            "out": "out",
            "net.input_width": "2",
            "net.hidden_width": "2",
            "net.output_width": "1",
            "train.samples": _matrix(XOR_SAMPLES),
            "train.batch_size": "2",
            "train.eta": "0.9",
            "train.threshold": "0.5",
            "train.judge_rates": "8, 1, 2, 0.4375",
            "weights.plus": _matrix(XOR_PLUS),
            "weights.minus": _matrix(XOR_MINUS),
            "schedule.window": "114",
            "schedule.max_cycles": "40",
            "schedule.gate_eps": "1e-3",
            "integrator.rel_tol": "1e-8",
            "integrator.abs_tol": "1e-10",
            "grid.size": "10",
        }
        assert list(defaults) == [key for key, *_ in _KEY_ROWS] == list(_KNOWN_KEYS)
        text = "".join(f"{k} = {v}\n" for k, v in defaults.items())
        full = _leaves(load_config(_write_cfg(tmp_path, text)))
        xor = _leaves(load_config(_write_cfg(tmp_path, "problem = xor\n", name="xor.cfg")))
        assert full.keys() == xor.keys()
        assert all(_same(full[path], xor[path]) for path in xor), [
            path for path in xor if not _same(full[path], xor[path])]

    def test_repeated_key_rejected(self, tmp_path):
        """A key set twice is refused, naming both lines, and is not settled
        by the later line (which loaded eta = 0.9 here without a message)."""
        cfg = _write_cfg(tmp_path, "problem = xor\ntrain.eta = 0.5\n\ntrain.eta = 0.9\n")
        with pytest.raises(ConfigError, match=r":4: config key 'train.eta' is already set on line 2"):
            load_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "compile"]) == 1
        assert not (tmp_path / "out").exists()

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
            # a negative gate threshold can never be met, so training could never stop
            "schedule.gate_eps = -1",
            # shapes the training program cannot take
            "net.output_width = 2",
            "train.samples = 1,0,1,1; 0,0,0,0",
            "weights.plus = 3,3,2.5,1; 4,3,2,1; 2,3,2.5,1",
            # the error readout needs binary labels
            "train.samples = 1,0,1; 0,1,0.5; 1,1,0; 0,0,0",
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
        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(ADDER)
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1.0\nb,2.0\nc,0.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "20"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        col = rows[0].split(",").index("c")
        assert float(rows[-1].split(",")[col]) == pytest.approx(3.0, abs=1e-5)

    def test_trajectory_round_trip(self, tmp_path):
        """trajectory.csv holds every step that ``integrate`` records, each
        value read back exactly, with an empty phase column: a plain
        integration has no phase windows."""
        from chemnn.crn import State, crn_from_text
        from chemnn.integrate import integrate

        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(ADDER)
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1.0\nb,2.0\nc,0.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "5"]) == 0
        crn = crn_from_text(ADDER)
        traj = integrate(crn, State.from_dict(crn.registry, {"a": 1.0, "b": 2.0, "c": 0.0}), 5.0)
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "time,phase," + ",".join(crn.registry.names)
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(traj) > 2 and {row[1] for row in rows} == {""}
        np.testing.assert_array_equal([[float(v) for v in row[:1] + row[2:]] for row in rows],
                                      np.column_stack([traj.times, traj.states]))

    @pytest.mark.parametrize("init, duration", [
        ("a,nan", "20"), ("a,inf", "20"), ("a,1.0", "nan"), ("a,1.0", "inf"), ("a,1.0", "-1"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, init, duration):
        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(ADDER)
        init_file = tmp_path / "init.csv"
        init_file.write_text(f"species,init\n{init}\nb,2.0\nc,0.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), duration]) == 1
        assert not (out / "trajectory.csv").exists()

    def test_repeated_species_rejected(self, tmp_path, capsys):
        """A species set on two lines of the init file is a config error
        that names it and both lines, as a repeated config key is."""
        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(ADDER)
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1.0\nb,2.0\na,5.0\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "20"]) == 1
        assert f"{init_file}:4: species 'a' is already set on line 2" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_unparsable_value_names_its_line(self, tmp_path, capsys):
        rxn_file = tmp_path / "adder.txt"
        rxn_file.write_text(ADDER)
        init_file = tmp_path / "init.csv"
        init_file.write_text("species,init\na,1.0\nb,x\n")
        out = tmp_path / "sim"
        assert main(["--out", str(out), "simulate", str(rxn_file), str(init_file), "20"]) == 1
        assert f"{init_file}:3: cannot parse the value of 'b': 'x'" in capsys.readouterr().err
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

    def test_phase_report_rows_are_the_verified_rows(self, tmp_path):
        """phase_report.csv holds ``verify_against_oracle``'s rows for the
        round, in order, each value read back exactly with its absolute
        deviation; a label with a comma, such as ``w1[1,3]``, is quoted, so
        no row has more fields than the header."""
        from chemnn import analysis, oracle, training
        from chemnn.compiler import compile_program

        cfg = _write_cfg(tmp_path)
        out = tmp_path / "verify"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        config = load_config(cfg)
        program, x0 = compile_program(config.net, config.train)
        executor = training.make_executor(program, config.window, config.integrator, None)
        _, _, boundaries = executor.run_cycle(executor.initial_values(x0), 0.0)
        batch = oracle.Batch.from_samples(config.train.samples[:2])
        expected = analysis.verify_against_oracle(boundaries, program, batch,
                                                  *config.train.init_weights.decoded())
        text = (out / "phase_report.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "phase,quantity,chemical,oracle,abs_dev"
        assert '\nO29,"w1[1,3]",' in text
        with open(out / "phase_report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(expected) == 40
        for row, (phase, label, chem, orc) in zip(rows, expected):
            assert None not in row  # no row has more fields than the header
            assert (row["phase"], row["quantity"]) == (phase, label)
            assert float(row["chemical"]) == chem and float(row["oracle"]) == orc
            assert float(row["abs_dev"]) == abs(chem - orc)

    def test_closed_gate_expects_no_update(self, tmp_path):
        """Every first-block error is below the threshold, so the judgment
        closes the gate: verify expects zero gradient rails and unchanged
        weights, as the exact loop does."""
        text = """
        train.samples = 1,0,1; 0,0,1; 1,1,1; 0,1,1
        weights.plus = 0.5,0,0; 0,0.5,0; 0,0,1
        weights.minus = 0,0,0; 0,0,0; 0,0,0
        """
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "verify"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        with open(out / "phase_report.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row["phase"] in ("O27", "O29")]
        assert rows and all(float(row["abs_dev"]) < 1e-12 for row in rows)
        assert all(float(row["oracle"]) == 0.0 for row in rows if row["phase"] == "O27")

    @pytest.mark.parametrize("text, quantities", [
        (BASE_CFG, 40),
        ("problem = or\ntrain.batch_size = 4\ntrain.eta = 1.0\n", 62),
        (WIDE_CFG, 60),
    ], ids=["xor", "or-one-block", "3-3-1"])
    def test_oscillator_mode_reports_the_phased_rows(self, tmp_path, text, quantities):
        """Oscillator mode verifies the same quantities as phased mode, each
        within the tolerance, on the ring whose handoffs last a window."""
        cfg = _write_cfg(tmp_path, text)
        reports = {}
        for mode in ("phased", "oscillator"):
            out = tmp_path / mode
            assert main(["--config", str(cfg), "--out", str(out), "--mode", mode, "verify"]) == 0
            assert "FAIL" not in (out / "summary.txt").read_text()
            with open(out / "phase_report.csv", newline="", encoding="utf-8") as fh:
                reports[mode] = list(csv.DictReader(fh))
        labels = {mode: [(row["phase"], row["quantity"]) for row in rows]
                  for mode, rows in reports.items()}
        assert labels["oscillator"] == labels["phased"] and len(labels["phased"]) == quantities

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


class TestWiderNetwork:
    def test_compile_verify_train(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, WIDE_CFG)
        out = tmp_path / "wide"
        base = ["--config", str(cfg), "--out", str(out)]
        assert main(base + ["compile"]) == 0
        assert "182 species, 429 reactions over 8 phases" in capsys.readouterr().out
        assert main(base + ["verify"]) == 0
        assert main(base + ["--max-cycles", "4", "train"]) == 0
        with open(out / "final_outputs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample", "x1", "x2", "x3", "label", "output"]
        assert [float(v) for v in rows[1][1:5]] == [1.0, 0.0, 1.0, 1.0]
        header = (out / "weight_trajectory.csv").read_text().splitlines()[0].split(",")
        assert header[1:] == [f"w1_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3, 4)] + [
            f"w2_1_{a}" for a in (1, 2, 3, 4)]
        assert not (out / "decision_grid.csv").exists()
        assert not (out / "decision_grid.svg").exists()
        assert "decision grid skipped" in (out / "summary.txt").read_text()


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
        # the final outputs and the grid come from idealized windows, and the summary says so
        assert "final outputs and decision grid: idealized phase windows" in (out / "summary.txt").read_text()

    def test_oscillator_mode_terminates_with_the_phased_decisions(self, tmp_path, monkeypatch):
        """On the ring sized to the window, oscillator training on OR ends at
        the phased run's round with its decisions, each round within 1e-6 of
        its exact replay."""
        from chemnn import training

        runs = {}
        run_training = training.run_training

        def keep(program, x0, **kwargs):
            runs[kwargs["oscillator"] is not None] = run = run_training(program, x0, **kwargs)
            return run

        monkeypatch.setattr(training, "run_training", keep)
        cfg = _write_cfg(tmp_path, "problem = or\n")
        for mode in ("phased", "oscillator"):
            out = tmp_path / mode
            assert main(["--config", str(cfg), "--out", str(out), "--mode", mode, "train"]) == 0
            summary = (out / "summary.txt").read_text().splitlines()
            assert "terminated at round 3" in summary
            assert ("final outputs and decision grid: idealized phase windows" in summary) == (mode == "oscillator")
        phased, clocked = runs[False], runs[True]
        assert [rec.gate_open for rec in clocked.rounds] == [rec.gate_open for rec in phased.rounds]
        spec = load_config(cfg).train
        assert exact_replay_deviations(clocked, spec).max() < 1e-6

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
