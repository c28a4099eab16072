"""Command-line entry point: compile, simulate, train, verify.

Experiments are described by a flat key-value config file with dotted
section names (``train.eta = 0.9``); unknown keys are rejected so typos in
rate constants fail loudly.  All outputs are CSV/SVG/plain-text files in
the chosen output directory.  Exit codes: 0 success, 1 configuration
error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analysis, oracle, presets, svg, training
from .compiler import (
    NetSpec,
    TrainSpec,
    WeightSet,
    compile_feedforward,
    compile_program,
)
from .crn import CrnError, State, crn_from_text, crn_to_text
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    OscillatorExecutor,
    PhasedExecutor,
    integrate,
)
from .oscillator import OscillatorSpec

__all__ = ["ExperimentConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, malformed value, bad combination)."""


_KNOWN_KEYS = {
    "problem": str,
    "mode": str,
    "out": str,
    "net.input_width": int,
    "net.hidden_width": int,
    "net.output_width": int,
    "train.samples": "matrix",
    "train.batch_size": int,
    "train.eta": float,
    "train.threshold": float,
    "train.judge_rates": "vector",
    "weights.plus": "matrix",
    "weights.minus": "matrix",
    "schedule.window": float,
    "schedule.max_cycles": int,
    "schedule.gate_eps": float,
    "oscillator.count": int,
    "oscillator.rate": float,
    "oscillator.threshold": float,
    "integrator.rel_tol": float,
    "integrator.abs_tol": float,
    "grid.size": int,
}


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, with exactly one execution mode."""

    net: NetSpec
    train: Optional[TrainSpec]
    mode: str = "phased"
    window: float = 50.0
    max_cycles: int = 40
    gate_eps: float = 1e-3
    oscillator: OscillatorSpec = field(default_factory=lambda: OscillatorSpec(32, 2.0))
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    grid_size: int = 10
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.mode not in ("phased", "oscillator"):
            raise ConfigError(f"mode must be 'phased' or 'oscillator', got {self.mode!r}")
        if not 0 < self.window < np.inf or self.max_cycles < 1:
            raise ConfigError(
                "schedule.window must be positive and finite and schedule.max_cycles >= 1"
            )
        if self.grid_size < 1:
            raise ConfigError(f"grid.size must be >= 1, got {self.grid_size}")


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [
            [float(v) for v in row.split(",") if v.strip() != ""]
            for row in text.split(";")
            if row.strip() != ""
        ]
        matrix = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix value {text!r}: {exc}") from None
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"matrix value {text!r} has a non-finite entry")
    return matrix


def _parse_scalar(key: str, kind, raw: str):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"value for {key!r} must be finite, got {raw!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse the flat key-value config file; unknown keys are errors."""
    values: Dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _KNOWN_KEYS[key]
        if kind == "matrix":
            values[key] = _parse_matrix(value)
        elif kind == "vector":
            values[key] = _parse_matrix(value).ravel()
        else:
            values[key] = _parse_scalar(key, kind, value)
    return _build_config(values)


def _build_config(values: Dict[str, object]) -> ExperimentConfig:
    problem = str(values.get("problem", "custom")).lower()
    if problem != "custom":
        if problem not in presets.GATES:
            known = sorted(presets.GATES)
            raise ConfigError(f"unknown problem {problem!r} (use {known} or 'custom')")
        preset = presets.GATES[problem]
        values.setdefault("train.samples", np.array(preset["samples"], dtype=float))
        values.setdefault("weights.plus", np.array(preset["plus"], dtype=float))
        values.setdefault("weights.minus", np.array(preset["minus"], dtype=float))
    net = NetSpec(
        int(values.get("net.input_width", 2)),
        int(values.get("net.hidden_width", 2)),
        int(values.get("net.output_width", 1)),
    )
    train: Optional[TrainSpec] = None
    if "train.samples" in values:
        if "weights.plus" not in values or "weights.minus" not in values:
            raise ConfigError("training needs weights.plus and weights.minus")
        weights = WeightSet.from_stacked(values["weights.plus"], values["weights.minus"])
        judge = values.get("train.judge_rates", np.array(presets.JUDGE_RATES))
        if len(judge) != 4:
            raise ConfigError("train.judge_rates needs exactly four rate constants")
        try:
            train = TrainSpec(
                samples=values["train.samples"],
                batch_size=int(values.get("train.batch_size", 2)),
                eta=float(values.get("train.eta", 0.9)),
                threshold=float(values.get("train.threshold", 0.5)),
                judge_rates=tuple(float(k) for k in judge),
                init_weights=weights,
            )
        except CrnError as exc:
            raise ConfigError(str(exc)) from None
    try:
        integrator = IntegratorConfig(
            rel_tol=float(values.get("integrator.rel_tol", 1e-8)),
            abs_tol=float(values.get("integrator.abs_tol", 1e-10)),
        )
    except IntegrationError as exc:
        raise ConfigError(str(exc)) from None
    osc = OscillatorSpec(
        count=int(values.get("oscillator.count", 32)),
        rate=float(values.get("oscillator.rate", 2.0)),
        on_threshold=float(values.get("oscillator.threshold", 0.1)),
    )
    return ExperimentConfig(
        net=net,
        train=train,
        mode=str(values.get("mode", "phased")),
        window=float(values.get("schedule.window", 50.0)),
        max_cycles=int(values.get("schedule.max_cycles", 40)),
        gate_eps=float(values.get("schedule.gate_eps", 1e-3)),
        oscillator=osc,
        integrator=integrator,
        grid_size=int(values.get("grid.size", 10)),
        output_dir=Path(str(values.get("out", "out"))),
    )


def _require_train(config: ExperimentConfig) -> TrainSpec:
    if config.train is None:
        raise ConfigError("this command needs a training setup (train.samples / weights.*)")
    return config.train


def _write_species_csv(path, program, x0: State) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("species,role,init\n")
        for name in program.crn.registry.names:
            role = program.crn.registry.role(name) or ""
            fh.write(f"{name},{role},{x0.get(name)!r}\n")


def cmd_compile(config: ExperimentConfig) -> int:
    """Write the compiled program text and the species/role/init sidecar CSV."""
    train = _require_train(config)
    program, x0 = compile_program(config.net, train)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "program.txt").write_text(crn_to_text(program.crn), encoding="utf-8")
    _write_species_csv(out / "species.csv", program, x0)
    print(f"compiled {program.crn.n_species} species, {program.crn.n_reactions} reactions "
          f"over {len(program.phases)} phases -> {out}")
    return EXIT_OK


def _decode_round_rows(run: training.TrainingRun) -> List[str]:
    rows = []
    for rec in run.rounds:
        outs = ";".join(repr(float(v)) for v in rec.outputs)
        errs = ";".join(repr(float(v)) for v in rec.errors)
        rows.append(f"{rec.round_index},{rec.block},{outs},{errs},{rec.gate!r}")
    return rows


def cmd_train(config: ExperimentConfig) -> int:
    """Run the training loop until the gate halts it, then evaluate and plot."""
    train = _require_train(config)
    program, x0 = compile_program(config.net, train)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    run = training.run_training(
        program, x0,
        window=config.window,
        cfg=config.integrator,
        max_rounds=config.max_cycles,
        gate_eps=config.gate_eps,
        oscillator=config.oscillator if config.mode == "oscillator" else None,
    )
    with open(out / "train_log.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,block,outputs,errors,gate\n")
        fh.write("\n".join(_decode_round_rows(run)) + "\n")
    with open(out / "weight_trajectory.csv", "w", encoding="utf-8", newline="\n") as fh:
        labels = [f"w1_{i}_{j}" for i in (1, 2) for j in (1, 2, 3)] + [f"w2_1_{a}" for a in (1, 2, 3)]
        fh.write("round," + ",".join(labels) + "\n")
        for rec in run.rounds:
            flat = list(rec.w1.ravel()) + list(rec.w2.ravel())
            fh.write(f"{rec.round_index}," + ",".join(repr(float(v)) for v in flat) + "\n")
    w1, w2 = run.final_weights
    weights = WeightSet.from_real(w1, w2)
    samples = train.samples[:, :2]
    final_outputs = training.evaluate_outputs(
        config.net, weights, samples, window=config.window, cfg=config.integrator
    )
    with open(out / "final_outputs.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample,x1,x2,label,output\n")
        for i, (row, y) in enumerate(zip(train.samples, final_outputs), start=1):
            fh.write(f"{i},{row[0]!r},{row[1]!r},{row[2]!r},{float(y)!r}\n")
    n = config.grid_size
    axis = (np.arange(n) + 0.5) / n
    grid_points = np.array([(gx, gy) for gy in axis for gx in axis])
    grid_outputs = training.evaluate_outputs(
        config.net, weights, grid_points, window=config.window, cfg=config.integrator
    )
    grid = grid_outputs.reshape(n, n)
    with open(out / "decision_grid.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,output\n")
        for (gx, gy), y in zip(grid_points, grid_outputs):
            fh.write(f"{gx!r},{gy!r},{float(y)!r}\n")
    svg.heatmap(out / "decision_grid.svg", grid, title="decision surface")
    rounds_axis = np.array([rec.round_index for rec in run.rounds], dtype=float)
    track = np.array([list(rec.w1.ravel()) + list(rec.w2.ravel()) for rec in run.rounds])
    series = [(label, track[:, k]) for k, label in enumerate(labels)]
    svg.line_chart(out / "weight_trajectory.svg", rounds_axis, series, title="decoded weights per round")
    status = (
        f"terminated at round {run.termination_round}"
        if run.terminated
        else f"did not terminate within {config.max_cycles} rounds"
    )
    summary = [
        f"mode: {config.mode}",
        f"rounds run: {len(run.rounds)}",
        status,
        "final decoded weights:",
        np.array2string(np.vstack([w1, w2]), precision=6),
        "final outputs over all samples: " + np.array2string(final_outputs, precision=6),
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    print("\n".join(summary))
    return EXIT_OK


_VERIFY_TOLERANCES = {
    "O7": 1e-4, "O13": 1e-4, "O15": 1e-4, "O21": 1e-4,
    "O23": 1e-4, "O27": 1e-4, "O29": 1e-4,
}


def cmd_verify(config: ExperimentConfig) -> int:
    """Phase-by-phase diff of the first round against the exact reference."""
    train = _require_train(config)
    program, x0 = compile_program(config.net, train)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    executor = PhasedExecutor(program, [(tag, config.window) for tag in program.phases],
                              config.integrator)
    _, _, boundaries = executor.run_cycle(executor.initial_values(x0), 0.0)
    w1, w2 = train.init_weights.decoded()
    batch = oracle.Batch.from_samples(train.samples[: train.batch_size])
    reports = analysis.verify_against_oracle(boundaries, program, batch, w1, w2)
    analysis.reports_to_csv(reports, out / "phase_report.csv")
    lines = []
    failed = False
    for report in reports:
        tol = _VERIFY_TOLERANCES.get(report.phase, 1e-3)
        ok = report.max_abs_dev < tol
        failed |= not ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {report.phase}: max deviation "
            f"{report.max_abs_dev:.3e} (tolerance {tol:g})"
        )
    if config.mode == "oscillator":
        dev = _cross_mode_deviation(config, train)
        ok = dev < 1e-2
        failed |= not ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} cross-mode: feedforward outputs deviate "
            f"{dev:.3e} between clock gating and idealized windows (tolerance 1e-2)"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_VERIFY if failed else EXIT_OK


def _cross_mode_deviation(config: ExperimentConfig, train: TrainSpec) -> float:
    inputs = train.samples[: train.batch_size, :2]
    phased = training.evaluate_outputs(
        config.net, train.init_weights, inputs, window=config.window, cfg=config.integrator
    )
    program, x0 = compile_feedforward(config.net, train.init_weights, inputs)
    executor = OscillatorExecutor(program, config.oscillator, config.integrator)
    y, _, _ = executor.run_cycle(executor.initial_values(x0), 0.0)
    clocked = State(executor.registry, y)
    outputs = [clocked.get(program.probes.outputs[(1, l)]) for l in range(1, len(inputs) + 1)]
    return float(np.max(np.abs(phased - outputs)))


def cmd_simulate(config: ExperimentConfig, reaction_file, init_file, duration: float) -> int:
    """Integrate a reaction-list file from an initial-concentration CSV."""
    if not 0 < duration < np.inf:
        raise ConfigError(f"duration must be positive and finite, got {duration}")
    text = Path(reaction_file).read_text(encoding="utf-8")
    crn = crn_from_text(text)
    if crn.n_reactions == 0:
        raise ConfigError(f"no reactions found in {reaction_file}")
    concentrations: Dict[str, float] = {}
    for lineno, line in enumerate(Path(init_file).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("species,"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{init_file}:{lineno}: expected 'species,<init>' columns")
        concentrations[parts[0].strip()] = float(parts[-1])
    x0 = State.from_dict(crn.registry, concentrations)
    traj = integrate(crn, x0, duration, config.integrator)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "trajectory.csv"
    traj.to_csv(out_path)
    print(f"integrated {crn.n_reactions} reactions for {duration} time units -> {out_path}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemnn",
        description="Compile neural networks into reaction networks, simulate and verify them.",
    )
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--mode", choices=["phased", "oscillator"], help="execution mode override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--max-cycles", type=int, help="training round limit override")
    parser.add_argument("--window", type=float, help="phase window length override")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("compile", help="write the compiled program and species table")
    sub.add_parser("train", help="run the chemical training loop")
    sub.add_parser("verify", help="diff one round against the exact reference")
    sim = sub.add_parser("simulate", help="integrate a reaction-list file")
    sim.add_argument("reactions", help="reaction-list text file")
    sim.add_argument("init", help="initial concentrations CSV (species,...,init)")
    sim.add_argument("duration", type=float, help="integration time")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = _build_config({})
        overrides = {
            "mode": args.mode,
            "output_dir": Path(args.out) if args.out else None,
            "max_cycles": args.max_cycles,
            "window": args.window,
        }
        # rebuilt, not assigned, so ExperimentConfig checks the overrides too
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        if args.command == "compile":
            return cmd_compile(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "simulate":
            return cmd_simulate(config, args.reactions, args.init, args.duration)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CrnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
