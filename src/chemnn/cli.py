"""Command-line entry point: compile, simulate, train, verify.

Experiments are described by a flat key-value config file with dotted
section names (``train.eta = 0.9``); unknown keys, and a key set twice,
are rejected so typos in rate constants fail loudly.  ``schedule.window``
is the phase window of both modes: phased mode runs each phase for that
long, and oscillator mode runs the program on the clock ring that
``oscillator.ring_for`` sizes to it, so an oscillator round costs more the
longer the window.  ``train`` and ``verify`` decode and check both modes
the same way.  All outputs are CSV/SVG/plain-text files in the chosen
output directory, each CSV written by ``_write_csv``.  Exit codes: 0
success, 1 configuration error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import analysis, oracle, presets, svg, training
from .compiler import NetSpec, TrainSpec, WeightSet, compile_program
from .crn import CrnError, State, crn_from_text, crn_to_text
from .integrate import IntegrationError, IntegratorConfig, integrate
from .oscillator import OscillatorSpec, ring_for

__all__ = ["ExperimentConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, malformed value, bad combination)."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, with exactly one execution mode."""

    net: NetSpec
    train: Optional[TrainSpec]
    mode: str = "phased"
    window: float = training.DEFAULT_WINDOW
    max_cycles: int = 40
    gate_eps: float = 1e-3
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
        if self.gate_eps < 0:
            raise ConfigError(f"schedule.gate_eps must be >= 0, got {self.gate_eps}")


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


# Each key's parser and the constructor argument it sets.  The section before
# the dot names the constructor (``weights`` is WeightSet.from_stacked);
# ``mode``, ``out``, ``schedule.*`` and ``grid.*`` set ExperimentConfig.
_KNOWN_KEYS = {
    "problem": (str.lower, None),  # selects a preset in _build_config
    "mode": (str, "mode"),
    "out": (Path, "output_dir"),
    "net.input_width": (int, "input_width"),
    "net.hidden_width": (int, "hidden_width"),
    "net.output_width": (int, "output_width"),
    "train.samples": (_parse_matrix, "samples"),
    "train.batch_size": (int, "batch_size"),
    "train.eta": (float, "eta"),
    "train.threshold": (float, "threshold"),
    "train.judge_rates": (lambda text: tuple(_parse_matrix(text).ravel().tolist()), "judge_rates"),
    "weights.plus": (_parse_matrix, "plus"),
    "weights.minus": (_parse_matrix, "minus"),
    "schedule.window": (float, "window"),
    "schedule.max_cycles": (int, "max_cycles"),
    "schedule.gate_eps": (float, "gate_eps"),
    "integrator.rel_tol": (float, "rel_tol"),
    "integrator.abs_tol": (float, "abs_tol"),
    "grid.size": (int, "grid_size"),
}

# The command line's training defaults; TrainSpec declares none of these.
_TRAIN_DEFAULTS = {"batch_size": 2, "eta": 0.9, "threshold": 0.5}


def load_config(path) -> ExperimentConfig:
    """Parse the flat key-value config file; unknown and repeated keys are errors."""
    values: Dict[str, object] = {}
    set_on: Dict[str, int] = {}  # the line that set each key
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
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        parse = _KNOWN_KEYS[key][0]
        try:
            values[key] = parse(value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"cannot parse value for {key!r}: {value!r}") from None
        if parse is float and not np.isfinite(values[key]):
            raise ConfigError(f"value for {key!r} must be finite, got {value!r}")
    return _build_config(values)


def _arguments(values: Dict[str, object], *sections: str) -> Dict[str, object]:
    """The constructor arguments that the given sections' keys set."""
    return {_KNOWN_KEYS[key][1]: value for key, value in values.items()
            if key.partition(".")[0] in sections}


def _build_config(values: Dict[str, object]) -> ExperimentConfig:
    problem = values.get("problem", "custom")
    if problem != "custom":
        if problem not in presets.GATES:
            known = sorted(presets.GATES)
            raise ConfigError(f"unknown problem {problem!r} (use {known} or 'custom')")
        preset = presets.GATES[problem]
        values.setdefault("train.samples", np.array(preset["samples"], dtype=float))
        values.setdefault("weights.plus", np.array(preset["plus"], dtype=float))
        values.setdefault("weights.minus", np.array(preset["minus"], dtype=float))
    net = NetSpec(**_arguments(values, "net"))
    train: Optional[TrainSpec] = None
    if "train.samples" in values:
        if "weights.plus" not in values or "weights.minus" not in values:
            raise ConfigError("training needs weights.plus and weights.minus")
        weights = WeightSet.from_stacked(**_arguments(values, "weights"))
        args = {**_TRAIN_DEFAULTS, **_arguments(values, "train")}
        if "judge_rates" in args and len(args["judge_rates"]) != 4:
            raise ConfigError("train.judge_rates needs exactly four rate constants")
        try:
            train = TrainSpec(init_weights=weights, **args)
        except CrnError as exc:
            raise ConfigError(str(exc)) from None
    try:
        integrator = IntegratorConfig(**_arguments(values, "integrator"))
    except IntegrationError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(net, train, integrator=integrator,
                            **_arguments(values, "mode", "out", "schedule", "grid"))


def _require_train(config: ExperimentConfig) -> TrainSpec:
    if config.train is None:
        raise ConfigError("this command needs a training setup (train.samples / weights.*)")
    return config.train


def _ring(config: ExperimentConfig, program) -> Optional[OscillatorSpec]:
    """Oscillator mode's clock ring, whose handoffs last ``config.window``; None when phased."""
    return ring_for(program, config.window) if config.mode == "oscillator" else None


def _write_csv(path, header, rows) -> None:
    """Write a header and rows, floats as ``repr(float(v))``, each line ending in ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


def cmd_compile(config: ExperimentConfig) -> int:
    """Write the compiled program text and the species/role/init sidecar CSV."""
    train = _require_train(config)
    program, x0 = compile_program(config.net, train)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "program.txt").write_text(crn_to_text(program.crn), encoding="utf-8")
    registry = program.crn.registry
    _write_csv(out / "species.csv", ("species", "role", "init"),
               ((name, registry.role(name) or "", x0.get(name)) for name in registry.names))
    print(f"compiled {program.crn.n_species} species, {program.crn.n_reactions} reactions "
          f"over {len(program.phases)} phases -> {out}")
    return EXIT_OK


def cmd_train(config: ExperimentConfig) -> int:
    """Run the training loop until the gate halts it, then evaluate and plot.

    Only the rounds use the clock ring in oscillator mode: the final outputs
    and the decision grid come from idealized windows, as summary.txt says."""
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
        oscillator=_ring(config, program),
    )
    _write_csv(out / "train_log.csv", ("round", "block", "outputs", "errors", "gate"), (
        (rec.round_index, rec.block,
         *(";".join(repr(float(v)) for v in vs) for vs in (rec.outputs, rec.errors)), rec.gate)
        for rec in run.rounds))
    w1, w2 = run.final_weights
    labels = [f"w{layer}_{i}_{j}" for layer, w in ((1, w1), (2, w2))
              for i in range(1, w.shape[0] + 1) for j in range(1, w.shape[1] + 1)]
    track = np.array([np.concatenate([rec.w1.ravel(), rec.w2.ravel()]) for rec in run.rounds])
    _write_csv(out / "weight_trajectory.csv", ("round", *labels),
               ((rec.round_index, *flat) for rec, flat in zip(run.rounds, track)))
    weights = WeightSet.from_real(w1, w2)
    final_outputs = training.evaluate_outputs(
        config.net, weights, train.samples[:, :-1], window=config.window, cfg=config.integrator
    )
    inputs = [f"x{q}" for q in range(1, config.net.input_width + 1)]
    _write_csv(out / "final_outputs.csv", ("sample", *inputs, "label", "output"),
               ((i, *row, y) for i, (row, y) in enumerate(zip(train.samples, final_outputs), 1)))
    if config.net.input_width == 2:
        n = config.grid_size
        axis = (np.arange(n) + 0.5) / n
        grid_points = np.array([(gx, gy) for gy in axis for gx in axis])
        grid_outputs = training.evaluate_outputs(
            config.net, weights, grid_points, window=config.window, cfg=config.integrator
        )
        grid = grid_outputs.reshape(n, n)
        _write_csv(out / "decision_grid.csv", ("x1", "x2", "output"),
                   ((gx, gy, y) for (gx, gy), y in zip(grid_points, grid_outputs)))
        svg.heatmap(out / "decision_grid.svg", grid, title="decision surface")
    rounds_axis = np.array([rec.round_index for rec in run.rounds], dtype=float)
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
        np.array2string(w1, precision=6),
        np.array2string(w2, precision=6),
        "final outputs over all samples: " + np.array2string(final_outputs, precision=6),
    ]
    if config.net.input_width != 2:
        summary.append(f"decision grid skipped: {config.net.input_width} inputs, not 2")
    if config.mode == "oscillator":
        summary.append("final outputs and decision grid: idealized phase windows")
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    print("\n".join(summary))
    return EXIT_OK


_VERIFY_TOLERANCE = 1e-4


def cmd_verify(config: ExperimentConfig) -> int:
    """Phase-by-phase diff of the first round against the exact reference.

    The round runs in the config's mode, and both modes write the same
    ``phase_report.csv`` rows and check them against one tolerance.
    """
    train = _require_train(config)
    program, x0 = compile_program(config.net, train)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    executor = training.make_executor(program, config.window, config.integrator,
                                      _ring(config, program))
    _, _, boundaries = executor.run_cycle(executor.initial_values(x0), 0.0)
    w1, w2 = train.init_weights.decoded()
    batch = oracle.Batch.from_samples(train.samples[: train.batch_size])
    rows = [(phase, label, chem, orc, abs(chem - orc)) for phase, label, chem, orc
            in analysis.verify_against_oracle(boundaries, program, batch, w1, w2)]
    _write_csv(out / "phase_report.csv", ("phase", "quantity", "chemical", "oracle", "abs_dev"), rows)
    worst: Dict[str, float] = {}
    for phase, *_, dev in rows:
        worst[phase] = max(worst.get(phase, dev), dev)
    failed = not all(dev < _VERIFY_TOLERANCE for dev in worst.values())
    lines = [f"{'PASS' if dev < _VERIFY_TOLERANCE else 'FAIL'} {phase}: max deviation "
             f"{dev:.3e} (tolerance {_VERIFY_TOLERANCE:g})" for phase, dev in worst.items()]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_simulate(config: ExperimentConfig, reaction_file, init_file, duration: float) -> int:
    """Integrate a reaction-list file from an initial-concentration CSV."""
    if not 0 < duration < np.inf:
        raise ConfigError(f"duration must be positive and finite, got {duration}")
    text = Path(reaction_file).read_text(encoding="utf-8")
    crn = crn_from_text(text)
    if crn.n_reactions == 0:
        raise ConfigError(f"no reactions found in {reaction_file}")
    concentrations: Dict[str, float] = {}
    set_on: Dict[str, int] = {}  # the line that set each species
    for lineno, line in enumerate(Path(init_file).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("species,"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{init_file}:{lineno}: expected 'species,<init>' columns")
        name, value = parts[0].strip(), parts[-1].strip()
        if name in set_on:
            raise ConfigError(f"{init_file}:{lineno}: species {name!r} is already set on line {set_on[name]}")
        try:
            concentrations[name] = float(value)
        except ValueError:
            raise ConfigError(f"{init_file}:{lineno}: cannot parse the value of {name!r}: {value!r}") from None
        set_on[name] = lineno
    x0 = State.from_dict(crn.registry, concentrations)
    traj = integrate(crn, x0, duration, config.integrator)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "trajectory.csv"
    # the phase column stays empty: a plain integration has no phase windows
    _write_csv(out_path, ("time", "phase", *crn.registry.names),
               ((t, "", *y) for t, y in zip(traj.times, traj.states)))
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
