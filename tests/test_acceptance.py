"""Acceptance suite: the exit criteria, each printing one PASS/FAIL line.

Criteria 1 and 2 (the published logic-gate runs) use tiered assertions:
first the published iteration counts and value vectors, then a fallback
against the exact loop: the chemical loop's block cycling, threshold 0.5
and full-rotation confirmation in exact arithmetic.  The fallback requires
the chemical loop to make the exact loop's update decision in every round,
which fixes the confirmed round, and its final weights and outputs to
agree with the exact loop's to 1e-3.  In exact arithmetic the XOR run
first closes the gate at round 8 and confirms at round 9, against a
published 12; the OR run closes at round 3 and confirms at round 4,
against a published 5.  No correct program can reach the published
counts, so both criteria are expected to pass on the fallback tier.
"""

import numpy as np
import pytest

from chemnn import analysis, oracle, training
from chemnn.analysis import bistable_equilibria, fit_exponential_rate
from chemnn.compiler import (
    NetSpec,
    TrainSpec,
    WeightSet,
    assemble,
    build_judgment,
    build_logistic,
    build_logistic_preset,
    build_assignment,
    compile_feedforward,
    compile_program,
    Fragment,
)
from chemnn.crn import Complex, Crn, Reaction, SpeciesRegistry, State
from chemnn.integrate import (
    IntegratorConfig,
    PhaseSchedule,
    PhasedExecutor,
    integrate,
    run_oscillator,
    run_phased,
)
from chemnn.oscillator import OscillatorSpec, phase_windows

from conftest import (
    JUDGE_RATES,
    OR_MINUS,
    OR_PLUS,
    OR_SAMPLES,
    XOR_MINUS,
    XOR_PLUS,
    XOR_SAMPLES,
    Y_OR_REPORTED,
    Y_XOR_REPORTED,
    XOR_FINAL_MINUS,
    XOR_FINAL_PLUS,
    OR_FINAL_MINUS,
    OR_FINAL_PLUS,
    exact_replay_deviations,
    finite_difference_gradients,
    fragment_program,
    run_windows,
)

NET = NetSpec(2, 2, 1)
# Criteria 1-2 leave the window length open.  The logistic and the
# complements settle at rate 1; the slowest stages left are the bistable
# judgment near its threshold (the XOR run's round 7 has |error| 0.5037)
# and the error rails' annihilation, and 200 time units settle both.
GATE_RUN_WINDOW = 200.0


def _status(n, ok, detail):
    line = f"[acceptance {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def _gate_training_run(plus, minus, samples, window=GATE_RUN_WINDOW, max_rounds=30):
    weights = WeightSet.from_stacked(plus, minus)
    spec = TrainSpec(
        samples=samples, batch_size=2, eta=0.9, threshold=0.5,
        judge_rates=JUDGE_RATES, init_weights=weights,
    )
    program, x0 = compile_program(NET, spec)
    run = training.run_training(program, x0, window=window, max_rounds=max_rounds)
    return program, run, weights


def _exact_loop(weights: WeightSet, samples, max_rounds=60):
    """The chemical loop's rules in exact arithmetic: blocks of two in turn,
    no update in a round whose errors are all below 0.5, and a stop once
    such rounds have run for a full block rotation.  Returns the per-round
    update decisions and the final weights."""
    w1, w2 = weights.decoded()
    blocks = oracle.batches_of(samples, 2)
    decisions, streak = [], 0
    while streak < len(blocks) and len(decisions) < max_rounds:
        batch = blocks[len(decisions) % len(blocks)]
        errors = np.abs(batch.labels - oracle.forward(w1, w2, batch).outputs)
        update = bool(np.any(errors >= 0.5))
        decisions.append(update)
        streak = 0 if update else streak + 1
        if update:
            w1, w2 = oracle.mbgd_step(w1, w2, batch, 0.9)
    return decisions, w1, w2


GATES = {"xor": (XOR_PLUS, XOR_MINUS, XOR_SAMPLES), "or": (OR_PLUS, OR_MINUS, OR_SAMPLES)}


@pytest.fixture(scope="module")
def xor_run():
    return _gate_training_run(*GATES["xor"])


@pytest.fixture(scope="module")
def or_run():
    return _gate_training_run(*GATES["or"])


def _tiered_reproduction(n, run, weights, samples, published_round, published_y,
                         published_w, window, exact_rounds):
    w1, w2 = run.final_weights
    final_y = training.evaluate_outputs(NET, WeightSet.from_real(w1, w2),
                                        samples[:, :2], window=window)
    detail = [f"terminated={run.terminated} round={run.confirmed_round}"]
    assert run.terminated, "chemical loop failed to halt"

    # primary tier: published count and published vectors
    primary_count = run.confirmed_round == published_round
    y_dev = float(np.abs(final_y - published_y).max())
    w_dev = float(np.abs(np.vstack((w1, w2)) - published_w).max())
    primary = primary_count and y_dev < 5e-3 and w_dev < 5e-3
    detail.append(f"published: count {run.confirmed_round} vs {published_round}, "
                  f"|y-dev| {y_dev:.2e}, |w-dev| {w_dev:.2e}")
    if primary:
        _status(n, True, "; ".join(detail) + " (primary)")
        return

    # fallback tier: the exact loop's update decisions, weights and outputs;
    # ``exact_rounds`` pins the exact loop's own (first closed, confirmed)
    # rounds, so a drift in the reference or the samples cannot pass unseen
    decisions, exact_w1, exact_w2 = _exact_loop(weights, samples)
    same_decisions = run.update_decisions == decisions
    first_closed = decisions.index(False) + 1 if False in decisions else None
    reference_ok = (first_closed, len(decisions)) == exact_rounds
    exact_y = oracle.forward(exact_w1, exact_w2, oracle.Batch.from_samples(samples)).outputs
    w_oracle_dev = float(max(np.abs(w1 - exact_w1).max(), np.abs(w2 - exact_w2).max()))
    y_oracle_dev = float(np.abs(final_y - exact_y).max())
    detail.append(f"fallback: update decisions {'match' if same_decisions else 'DIFFER from'} "
                  f"the exact loop (gate first closed at round {first_closed}, confirmed at "
                  f"{len(decisions)}; expected {exact_rounds[0]} and {exact_rounds[1]}), "
                  f"|w vs oracle loop| {w_oracle_dev:.2e}, |y vs oracle loop| {y_oracle_dev:.2e}")
    ok = reference_ok and same_decisions and w_oracle_dev < 1e-3 and y_oracle_dev < 1e-3
    _status(n, ok, "; ".join(detail) + " (fallback)")
    assert ok, (
        f"criterion {n}: published-run reproduction failed both tiers: " + "; ".join(detail)
        + ". The published counts are out of reach of exact arithmetic (the exact loop "
          "confirms XOR at round 9 and OR at round 4), so the fallback is the contract: "
          "an exact loop off those rounds means the reference or the samples changed; a "
          "differing update decision or a deviation of 1e-3 or more means some phase "
          "did not settle within the window"
    )


def test_c01_xor_reproduction(xor_run):
    program, run, weights = xor_run
    _tiered_reproduction(
        1, run, weights, XOR_SAMPLES, 12, Y_XOR_REPORTED,
        XOR_FINAL_PLUS - XOR_FINAL_MINUS, GATE_RUN_WINDOW, exact_rounds=(8, 9),
    )


def test_c02_or_reproduction(or_run):
    program, run, weights = or_run
    _tiered_reproduction(
        2, run, weights, OR_SAMPLES, 5, Y_OR_REPORTED,
        OR_FINAL_PLUS - OR_FINAL_MINUS, GATE_RUN_WINDOW, exact_rounds=(3, 4),
    )


def test_gate_runs_match_exact_replay(xor_run, or_run):
    """With every species the compiler does not load starting at zero, each
    round of both window-200 runs lands within 1e-9 of its exact replay:
    outputs, errors and updated weights."""
    worst = {
        name: float(exact_replay_deviations(run, program.train).max())
        for name, (program, run, _) in (("xor", xor_run), ("or", or_run))
    }
    assert max(worst.values()) < 1e-9, worst


@pytest.mark.parametrize("gate", sorted(GATES))
def test_update_decisions_match_exact_loop_at_short_window(gate):
    """Once every phase settles, the window length does not change training:
    at window 50 every round makes the exact loop's update decision, as
    c01 and c02 require at their window."""
    _, run, weights = _gate_training_run(*GATES[gate], window=50.0)
    assert run.terminated
    decisions, _, _ = _exact_loop(weights, GATES[gate][2])
    assert run.update_decisions == decisions


def test_c03_sigmoid_fidelity():
    """Preset and activation reproduce the logistic to 1e-6, for single-rail
    net inputs and for two loaded rails, which the logistic reads by their
    difference without annihilating them first."""
    frag = Fragment()
    frag.merge(build_logistic_preset("hidden", NET, 1))
    frag.merge(build_logistic("hidden", NET, 1))
    program = fragment_program(frag, ("O7", "O13"))
    grid = np.arange(-5.0, 5.01, 0.5)
    single = [(max(n, 0.0), max(-n, 0.0)) for n in grid]
    loaded = [(3.0 + max(n, 0.0), 3.0 + max(-n, 0.0)) for n in grid]
    loaded += [(3.016, 3.0), (3.0, 3.0)]
    worst = 0.0
    for plus, minus in single + loaded:
        init = {"half": 0.5, "n1_1_1p": float(plus), "n1_1_1m": float(minus)}
        windows = [("O7", 50.0), ("O13", 50.0)]
        final = run_windows(program, init, windows).final_state()
        target = float(oracle.sigmoid(plus - minus))
        dev = max(abs(final.get("h1_1") - target), abs(final.get("h1_1b") - (1.0 - target)))
        worst = max(worst, dev)
    ok = worst < 1e-6
    _status(3, ok, f"{len(single)} net inputs in [-5, 5] on one rail, {len(loaded)} on two "
                   f"loaded rails, worst |activation - logistic| {worst:.2e}")
    assert ok


def test_c04_feedforward_matches_reference():
    """50 random weight/sample draws: decoded outputs match the reference to 1e-4."""
    rng = np.random.default_rng(2024)
    accepted = 0
    worst = 0.0
    while accepted < 50:
        w1 = rng.normal(0, 1.5, (2, 3))
        w2 = rng.normal(0, 1.5, (1, 3))
        inputs = rng.uniform(0, 1, (2, 2))
        batch = oracle.Batch.from_samples(
            np.column_stack([inputs, np.zeros(2)])
        )
        trace = oracle.forward(w1, w2, batch)
        # keep draws away from the zero-net-input manifold; the logistic
        # reads the rail difference and settles at rate 1 there too, so the
        # filter only keeps the draw sequence the criterion was written with
        if min(np.abs(trace.net_hidden).min(), np.abs(trace.net_out).min()) < 0.25:
            continue
        accepted += 1
        chemical = training.evaluate_outputs(NET, WeightSet.from_real(w1, w2), inputs, window=50.0)
        worst = max(worst, float(np.abs(chemical - trace.outputs).max()))
    ok = worst < 1e-4
    _status(4, ok, f"50 draws, worst |chemical y - reference y| {worst:.2e}")
    assert ok


def test_c05_gradients_and_update_match_reference():
    """25 random configurations: gradient rails and updated weights to 1e-4,
    with the reference gradients themselves passing finite differences."""
    rng = np.random.default_rng(77)
    accepted = 0
    worst_grad = worst_update = worst_fd = 0.0
    while accepted < 25:
        w1 = rng.normal(0, 1.5, (2, 3))
        w2 = rng.normal(0, 1.5, (1, 3))
        samples = np.column_stack([rng.uniform(0, 1, (2, 2)), rng.integers(0, 2, 2)])
        batch = oracle.Batch.from_samples(samples)
        trace = oracle.forward(w1, w2, batch)
        if min(np.abs(trace.net_hidden).min(), np.abs(trace.net_out).min()) < 0.25:
            continue
        errors = np.abs(batch.labels - trace.outputs)
        if errors.max() < 0.55:  # judgment must leave the gate open
            continue
        if errors.min() < 0.25:  # error rails resolve at a rate set by |error|
            continue
        accepted += 1
        g1, g2 = oracle.gradients(w1, w2, batch)
        f1, f2 = finite_difference_gradients(w1, w2, batch)
        scale = max(1.0, np.abs(f1).max(), np.abs(f2).max())
        worst_fd = max(worst_fd, np.abs(g1 - f1).max() / scale, np.abs(g2 - f2).max() / scale)

        ws = WeightSet.from_real(w1, w2)
        spec = TrainSpec(samples=samples, batch_size=2, eta=0.9, threshold=0.5,
                         judge_rates=JUDGE_RATES, init_weights=ws)
        program, x0 = compile_program(NET, spec)
        executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
        _, _, boundaries = executor.run_cycle(x0.values, 0.0)
        after_grad = boundaries["O27"]
        for (i, j), pair in program.probes.gradients1.items():
            worst_grad = max(worst_grad, abs(
                analysis.decode_dual_rail(after_grad, pair) - g1[i - 1, j - 1]))
        for (o, a), pair in program.probes.gradients2.items():
            worst_grad = max(worst_grad, abs(
                analysis.decode_dual_rail(after_grad, pair) - g2[o - 1, a - 1]))
        n1, n2 = oracle.mbgd_step(w1, w2, batch, 0.9)
        c1, c2 = training.decode_weights(boundaries["O29"], program.probes)
        worst_update = max(worst_update, np.abs(c1 - n1).max(), np.abs(c2 - n2).max())
    ok = worst_grad < 1e-4 and worst_update < 1e-4 and worst_fd < 1e-6
    _status(5, ok, f"25 configurations, worst |gradient dev| {worst_grad:.2e}, "
                   f"worst |update dev| {worst_update:.2e}, worst FD relative {worst_fd:.2e}")
    assert ok


def test_c06_bistability():
    points = bistable_equilibria(*JUDGE_RATES)
    closed_form = [p.e for p in points] == pytest.approx([0.0, 0.5, 3.5])
    labels = [p.stable for p in points] == [True, False, True]

    frag = build_judgment(JUDGE_RATES, 1)
    only_judge = Fragment([r for r in frag.reactions if r.phase == "O25"], frag.roles)
    crn = assemble(only_judge, ("O25",))
    ends = {}
    for e0 in (0.4, 0.6):
        x0 = State.from_dict(crn.registry, {"e_1": e0, "ja_1": (1 / 8) * e0 * e0})
        traj = integrate(crn, x0, 500.0)
        ends[e0] = traj.final_state().get("e_1")
    basins = abs(ends[0.4]) < 1e-4 and abs(ends[0.6] - 3.5) < 1e-4

    try:
        build_judgment((1.0, 1.0, 1.0, 1.0), 1)
        rejects = False
    except Exception:
        rejects = True
    ok = closed_form and labels and basins and rejects
    _status(6, ok, f"equilibria {{0, 0.5, 3.5}} {closed_form}, labels {labels}, "
                   f"basins 0.4->{ends[0.4]:.2e} / 0.6->{ends[0.6]:.4f}, "
                   f"non-bistable rates rejected {rejects}")
    assert ok


def test_c07_gate_blocks_update_below_threshold():
    """All errors at 0.3: the gate closes and weights stay put through the
    learning phases."""
    weights = WeightSet.from_stacked(XOR_PLUS, XOR_MINUS)
    w1, w2 = weights.decoded()
    inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch0 = oracle.Batch.from_samples(np.column_stack([inputs, np.zeros(2)]))
    trace = oracle.forward(w1, w2, batch0)
    labels = trace.outputs - 0.3  # exact error of 0.3 on every sample
    assert np.all(labels >= 0)
    samples = np.column_stack([inputs, labels])
    spec = TrainSpec(samples=samples, batch_size=2, eta=0.9, threshold=0.5,
                     judge_rates=JUDGE_RATES, init_weights=weights)
    program, x0 = compile_program(NET, spec)
    executor = PhasedExecutor(program, [(tag, 50.0) for tag in program.phases])
    _, _, boundaries = executor.run_cycle(x0.values, 0.0)
    gate = boundaries["O25"].get("gate")
    d1, d2 = training.decode_weights(boundaries["O29"], program.probes)
    w_dev = max(np.abs(d1 - w1).max(), np.abs(d2 - w2).max())
    ok = gate < 1e-6 and w_dev < 1e-6
    _status(7, ok, f"errors 0.3 < 0.5: gate {gate:.2e}, weight drift through "
                   f"the learning phases {w_dev:.2e}")
    assert ok


def test_c08_assignment_cycling():
    """Four rounds of the loading/rotation phases present the blocks in order
    1, 2, 1, 2, each accurate to 1e-6."""
    program = fragment_program(build_assignment(4, 2), ("O1", "O3", "O5"))
    init = {}
    for i in range(1, 5):
        init[f"x1_{i}"] = XOR_SAMPLES[i - 1, 0]
        init[f"x2_{i}"] = XOR_SAMPLES[i - 1, 1]
        init[f"d_{i}"] = XOR_SAMPLES[i - 1, 2]
    init["c1_1"] = 1.0
    init["c2_2"] = 1.0
    windows = [("O1", 50.0), ("O3", 50.0), ("O5", 50.0)] * 4
    traj = run_windows(program, init, windows)
    boundaries = traj.boundary_states()
    worst = 0.0
    for cycle in range(4):
        after_load = boundaries[3 * cycle][1]
        block = XOR_SAMPLES[2:] if cycle % 2 else XOR_SAMPLES[:2]
        for l in (1, 2):
            for q, column in ((1, 0), (2, 1), (3, 2)):
                worst = max(worst, abs(after_load.get(f"s{q}_{l}") - block[l - 1, column]))
    ok = worst < 1e-6
    _status(8, ok, f"blocks 1,2,1,2 over four rounds, worst input deviation {worst:.2e}")
    assert ok


def test_c09_exponential_convergence_suite():
    """Certified positive rates for annihilation, copy, and product carriers,
    plus per-window linear log-decay for the precomputation block."""
    results = []
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)

    ann = Crn(SpeciesRegistry(("np", "nm")),
              [Reaction(Complex({"np": 1, "nm": 1}), Complex({}), 1.0)])
    traj = integrate(ann, State.from_dict(ann.registry, {"np": 3.0, "nm": 1.0}), 25.0, tight)
    fit = fit_exponential_rate(traj, {"np": 2.0, "nm": 0.0})
    results.append(("annihilation", fit.gamma))

    copy = Crn(SpeciesRegistry(("s", "h")), [
        Reaction(Complex({"s": 1}), Complex({}), 1.0),
        Reaction(Complex({"s": 1}), Complex({"s": 1, "h": 1}), 1.0),
        Reaction(Complex({"h": 1}), Complex({}), 1.0),
    ])
    traj = integrate(copy, State.from_dict(copy.registry, {"s": 1.0, "h": 0.4}), 45.0, tight)
    fit = fit_exponential_rate(traj, {"s": 0.0, "h": 0.0})
    results.append(("carried copy", fit.gamma))

    product = Crn(SpeciesRegistry(("a", "b", "s1", "s2", "h")), [
        Reaction(Complex({"a": 1}), Complex({"a": 1, "s1": 1}), 1.0),
        Reaction(Complex({"s1": 1}), Complex({}), 1.0),
        Reaction(Complex({"b": 1}), Complex({"b": 1, "s2": 1}), 1.0),
        Reaction(Complex({"s2": 1}), Complex({}), 1.0),
        Reaction(Complex({"s1": 1, "s2": 1}), Complex({"s1": 1, "s2": 1, "h": 1}), 1.0),
        Reaction(Complex({"h": 1}), Complex({}), 1.0),
    ])
    traj = integrate(product, State.from_dict(product.registry, {"a": 1.5, "b": 0.8}), 50.0, tight)
    fit = fit_exponential_rate(traj, {"h": 1.2}, species=["h"])
    results.append(("carried product", fit.gamma))

    # precomputation block: linear log-decay on regions bounded away from
    # the boundary equilibrium, with the rate allowed to degrade as the
    # region shrinks
    split = Crn(SpeciesRegistry(("y1", "y2", "y3", "yt2")), [
        Reaction(Complex({"y1": 1}), Complex({"y2": 1, "y3": 1}), 1.0),
        Reaction(Complex({"y2": 1, "yt2": 1}), Complex({}), 1.0),
    ])
    x0 = State.from_dict(split.registry, {"y1": 1.0, "y2": 0.1, "y3": 0.3, "yt2": 0.7})
    traj = integrate(split, x0, 400.0, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    target = np.array([0.0, 0.4, 1.3, 0.0])
    residual = np.max(np.abs(traj.states - target), axis=1)
    window_gammas = []
    for eps in (1e-2, 1e-4):
        inside = residual >= eps
        slope = np.polyfit(traj.times[inside], np.log(residual[inside]), 1)[0]
        window_gammas.append(-slope)
    ok = all(g > 0 for _, g in results) and all(g > 0 for g in window_gammas)
    detail = ", ".join(f"{name} rate {g:.3f}" for name, g in results)
    detail += f"; split-block window rates {window_gammas[0]:.3f} (eps 1e-2), "
    detail += f"{window_gammas[1]:.3f} (eps 1e-4)"
    _status(9, ok, detail)
    assert ok


def test_c10_oscillator_mode_agrees_with_windows():
    """Clock-gated feedforward within 1e-2 of idealized windows, disjoint
    pulse windows, and sub-1e-6 off-phase leakage per unit time."""
    weights = WeightSet.from_stacked(XOR_PLUS, XOR_MINUS)
    inputs = XOR_SAMPLES[:2, :2]
    program, x0 = compile_feedforward(NET, weights, inputs)
    schedule = PhaseSchedule.uniform(program.phases, 50.0, cycles=1)
    phased = run_phased(program, x0, schedule, record="boundaries").final_state()

    floor = 1e-8
    count = 16
    init = tuple([1.0 - (count - 1) * floor] + [floor] * (count - 1))
    osc = OscillatorSpec(count=count, rate=0.5, init=init)
    traj = run_oscillator(program, x0, osc, cycles=1)
    gated = traj.final_state()
    dev = max(
        abs(phased.get(name) - gated.get(name)) for name in program.probes.outputs.values()
    )

    windows = phase_windows(traj, osc)  # raises on overlapping pulses
    # leakage: between the fifth and seventh pulses nothing that touches the
    # first net-input rail is scheduled and its clock sits far below the
    # threshold, so any drift is pure off-phase leakage
    first_start = {name: start for name, start, _ in reversed(windows)}
    t0, t1 = first_start["o9"], first_start["o13"]
    i0 = int(np.searchsorted(traj.times, t0))
    i1 = int(np.searchsorted(traj.times, t1))
    o1 = traj.series("o1")
    assert o1[i0:i1].max() < 1e-6
    product = traj.series("n1_1_1p")
    leak = abs(product[i1] - product[i0]) / (traj.times[i1] - traj.times[i0])
    ok = dev < 1e-2 and leak < 1e-6 and len(windows) >= count
    _status(10, ok, f"cross-mode output deviation {dev:.2e}, off-phase leakage "
                    f"{leak:.2e} per unit time, {len(windows)} disjoint pulse windows")
    assert ok


def test_c11_decision_surface_grids(xor_run, or_run):
    """10x10 grids with the trained weights: a nonlinear boundary for the
    nonlinear gate, and a class pattern matching the reference-trained one
    exactly for the linear gate.

    The count comparison pits the chemically trained weights against the
    reference-trained ones under exact evaluation.  Chemically evaluated
    knife-edge cells (grid points whose exact output lies within the
    window's settling error of 0.5) are reported but cannot be part of an
    exact-count contract for any finite window."""
    n = 10
    axis = (np.arange(n) + 0.5) / n
    points = np.array([(gx, gy) for gy in axis for gx in axis])
    grid_batch = oracle.Batch.from_samples(np.column_stack([points, np.zeros(len(points))]))

    _, run_x, _ = xor_run
    wx1, wx2 = run_x.final_weights
    grid_x = training.evaluate_outputs(NET, WeightSet.from_real(wx1, wx2), points,
                                       window=GATE_RUN_WINDOW).reshape(n, n)
    classes_x = grid_x > 0.5
    mixed_rows = sum(1 for row in classes_x if row.any() and not row.all())
    nonlinear = mixed_rows >= 1

    _, run_o, weights_o = or_run
    wo1, wo2 = run_o.final_weights
    chem_classes = oracle.forward(wo1, wo2, grid_batch).outputs > 0.5
    ref = oracle.train(OR_SAMPLES, *weights_o.decoded(), eta=0.9, batch_size=2,
                       threshold=0.5)
    ref_classes = oracle.forward(ref.w1, ref.w2, grid_batch).outputs > 0.5
    counts_match = int(chem_classes.sum()) == int(ref_classes.sum())

    chem_grid = training.evaluate_outputs(NET, WeightSet.from_real(wo1, wo2), points,
                                          window=GATE_RUN_WINDOW)
    knife_flips = int(((chem_grid > 0.5) != (chem_classes)).sum())

    ok = nonlinear and counts_match
    _status(11, ok, f"nonlinear gate: {mixed_rows} grid rows carry both classes; "
                    f"linear gate: class count from chemical training "
                    f"{int(chem_classes.sum())} vs reference training "
                    f"{int(ref_classes.sum())} (match={counts_match}); "
                    f"{knife_flips} knife-edge cells flip under "
                    f"chemical evaluation")
    assert ok
