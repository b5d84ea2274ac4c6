"""Acceptance gate: eleven end-to-end behaviors with pinned tolerances.

Each test prints one `criterion NN PASS/FAIL ...` line; run with `-s` to see
them as they complete. Criteria 07 and 09 run full 200-trial presets, so the
whole file takes a few minutes on one core.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_game
from specgame.capacity import (
    RateDistribution,
    approx_utility,
    effective_capacity,
    taylor_diagnostic,
)
from specgame.cli import main
from specgame.config import preset_config, snr_channel
from specgame.dynamics import integrate, replicator_rhs, vertex_profile
from specgame.game import (
    BestResponseLimitError,
    Contention,
    best_response_path,
    enumerate_nash,
    is_nash,
    ordinal_potential,
    shared_rate_distribution,
    verify_potentials,
)
from specgame.learning import StepSchedule, init_state, update_estimates, update_probabilities
from specgame.simulator import SimConfig, run_experiment, run_trial, sweep


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def potential_audit():
    """100 shared instances (N in [2,5], M in [2,4], K in [1,4]) + reports."""
    rng = np.random.default_rng(90125)
    games = [random_game(rng) for _ in range(100)]
    t0 = time.perf_counter()
    reports = [verify_potentials(g, zero_tol=1e-12) for g in games]
    return games, reports, time.perf_counter() - t0


def test_criterion_01_exact_potential(potential_audit):
    _, reports, elapsed = potential_audit
    assert all(r.exhaustive for r in reports)
    epg_max = max(r.epg_max_abs_error for r in reports)
    devs = sum(r.deviations_checked for r in reports)
    ok = epg_max <= 1e-9 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"rate-share vs harmonic potential: max delta error {epg_max:.3e} "
        f"over {devs} deviations, 100 instances in {elapsed:.1f}s "
        f"(tol 1e-9, limit 10s)",
    )


def test_criterion_02_ordinal_sign_law(potential_audit):
    _, reports, elapsed = potential_audit
    sign_bad = sum(r.opg_sign_disagreements for r in reports)
    zero_bad = sum(r.opg_zero_mismatches for r in reports)
    ok = sign_bad == 0 and zero_bad == 0 and elapsed < 60.0
    verdict(
        2,
        ok,
        f"utility vs log-potential deltas: {sign_bad} sign disagreements, "
        f"{zero_bad} zero mismatches, exhaustive sweep in {elapsed:.1f}s "
        f"(limit 60s)",
    )


def test_criterion_03_pure_equilibria_exist(potential_audit):
    games, _, _ = potential_audit
    min_count = None
    stray = 0
    for g in games:
        nash = set(enumerate_nash(g))
        count = len(nash)
        min_count = count if min_count is None else min(min_count, count)
        pots = {
            prof: ordinal_potential(g, prof)
            for prof in itertools.product(
                range(1, g.n_channels + 1), repeat=g.n_users
            )
        }
        best = max(pots.values())
        stray += sum(
            1 for prof, v in pots.items() if v >= best - 1e-12 and prof not in nash
        )
    ok = min_count >= 1 and stray == 0
    verdict(
        3,
        ok,
        f"pure equilibria: min count {min_count} across 100 instances, "
        f"{stray} potential maximizers outside the equilibrium set",
    )


def test_criterion_04_improvement_paths_terminate(potential_audit):
    games, _, _ = potential_audit
    rng = np.random.default_rng(555)
    worst = 0
    failures = 0
    for g in games:
        budget = 50 * g.n_users * g.n_channels
        start = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        try:
            path = best_response_path(g, start, rng, max_steps=budget)
        except BestResponseLimitError:
            failures += 1
            continue
        worst = max(worst, path.steps)
        if not is_nash(g, path.profile).is_nash:
            failures += 1
    verdict(
        4,
        failures == 0,
        f"best-response paths: {failures} failures over 100 instances, "
        f"longest path {worst} steps (budget 50*N*M)",
    )


def test_criterion_05_capacity_properties():
    rng = np.random.default_rng(777)
    grid = np.logspace(-4.0, 0.0, 9)
    mono_bad = jensen_bad = small_bad = 0
    worst_ratio = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        dist = RateDistribution(
            values=tuple(np.cumsum(rng.uniform(0.05, 2.0, size=k))),
            probs=tuple(rng.dirichlet(np.ones(k))),
        )
        mean, var = dist.mean(), dist.variance()
        degenerate = var < 1e-15
        caps = [effective_capacity(dist, float(th)) for th in grid]
        for a, b in zip(caps, caps[1:]):
            if degenerate:
                mono_bad += abs(b - a) > 1e-12
            else:
                mono_bad += not b < a
        for th, c in zip(grid, caps):
            if not degenerate and not c < mean:
                jensen_bad += 1
            if th <= 1e-2 and abs(c - mean) > th * var + 1e-15:
                small_bad += 1
            if th <= 0.05 and not degenerate:
                res_full = taylor_diagnostic(dist, float(th))[1]
                res_half = taylor_diagnostic(dist, float(th) / 2.0)[1]
                # the residual is a difference of O(mean) terms divided by
                # theta, so below ~eps*mean/theta it is cancellation noise
                floor = 50 * np.finfo(float).eps * (mean + 1.0) / th
                if abs(res_full) > floor:
                    worst_ratio = max(worst_ratio, abs(res_half) / abs(res_full))
    ok = mono_bad == 0 and jensen_bad == 0 and small_bad == 0 and worst_ratio <= 0.6
    verdict(
        5,
        ok,
        f"capacity properties: {mono_bad} monotonicity, {jensen_bad} Jensen, "
        f"{small_bad} small-exponent violations; halving residual ratio "
        f"max {worst_ratio:.3f} (tol 0.6)",
    )


def test_criterion_06_estimator_consistency():
    # 100 independent estimate processes as rows of one single-channel state;
    # the payoff is half the realized 5 dB rate (two users splitting evenly).
    channel = snr_channel(1, 5.0)
    theta = 0.1
    target = approx_utility(
        shared_rate_distribution(channel, 2, Contention.FAIR_SHARE), theta
    )
    runs, slots = 100, 10_000
    state = init_state(runs, 1)
    schedule = StepSchedule(eta=0.1, lam=None)
    rng = np.random.default_rng(31415)
    rates = np.asarray(channel.rates)
    cum = np.cumsum(channel.probs)
    profile = np.ones(runs, dtype=int)
    thetas = np.full(runs, theta)
    for _ in range(slots):
        idx = np.minimum(
            np.searchsorted(cum, rng.random(runs), side="right"), rates.size - 1
        )
        state = update_estimates(state, profile, rates[idx] / 2.0, thetas, schedule)
        state = update_probabilities(state, schedule)
    errors = np.abs(state.q[:, 0] - target)
    hits = int(np.sum(errors <= 0.05))
    verdict(
        6,
        hits >= 95,
        f"decaying-gain estimator: within 0.05 of the expected transform in "
        f"{hits}/{runs} runs after {slots} slots (need 95), "
        f"max error {errors.max():.4f}",
    )


def test_criterion_07_fig2_convergence():
    sim = preset_config("fig2").sim
    learned = run_experiment(sim)
    baseline = run_experiment(replace(sim, algorithm="random"))
    theta = sim.game.thetas[0]
    solo_sum = sum(
        effective_capacity(ch.law, theta)
        for ch in sim.game.channels
    )
    converged = [r.agg_ec_closed for r in learned.results if r.conv_slot is not None]
    ratio = float(np.mean(converged)) / solo_sum
    ok = (
        learned.convergence_rate >= 0.90
        and 0.8 <= ratio <= 1.0 + 1e-9
        and learned.mean_agg_closed > baseline.mean_agg_closed
    )
    verdict(
        7,
        ok,
        f"preset fig2: convergence {learned.convergence_rate:.3f} of "
        f"{sim.trials} trials (need 0.90), aggregate/solo-sum ratio "
        f"{ratio:.4f} in [0.8, 1.0], learned {learned.mean_agg_closed:.3f} > "
        f"random {baseline.mean_agg_closed:.3f}",
    )


def test_criterion_08_learning_reaches_equilibrium():
    rng = np.random.default_rng(2468)
    hits = 0
    for i in range(50):
        g = random_game(rng, n_users=4, n_channels=3, theta_choices=(0.01, 0.1, 1.0))
        cfg = SimConfig(game=g, iterations=5000, trials=1, base_seed=1000 + i, lam=0.3)
        result = run_trial(cfg, 0)
        hits += is_nash(g, result.profile, payoff="surrogate").is_nash
    verdict(
        8,
        hits >= 40,
        f"learned profiles: {hits}/50 are equilibria of the surrogate game "
        f"after 5000 iterations (need 40)",
    )


def test_criterion_09_learning_beats_random():
    pieces = []
    ok = True
    for name in ("users_loose", "users_strict"):
        cfg = preset_config(name)
        theta = cfg.sim.game.thetas[0]
        learned = sweep(cfg.sim, cfg.sweep_variable, cfg.sweep_values)
        baseline = sweep(
            replace(cfg.sim, algorithm="random"), cfg.sweep_variable, cfg.sweep_values
        )
        for lp, rp in zip(learned, baseline):
            gap = lp.summary.mean_agg_closed - rp.summary.mean_agg_closed
            ok = ok and gap > 0.0
            pieces.append(f"theta={theta:g} N={int(lp.value)}: {gap:+.4f}")
    verdict(9, ok, "learned minus random mean aggregate: " + ", ".join(pieces))


def _separated(game, margin=0.05):
    """Reject near-ties: per contention level, sorted per-channel surrogate
    payoffs must be at least `margin` apart in relative terms."""
    theta = game.thetas[0]
    for level in range(1, game.n_users + 1):
        vals = sorted(
            approx_utility(shared_rate_distribution(ch, level, game.contention), theta)
            for ch in game.channels
        )
        for lo, hi in zip(vals, vals[1:]):
            if hi - lo < margin * hi:
                return False
    return True


def _tv_to_vertex(p, profile):
    eye = np.eye(p.shape[1])
    return max(
        0.5 * float(np.abs(p[n] - eye[profile[n] - 1]).sum())
        for n in range(p.shape[0])
    )


def test_criterion_10_ode_diagnostics():
    rng = np.random.default_rng(20260816)
    total = hits = lyap_bad = 0
    stationary_max = 0.0
    for _ in range(6):
        while True:
            g = random_game(rng, n_users=3, n_channels=2, theta_choices=(0.1,))
            if _separated(g):
                break
        equilibria = enumerate_nash(g, payoff="surrogate")
        for prof in equilibria:
            rhs = replicator_rhs(g, vertex_profile(g, prof))
            stationary_max = max(stationary_max, float(np.abs(rhs).max()))
        starts = np.stack([rng.dirichlet(np.ones(2), size=3) for _ in range(20)])
        starts = starts * 0.9 + 0.05
        starts = starts / starts.sum(axis=2, keepdims=True)
        traj = integrate(g, starts, dt=0.02, steps=5000)  # the 20 starts as one batch
        lyap_bad += int(np.any(np.diff(traj.potentials, axis=0) < -1e-6, axis=0).sum())
        for final in traj.final:
            tv = min(_tv_to_vertex(final, prof) for prof in equilibria)
            hits += tv <= 0.05
            total += 1
    need = math.ceil(0.9 * total)
    ok = stationary_max <= 1e-9 and lyap_bad == 0 and hits >= need
    verdict(
        10,
        ok,
        f"replicator flow: equilibrium field residual {stationary_max:.1e} "
        f"(tol 1e-9), {hits}/{total} trajectories end within TV 0.05 of an "
        f"equilibrium (need {need}), {lyap_bad} potential drops below -1e-6",
    )


def test_criterion_11_deterministic_csvs(tmp_path):
    outs = {}
    for name, trials in (("a", "8"), ("b", "8"), ("c", "3")):
        out = tmp_path / name
        code = main(
            [
                "experiment",
                "--preset",
                "fig2",
                "--trials",
                trials,
                "--iterations",
                "250",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs[name] = out
    files = ("trials.csv", "users.csv")
    repeat = all(
        (outs["a"] / f).read_bytes() == (outs["b"] / f).read_bytes() for f in files
    )
    prefix = True
    for f in files:
        short = (outs["c"] / f).read_text(encoding="utf-8").splitlines()
        long = (outs["a"] / f).read_text(encoding="utf-8").splitlines()
        prefix = prefix and len(short) > 1 and short == long[: len(short)]
    verdict(
        11,
        repeat and prefix,
        "experiment CSVs byte-identical across a repeat run, and the rows of "
        "--trials 3 equal the leading rows of --trials 8",
    )
