"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test emits "PASS criterion N: ..." or "FAIL criterion N: ..." both to
its own stdout and to the terminal summary (via conftest), then asserts.
Tolerances here are pinned; loosening them is not an option.
"""

import time
from collections import deque

import numpy as np

from capmdp import (
    ExperimentConfig,
    GeneratorRanges,
    InfluenceWeights,
    JointPolicy,
    LipschitzRewardSpec,
    Solver,
    TeamComposition,
    TrainSchedule,
    assemble_linear_mmdp,
    assemble_lipschitz_mmdp,
    certify_approx_dynamics,
    certify_lipschitz,
    certify_population_change,
    certify_team_generalization,
    default_config,
    gamma_factor,
    generate_linear_pair,
    perturb_dynamics,
    policy_evaluation,
    psi,
    q_learning_train,
    reward_deviation_exact,
    run_experiment,
    run_output_dir,
    s_max,
    sample_polynomial_spec,
    successor_features,
    transition_deviation_exact,
)
from capmdp.envs.fruit_forage import desk_config, fruit_forage_state_count
from capmdp.envs.predator_prey import (
    PredatorPreyConfig,
    PredatorPreyEnv,
    pp_task_suites,
)
from capmdp.harness import (
    polynomial_deviation_report,
    run_fruit_forage,
    run_verify_bounds,
)

DEFAULT_RANGES = GeneratorRanges()  # |S| <= 20, n <= 4, d <= 4, joint |U| <= 81

CRITERION_BOUNDS = {
    "team_generalization",
    "policy_transfer",
    "population_decrease",
    "population_increase",
    "capability_estimation",
    "out_of_distribution",
}


def _verdict(criterion: int, ok: bool, detail: str):
    import conftest

    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    conftest.acceptance_verdicts.append(line)
    assert ok, line


def test_criterion_01_random_pair_certification():
    config = ExperimentConfig(kind="verify-bounds", seed=101, num_instances=200)
    start = time.perf_counter()
    rows, _ = run_verify_bounds(config)
    elapsed = time.perf_counter() - start
    gated = [row for row in rows if row["bound_name"] in CRITERION_BOUNDS]
    bad = [row for row in gated if not row["satisfied"]]
    ok = len(rows) == 200 * 9 and not bad and elapsed < 120.0
    _verdict(
        1,
        ok,
        f"200 random pairs, {len(gated)} criterion-bound reports, "
        f"{len(bad)} violations, {elapsed:.1f}s",
    )


def test_criterion_02_perturbed_dynamics_bound():
    bad = 0
    for i in range(200):
        rng = np.random.default_rng([202, i])
        spec_x, spec_y = generate_linear_pair(DEFAULT_RANGES, rng)
        seed_x = int(rng.integers(2**31))
        seed_y = int(rng.integers(2**31))
        actual_x = perturb_dynamics(assemble_linear_mmdp(spec_x), 0.02, 0.02, seed_x)
        actual_y = perturb_dynamics(assemble_linear_mmdp(spec_y), 0.02, 0.02, seed_y)
        report = Solver().report(certify_approx_dynamics, spec_x, spec_y, actual_x, actual_y)
        bad += not report.satisfied

    exact = 0
    for i in range(5):
        rng = np.random.default_rng([203, i])
        spec_x, spec_y = generate_linear_pair(DEFAULT_RANGES, rng)
        gen = Solver().report(certify_team_generalization, spec_x, spec_y)
        reduced = Solver().report(
            certify_approx_dynamics,
            spec_x, spec_y, assemble_linear_mmdp(spec_x), assemble_linear_mmdp(spec_y),
        )
        exact += (
            reduced.bound_value == gen.bound_value
            and reduced.constituents["eps_hat_r"] == 0.0
            and reduced.constituents["eps_hat_p"] == 0.0
        )
    ok = bad == 0 and exact == 5
    _verdict(
        2,
        ok,
        f"200 perturbed pairs at eps 0.02, {bad} violations; "
        f"{exact}/5 exact reductions at zero deviation",
    )


def test_criterion_03_deviation_chain():
    worst_r = 0.0
    worst_p = 0.0
    for i in range(500):
        rng = np.random.default_rng([303, i])
        spec_x, spec_y = generate_linear_pair(DEFAULT_RANGES, rng)
        psi_value = psi(spec_x.team, spec_x.weights, spec_y.team, spec_y.weights)
        smax = s_max(spec_x.reward_kernel, spec_x.states)
        mmdp_x = assemble_linear_mmdp(spec_x)
        mmdp_y = assemble_linear_mmdp(spec_y)
        worst_r = max(worst_r, reward_deviation_exact(mmdp_x, mmdp_y) - smax * psi_value)
        worst_p = max(
            worst_p,
            transition_deviation_exact(mmdp_x, mmdp_y) - spec_x.capability_dim * psi_value,
        )
    ok = worst_r <= 1e-12 and worst_p <= 1e-12
    _verdict(
        3,
        ok,
        f"500 pairs; worst reward slack {worst_r:.2e}, worst transition slack {worst_p:.2e}",
    )


def test_criterion_04_successor_feature_identity():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([404, i])
        spec = generate_linear_pair(DEFAULT_RANGES, rng)[0]
        mmdp = assemble_linear_mmdp(spec)
        policy = JointPolicy(
            actions=rng.integers(0, mmdp.num_joint_actions, mmdp.num_states)
        )
        value = policy_evaluation(mmdp, policy).scalar(mmdp.rho)
        mu = successor_features(mmdp, policy).mu_scalar
        decomposed = sum(
            float(a_i) * float((member.c @ spec.reward_kernel.w) @ mu)
            for a_i, member in zip(spec.weights.a, spec.team.members)
        )
        worst = max(worst, abs(value - decomposed))
    ok = worst <= 1e-6
    _verdict(4, ok, f"100 random policies; worst value decomposition gap {worst:.2e}")


def test_criterion_05_discount_factor_forms():
    crossover = (np.sqrt(5.0) - 1.0) / 2.0
    checks = [
        abs(gamma_factor(g) - (1 + g) / (1 - g)) < 1e-12 for g in (0.1, 0.3, 0.5)
    ]
    checks += [
        abs(gamma_factor(g) - 1.0 / (g * (1 - g))) < 1e-12 for g in (0.7, 0.9)
    ]
    jump = abs(gamma_factor(crossover - 1e-9) - gamma_factor(crossover + 1e-9))
    checks.append(jump < 1e-6)
    ok = all(checks)
    _verdict(
        5,
        ok,
        f"closed forms at five discounts, crossover jump {jump:.2e}",
    )


def test_criterion_06_perfect_substitutes():
    exact_zero = 0
    small_actual = 0
    for i in range(50):
        rng = np.random.default_rng([606, i])
        spec = generate_linear_pair(DEFAULT_RANGES, rng)[0]
        a = spec.weights.a
        base_matrix = spec.team.drop_last().matrix()
        # mirror the removal computation so the mixture gap cancels bitwise
        reduced = a[:-1] / (1.0 - float(a[-1]))
        substitute = reduced @ base_matrix
        team = spec.team.replace_member(spec.team.num_agents - 1, substitute)
        report = Solver().report(
            certify_population_change, spec.with_team(team, spec.weights), "remove-last"
        )
        exact_zero += report.bound_value == 0.0
        small_actual += report.actual_value <= 2e-9
    ok = exact_zero == 50 and small_actual == 50
    _verdict(
        6,
        ok,
        f"{exact_zero}/50 substitute removals with bound exactly 0.0, "
        f"{small_actual}/50 value shifts within solver tolerance",
    )


def test_criterion_07_nonlinear_reward_families():
    lipschitz_bad = 0
    for i in range(200):
        rng = np.random.default_rng([707, i])
        spec_x, spec_y = generate_linear_pair(DEFAULT_RANGES, rng)
        n, d = spec_x.team.num_agents, spec_x.capability_dim
        q = rng.uniform(0.0, 1.0, (n, d))
        l = rng.uniform(0.0, 1.0, (n, d))

        def f(team, q=q, l=l):
            caps = team.matrix()
            return (q * caps**2 + l * caps).sum(axis=0)

        reward_map = LipschitzRewardSpec(
            f=f, lipschitz_constants=(2.0 * q + l).max(axis=1)
        )
        shared = assemble_linear_mmdp(spec_x).transitions
        frame = dict(
            reward_kernel=spec_x.reward_kernel,
            transitions=shared,
            states=spec_x.states,
            num_agents=spec_x.num_agents,
            actions_per_agent=spec_x.actions_per_agent,
            gamma=spec_x.gamma,
            rho=spec_x.rho,
        )
        mmdp_x = assemble_lipschitz_mmdp(reward_map, spec_x.team, **frame)
        mmdp_y = assemble_lipschitz_mmdp(reward_map, spec_y.team, **frame)
        report = Solver().report(
            certify_lipschitz,
            reward_map, spec_x.team, spec_y.team, mmdp_x, mmdp_y, spec_x.reward_kernel,
        )
        lipschitz_bad += not report.satisfied

    poly_bad = 0
    for i in range(200):
        rng = np.random.default_rng([708, i])
        num_agents = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 4))
        delta = float(rng.choice([0.01, 0.1]))
        poly = sample_polynomial_spec(rng, num_agents, degree, alpha=1.0)
        dim = int(rng.integers(2, 5))
        feat = int(rng.integers(2, 5))
        team = TeamComposition(
            tuple(rng.dirichlet(np.ones(dim)) for _ in range(num_agents))
        )
        member = int(rng.integers(num_agents))
        moved = np.clip(
            team.matrix()[member] + rng.uniform(-delta, delta, dim), 0.0, 1.0
        )
        perturbed = team.replace_member(member, moved)
        from capmdp import RewardKernel, StateSpace

        report = polynomial_deviation_report(
            poly,
            team,
            perturbed,
            member,
            delta,
            RewardKernel(rng.uniform(0.0, 1.0, (dim, feat))),
            StateSpace(rng.uniform(0.0, 1.0, (12, feat))),
        )
        poly_bad += not report.satisfied
    ok = lipschitz_bad == 0 and poly_bad == 0
    _verdict(
        7,
        ok,
        f"200 quadratic reward maps, {lipschitz_bad} violations; "
        f"200 polynomial perturbations, {poly_bad} violations",
    )


def test_criterion_08_fruit_forage_desk():
    config = default_config("fruit-forage")
    start = time.perf_counter()
    rows, violations = run_fruit_forage(config)
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 3
        and not violations
        and all(row["satisfied"] for row in rows)
        and elapsed < 300.0
    )
    summary = ", ".join(
        f"{row['bound_name']} {row['bound_value']:.4f}/{row['actual_value']:.4f}"
        for row in rows
    )
    _verdict(8, ok, f"{summary} in {elapsed:.1f}s")


def test_fruit_forage_grid6_exact_certification():
    """Grid 6, two agents: 5184 states, solved exactly on the successor index."""
    config = ExperimentConfig(kind="fruit-forage", fruit_forage={"grid_size": 6, "num_agents": 2})
    assert fruit_forage_state_count(desk_config("x", grid_size=6)) == 5184
    rows, violations = run_fruit_forage(config)
    assert [row["bound_name"] for row in rows] == [
        "team_generalization", "policy_transfer", "population_decrease",
    ]
    assert not violations
    assert all(row["satisfied"] for row in rows)


def _bfs_capture_steps(pred: int, prey: int, g: int) -> int:
    def neighbors(cell):
        r, c = divmod(cell, g)
        for dr, dc in ((-1, 0), (0, -1), (1, 0), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < g and 0 <= nc < g:
                yield nr * g + nc

    def adjacent(a, b):
        ra, ca = divmod(a, g)
        rb, cb = divmod(b, g)
        return abs(ra - rb) + abs(ca - cb) == 1

    if adjacent(pred, prey):
        return 1
    dist = {pred: 0}
    queue = deque([pred])
    while queue:
        cell = queue.popleft()
        for nb in neighbors(cell):
            if nb == prey or nb in dist:
                continue
            dist[nb] = dist[cell] + 1
            if adjacent(nb, prey):
                return dist[nb] + 1
            queue.append(nb)
    raise AssertionError("the grid is connected; a path must exist")


def test_criterion_09_pursuit_learning(tmp_path):
    # (a) the train/test task tables are pinned verbatim
    suites = pp_task_suites()
    s = suites["unseen_team"]
    tables_ok = (
        [t.predator_capabilities for t in s.train]
        == [(2, 3, 2, 3), (2, 3, 2, 3), (1, 2, 1, 2), (1, 2, 1, 2)]
        and [t.predator_capabilities for t in s.test]
        == [(1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 1, 3), (1, 1, 1, 3)]
        and [t.penalty for t in s.train] == [0.0, -0.008, 0.0, -0.008]
        and s.prey_health == (2, 2, 2, 3)
        and (s.gap_train_team, s.gap_test_team) == ((1, 2, 1, 2), (1, 1, 1, 3))
    )
    s = suites["unseen_team_agent"]
    tables_ok = tables_ok and (
        [t.predator_capabilities for t in s.train]
        == [(1, 2, 2, 3)] * 2 + [(1, 1, 2, 2)] * 2 + [(1, 3, 2, 1)] * 2
        and [t.predator_capabilities for t in s.test]
        == [(1, 1, 1, 4)] * 2 + [(1, 1, 3, 4)] * 2 + [(1, 1, 2, 4)] * 2
        and s.prey_health == (1, 2, 3, 4)
        and (s.gap_train_team, s.gap_test_team) == ((1, 3, 2, 1), (1, 1, 1, 4))
    )

    # (b) a single chaser on 3x3 learns shortest-path capture on nearly all starts
    g = 3
    chase = PredatorPreyConfig(
        grid_size=g, num_predators=1, num_prey=1, predator_capabilities=(1,),
        prey_health=(1,), penalty=0.0, episode_limit=20, prey_move_prob=0.0,
    )

    def builder(task, capability_observable, seed):
        return PredatorPreyEnv(task, seed)

    schedule = TrainSchedule(
        total_steps=200_000, alpha=0.05, epsilon_start=1.0, epsilon_end=0.05,
        epsilon_decay_steps=50_000, gamma=0.9, eval_interval=50_000,
    )
    table = q_learning_train(builder, [chase], schedule, seed=42)

    eval_env = PredatorPreyEnv(chase, seed=0)
    rng = np.random.default_rng(0)
    matched = 0
    total = 0
    for pred in range(g * g):
        for prey in range(g * g):
            if pred == prey:
                continue
            total += 1
            observations = eval_env.reset(
                predator_positions=[divmod(pred, g)], prey_positions=[divmod(prey, g)]
            )
            key = observations[0].key()
            steps = None
            for t in range(1, 13):
                mask = eval_env.available_actions()
                action = table.greedy_action(key, mask[0], rng)
                observations, reward, _ = eval_env.step([action])
                key = observations[0].key()
                if reward > 0:
                    steps = t
                    break
            matched += steps == _bfs_capture_steps(pred, prey, g)
    fraction = matched / total

    # (c) the full-grid aware-vs-blind experiment runs end to end (directional)
    config = ExperimentConfig.from_doc(
        {
            "kind": "predator-prey",
            "seed": 7,
            "predator_prey": {
                "suite": "unseen_team", "mode": "both", "grid_size": 8,
                "total_steps": 2500, "epsilon_decay_steps": 800,
                "eval_interval": 500, "eval_episodes": 2, "episode_limit": 50,
            },
        }
    )
    rows = run_experiment(config, tmp_path)
    results = run_output_dir(config, tmp_path) / "results.csv"
    gap_rows = [row for row in rows if row["phase"] == "gap"]
    experiment_ok = results.is_file() and {row["mode"] for row in gap_rows} == {
        "blind",
        "aware",
    }

    ok = tables_ok and fraction >= 0.95 and experiment_ok
    _verdict(
        9,
        ok,
        f"task tables pinned {tables_ok}; shortest-path capture on "
        f"{matched}/{total} starts ({fraction:.1%}); full experiment wrote "
        f"{len(rows)} rows with gap modes {sorted(r['mode'] for r in gap_rows)}",
    )


def test_criterion_10_determinism(tmp_path):
    import json

    config = ExperimentConfig.from_doc(
        {
            "kind": "verify-bounds",
            "seed": 5,
            "num_instances": 3,
            "ranges": {
                "num_states": [3, 6], "num_agents": [2, 2],
                "actions_per_agent": [2, 2], "capability_dim": [2, 3],
                "feature_dim": [2, 3],
            },
        }
    )
    hashes = []
    for run in ("first", "second"):
        run_experiment(config, tmp_path / run)
        summary = json.loads(
            (run_output_dir(config, tmp_path / run) / "summary.json").read_text()
        )
        hashes.append(summary["determinism_hash"])
    ok = hashes[0] == hashes[1]
    _verdict(10, ok, f"repeated run hash {hashes[0][:16]}… matches: {ok}")
