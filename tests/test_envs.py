"""Gridworld environments: exact values, step semantics, serialization."""

import hashlib
import io
import json

import numpy as np
import pytest

from capmdp import assemble_linear_mmdp, value_iteration
from capmdp.envs.fruit_forage import (
    UTILITY_TEAM_X,
    UTILITY_TEAM_Y,
    UTILITY_TEAM_Z,
    FruitForageConfig,
    build_fruit_forage,
    default_tree_positions,
    desk_config,
    fruit_forage_state_count,
)
from capmdp.envs.predator_prey import (
    ACTION_CAPTURE,
    ACTION_DOWN,
    ACTION_NOOP,
    ACTION_RIGHT,
    NUM_PP_ACTIONS,
    PPTask,
    PredatorPreyConfig,
    PredatorPreyEnv,
    pp_task_suites,
)

# ---- fruit forage -----------------------------------------------------------------


def test_single_agent_two_step_value_is_gamma_squared():
    # one tree two moves away; (1 - gamma) reward scaling makes V* = gamma^2
    config = FruitForageConfig(
        grid_size=2, num_agents=1, num_fruit_types=1, team=((1.0,),),
        start_positions=((0, 0),), gamma=0.9,
    )
    spec = build_fruit_forage(config)
    assert not spec.relax_simplex
    mmdp = assemble_linear_mmdp(spec)
    table, _ = value_iteration(mmdp)
    assert abs(table.scalar(mmdp.rho) - 0.81) < 1e-7


def test_utility_teams_are_pinned():
    assert UTILITY_TEAM_X[0] == (0.05, 0.1, 0.6, 2.8)
    assert UTILITY_TEAM_Y[1] == (0.2, 1.4, 0.15, 0.2)
    assert UTILITY_TEAM_Z[3] == (0.0, 0.0, 0.0, 1.0)
    for team in (UTILITY_TEAM_X, UTILITY_TEAM_Y, UTILITY_TEAM_Z):
        assert len(team) == 4
        assert all(len(member) == 4 for member in team)
        assert all(u >= 0 for member in team for u in member)


def test_default_tree_positions_prefer_corners():
    assert default_tree_positions(3, 2) == ((2, 2), (0, 2))
    assert default_tree_positions(2, 4) == ((1, 1), (0, 1), (1, 0), (0, 0))
    positions = default_tree_positions(4, 7)
    assert len(set(positions)) == 7


def test_desk_config_takes_leading_members_and_trailing_utilities():
    config = desk_config("x")
    assert config.team == ((0.6, 2.8), (2.1, 0.8))
    assert config.grid_size == 4 and config.num_agents == 2
    three = desk_config("z", num_agents=3)
    assert three.team == ((0.6, 0.0), (0.5, 0.0), (0.89, 0.0))
    spec = build_fruit_forage(desk_config("y", grid_size=3))
    assert spec.relax_simplex  # utilities are not simplex normalized


def test_state_count_and_cap():
    config = desk_config("x")
    assert fruit_forage_state_count(config) == 16**2 * 4
    big = FruitForageConfig(
        grid_size=8, num_agents=3, num_fruit_types=2,
        team=((0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),
    )
    with pytest.raises(ValueError, match="1048576"):
        build_fruit_forage(big)


def test_movement_is_deterministic_and_masks_only_grow():
    spec = build_fruit_forage(desk_config("x", grid_size=3))
    mmdp = assemble_linear_mmdp(spec)
    num_masks = 4
    assert mmdp.next_states.shape == (mmdp.num_states, mmdp.num_joint_actions, 1)
    assert np.all(mmdp.transitions == 1.0)
    successors = mmdp.next_states[:, :, 0]
    for s in range(mmdp.num_states):
        mask = s % num_masks
        for u in range(mmdp.num_joint_actions):
            assert successors[s, u] % num_masks & mask == mask


def test_successor_index_matches_per_state_enumeration():
    config = FruitForageConfig(
        grid_size=3, num_agents=2, num_fruit_types=2, team=((0.3, 0.7), (0.6, 0.4)),
        tree_positions=((1, 1), (0, 2)),
    )
    spec = build_fruit_forage(config)
    g, num_masks = 3, 4
    moves = ((-1, 0), (0, -1), (1, 0), (0, 1), (0, 0))
    trees = {4: 0, 2: 1}  # flat cell -> fruit type
    ns = spec.transition_kernel.next_states
    assert np.all(spec.transition_kernel.components == 1.0)
    for s in range(spec.states.num_states):
        pos, mask = divmod(s, num_masks)
        cells = divmod(pos, g * g)
        coords = [v * (1.0 / (g - 1)) for cell in cells for v in divmod(cell, g)]
        assert list(spec.states.features[s]) == coords + [mask & 1, mask >> 1]
        for u in range(25):
            new_cells = []
            for cell, action in zip(cells, divmod(u, 5)):
                r, c = divmod(cell, g)
                nr, nc = r + moves[action][0], c + moves[action][1]
                new_cells.append(nr * g + nc if 0 <= nr < g and 0 <= nc < g else cell)
            new_mask = mask
            for cell in new_cells:
                if cell in trees:
                    new_mask |= 1 << trees[cell]
            assert ns[s, u, 0] == (new_cells[0] * g * g + new_cells[1]) * num_masks + new_mask


def test_off_grid_moves_stay_and_tree_arrival_sets_mask():
    config = FruitForageConfig(
        grid_size=2, num_agents=1, num_fruit_types=1, team=((1.0,),), gamma=0.9,
    )
    mmdp = assemble_linear_mmdp(build_fruit_forage(config))
    assert np.all(mmdp.transitions == 1.0)
    successor = mmdp.next_states[:, :, 0]
    # state index = cell * 2 + mask; tree sits at cell 3 = (1, 1)
    assert successor[0, 0] == 0  # up from (0,0) stays
    assert successor[0, 1] == 0  # left from (0,0) stays
    assert successor[0, 3] == 2  # right lands on (0,1), mask clear
    assert successor[2, 2] == 7  # down from (0,1) hits the tree
    assert successor[7, 4] == 7  # staying keeps the set mask


def test_reward_is_weighted_foraged_utility():
    config = FruitForageConfig(
        grid_size=2, num_agents=1, num_fruit_types=2, team=((0.25, 0.75),), gamma=0.5,
    )
    spec = build_fruit_forage(config)
    mmdp = assemble_linear_mmdp(spec)
    # masks: 0 pays nothing, 1 pays (1-gamma)*0.25, 2 pays (1-gamma)*0.75, 3 both
    for cell in range(4):
        base = cell * 4
        assert mmdp.rewards[base] == pytest.approx(0.0, abs=1e-15)
        assert mmdp.rewards[base + 1] == pytest.approx(0.5 * 0.25, abs=1e-12)
        assert mmdp.rewards[base + 2] == pytest.approx(0.5 * 0.75, abs=1e-12)
        assert mmdp.rewards[base + 3] == pytest.approx(0.5, abs=1e-12)


def test_uniform_start_spreads_over_empty_mask_states():
    config = FruitForageConfig(grid_size=2, num_agents=1, num_fruit_types=1, team=((1.0,),))
    mmdp = assemble_linear_mmdp(build_fruit_forage(config))
    assert mmdp.rho[0::2] == pytest.approx(np.full(4, 0.25))
    assert np.all(mmdp.rho[1::2] == 0.0)


def test_fruit_forage_layout_validation():
    base = dict(grid_size=3, num_agents=1, num_fruit_types=2, team=((0.5, 0.5),))
    with pytest.raises(ValueError, match="distinct"):
        build_fruit_forage(FruitForageConfig(**base, tree_positions=((0, 0), (0, 0))))
    with pytest.raises(ValueError, match="off the grid"):
        build_fruit_forage(FruitForageConfig(**base, tree_positions=((0, 0), (5, 1))))
    with pytest.raises(ValueError, match="one cell per agent"):
        build_fruit_forage(FruitForageConfig(**base, start_positions=((0, 0), (1, 1))))
    with pytest.raises(ValueError, match="members"):
        build_fruit_forage(FruitForageConfig(grid_size=3, num_agents=2, num_fruit_types=2, team=((0.5, 0.5),)))
    with pytest.raises(ValueError, match="fruit types"):
        build_fruit_forage(FruitForageConfig(grid_size=3, num_agents=1, num_fruit_types=2, team=((1.0,),)))
    with pytest.raises(ValueError):
        FruitForageConfig(grid_size=1)
    with pytest.raises(ValueError):
        FruitForageConfig(gamma=1.0)


def test_explicit_weights_flow_into_the_spec():
    config = FruitForageConfig(
        grid_size=2, num_agents=2, num_fruit_types=1, team=((1.0,), (1.0,)),
        weights=(0.7, 0.3),
    )
    spec = build_fruit_forage(config)
    assert spec.weights.a == pytest.approx([0.7, 0.3])


# ---- predator prey ----------------------------------------------------------------


def pinned_env(predators, prey, caps, healths, penalty=0.0, grid_size=3, **kwargs):
    config = PredatorPreyConfig(
        grid_size=grid_size, num_predators=len(caps), num_prey=len(healths),
        predator_capabilities=caps, prey_health=healths, penalty=penalty,
        prey_move_prob=0.0, **kwargs,
    )
    env = PredatorPreyEnv(config, seed=0)
    env.reset(predator_positions=predators, prey_positions=prey)
    return env


def test_capture_succeeds_when_strength_meets_health():
    env = pinned_env([(1, 1)], [(1, 2)], caps=(5,), healths=(5,))
    _, reward, _ = env.step([ACTION_CAPTURE])
    assert reward == 1.0
    assert env.prey_positions()[0] != 5  # the captured prey respawned elsewhere


def test_capture_fails_below_health_and_pays_penalty():
    env = pinned_env([(1, 1)], [(1, 2)], caps=(1,), healths=(5,), penalty=-0.008)
    _, reward, _ = env.step([ACTION_CAPTURE])
    assert reward == -0.008
    assert env.prey_positions() == (5,)


def test_joint_capture_pools_capabilities():
    env = pinned_env([(1, 0), (1, 2)], [(1, 1)], caps=(2, 3), healths=(5,))
    _, reward, _ = env.step([ACTION_CAPTURE, ACTION_CAPTURE])
    assert reward == 1.0


def test_one_attacker_settles_each_prey_separately():
    # adjacent to both prey: captures the weak one, bounces off the strong one
    env = pinned_env([(1, 1)], [(0, 1), (1, 0)], caps=(1,), healths=(1, 5), penalty=-0.008)
    _, reward, _ = env.step([ACTION_CAPTURE])
    assert reward == pytest.approx(1.0 - 0.008)


def test_available_actions_hand_layout():
    env = pinned_env([(0, 0)], [(0, 1)], caps=(1,), healths=(1,))
    mask = env.available_actions()
    assert mask.shape == (1, NUM_PP_ACTIONS)
    assert mask.tolist() == [[False, False, True, False, True, True]]


def test_second_mover_is_blocked_by_the_first():
    env = pinned_env([(0, 0), (0, 2)], [(2, 2)], caps=(1, 1), healths=(1,))
    mask = env.available_actions()
    assert mask[0, ACTION_RIGHT] and mask[1, 1]  # both may target (0, 1)
    env.step([ACTION_RIGHT, 1])
    assert env.predator_positions() == (1, 2)  # agent 1 stayed put


def test_rollout_invariants():
    config = PredatorPreyConfig(
        grid_size=4, num_predators=2, num_prey=2,
        predator_capabilities=(2, 3), prey_health=(1, 5),
        penalty=-0.008, episode_limit=50,
    )
    allowed = {
        round(a * 1.0 + b * -0.008, 9)
        for a in range(3) for b in range(3) if a + b <= 2
    }
    for seed in range(3):
        env = PredatorPreyEnv(config, seed=seed)
        rng = np.random.default_rng(seed + 100)
        obs = env.reset()
        captures = 0
        done = False
        steps = 0
        while not done:
            assert len(obs) == 2 and all(len(o.view) == 16 for o in obs)
            positions = env.predator_positions() + env.prey_positions()
            assert len(set(positions)) == 4
            mask = env.available_actions()
            actions = [int(rng.choice(np.flatnonzero(mask[i]))) for i in range(2)]
            obs, reward, done = env.step(actions)
            assert round(reward, 9) in allowed
            captures += reward > 0
            steps += 1
        assert steps == 50 and env.steps_taken == 50


def test_same_seed_reproduces_the_trajectory():
    config = PredatorPreyConfig(grid_size=8, num_predators=4, num_prey=4,
                                predator_capabilities=(1, 2, 1, 2), prey_health=(2, 2, 2, 3))
    trails = []
    for seed in (7, 7, 8):
        env = PredatorPreyEnv(config, seed=seed)
        env.reset()
        trail = [env.predator_positions() + env.prey_positions()]
        for _ in range(20):
            env.step([ACTION_NOOP] * 4)
            trail.append(env.predator_positions() + env.prey_positions())
        trails.append(trail)
    assert trails[0] == trails[1]
    assert trails[0] != trails[2]


def test_stationary_prey_when_move_prob_is_zero():
    env = pinned_env([(0, 0)], [(2, 2)], caps=(1,), healths=(5,), grid_size=3)
    for _ in range(10):
        env.step([ACTION_NOOP])
    assert env.prey_positions() == (8,)


def test_full_view_small_grids_window_view_large_grids():
    env = pinned_env([(0, 0)], [(2, 2)], caps=(1,), healths=(1,), grid_size=3)
    (obs,) = env.reset(predator_positions=[(0, 0)], prey_positions=[(2, 2)])
    assert len(obs.view) == 9
    assert obs.view[0] == 1 and obs.view[8] == 2

    big = pinned_env([(0, 0)], [(7, 7)], caps=(1,), healths=(1,), grid_size=8)
    (obs,) = big.reset(predator_positions=[(0, 0)], prey_positions=[(7, 7)])
    assert len(obs.view) == 25
    assert obs.view.count(3) == 16  # two rows plus two columns fall off the corner


def test_observation_keys_separate_awareness_and_capabilities():
    layout = dict(predator_positions=[(0, 0), (2, 2)], prey_positions=[(1, 1)])
    blind_env = pinned_env([(0, 0), (2, 2)], [(1, 1)], caps=(1, 2), healths=(1,))
    aware_env = pinned_env(
        [(0, 0), (2, 2)], [(1, 1)], caps=(1, 2), healths=(1,), capability_observable=True
    )
    blind = blind_env.reset(**layout)
    aware = aware_env.reset(**layout)
    assert blind[0].teammate_capabilities is None
    assert aware[0].teammate_capabilities == (2.0,)
    assert blind[0].key() != aware[0].key()
    assert blind[0].key() != blind[1].key()
    swapped = pinned_env([(0, 0), (2, 2)], [(1, 1)], caps=(2, 1), healths=(1,))
    other = swapped.reset(**layout)
    assert other[0].key() != blind[0].key()  # own capability enters the key


def test_capability_outside_encodable_range_is_rejected():
    env = pinned_env([(0, 0)], [(2, 2)], caps=(64,), healths=(1,))
    (obs,) = env.reset(predator_positions=[(0, 0)], prey_positions=[(2, 2)])
    with pytest.raises(ValueError, match="outside the encodable range"):
        obs.key()


def test_task_suites_are_pinned_verbatim():
    suites = pp_task_suites()
    assert set(suites) == {"unseen_team", "unseen_team_agent"}

    s = suites["unseen_team"]
    assert s.prey_health == (2, 2, 2, 3)
    assert [t.predator_capabilities for t in s.train] == [
        (2, 3, 2, 3), (2, 3, 2, 3), (1, 2, 1, 2), (1, 2, 1, 2)
    ]
    assert [t.predator_capabilities for t in s.test] == [
        (1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 1, 3), (1, 1, 1, 3)
    ]
    assert [t.penalty for t in s.train] == [0.0, -0.008, 0.0, -0.008]
    assert all(t.prey_health == (2, 2, 2, 3) for t in s.train + s.test)
    assert s.gap_train_team == (1, 2, 1, 2) and s.gap_test_team == (1, 1, 1, 3)

    s = suites["unseen_team_agent"]
    assert s.prey_health == (1, 2, 3, 4)
    assert [t.predator_capabilities for t in s.train] == [
        (1, 2, 2, 3), (1, 2, 2, 3), (1, 1, 2, 2), (1, 1, 2, 2), (1, 3, 2, 1), (1, 3, 2, 1)
    ]
    assert [t.predator_capabilities for t in s.test] == [
        (1, 1, 1, 4), (1, 1, 1, 4), (1, 1, 3, 4), (1, 1, 3, 4), (1, 1, 2, 4), (1, 1, 2, 4)
    ]
    assert s.gap_train_team == (1, 3, 2, 1) and s.gap_test_team == (1, 1, 1, 4)


def test_task_to_config_wiring():
    task = PPTask(predator_capabilities=(1, 2), prey_health=(3,), penalty=-0.008)
    config = task.to_config(grid_size=5, capability_observable=True, episode_limit=40)
    assert config.num_predators == 2 and config.num_prey == 1
    assert config.predator_capabilities == (1, 2)
    assert config.prey_health == (3,)
    assert config.penalty == -0.008
    assert config.capability_observable and config.episode_limit == 40


def test_reset_pinning_errors():
    config = PredatorPreyConfig(grid_size=3, num_predators=1, num_prey=1,
                                predator_capabilities=(1,), prey_health=(1,))
    env = PredatorPreyEnv(config, seed=0)
    with pytest.raises(ValueError, match="both"):
        env.reset(predator_positions=[(0, 0)])
    with pytest.raises(ValueError, match="distinct"):
        env.reset(predator_positions=[(0, 0)], prey_positions=[(0, 0)])
    with pytest.raises(ValueError, match="off the grid"):
        env.reset(predator_positions=[(0, 0)], prey_positions=[(4, 0)])


def test_step_errors():
    env = pinned_env([(1, 1)], [(2, 2)], caps=(1,), healths=(1,))
    with pytest.raises(ValueError, match="agent 0 submitted unavailable action"):
        env.step([ACTION_CAPTURE])  # nothing adjacent
    with pytest.raises(ValueError, match="one action per predator"):
        env.step([ACTION_NOOP, ACTION_NOOP])
    fresh = PredatorPreyEnv(env.config, seed=1)
    with pytest.raises(RuntimeError, match="reset"):
        fresh.step([ACTION_NOOP])
    with pytest.raises(RuntimeError, match="reset"):
        fresh.available_actions()


def test_episode_ends_exactly_at_the_limit():
    env = pinned_env([(0, 0)], [(2, 2)], caps=(1,), healths=(5,), episode_limit=3)
    assert env.step([ACTION_NOOP])[2] is False
    assert env.step([ACTION_NOOP])[2] is False
    assert env.step([ACTION_NOOP])[2] is True


def test_config_validation():
    good = dict(grid_size=3, num_predators=1, num_prey=1,
                predator_capabilities=(1,), prey_health=(1,))
    PredatorPreyConfig(**good)
    with pytest.raises(ValueError):
        PredatorPreyConfig(**{**good, "grid_size": 1})
    with pytest.raises(ValueError, match="one capability per predator"):
        PredatorPreyConfig(**{**good, "predator_capabilities": (1, 2)})
    with pytest.raises(ValueError, match="positive"):
        PredatorPreyConfig(**{**good, "prey_health": (0,)})
    with pytest.raises(ValueError, match="penalty"):
        PredatorPreyConfig(**{**good, "penalty": 0.5})
    with pytest.raises(ValueError, match="prey_move_prob"):
        PredatorPreyConfig(**{**good, "prey_move_prob": 1.5})
    with pytest.raises(ValueError, match="too small"):
        PredatorPreyConfig(grid_size=2, num_predators=3, num_prey=2,
                           predator_capabilities=(1, 1, 1), prey_health=(1, 1))


def test_trajectory_log_lines_can_pin_a_replay():
    log = io.StringIO()
    config = PredatorPreyConfig(grid_size=4, num_predators=2, num_prey=1,
                                predator_capabilities=(1, 2), prey_health=(1,))
    env = PredatorPreyEnv(config, seed=5, trajectory_log=log)
    env.reset()
    rng = np.random.default_rng(0)
    for _ in range(4):
        mask = env.available_actions()
        env.step([int(rng.choice(np.flatnonzero(mask[i]))) for i in range(2)])
    lines = [json.loads(line) for line in log.getvalue().splitlines()]
    assert lines[0]["event"] == "reset"
    assert [line["event"] for line in lines[1:]] == ["step"] * 4
    assert [line["t"] for line in lines[1:]] == [1, 2, 3, 4]

    replay = PredatorPreyEnv(config, seed=99)
    replay.reset(predator_positions=lines[0]["predators"], prey_positions=lines[0]["prey"])
    g = config.grid_size
    assert list(replay.predator_positions()) == [r * g + c for r, c in lines[0]["predators"]]
    assert list(replay.prey_positions()) == [r * g + c for r, c in lines[0]["prey"]]


# ---- pinned streams ------------------------------------------------------------------


def pinned_stream_digests(config, seed, action_seed, steps):
    """SHA-256 of the trajectory log, the legality masks and the observation keys.

    Random legal actions from a seeded rng drive the env for `steps` steps,
    resetting whenever an episode ends, so the streams cover resets,
    captures, failed captures, respawns and prey moves.
    """
    log = io.StringIO()
    env = PredatorPreyEnv(config, seed=seed, trajectory_log=log)
    rng = np.random.default_rng(action_seed)
    masks = hashlib.sha256()
    keys = hashlib.sha256()
    observations = env.reset()
    for _ in range(steps):
        keys.update(repr([o.key() for o in observations]).encode())
        mask = env.available_actions()
        masks.update(mask.tobytes())
        actions = [int(rng.choice(np.flatnonzero(row))) for row in mask]
        observations, _, done = env.step(actions)
        if done:
            observations = env.reset()
    keys.update(repr([o.key() for o in observations]).encode())
    text = log.getvalue()
    events = [json.loads(line) for line in text.splitlines()]
    captures = sum(len(e["captured"]) for e in events if e["event"] == "step")
    return {
        "log": hashlib.sha256(text.encode()).hexdigest(),
        "masks": masks.hexdigest(),
        "keys": keys.hexdigest(),
        "captures": captures,
    }


PINNED_CONFIGS = {
    "grid3-full": PredatorPreyConfig(
        grid_size=3, num_predators=2, num_prey=2, predator_capabilities=(1, 2),
        prey_health=(1, 2), penalty=-0.008, episode_limit=40,
    ),
    "grid5-full-aware": PredatorPreyConfig(
        grid_size=5, num_predators=3, num_prey=3, predator_capabilities=(1, 2, 3),
        prey_health=(1, 2, 3), penalty=-0.008, episode_limit=60,
        capability_observable=True,
    ),
    "grid8-window": PredatorPreyConfig(
        grid_size=8, num_predators=4, num_prey=4, predator_capabilities=(1, 2, 1, 2),
        prey_health=(2, 2, 2, 3), penalty=-0.008, episode_limit=100,
    ),
    "grid6-window-aware": PredatorPreyConfig(
        grid_size=6, num_predators=4, num_prey=4, predator_capabilities=(1, 1, 2, 3),
        prey_health=(1, 2, 2, 3), episode_limit=50, prey_move_prob=0.5,
        capability_observable=True,
    ),
}

# recorded with the per-call divmod simulator; a change to any stream shows here
PINNED_DIGESTS = {
    "grid3-full": (
        "2827a6cad389bb86c0fdcd7d5abc46b24005ef48e2a79d0a9263c483dfc79d64",
        "1edd47c9b9a9bc28e73ba48a3acab93cf4cafb66929f1e51360edf04bb2b6a5a",
        "59f886631ea7e45a8130113f7d084fc62c4118d61ce766c116dca579a5f3158b",
        149,
    ),
    "grid5-full-aware": (
        "9dca1c2a4ab46cfd6d730fc1822e39adade7ec1888d267798055f907022f9799",
        "eb4158b4ed2173c4f2c673c4a70cbc891c78a585bea5b5cdd7dde374f7b7b807",
        "fd4b37497444e28a671220eef9355e25d085f589ee2d1061a8dc5db4ebd2d968",
        92,
    ),
    "grid8-window": (
        "fe2f4d4b4a2183471c31c19bef4494fdcd6895b407a45a84d122c414c12e0ef9",
        "4e2be9d09d0e8c06c56d49d98957e30b3f72826cb0df3fc0658ac291d6af1613",
        "8aac7623bc01ab0aff981bb1d4d37521dc9c8969f9b1df31d614e187279b3fd2",
        31,
    ),
    "grid6-window-aware": (
        "24217373cf6dc2977180c1097b25797e4a47d5e735b5b7658ce66d1282a5488a",
        "1ae9ce96ef1faa5f86a9a9f880f200fbb786266077651c803f38daded4120f04",
        "0ce4048e982148035096d339b72683cece93e0bb872fabd89aabb31234f2d498",
        74,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_trajectory_masks_and_keys_match_the_pinned_streams(name):
    digests = pinned_stream_digests(PINNED_CONFIGS[name], seed=11, action_seed=12, steps=600)
    log, masks, keys, captures = PINNED_DIGESTS[name]
    assert digests == {"log": log, "masks": masks, "keys": keys, "captures": captures}


def test_mutating_a_returned_mask_changes_neither_later_masks_nor_validation():
    env = pinned_env([(0, 0)], [(0, 1)], caps=(1,), healths=(1,))
    first = env.available_actions()
    first[:] = False
    second = env.available_actions()
    assert second.dtype == bool and second is not first
    assert second.tolist() == [[False, False, True, False, True, True]]
    second[0, ACTION_CAPTURE] = False
    second[0, ACTION_RIGHT] = True
    with pytest.raises(ValueError, match="agent 0 submitted unavailable action 3"):
        env.step([ACTION_RIGHT])  # the prey blocks the move whatever the copy says
    _, reward, _ = env.step([ACTION_CAPTURE])
    assert reward == 1.0


def test_an_action_illegal_at_decision_time_names_its_agent():
    env = pinned_env([(0, 0), (2, 2)], [(1, 0)], caps=(1, 1), healths=(1,))
    with pytest.raises(ValueError, match="agent 1 submitted unavailable action 5"):
        env.step([ACTION_NOOP, ACTION_CAPTURE])  # agent 1 has no adjacent prey
    with pytest.raises(ValueError, match="agent 0 submitted unavailable action 2"):
        env.step([ACTION_DOWN, ACTION_NOOP])  # the prey sits below agent 0
    with pytest.raises(ValueError, match="agent 1 submitted unavailable action 6"):
        env.step([ACTION_NOOP, NUM_PP_ACTIONS])
    assert env.predator_positions() == (0, 8) and env.steps_taken == 0
    fresh = PredatorPreyEnv(env.config, seed=3)
    with pytest.raises(RuntimeError, match="reset"):
        fresh.step([ACTION_NOOP, ACTION_NOOP])


# positions after the capture step, respawn and prey moves included
PINNED_CAPTURE = ([[1, 0], [0, 1], [3, 3]], [[2, 3], [3, 1]])


def test_two_adjacent_attackers_settle_a_capture_as_pinned():
    log = io.StringIO()
    config = PredatorPreyConfig(
        grid_size=4, num_predators=3, num_prey=2, predator_capabilities=(1, 2, 1),
        prey_health=(3, 2), penalty=-0.008, prey_move_prob=1.0,
    )
    env = PredatorPreyEnv(config, seed=4, trajectory_log=log)
    env.reset(predator_positions=[(1, 0), (0, 1), (3, 3)], prey_positions=[(1, 1), (3, 2)])
    _, reward, _ = env.step([ACTION_CAPTURE, ACTION_CAPTURE, ACTION_CAPTURE])
    # agents 0 and 1 pool 3 against prey 0; agent 2 alone bounces off prey 1
    assert reward == pytest.approx(1.0 - 0.008)
    step = json.loads(log.getvalue().splitlines()[-1])
    assert step["captured"] == [0]
    assert (step["predators"], step["prey"]) == PINNED_CAPTURE
