"""Tabular Q-learning: table mechanics, training loop, evaluation helpers."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from capmdp import (
    MMDPEnvironment,
    QTable,
    TrainSchedule,
    evaluate_policy_empirical,
    extract_joint_policy,
    generalization_gap,
    q_learning_train,
    run_greedy_episode,
    value_iteration,
)
from capmdp.envs.predator_prey import PredatorPreyConfig, PredatorPreyEnv
from capmdp.qlearning import PCG64Draws

SHORT = TrainSchedule(
    total_steps=3000, alpha=0.2, epsilon_start=1.0, epsilon_end=0.05,
    epsilon_decay_steps=1000, gamma=0.5, eval_interval=1000,
)


def chain_builder(task, capability_observable, seed):
    return MMDPEnvironment(task, episode_limit=10, seed=seed)


def set_row(table, key, values):
    """Store values as key's row: on a fresh row an alpha-1 update writes its target exactly."""
    for action, value in enumerate(values):
        table.update(key, action, target=value, alpha=1.0)


# ---- QTable -----------------------------------------------------------------------


def test_unseen_key_greedy_is_uniform_over_legal_actions():
    table = QTable(num_actions=4)
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    for _ in range(3000):
        counts[table.greedy_action(99, (0, 2, 3), rng)] += 1
    assert counts[1] == 0
    assert np.all(np.abs(counts[[0, 2, 3]] / 3000 - 1 / 3) < 0.05)


def test_visited_key_greedy_takes_lowest_index_argmax():
    table = QTable(num_actions=4)
    table.update(5, 1, target=2.0, alpha=1.0)
    table.update(5, 2, target=2.0, alpha=1.0)
    rng = np.random.default_rng(0)
    assert table.greedy_action(5, (0, 1, 2, 3), rng) == 1
    assert table.greedy_action(5, (2, 3), rng) == 2


def test_update_moves_toward_the_target():
    table = QTable(num_actions=2)
    table.update(0, 0, target=1.0, alpha=0.5)
    assert table.values[0][0] == 0.5
    table.update(0, 0, target=1.0, alpha=0.5)
    assert table.values[0][0] == 0.75
    assert table.visits[0] == 2
    assert 123 not in table.visits


def test_tied_rows_take_the_lowest_index_legal_argmax():
    table = QTable(num_actions=6)
    set_row(table, 3, [0.5, 2.0, -1.0, 2.0, 2.0, 2.0])
    rng = np.random.default_rng(0)
    # legal indices, ascending, in the forms legal_actions() gives them
    cases = (
        ((0, 1, 2, 3, 4, 5), 1),
        ((0, 2, 3, 4, 5), 3),
        ([0, 2, 5], 5),
        ((0, 2), 0),
        (range(2, 6), 3),
        ((4,), 4),
    )
    for indices, best in cases:
        assert table.greedy_action(3, indices, rng) == best
    table.update(4, 2, target=0.0, alpha=1.0)  # a stored, all-zero row
    assert table.greedy_action(4, (2, 3, 5), rng) == 2
    assert rng.random() == np.random.default_rng(0).random()  # no draw at a stored key


def test_unvisited_key_draws_one_integer_over_the_legal_actions():
    table = QTable(num_actions=6)
    set_row(table, 8, [9.0, 0, 0, 0, 0, 0])
    # a numpy Generator, and the draw source that serves its draws from raw words
    for rng in (np.random.default_rng(21), PCG64Draws(np.random.default_rng(21))):
        mirror = np.random.default_rng(21)
        for indices in ((0, 2, 4, 5), [1, 3], range(6), (5,)):
            for key in (77, 2**70):
                for _ in range(50):
                    expected = indices[mirror.integers(len(indices))]
                    assert table.greedy_action(key, indices, rng) == expected
        assert table.greedy_action(8, (0, 2, 4, 5), rng) == 0  # a stored key: its argmax
        assert rng.random() == mirror.random()  # one draw per unseen call, none at a stored key
    assert 77 not in table.values


def test_the_store_keeps_every_row_across_growth():
    """Thousands of keys, some above 2**64, against a dict of ndarrays given the same updates."""
    table = QTable(num_actions=5)
    rng = np.random.default_rng(11)
    keys = [int(k) for k in rng.integers(0, 2**62, 2500)]
    keys += [2**64 + int(k) for k in rng.integers(0, 2**40, 1500)]
    reference, counts = {}, {}
    first = None
    for step, index in enumerate(rng.integers(len(keys), size=12_000).tolist()):
        key, action = keys[index], step % 5
        target, alpha = float(rng.normal()), float(rng.uniform(0.05, 1.0))
        table.update(key, action, target, alpha)
        row = reference.setdefault(key, np.zeros(5))
        row[action] += alpha * (target - row[action])
        counts[key] = counts.get(key, 0) + 1
        if first is None:
            first = (table.values[key], row.copy())
    assert len(table.values) == len(reference) > 3000
    assert list(table.values) == list(reference)  # insertion order
    for key, row in reference.items():
        assert table.values[key].tobytes() == row.tobytes()
        assert table.visits[key] == counts[key]
    assert min(table.visits.values()) >= 1  # a key enters only through an update
    # a copy taken before the growth keeps the row as it was then
    value, then = first
    assert value.tobytes() == then.tobytes() and not value.flags.writeable
    assert 123 not in table.values and 123 not in table.visits
    rng, mirror = np.random.default_rng(4), np.random.default_rng(4)
    for unseen in (123, 2**66 + 5):  # unseen: one uniform draw, and still unseen
        assert table.greedy_action(unseen, (1, 2, 4), rng) == (1, 2, 4)[mirror.integers(3)]
    assert 123 not in table.values
    with pytest.raises(IndexError):
        table.update(keys[0], 5, target=1.0, alpha=0.5)


def test_a_table_read_mid_training_matches_a_shorter_run():
    tasks = [
        PredatorPreyConfig(
            grid_size=5, num_predators=3, num_prey=1, predator_capabilities=(1, 2, 1),
            prey_health=(2,), penalty=-0.01, episode_limit=30,
        )
    ]

    def builder(task, capability_observable, seed):
        return PredatorPreyEnv(task, seed)

    def snapshot(table):
        return {key: (table.visits[key], table.values[key].tobytes()) for key in table.values}

    schedule = TrainSchedule(
        total_steps=1200, alpha=0.3, epsilon_decay_steps=600, gamma=0.9, eval_interval=400,
    )
    seen = {}
    copies = []

    def on_interval(step, table):
        seen[step] = snapshot(table)
        assert sum(table.visits.values()) == 3 * step  # one update per predator per step
        assert min(table.visits.values()) >= 1
        key = next(iter(table.values))
        copies.append((key, table.values[key]))  # held while training goes on

    table = q_learning_train(builder, tasks, schedule, seed=5, on_interval=on_interval)
    assert sorted(seen) == [400, 800, 1200]
    for step in (400, 800):
        shorter = q_learning_train(
            builder, tasks, replace(schedule, total_steps=step), seed=5
        )
        assert seen[step] == snapshot(shorter)
    assert seen[1200] == snapshot(table)
    assert min(table.visits.values()) >= 1
    for (key, copied), step in zip(copies, (400, 800, 1200)):
        assert copied.tobytes() == seen[step][key][1]


def test_q_table_rejects_bad_sizes():
    with pytest.raises(ValueError):
        QTable(num_actions=0)


# ---- schedule ---------------------------------------------------------------------


def test_epsilon_schedule_is_clamped_linear():
    schedule = TrainSchedule(epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=100)
    assert schedule.epsilon_at(0) == 1.0
    assert schedule.epsilon_at(50) == pytest.approx(0.55)
    assert schedule.epsilon_at(100) == pytest.approx(0.1)
    assert schedule.epsilon_at(10**9) == pytest.approx(0.1)
    assert schedule.epsilon_at(-5) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(total_steps=0)
    with pytest.raises(ValueError):
        TrainSchedule(alpha=0.0)
    with pytest.raises(ValueError):
        TrainSchedule(epsilon_start=0.1, epsilon_end=0.5)
    with pytest.raises(ValueError):
        TrainSchedule(gamma=1.0)
    with pytest.raises(ValueError):
        TrainSchedule(eval_interval=0)


# ---- training loop ----------------------------------------------------------------


def test_training_is_deterministic_per_seed(two_state_chain):
    mmdp = two_state_chain
    tables = [
        q_learning_train(chain_builder, [mmdp], SHORT, seed=11) for _ in range(2)
    ]
    other = q_learning_train(chain_builder, [mmdp], SHORT, seed=12)
    assert set(tables[0].values) == set(tables[1].values)
    for key in tables[0].values:
        assert np.array_equal(tables[0].values[key], tables[1].values[key])
        assert tables[0].visits[key] == tables[1].visits[key]
    assert any(
        k not in other.values or not np.array_equal(other.values[k], tables[0].values[k])
        for k in tables[0].values
    )


def test_short_training_recovers_the_optimal_chain_policy(two_state_chain):
    mmdp = two_state_chain
    table = q_learning_train(chain_builder, [mmdp], SHORT, seed=3)
    policy = extract_joint_policy(table, mmdp)
    policy.validate_for(mmdp)
    _, optimal = value_iteration(mmdp)
    assert np.array_equal(policy.actions, optimal.actions)


def test_training_never_selects_masked_actions(two_state_chain):
    mmdp = two_state_chain

    class LastActionForbidden(MMDPEnvironment):
        def legal_actions(self):
            last = self.num_actions - 1
            return [[a for a in row if a != last] for row in super().legal_actions()]

    def builder(task, capability_observable, seed):
        return LastActionForbidden(task, episode_limit=10, seed=seed)

    table = q_learning_train(builder, [mmdp], SHORT, seed=5)
    assert table.values
    for key in table.values:
        assert table.values[key][-1] == 0.0


def test_on_interval_callback_fires_on_schedule(two_state_chain):
    mmdp = two_state_chain
    schedule = TrainSchedule(
        total_steps=50, epsilon_decay_steps=10, gamma=0.5, eval_interval=10,
    )
    seen = []
    q_learning_train(
        chain_builder, [mmdp], schedule, seed=0,
        on_interval=lambda step, table: seen.append(step),
    )
    assert seen == [10, 20, 30, 40, 50]


def test_both_envs_return_plain_int_keys_and_train_on_them(two_state_chain):
    pursuit = PredatorPreyConfig(
        grid_size=3, num_predators=2, num_prey=1, predator_capabilities=(1, 2),
        prey_health=(2,), episode_limit=20, capability_observable=True,
    )
    cases = (
        (chain_builder, two_state_chain, 1),
        (lambda task, capability_observable, seed: PredatorPreyEnv(task, seed), pursuit, 2),
    )
    for builder, task, agents in cases:
        env = builder(task, False, 0)
        observations = env.reset()
        for _ in range(30):
            assert len(observations) == agents
            assert all(type(key) is int for key in observations)
            observations, _, done = env.step([legal[0] for legal in env.legal_actions()])
            if done:
                observations = env.reset()
        table = q_learning_train(builder, [task], SHORT, seed=2)
        assert table.values and all(type(key) is int for key in table.values)
        assert sum(table.visits.values()) == SHORT.total_steps * agents


def test_training_requires_a_task():
    with pytest.raises(ValueError, match="at least one training task"):
        q_learning_train(chain_builder, [], SHORT, seed=0)


def test_q_values_stay_inside_the_return_range():
    config = PredatorPreyConfig(
        grid_size=3, num_predators=1, num_prey=1, predator_capabilities=(3,),
        prey_health=(1,), penalty=0.0, episode_limit=20,
    )

    def builder(task, capability_observable, seed):
        return PredatorPreyEnv(task, seed)

    schedule = TrainSchedule(
        total_steps=4000, alpha=0.1, epsilon_decay_steps=1000, gamma=0.9,
        eval_interval=2000,
    )
    table = q_learning_train(builder, [config], schedule, seed=1)
    ceiling = 1.0 / (1.0 - schedule.gamma)
    for row in table.values.values():
        assert np.all(row >= -1e-9)
        assert np.all(row <= ceiling + 1e-9)


def pursuit_training_digest(capability_observable):
    """SHA-256 over a pursuit-trained table's keys, values and visits, and eval returns."""
    tasks = [
        PredatorPreyConfig(
            grid_size=6, num_predators=3, num_prey=2, predator_capabilities=caps,
            prey_health=(2, 3), penalty=-0.008, episode_limit=40,
            capability_observable=capability_observable,
        )
        for caps in ((1, 2, 1), (2, 2, 1))
    ]

    def builder(task, capability_observable, seed):
        return PredatorPreyEnv(task, seed)

    schedule = TrainSchedule(
        total_steps=1500, alpha=0.2, epsilon_decay_steps=500, gamma=0.9,
        eval_interval=500,
    )
    table = q_learning_train(builder, tasks, schedule, seed=6)
    digest = hashlib.sha256()
    for key in sorted(table.values):
        digest.update(f"{key}:{table.visits[key]}:".encode())
        digest.update(table.values[key].tobytes())
    returns = evaluate_policy_empirical(table, builder, tasks, episodes=2, seed=8)
    digest.update(repr(returns).encode())
    return len(table.values), digest.hexdigest()


# recorded with the numpy-mask training loop; the list-based one must match it
PINNED_TRAINING = {
    False: (3760, "7790c8f51326c2e988b600012c8f10ff0cb748282a21d47d996725a22d729908"),
    True: (3767, "2aa5b987e162110f87124cd59e2c320b0b45d931023889eb186d168362a250fe"),
}


@pytest.mark.parametrize("capability_observable", [False, True])
def test_pursuit_training_reproduces_the_pinned_table(capability_observable):
    assert pursuit_training_digest(capability_observable) == PINNED_TRAINING[capability_observable]


# ---- evaluation -------------------------------------------------------------------


def test_greedy_episode_return_on_the_chain(two_state_chain):
    mmdp = two_state_chain
    table = QTable(num_actions=2)
    for state in (0, 1):
        table.update(state, 1, target=1.0, alpha=1.0)
    env = MMDPEnvironment(mmdp, episode_limit=3, seed=0)
    total = run_greedy_episode(table, env, np.random.default_rng(0))
    # rho starts at state 0 (reward 0); action 1 reaches state 1 and stays
    assert total == 2.0


def test_self_gap_is_exactly_zero(two_state_chain):
    mmdp = two_state_chain
    for table in (QTable(num_actions=2), q_learning_train(chain_builder, [mmdp], SHORT, seed=2)):
        result = generalization_gap(table, chain_builder, mmdp, mmdp, episodes=6, seed=9)
        assert result["gap"] == 0.0
        assert result["train_mean"] == result["test_mean"]


def test_trained_policy_beats_the_untrained_table(two_state_chain):
    mmdp = two_state_chain
    trained = q_learning_train(chain_builder, [mmdp], SHORT, seed=4)
    fresh = QTable(num_actions=2)
    score = evaluate_policy_empirical(trained, chain_builder, [mmdp], episodes=20, seed=17)
    baseline = evaluate_policy_empirical(fresh, chain_builder, [mmdp], episodes=20, seed=17)
    assert score["pooled_mean"] > baseline["pooled_mean"]
    assert score["per_task"][0]["mean"] == score["pooled_mean"]
    assert baseline["episodes"] == 20
    with pytest.raises(ValueError, match="episodes"):
        evaluate_policy_empirical(trained, chain_builder, [mmdp], episodes=0, seed=0)


# ---- centralized wrapper ----------------------------------------------------------


def test_mmdp_environment_reward_convention_and_errors(two_state_chain):
    mmdp = two_state_chain
    env = MMDPEnvironment(mmdp, episode_limit=2, seed=0)
    (state,) = env.reset()
    assert state == 0  # rho is concentrated on state 0
    next_obs, reward, done = env.step([1])
    assert reward == 0.0 and next_obs == [1] and not done
    _, reward, done = env.step([1])
    assert reward == 1.0 and done
    assert env.legal_actions() == (range(2),)

    with pytest.raises(ValueError, match="one joint action"):
        env.step([0, 1])
    with pytest.raises(ValueError, match="unavailable action"):
        env.step([5])
    for bad in (True, 1.0, 0.5):
        with pytest.raises(ValueError, match="agent 0 submitted unavailable action"):
            env.step([bad])
    fresh = MMDPEnvironment(mmdp, episode_limit=2, seed=0)
    with pytest.raises(RuntimeError, match="reset"):
        fresh.step([0])
    with pytest.raises(ValueError, match="episode_limit"):
        MMDPEnvironment(mmdp, episode_limit=0, seed=0)


def test_extract_joint_policy_defaults_unvisited_states_to_action_zero(two_state_chain):
    mmdp = two_state_chain
    table = QTable(num_actions=2)
    table.update(1, 1, target=1.0, alpha=1.0)
    policy = extract_joint_policy(table, mmdp)
    assert policy.actions.tolist() == [0, 1]
