"""Tabular Q-learning: table mechanics, training loop, evaluation helpers."""

import hashlib

import numpy as np
import pytest

from capmdp import (
    MMDPEnvironment,
    QTable,
    TabularMMDP,
    TrainSchedule,
    evaluate_policy_empirical,
    extract_joint_policy,
    generalization_gap,
    q_learning_train,
    run_greedy_episode,
    value_iteration,
)
from capmdp.envs.predator_prey import PredatorPreyConfig, PredatorPreyEnv

CHAIN_PATH = "tests/data/two_state_chain.json"


def load_chain() -> TabularMMDP:
    with open(CHAIN_PATH) as handle:
        return TabularMMDP.from_json(handle.read())


SHORT = TrainSchedule(
    total_steps=3000, alpha=0.2, epsilon_start=1.0, epsilon_end=0.05,
    epsilon_decay_steps=1000, gamma=0.5, eval_interval=1000,
)


def chain_builder(task, capability_observable, seed):
    return MMDPEnvironment(task, episode_limit=10, seed=seed)


# ---- QTable -----------------------------------------------------------------------


def test_unseen_key_greedy_is_uniform_over_legal_actions():
    table = QTable(num_actions=4)
    rng = np.random.default_rng(0)
    legal = np.array([True, False, True, True])
    counts = np.zeros(4)
    for _ in range(3000):
        counts[table.greedy_action(99, legal, rng)] += 1
    assert counts[1] == 0
    assert np.all(np.abs(counts[[0, 2, 3]] / 3000 - 1 / 3) < 0.05)


def test_visited_key_greedy_takes_lowest_index_argmax():
    table = QTable(num_actions=4)
    table.update(5, 1, target=2.0, alpha=1.0)
    table.update(5, 2, target=2.0, alpha=1.0)
    rng = np.random.default_rng(0)
    assert table.greedy_action(5, np.ones(4, dtype=bool), rng) == 1
    assert table.greedy_action(5, np.array([False, False, True, True]), rng) == 2
    with pytest.raises(ValueError, match="at least one action"):
        table.greedy_action(5, np.zeros(4, dtype=bool), rng)


def test_update_moves_toward_the_target():
    table = QTable(num_actions=2)
    table.update(0, 0, target=1.0, alpha=0.5)
    assert table.peek(0)[0] == 0.5
    table.update(0, 0, target=1.0, alpha=0.5)
    assert table.peek(0)[0] == 0.75
    assert table.visit_count(0) == 2
    assert table.visit_count(123) == 0


def test_max_legal_respects_the_mask():
    table = QTable(num_actions=3)
    table.row(7)[:] = [1.0, 5.0, 3.0]
    assert table.max_legal(7, np.array([True, False, True])) == 3.0
    assert table.max_legal(42, np.ones(3, dtype=bool)) == 0.0
    with pytest.raises(ValueError, match="at least one action"):
        table.max_legal(7, np.zeros(3, dtype=bool))


def test_tied_rows_take_the_lowest_index_legal_argmax():
    table = QTable(num_actions=6)
    table.update(3, 5, target=1.0, alpha=1.0)
    table.row(3)[:] = [0.5, 2.0, -1.0, 2.0, 2.0, 2.0]
    rng = np.random.default_rng(0)
    assert table.greedy_action(3, np.ones(6, dtype=bool), rng) == 1
    assert table.greedy_action(3, np.array([1, 0, 1, 1, 1, 1], dtype=bool), rng) == 3
    assert table.greedy_action(3, [True, False, True, False, False, True], rng) == 5
    assert table.greedy_action(3, np.array([1, 0, 1, 0, 0, 0], dtype=bool), rng) == 0
    table.row(4)[:] = 0.0
    table.update(4, 2, target=0.0, alpha=1.0)  # visited, all-zero row
    assert table.greedy_action(4, np.array([0, 0, 1, 1, 0, 1], dtype=bool), rng) == 2


def test_unvisited_key_draws_one_integer_over_the_legal_actions():
    table = QTable(num_actions=6)
    table.row(8)[:] = [9.0, 0, 0, 0, 0, 0]  # stored values but no visit: still random
    legal = np.array([True, False, True, False, True, True])
    indices = [0, 2, 4, 5]
    rng = np.random.default_rng(21)
    mirror = np.random.default_rng(21)
    for key in (8, 77, 2**70):
        for _ in range(50):
            assert table.greedy_action(key, legal, rng) == indices[mirror.integers(4)]
    assert rng.random() == mirror.random()  # one draw per call, no more


def test_max_legal_on_unseen_keys_and_bad_masks():
    table = QTable(num_actions=4)
    assert table.max_legal(5, np.array([False, True, False, False])) == 0.0
    table.row(5)[:] = [-3.0, -2.0, -1.0, 4.0]
    assert table.max_legal(5, [True, True, False, False]) == -2.0
    assert table.max_legal(5, np.ones(4, dtype=bool)) == 4.0
    rng = np.random.default_rng(0)
    for bad in (np.zeros(4, dtype=bool), np.ones(3, dtype=bool), np.ones((1, 4), dtype=bool)):
        with pytest.raises(ValueError, match="at least one action"):
            table.greedy_action(5, bad, rng)
        with pytest.raises(ValueError, match="at least one action"):
            table.max_legal(5, bad)


def test_save_and_load_round_trip(tmp_path):
    table = QTable(num_actions=3)
    table.update(4, 2, target=1.5, alpha=1.0)
    big_key = 2**80 + 3  # observation keys overflow int64
    table.update(big_key, 0, target=-0.25, alpha=0.5)
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    assert loaded.num_actions == 3
    assert set(loaded.values) == {4, big_key}
    assert np.array_equal(loaded.peek(big_key), table.peek(big_key))
    assert loaded.visit_count(4) == 1

    empty = QTable(num_actions=5)
    empty.save(tmp_path / "empty.npz")
    assert QTable.load(tmp_path / "empty.npz").values == {}


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


def test_training_is_deterministic_per_seed():
    mmdp = load_chain()
    tables = [
        q_learning_train(chain_builder, [mmdp], SHORT, seed=11) for _ in range(2)
    ]
    other = q_learning_train(chain_builder, [mmdp], SHORT, seed=12)
    assert set(tables[0].values) == set(tables[1].values)
    for key in tables[0].values:
        assert np.array_equal(tables[0].values[key], tables[1].values[key])
        assert tables[0].visits[key] == tables[1].visits[key]
    assert any(
        not np.array_equal(other.peek(k), tables[0].peek(k)) for k in tables[0].values
    )


def test_short_training_recovers_the_optimal_chain_policy():
    mmdp = load_chain()
    table = q_learning_train(chain_builder, [mmdp], SHORT, seed=3)
    policy = extract_joint_policy(table, mmdp)
    policy.validate_for(mmdp)
    _, optimal = value_iteration(mmdp)
    assert np.array_equal(policy.actions, optimal.actions)


def test_training_never_selects_masked_actions():
    mmdp = load_chain()

    class LastActionForbidden(MMDPEnvironment):
        def available_actions(self):
            mask = super().available_actions()
            mask[:, -1] = False
            return mask

    def builder(task, capability_observable, seed):
        return LastActionForbidden(task, episode_limit=10, seed=seed)

    table = q_learning_train(builder, [mmdp], SHORT, seed=5)
    assert table.values
    for key in table.values:
        assert table.values[key][-1] == 0.0


def test_on_interval_callback_fires_on_schedule():
    mmdp = load_chain()
    schedule = TrainSchedule(
        total_steps=50, epsilon_decay_steps=10, gamma=0.5, eval_interval=10,
    )
    seen = []
    q_learning_train(
        chain_builder, [mmdp], schedule, seed=0,
        on_interval=lambda step, table: seen.append(step),
    )
    assert seen == [10, 20, 30, 40, 50]


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


def test_greedy_episode_return_on_the_chain():
    mmdp = load_chain()
    table = QTable(num_actions=2)
    for state in (0, 1):
        table.update(state, 1, target=1.0, alpha=1.0)
    env = MMDPEnvironment(mmdp, episode_limit=3, seed=0)
    total = run_greedy_episode(table, env, np.random.default_rng(0))
    # rho starts at state 0 (reward 0); action 1 reaches state 1 and stays
    assert total == 2.0


def test_self_gap_is_exactly_zero():
    mmdp = load_chain()
    for table in (QTable(num_actions=2), q_learning_train(chain_builder, [mmdp], SHORT, seed=2)):
        result = generalization_gap(table, chain_builder, mmdp, mmdp, episodes=6, seed=9)
        assert result["gap"] == 0.0
        assert result["train_mean"] == result["test_mean"]


def test_trained_policy_beats_the_untrained_table():
    mmdp = load_chain()
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


def test_mmdp_environment_reward_convention_and_errors():
    mmdp = load_chain()
    env = MMDPEnvironment(mmdp, episode_limit=2, seed=0)
    (state,) = env.reset()
    assert state == 0  # rho is concentrated on state 0
    next_obs, reward, done = env.step([1])
    assert reward == 0.0 and next_obs == [1] and not done
    _, reward, done = env.step([1])
    assert reward == 1.0 and done
    assert env.available_actions().shape == (1, 2)

    with pytest.raises(ValueError, match="one joint action"):
        env.step([0, 1])
    with pytest.raises(ValueError, match="unavailable action"):
        env.step([5])
    fresh = MMDPEnvironment(mmdp, episode_limit=2, seed=0)
    with pytest.raises(RuntimeError, match="reset"):
        fresh.step([0])
    with pytest.raises(ValueError, match="episode_limit"):
        MMDPEnvironment(mmdp, episode_limit=0, seed=0)


def test_extract_joint_policy_defaults_unvisited_states_to_action_zero():
    mmdp = load_chain()
    table = QTable(num_actions=2)
    table.update(1, 1, target=1.0, alpha=1.0)
    policy = extract_joint_policy(table, mmdp)
    assert policy.actions.tolist() == [0, 1]
