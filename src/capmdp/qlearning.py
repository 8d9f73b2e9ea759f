"""Tabular Q-learning over integer observation keys, shared across agents.

One Q-table is trained from the experience of every agent on every task in a
rotation, keyed by each agent's own observation encoding. Works with any
environment exposing reset() -> observations, available_actions() -> bool
mask of shape (num_agents, num_actions), and step(actions) ->
(observations, team_reward, done). Observations are either objects with a
key() method or plain integers.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mdp import JointPolicy, TabularMMDP


@dataclass(frozen=True)
class TrainSchedule:
    total_steps: int = 200_000
    alpha: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 50_000
    gamma: float = 0.99
    eval_interval: int = 10_000

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValueError("epsilon must decay within [0, 1]")
        if self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be positive")

    def epsilon_at(self, step: int) -> float:
        frac = min(max(step, 0), self.epsilon_decay_steps) / self.epsilon_decay_steps
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


class QTable:
    """Dict-backed action-value table over integer observation keys.

    Unseen keys hold an implicit all-zero row. Greedy action selection at a
    never-updated key falls back to a uniform random choice among the legal
    actions; at an updated key it takes the first (lowest index) legal argmax.
    """

    def __init__(self, num_actions: int):
        if num_actions < 1:
            raise ValueError("num_actions must be positive")
        self.num_actions = int(num_actions)
        self.values: dict = {}
        self.visits: dict = {}

    def row(self, key: int) -> np.ndarray:
        entry = self.values.get(key)
        if entry is None:
            entry = np.zeros(self.num_actions)
            self.values[key] = entry
            self.visits[key] = 0
        return entry

    def peek(self, key: int) -> np.ndarray:
        entry = self.values.get(key)
        if entry is None:
            return np.zeros(self.num_actions)
        return entry

    def visit_count(self, key: int) -> int:
        return self.visits.get(key, 0)

    def greedy_action(self, key: int, legal: np.ndarray, rng: np.random.Generator) -> int:
        return _greedy(self, key, self._legal_indices(legal), rng)

    def max_legal(self, key: int, legal: np.ndarray) -> float:
        return _max_legal(self, key, self._legal_indices(legal))

    def _legal_indices(self, legal) -> list:
        legal = np.asarray(legal, dtype=bool)
        if legal.ndim != 1:
            raise ValueError("legal mask must enable at least one action")
        return _legal_lists(legal[None], self.num_actions)[0]

    def update(self, key: int, action: int, target: float, alpha: float):
        row = self.row(key)
        row[action] += alpha * (target - row[action])
        self.visits[key] += 1

    def save(self, path) -> None:
        """Write values/visits to <path> (.npz) and keys to a sidecar json.

        Keys can exceed the int64 range, so they are serialized as strings.
        """
        path = Path(path)
        keys = sorted(self.values.keys())
        values = np.stack([self.values[k] for k in keys]) if keys else np.zeros(
            (0, self.num_actions)
        )
        visits = np.array([self.visits[k] for k in keys], dtype=np.int64)
        np.savez(path, values=values, visits=visits)
        index = {"num_actions": self.num_actions, "keys": [str(k) for k in keys]}
        index_path = path.with_suffix(".index.json")
        index_path.write_text(json.dumps(index))

    @classmethod
    def load(cls, path) -> "QTable":
        path = Path(path)
        index = json.loads(path.with_suffix(".index.json").read_text())
        table = cls(num_actions=int(index["num_actions"]))
        data = np.load(path if path.suffix == ".npz" else path.with_suffix(".npz"))
        values = data["values"]
        visits = data["visits"]
        for pos, key_text in enumerate(index["keys"]):
            key = int(key_text)
            table.values[key] = values[pos].copy()
            table.visits[key] = int(visits[pos])
        return table


def _legal_lists(mask, num_actions: int) -> list:
    """The legal action indices of each row of a (num_agents, num_actions) bool mask."""
    mask = np.asarray(mask, dtype=bool)
    rows = []
    if mask.ndim == 2 and mask.shape[1] == num_actions:
        rows = [[a for a, ok in enumerate(row) if ok] for row in mask.tolist()]
    if not rows or not all(rows):
        raise ValueError("legal mask must enable at least one action")
    return rows


def _greedy(table: QTable, key: int, legal: list, rng: np.random.Generator) -> int:
    """QTable.greedy_action over a non-empty list of legal indices."""
    if table.visits.get(key, 0) == 0:
        return legal[rng.integers(len(legal))]
    # max keeps the first of equal values: the lowest-index legal argmax
    return max(legal, key=table.values[key].tolist().__getitem__)


def _max_legal(table: QTable, key: int, legal: list) -> float:
    """QTable.max_legal over a non-empty list of legal indices."""
    entry = table.values.get(key)
    if entry is None:
        return 0.0
    row = entry.tolist()
    return max(row[a] for a in legal)


def _obs_key(obs) -> int:
    if hasattr(obs, "key"):
        return int(obs.key())
    return int(obs)


def q_learning_train(
    env_builder,
    tasks,
    schedule: TrainSchedule,
    seed: int,
    capability_observable: bool = False,
    on_interval=None,
) -> QTable:
    """Train one shared table, sampling a task uniformly for each episode.

    env_builder(task, capability_observable, seed) must return a fresh
    environment. on_interval, when given, is called as
    on_interval(step, table) every schedule.eval_interval steps.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("at least one training task is required")
    envs = [
        env_builder(task, capability_observable, int(np.random.default_rng([seed, i]).integers(2**31)))
        for i, task in enumerate(tasks)
    ]
    table = QTable(num_actions=envs[0].num_actions)
    rng = np.random.default_rng([seed, len(tasks)])

    step = 0
    while step < schedule.total_steps:
        env = envs[int(rng.integers(len(envs)))]
        observations = env.reset()
        keys = [_obs_key(o) for o in observations]
        legal = _legal_lists(env.available_actions(), table.num_actions)
        done = False
        while not done and step < schedule.total_steps:
            epsilon = schedule.epsilon_at(step)
            actions = []
            for i, key in enumerate(keys):
                if rng.random() < epsilon:
                    actions.append(legal[i][rng.integers(len(legal[i]))])
                else:
                    actions.append(_greedy(table, key, legal[i], rng))
            observations, reward, done = env.step(actions)
            next_keys = [_obs_key(o) for o in observations]
            if done:
                targets = [reward] * len(keys)
            else:
                # the post-step mask is also the next step's decision mask
                legal = _legal_lists(env.available_actions(), table.num_actions)
                targets = [
                    reward + schedule.gamma * _max_legal(table, next_keys[i], legal[i])
                    for i in range(len(keys))
                ]
            for i, key in enumerate(keys):
                table.update(key, actions[i], targets[i], schedule.alpha)
            keys = next_keys
            step += 1
            if on_interval is not None and step % schedule.eval_interval == 0:
                on_interval(step, table)
    return table


def run_greedy_episode(table: QTable, env, rng: np.random.Generator) -> float:
    """Roll out the table's greedy policy for one episode; returns the return."""
    observations = env.reset()
    keys = [_obs_key(o) for o in observations]
    total = 0.0
    done = False
    while not done:
        legal = _legal_lists(env.available_actions(), table.num_actions)
        actions = [_greedy(table, keys[i], legal[i], rng) for i in range(len(keys))]
        observations, reward, done = env.step(actions)
        keys = [_obs_key(o) for o in observations]
        total += float(reward)
    return total


def evaluate_policy_empirical(
    table: QTable,
    env_builder,
    tasks,
    episodes: int,
    seed: int,
    capability_observable: bool = False,
) -> dict:
    """Greedy-policy returns per task: mean and std over fresh episodes."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    per_task = []
    for index, task in enumerate(tasks):
        env = env_builder(
            task, capability_observable, int(np.random.default_rng([seed, index, 0]).integers(2**31))
        )
        rng = np.random.default_rng([seed, index, 1])
        returns = [run_greedy_episode(table, env, rng) for _ in range(episodes)]
        per_task.append(
            {"mean": float(np.mean(returns)), "std": float(np.std(returns))}
        )
    pooled = float(np.mean([entry["mean"] for entry in per_task]))
    return {"per_task": per_task, "pooled_mean": pooled, "episodes": int(episodes)}


def generalization_gap(
    table: QTable,
    env_builder,
    train_task,
    test_task,
    episodes: int,
    seed: int,
    capability_observable: bool = False,
) -> dict:
    """Mean train-task return minus mean test-task return, one seed for both.

    The two tasks are evaluated with the same seed derivation, so evaluating
    a task against itself yields a gap of exactly zero.
    """
    train = evaluate_policy_empirical(
        table, env_builder, [train_task], episodes, seed, capability_observable
    )
    test = evaluate_policy_empirical(
        table, env_builder, [test_task], episodes, seed, capability_observable
    )
    return {
        "train_mean": train["pooled_mean"],
        "test_mean": test["pooled_mean"],
        "gap": train["pooled_mean"] - test["pooled_mean"],
        "train": train,
        "test": test,
    }


class MMDPEnvironment:
    """Episode simulator over a tabular joint-action model.

    Presents the model as a single centralized learner: one observation (the
    state index) and the full joint action space. The per-step reward is the
    reward of the state the action was taken in, matching the convention
    that a state's value counts its own reward first.
    """

    def __init__(self, mmdp: TabularMMDP, episode_limit: int, seed: int):
        if episode_limit < 1:
            raise ValueError("episode_limit must be positive")
        self.mmdp = mmdp
        self.episode_limit = int(episode_limit)
        self._rng = np.random.default_rng(seed)
        self.num_actions = mmdp.num_joint_actions
        self._state = 0
        self._steps = 0
        self._live = False

    def reset(self) -> list:
        self._state = int(self._rng.choice(self.mmdp.num_states, p=self.mmdp.rho))
        self._steps = 0
        self._live = True
        return [self._state]

    def available_actions(self) -> np.ndarray:
        return np.ones((1, self.num_actions), dtype=bool)

    def step(self, joint_action) -> tuple:
        if not self._live:
            raise RuntimeError("call reset() before interacting with the environment")
        actions = [int(a) for a in joint_action]
        if len(actions) != 1:
            raise ValueError("this environment takes one joint action index")
        action = actions[0]
        if not (0 <= action < self.num_actions):
            raise ValueError(f"agent 0 submitted unavailable action {action}")
        reward = float(self.mmdp.rewards[self._state])
        row = self.mmdp.transitions[self._state, action]
        k = int(self._rng.choice(len(row), p=row))
        next_states = self.mmdp.next_states
        self._state = k if next_states is None else int(next_states[self._state, action, k])
        self._steps += 1
        done = self._steps >= self.episode_limit
        return [self._state], reward, done


def extract_joint_policy(table: QTable, mmdp: TabularMMDP) -> JointPolicy:
    """Greedy deterministic policy over states; never-updated states act 0."""
    actions = np.zeros(mmdp.num_states, dtype=np.int64)
    for s in range(mmdp.num_states):
        if table.visit_count(s) > 0:
            actions[s] = int(np.argmax(table.peek(s)))
    return JointPolicy(actions=actions)
