"""Tabular Q-learning over integer observation keys, shared across agents.

One Q-table is trained from the experience of every agent on every task in a
rotation, keyed by each agent's own observation encoding. Works with any
environment exposing num_actions, reset() -> observations, legal_actions()
-> one sequence of legal action indices per agent, ascending, and
step(actions) -> (observations, team_reward, done). The legal actions read
after a step are the next step's decision set, and every agent needs at least
one. One agent's sequence is what QTable.greedy_action takes. An observation
is its table key, a plain int: PredatorPreyEnv returns each predator's key
and MMDPEnvironment the state index, and the trainer uses them as they come.
step raises ValueError for an action outside its agent's legal set, and for a
bool or any other non-integer value; checked_action is that check.

A QTable keeps every row in one flat store of C doubles, with a key -> row
number dict and a list of visit counts beside it: about 170 bytes per key on
CPython 3.11, where an ndarray per row in two dicts took about 290. It has
one write path, update (which q_learning_train inlines), and one read path,
its values and visits mappings; a key it does not hold is unseen. A caller
that trains several tables in turn should drop each one before training the
next, so that only one is alive at a time (run_predator_prey does).
"""

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

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
    """Action values and visit counts over integer observation keys, in one flat store.

    The values of every key sit in one array('d') of C doubles, num_actions
    to a row; a key's row is appended as zeros at its first update, so the
    store grows in place. Beside it a dict maps each key to its row number
    and a list holds each row's visit count. Keys may exceed 64 bits.

    update() is the one write path; q_learning_train runs the same update
    on the store directly. values and visits are the one read path, two
    read-only mappings: values[key] is a read-only float64 copy of the key's
    row and visits[key] its count. Neither holds the store, whose growth an
    ndarray over it would block, so both stay valid as the table grows. A
    key enters the table only through an update, so every stored key has at
    least one visit. An unseen key, one not in values, holds an implicit
    all-zero row.

    greedy_action(key, indices, rng) picks among the legal action indices,
    ascending, as legal_actions() gives them for one agent. At an unseen key
    it makes one rng.integers(len(indices)) draw and picks uniformly; at a
    stored key it takes the first (lowest index) legal argmax.
    run_greedy_episode applies it, and q_learning_train applies the same
    rule to the store directly.
    """

    def __init__(self, num_actions: int):
        if num_actions < 1:
            raise ValueError("num_actions must be positive")
        self.num_actions = int(num_actions)
        self._store = array("d")
        self._zeros = array("d", bytes(8 * self.num_actions))
        self._index: dict = {}
        self._counts: list = []
        # the views hold the store, index and counts but not the table: with
        # no reference cycle, a table is freed as soon as its last user drops it
        self.values = _KeyedView(self._index, partial(_row_copy, self._store, self.num_actions))
        self.visits = _KeyedView(self._index, self._counts.__getitem__)

    def greedy_action(self, key: int, indices, rng) -> int:
        """The greedy action at key among the legal indices; rng serves integers(n).

        rng is a PCG64Draws or the numpy Generator it wraps.
        """
        r = self._index.get(key)
        if r is None:
            return indices[rng.integers(len(indices))]
        o = r * self.num_actions
        # max keeps the first of equal values: the lowest-index legal argmax
        return max(indices, key=self._store[o:o + self.num_actions].__getitem__)

    def update(self, key: int, action: int, target: float, alpha: float):
        if not 0 <= action < self.num_actions:
            raise IndexError(f"action {action} outside 0..{self.num_actions - 1}")
        r = self._index.get(key)
        if r is None:
            r = self._index[key] = len(self._counts)
            self._counts.append(1)
            self._store.extend(self._zeros)
        else:
            self._counts[r] += 1
        i = r * self.num_actions + action
        value = self._store[i]
        self._store[i] = value + alpha * (target - value)


def _row_copy(store: array, size: int, r: int) -> np.ndarray:
    """Row r of a flat store, as a read-only float64 copy."""
    row = np.frombuffer(store, count=size, offset=8 * size * r).copy()
    row.flags.writeable = False
    return row


class _KeyedView(Mapping):
    """A read-only mapping over a QTable's keys; read(row number) gives each value."""

    def __init__(self, index: dict, read):
        self._index = index
        self._read = read

    def __getitem__(self, key):
        return self._read(self._index[key])

    def __contains__(self, key):
        return key in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)


_BLOCK_WORDS = 256  # raw 64-bit words a PCG64Draws takes from its generator at a time
_LOW32 = 0xFFFFFFFF


class PCG64Draws:
    """A numpy Generator's random() and integers(n), served bit for bit from raw PCG64 words.

    The Generator turns its bit generator's 64-bit words into draws with
    fixed algorithms, and this class runs the same ones on blocks of
    bit_generator.random_raw words, without a numpy call per draw:

    - random() is (w >> 11) * 2**-53 of one word w;
    - integers(n) for 1 < n <= 2**32 is Lemire's multiply-and-reject
      (Lemire 2019, "Fast Random Integer Generation in an Interval") on
      32-bit draws. A 32-bit draw is the low half of a fresh word, or else
      the high half that PCG64 cached from the previous one;
    - integers(1) is 0 and takes no draw.

    A sequence of these calls therefore returns what the same calls on the
    Generator return. generator() hands the Generator back at exactly the
    position the calls reached, for a draw this class does not serve (such
    as choice); the next call here starts a fresh block from wherever the
    Generator was left. Only PCG64, default_rng's bit generator, is accepted.
    """

    def __init__(self, generator: "np.random.Generator"):
        bits = generator.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError(f"PCG64Draws needs a PCG64 bit generator, got {type(bits).__name__}")
        self._generator = generator
        self._bits = bits
        self._block = []  # the current block's unused words, last one next
        self._pop = self._block.pop
        self._before = None  # the bit generator's state before the current block; None between blocks
        self._half = None  # the cached high half of the last word, or None

    def random(self) -> float:
        """Generator.random(): a float in [0, 1) from one word."""
        try:
            word = self._pop()
        except IndexError:
            self._refill()
            word = self._pop()
        return (word >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, n: int) -> int:
        """Generator.integers(n): a uniform int in [0, n), for 0 < n <= 2**32."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs 0 < n <= 2**32, got {n}")
        m = self._draw32() * n
        if m & _LOW32 < n:
            # only a product whose low half lies below n can be biased; of
            # those, the ones below 2**32 % n are drawn again
            threshold = (1 << 32) % n
            while m & _LOW32 < threshold:
                m = self._draw32() * n
        return m >> 32

    def generator(self) -> "np.random.Generator":
        """The Generator, at exactly the position this object's draws reached."""
        if self._before is not None:
            bits = self._bits
            bits.state = self._before
            bits.advance(_BLOCK_WORDS - len(self._block))
            # advance clears PCG64's cached half; put back the one in use
            state = bits.state
            state["has_uint32"] = int(self._half is not None)
            state["uinteger"] = 0 if self._half is None else self._half
            bits.state = state
            self._block.clear()
            self._before = None
            self._half = None
        return self._generator

    def _draw32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            word = self._pop()
        except IndexError:
            self._refill()
            return self._draw32()
        self._half = word >> 32
        return word & _LOW32

    def _refill(self):
        bits = self._bits
        state = bits.state
        if self._before is None:
            # the first block since the Generator was handed out: its cached half comes first
            self._half = state["uinteger"] if state["has_uint32"] else None
        self._before = state
        self._block = bits.random_raw(_BLOCK_WORDS).tolist()
        self._block.reverse()
        self._pop = self._block.pop


def checked_action(action, legal, agent: int) -> int:
    """action as a plain int when it is a Python or numpy integer (not a bool) in legal.

    Anything else raises ValueError naming the agent and the action.
    """
    if isinstance(action, (int, np.integer)) and not isinstance(action, bool) and action in legal:
        return int(action)
    raise ValueError(f"agent {agent} submitted unavailable action {action}")


def _legal_rows(env):
    """env.legal_actions(), checked to give every agent at least one action."""
    legal = env.legal_actions()
    if not all(legal):
        raise ValueError("every agent needs at least one legal action")
    return legal


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
    # the table's own store, index and counts, read and grown in place
    store, index, counts = table._store, table._index, table._counts
    n, zeros = table.num_actions, table._zeros
    draws = PCG64Draws(np.random.default_rng([seed, len(tasks)]))
    random, integers = draws.random, draws.integers
    alpha, gamma = schedule.alpha, schedule.gamma

    step = 0
    while step < schedule.total_steps:
        env = envs[integers(len(envs))]
        keys = env.reset()
        legal = _legal_rows(env)
        done = False
        while not done and step < schedule.total_steps:
            epsilon = schedule.epsilon_at(step)
            actions = []
            for key, indices in zip(keys, legal):
                r = index.get(key)
                # explore, or stand at an unseen key: one uniform draw
                if random() < epsilon or r is None:
                    actions.append(indices[integers(len(indices))])
                else:
                    o = r * n
                    # max keeps the first of equal values: the lowest-index legal argmax
                    actions.append(max(indices, key=store[o:o + n].__getitem__))
            next_keys, reward, done = env.step(actions)
            if done:
                targets = [reward] * len(keys)
            else:
                # the post-step legal actions are also the next step's decision set
                legal = _legal_rows(env)
                targets = []
                for key, indices in zip(next_keys, legal):
                    r = index.get(key)
                    if r is None:
                        best = 0.0
                    else:
                        o = r * n
                        best = max(map(store[o:o + n].__getitem__, indices))
                    targets.append(reward + gamma * best)
            # every target reads the table as it stood before this step's updates
            for key, action, target in zip(keys, actions, targets):
                r = index.get(key)
                if r is None:
                    r = index[key] = len(counts)
                    counts.append(1)
                    store.extend(zeros)
                else:
                    counts[r] += 1
                i = r * n + action
                value = store[i]
                store[i] = value + alpha * (target - value)
            keys = next_keys
            step += 1
            if on_interval is not None and step % schedule.eval_interval == 0:
                on_interval(step, table)
    return table


def run_greedy_episode(table: QTable, env, rng) -> float:
    """Roll out the table's greedy policy for one episode; returns the return.

    rng serves integers(n): a PCG64Draws, or the numpy Generator it wraps.
    """
    greedy = table.greedy_action
    keys = env.reset()
    total = 0.0
    done = False
    while not done:
        actions = [greedy(key, indices, rng) for key, indices in zip(keys, _legal_rows(env))]
        keys, reward, done = env.step(actions)
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
        rng = PCG64Draws(np.random.default_rng([seed, index, 1]))
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
        self._legal = (range(self.num_actions),)
        self._state = 0
        self._steps = 0
        self._live = False

    def reset(self) -> list:
        self._state = int(self._rng.choice(self.mmdp.num_states, p=self.mmdp.rho))
        self._steps = 0
        self._live = True
        return [self._state]

    def legal_actions(self) -> tuple:
        """Every joint action, as the one agent's legal indices."""
        return self._legal

    def step(self, joint_action) -> tuple:
        if not self._live:
            raise RuntimeError("call reset() before interacting with the environment")
        actions = list(joint_action)
        if len(actions) != 1:
            raise ValueError("this environment takes one joint action index")
        action = checked_action(actions[0], self._legal[0], 0)
        reward = float(self.mmdp.rewards[self._state])
        row = self.mmdp.transitions[self._state, action]
        k = int(self._rng.choice(len(row), p=row))
        next_states = self.mmdp.next_states
        self._state = k if next_states is None else int(next_states[self._state, action, k])
        self._steps += 1
        done = self._steps >= self.episode_limit
        return [self._state], reward, done


def extract_joint_policy(table: QTable, mmdp: TabularMMDP) -> JointPolicy:
    """Greedy deterministic policy over states; unseen states act 0."""
    actions = np.zeros(mmdp.num_states, dtype=np.int64)
    for s in range(mmdp.num_states):
        if s in table.values:
            actions[s] = int(np.argmax(table.values[s]))
    return JointPolicy(actions=actions)
