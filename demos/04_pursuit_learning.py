"""
Tabular Q-learning on the pursuit gridworld, two experiments.

First a single chaser on a 3x3 board with a stationary prey: after a
short training run its greedy policy should capture from every start in
exactly the shortest number of moves. Second, the capability twist: a
team trains on some capability assignments and is evaluated on an unseen
one, once blind to capabilities and once observing them, to compare the
generalization gap of the two observation designs.
"""

from collections import deque

import numpy as np

import capmdp
from capmdp.envs.predator_prey import (
    PredatorPreyConfig,
    PredatorPreyEnv,
    pp_task_suites,
)

# ---------------------------------------------------------------------------
# 1. shortest-path mastery on a tiny board
# ---------------------------------------------------------------------------

g = 3
chase = PredatorPreyConfig(
    grid_size=g, num_predators=1, num_prey=1, predator_capabilities=(1,),
    prey_health=(1,), penalty=0.0, episode_limit=20, prey_move_prob=0.0,
)


def chase_builder(task, capability_observable, seed):
    return PredatorPreyEnv(task, seed)


schedule = capmdp.TrainSchedule(
    total_steps=60_000, alpha=0.05, epsilon_start=1.0, epsilon_end=0.05,
    epsilon_decay_steps=20_000, gamma=0.9, eval_interval=20_000,
)
print("training the chaser for", schedule.total_steps, "steps ...")
table = capmdp.q_learning_train(chase_builder, [chase], schedule, seed=42)
print("learned Q entries:", len(table.values))


def shortest_capture(pred: int, prey: int) -> int:
    """Moves a perfect chaser needs: walk next to the prey, then attack."""

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
        r, c = divmod(cell, g)
        for dr, dc in ((-1, 0), (0, -1), (1, 0), (0, 1)):
            nr, nc = r + dr, c + dc
            nb = nr * g + nc
            if not (0 <= nr < g and 0 <= nc < g) or nb == prey or nb in dist:
                continue
            dist[nb] = dist[cell] + 1
            if adjacent(nb, prey):
                return dist[nb] + 1
            queue.append(nb)
    raise AssertionError("a 3x3 grid is connected")


env = PredatorPreyEnv(chase, seed=0)
rng = np.random.default_rng(0)
matched = 0
total = 0
for pred in range(g * g):
    for prey in range(g * g):
        if pred == prey:
            continue
        total += 1
        observations = env.reset(
            predator_positions=[divmod(pred, g)], prey_positions=[divmod(prey, g)]
        )
        key = observations[0].key()
        steps = None
        for t in range(1, 13):
            action = table.greedy_action(key, env.available_actions()[0], rng)
            observations, reward, _ = env.step([action])
            key = observations[0].key()
            if reward > 0:
                steps = t
                break
        matched += steps == shortest_capture(pred, prey)

print(f"greedy captures at the shortest time on {matched}/{total} starts")

# ---------------------------------------------------------------------------
# 2. blind vs capability-aware generalization to an unseen team
# ---------------------------------------------------------------------------
# unseen_team: four predators train as (2,3,2,3) and (1,2,1,2) and are
# then evaluated as (1,1,1,3), a capability split never seen in training.

suite = pp_task_suites()["unseen_team"]
gap_train = next(t for t in suite.train if t.predator_capabilities == suite.gap_train_team)
gap_test = next(t for t in suite.test if t.predator_capabilities == suite.gap_test_team)
print(f"\ntrain team {suite.gap_train_team} -> unseen team {suite.gap_test_team}")


def suite_builder(task, capability_observable, seed):
    cfg = task.to_config(
        grid_size=5, capability_observable=capability_observable,
        episode_limit=40, prey_move_prob=0.7,
    )
    return PredatorPreyEnv(cfg, seed)


team_schedule = capmdp.TrainSchedule(
    total_steps=4_000, alpha=0.1, epsilon_start=1.0, epsilon_end=0.05,
    epsilon_decay_steps=1_500, gamma=0.99, eval_interval=1_000,
)

for mode, observable in (("blind", False), ("aware", True)):
    team_table = capmdp.q_learning_train(
        suite_builder, suite.train, team_schedule, seed=7,
        capability_observable=observable,
    )
    gap = capmdp.generalization_gap(
        team_table, suite_builder, gap_train, gap_test, episodes=8, seed=7,
        capability_observable=observable,
    )
    print(
        f"{mode:>5}: train return {gap['train_mean']:.4f}"
        f"  unseen-team return {gap['test_mean']:.4f}  gap {gap['gap']:.4f}"
    )

print("\nthe bundled `capmdp predator-prey` experiment runs this at full size")
