"""Grid foraging task expressed as an exactly capability-linear MDP.

Agents walk a square grid on which d fruit trees sit at fixed cells. A state
is the joint agent position plus a d-bit mask of trees already foraged; a
tree is foraged the first time any agent occupies its cell at the end of a
step. Capabilities are per-fruit-type utilities, so the team reward is the
influence-weighted average utility of every foraged type. Reward weights are
scaled by (1 - gamma), which makes the optimal value of reaching a tree in t
steps exactly gamma^t times its utility despite the reward being state-only.

Movement is deterministic (four directions plus stay; off-grid moves stay),
agents may share cells, and the transition kernel is capability-independent.
It is stored in the indexed layout: an (S, A, 1) successor index with unit
probabilities, one stored entry broadcast over every capability component,
state and joint action; each team's MDP holds its mixture of that entry,
broadcast the same way. So memory grows with S * A rather than S * A * S,
the index holds all of it, and grid 6 with two agents (5184 states) solves
exactly. No layout of more than STATE_CAP states is enumerated:
fruit_forage_state_count rejects it, for build_fruit_forage and for the
experiment config's fruit_forage section alike.

Teams on one grid differ in their rewards only: the successor index, the
state features and the initial distribution depend on the grid, the agent
count, the trees and the starts, not on capabilities, weights or the
discount. fruit_forage_layout enumerates them once into a read-only
ForageLayout, and build_fruit_forage(config, layout) builds each team's
spec on it, so the specs share one transition kernel object. Their MDPs
then share one successor index, and value iteration solves them as one
stack that gathers it once per sweep for every team (Barreto et al. 2017's
successor-feature setting: shared dynamics, rewards linear in features).
"""

from dataclasses import dataclass

import numpy as np

from .. import mdp
from ..linear import (
    InfluenceWeights,
    LinearMMDPSpec,
    RewardKernel,
    TeamComposition,
    TransitionKernel,
)
from ..mdp import StateSpace

# Four-agent, four-fruit utility compositions used by the certification
# experiments. Utilities are non-negative but deliberately not simplex
# normalized, so specs built from them set relax_simplex.
UTILITY_TEAM_X = (
    (0.05, 0.1, 0.6, 2.8),
    (0.05, 0.1, 2.1, 0.8),
    (0.05, 0.1, 1.8, 1.2),
    (0.05, 0.1, 0.9, 2.4),
)
UTILITY_TEAM_Y = (
    (0.7, 0.4, 0.15, 0.2),
    (0.2, 1.4, 0.15, 0.2),
    (0.3, 1.2, 0.15, 0.2),
    (0.6, 0.6, 0.15, 0.2),
)
UTILITY_TEAM_Z = (
    (0.1, 0.3, 0.6, 0.0),
    (0.4, 0.1, 0.5, 0.0),
    (0.05, 0.06, 0.89, 0.0),
    (0.0, 0.0, 0.0, 1.0),
)

NUM_MOVE_ACTIONS = 5  # up, left, down, right, stay
_MOVES = ((-1, 0), (0, -1), (1, 0), (0, 1), (0, 0))

STATE_CAP = 200_000


@dataclass(frozen=True)
class FruitForageConfig:
    """Layout and team for one foraging instance.

    tree_positions maps fruit type j to its (row, col) cell; None places the
    first num_fruit_types trees on distinct corner cells. start_positions, if
    given, concentrates the initial distribution on those agent cells with an
    empty mask; otherwise the start is uniform over all empty-mask states.
    """

    grid_size: int = 8
    num_agents: int = 2
    num_fruit_types: int = 2
    team: tuple = ((0.6, 2.8), (2.1, 0.8))
    weights: tuple | None = None
    tree_positions: tuple | None = None
    start_positions: tuple | None = None
    gamma: float = 0.9

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.num_agents < 1:
            raise ValueError("need at least one agent")
        if not (1 <= self.num_fruit_types <= self.grid_size**2):
            raise ValueError("num_fruit_types must fit on the grid")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")


def default_tree_positions(grid_size: int, num_fruit_types: int) -> tuple:
    """Distinct tree cells: the grid corners first, then row-major fill."""
    g = grid_size
    corners = [(g - 1, g - 1), (0, g - 1), (g - 1, 0), (0, 0)]
    cells = []
    for cell in corners:
        if cell not in cells:
            cells.append(cell)
    for r in range(g):
        for c in range(g):
            if (r, c) not in cells:
                cells.append((r, c))
    return tuple(cells[:num_fruit_types])


def desk_config(team_label: str = "x", grid_size: int = 4, num_agents: int = 2) -> FruitForageConfig:
    """Small exactly-solvable instance carrying utility-team flavored values.

    Takes the first num_agents members of the chosen four-member utility team
    and their last two fruit-type utilities, keeping the state space at
    desk scale (two fruit types).
    """
    source = {"x": UTILITY_TEAM_X, "y": UTILITY_TEAM_Y, "z": UTILITY_TEAM_Z}[team_label]
    team = tuple(tuple(member[2:4]) for member in source[:num_agents])
    return FruitForageConfig(
        grid_size=grid_size,
        num_agents=num_agents,
        num_fruit_types=2,
        team=team,
    )


def fruit_forage_state_count(config: FruitForageConfig) -> int:
    """Number of states of config's layout.

    Raises:
        ValueError: when the count exceeds STATE_CAP.
    """
    size = (config.grid_size**2) ** config.num_agents * 2**config.num_fruit_types
    if size > STATE_CAP:
        raise ValueError(
            f"fruit forage instance needs {size} states, above the cap of {STATE_CAP}"
        )
    return size


@dataclass(frozen=True, eq=False)
class ForageLayout:
    """What every team on one grid, agent count, tree set and start shares.

    cells is (grid_size, num_agents, num_fruit_types, tree cells, start
    cells or None), the part of a FruitForageConfig the layout depends on.
    Its arrays are read-only, since every spec built on it shares them.
    """

    cells: tuple
    states: StateSpace
    transition_kernel: TransitionKernel
    rho: np.ndarray


def _layout_cells(config: FruitForageConfig) -> tuple:
    """config's layout fields, tree cells resolved and every cell checked.

    Raises:
        ValueError: naming the first tree or start cell off the grid, or
            when the trees are not one distinct cell per fruit type or the
            starts not one cell per agent.
    """
    g, n, d = config.grid_size, config.num_agents, config.num_fruit_types
    trees = config.tree_positions
    if trees is None:
        trees = default_tree_positions(g, d)
    trees = tuple((int(r), int(c)) for r, c in trees)
    if len(trees) != d or len(set(trees)) != d:
        raise ValueError("tree_positions must give one distinct cell per fruit type")
    for r, c in trees:
        if not (0 <= r < g and 0 <= c < g):
            raise ValueError(f"tree cell {(r, c)} is off the grid")
    starts = config.start_positions
    if starts is not None:
        starts = tuple((int(r), int(c)) for r, c in starts)
        if len(starts) != n:
            raise ValueError("start_positions must give one cell per agent")
        for r, c in starts:
            if not (0 <= r < g and 0 <= c < g):
                raise ValueError(f"start cell {(r, c)} is off the grid")
    return g, n, d, trees, starts


def fruit_forage_layout(config: FruitForageConfig) -> ForageLayout:
    """Enumerate config's states, successor index and initial distribution.

    The team, weights and discount play no part, so specs of every team on
    this grid can share one layout (build_fruit_forage's layout argument).
    The kernel's components are one read-only unit probability, broadcast
    (stride 0) over every component, state and joint action, so the layout
    stores no (S, A) array of probabilities and no team's MDP adds one: each
    mixes the one entry (assemble_linear_mmdp).

    Raises:
        ValueError: when the enumerated state space exceeds STATE_CAP, or a
            tree or start cell is invalid (see _layout_cells).
    """
    size = fruit_forage_state_count(config)
    cells_key = _layout_cells(config)
    g, n, d, trees, starts = cells_key
    cells = g * g
    num_masks = 2**d
    num_positions = cells**n

    # per-agent movement table over flat cells
    move_table = np.zeros((cells, NUM_MOVE_ACTIONS), dtype=np.int64)
    for cell in range(cells):
        r, c = divmod(cell, g)
        for action, (dr, dc) in enumerate(_MOVES):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < g and 0 <= nc < g):
                nr, nc = r, c
            move_table[cell, action] = nr * g + nc

    # state index = position-tuple index (agent 0 slowest) * num_masks + mask
    pos_dims = (cells,) * n
    pos_cells = np.stack(
        np.unravel_index(np.arange(num_positions), pos_dims), axis=1
    )  # (num_positions, n)
    rows, cols = np.divmod(pos_cells, g)
    coords = np.stack([rows, cols], axis=2).reshape(num_positions, 2 * n) * (1.0 / (g - 1))
    mask_bits = (np.arange(num_masks)[:, None] >> np.arange(d)) & 1  # (num_masks, d)
    features = np.concatenate(
        [np.repeat(coords, num_masks, axis=0), np.tile(mask_bits, (num_positions, 1))],
        axis=1,
    )

    num_joint = NUM_MOVE_ACTIONS**n
    action_dims = (NUM_MOVE_ACTIONS,) * n
    joint_moves = np.stack(
        np.unravel_index(np.arange(num_joint), action_dims), axis=1
    )  # (num_joint, n)

    tree_bit = np.zeros(cells, dtype=np.int64)
    for j, (r, c) in enumerate(trees):
        tree_bit[r * g + c] = 1 << j
    masks = np.arange(num_masks)[None, :, None]
    # written through a view, so the index owns its data: read-only before the
    # kernel is built, it is checked and digested once for the kernel and every
    # MDP that shares it (mdp._once)
    next_states = np.empty((size, num_joint, 1), dtype=np.int64)
    by_position = next_states.reshape(num_positions, num_masks, num_joint)
    # a block of positions at a time, so that no temporary holds more than
    # mdp.SCRATCH_ENTRIES entries
    block = max(1, mdp.SCRATCH_ENTRIES // (num_joint * max(n, num_masks)))
    for lo in range(0, num_positions, block):
        # new_cells[p, u, i]: agent i's cell after joint move u from position lo + p
        new_cells = move_table[pos_cells[lo : lo + block, None, :], joint_moves[None, :, :]]
        new_pos_index = np.ravel_multi_index(tuple(np.moveaxis(new_cells, 2, 0)), pos_dims)
        newly_covered = np.bitwise_or.reduce(tree_bit[new_cells], axis=2)  # (positions, num_joint)
        np.add(
            new_pos_index[:, None, :] * num_masks,
            masks | newly_covered[:, None, :],
            out=by_position[lo : lo + block],
        )

    next_states.flags.writeable = False

    # one sure successor per row: every component, state and joint action
    # reads the one stored unit probability
    unit = np.ones((1, 1, 1))
    unit.flags.writeable = False
    components = np.broadcast_to(unit, (d, size, num_joint, 1))

    rho = np.zeros(size)
    if starts is not None:
        start_pos_index = int(np.ravel_multi_index([r * g + c for r, c in starts], pos_dims))
        rho[start_pos_index * num_masks] = 1.0
    else:
        empty_mask_states = np.arange(num_positions) * num_masks
        rho[empty_mask_states] = 1.0 / num_positions

    layout = ForageLayout(
        cells=cells_key,
        states=StateSpace(features),
        transition_kernel=TransitionKernel(components, next_states=next_states),
        rho=rho,
    )
    for arr in (layout.states.features, layout.rho):
        arr.flags.writeable = False
    return layout


def build_fruit_forage(
    config: FruitForageConfig, layout: ForageLayout | None = None
) -> LinearMMDPSpec:
    """Enumerate the foraging MDP into an exactly-linear spec.

    layout, when given, is the fruit_forage_layout of a config with the same
    grid, agents, trees and starts; the spec then shares its arrays instead
    of enumerating them again.

    Raises:
        ValueError: when the enumerated state space exceeds STATE_CAP, the
            layout is inconsistent with the team, or a given layout was
            built for other cells.
    """
    team = TeamComposition(tuple(np.asarray(m, dtype=float) for m in config.team))
    d = config.num_fruit_types
    n = config.num_agents
    if team.num_agents != n:
        raise ValueError(f"team has {team.num_agents} members, config declares {n} agents")
    if team.dim != d:
        raise ValueError(f"team utilities have {team.dim} components, expected {d} fruit types")
    if layout is None:
        layout = fruit_forage_layout(config)
    elif layout.cells != _layout_cells(config):
        raise ValueError(f"the layout was built for {layout.cells}, not this config's cells")

    weights = config.weights
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = InfluenceWeights(np.asarray(weights, dtype=float))

    # (1 - gamma) scaling turns the per-step mask payout into a one-time
    # discounted utility: reaching a tree at step t is worth gamma^t * utility
    reward_w = np.zeros((d, 2 * n + d))
    for j in range(d):
        reward_w[j, 2 * n + j] = 1.0 - config.gamma

    return LinearMMDPSpec(
        team=team,
        weights=weights,
        reward_kernel=RewardKernel(reward_w),
        transition_kernel=layout.transition_kernel,
        states=layout.states,
        num_agents=n,
        actions_per_agent=NUM_MOVE_ACTIONS,
        gamma=config.gamma,
        rho=layout.rho,
        relax_simplex=not team.all_simplex(),
    )
