"""Seeded grid pursuit simulator with capability-gated cooperative captures.

Predators with integer-ish capability scores chase prey with hit points on a
square grid. A capture succeeds only when the capabilities of all predators
simultaneously taking the capture action next to a prey sum to at least that
prey's health; a failed coordinated attempt costs the whole team a penalty.
Captured prey respawn at a random empty cell, so the prey count is conserved.
This environment is a step simulator for learning experiments, not a linear
MDP, and none of the closed-form bound calculators accept it.
"""

import json
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

NUM_PP_ACTIONS = 6  # up, left, down, right, no-op, capture
ACTION_UP, ACTION_LEFT, ACTION_DOWN, ACTION_RIGHT, ACTION_NOOP, ACTION_CAPTURE = range(6)
_PP_MOVES = ((-1, 0), (0, -1), (1, 0), (0, 1))

_CELL_EMPTY, _CELL_PREDATOR, _CELL_PREY, _CELL_OFFGRID = range(4)
_FULL_VIEW_MAX_GRID = 5
_WINDOW_RADIUS = 2
_CAP_CODE_RADIX = 512


@dataclass(frozen=True)
class PredatorPreyConfig:
    grid_size: int = 8
    num_predators: int = 4
    num_prey: int = 4
    predator_capabilities: tuple = (1, 1, 1, 1)
    prey_health: tuple = (1, 1, 1, 1)
    penalty: float = 0.0
    capture_reward: float = 1.0
    episode_limit: int = 100
    prey_move_prob: float = 0.7
    capability_observable: bool = False

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.num_predators < 1 or self.num_prey < 1:
            raise ValueError("need at least one predator and one prey")
        if len(self.predator_capabilities) != self.num_predators:
            raise ValueError("one capability per predator is required")
        if len(self.prey_health) != self.num_prey:
            raise ValueError("one health value per prey is required")
        if any(c <= 0 for c in self.predator_capabilities):
            raise ValueError("predator capabilities must be positive")
        if any(h <= 0 for h in self.prey_health):
            raise ValueError("prey health must be positive")
        if self.penalty > 0:
            raise ValueError("the failed-capture penalty must be <= 0")
        if not (0.0 <= self.prey_move_prob <= 1.0):
            raise ValueError("prey_move_prob must lie in [0, 1]")
        if self.episode_limit < 1:
            raise ValueError("episode_limit must be at least 1")
        if self.grid_size**2 < self.num_predators + self.num_prey:
            raise ValueError("the grid is too small for all pieces")


@dataclass(frozen=True)
class PPObservation:
    """One agent's discretized view, encodable to a stable integer key.

    view is a row-major tuple of cell codes (empty 0, predator 1, prey 2,
    off-grid 3) over the whole grid at small sizes or a radius-2 window
    otherwise. teammate_capabilities is None unless the environment exposes
    them. key() is injective over observations of one environment shape.
    capability_digits caches _capability_digits(own_capability,
    teammate_capabilities): an environment computes it once per agent, and
    key() computes it when it is None.
    """

    agent_id: int
    num_cells: int
    own_cell: int
    view: tuple
    own_capability: float
    teammate_capabilities: tuple | None
    capability_digits: tuple | None = field(default=None, compare=False, repr=False)

    def key(self) -> int:
        code = 1 if self.teammate_capabilities is not None else 0
        code = code * 16 + self.agent_id
        code = code * (self.num_cells + 1) + self.own_cell
        for cell in self.view:
            code = code * 4 + cell
        scale, digits = self.capability_digits or _capability_digits(
            self.own_capability, self.teammate_capabilities
        )
        return code * scale + digits


def _capability_digits(own: float, teammates: tuple | None) -> tuple:
    """(radix ** count, digits) of the own then teammate capability codes.

    key() appends them as base-_CAP_CODE_RADIX digits: code * scale + digits.
    """
    caps = (own,) + (teammates or ())
    digits = 0
    for cap in caps:
        digits = digits * _CAP_CODE_RADIX + _capability_code(cap)
    return _CAP_CODE_RADIX ** len(caps), digits


def _capability_code(cap: float) -> int:
    code = int(round(float(cap) * 8.0))
    if not (0 <= code < _CAP_CODE_RADIX):
        raise ValueError(f"capability {cap} is outside the encodable range")
    return code


class PredatorPreyEnv:
    """Steppable pursuit environment; all randomness flows from one seed.

    trajectory_log, when given, is a writable text stream that receives one
    JSON line per reset and per step (positions as (row, col) pairs, so a
    logged reset line can pin a fresh environment for replay debugging).

    The grid geometry is tabulated once, so a step costs lookups, not divmod:
    _moves[cell] holds the four move targets (the cell itself off the grid),
    _neighbours[cell] the frozenset of adjacent cells, and _views[cell] an
    operator.itemgetter over the observed cells (the whole grid up to size 5,
    else the radius-2 window, whose off-grid cells read one sentinel slot).
    The legality mask is computed at most once per state and cached until the
    next step or reset; step validation reads the cache, and
    available_actions() returns a fresh copy of it.
    """

    num_actions = NUM_PP_ACTIONS

    def __init__(self, config: PredatorPreyConfig, seed: int, trajectory_log=None):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._g = g = config.grid_size
        self._predators: list = []
        self._prey: list = []
        self._steps = 0
        self._live = False
        self._mask = None
        self._trajectory_log = trajectory_log

        cells = g * g
        rc = [divmod(cell, g) for cell in range(cells)]

        def index(r, c, off_grid):
            return r * g + c if 0 <= r < g and 0 <= c < g else off_grid

        self._moves = [
            tuple(index(r + dr, c + dc, r * g + c) for dr, dc in _PP_MOVES) for r, c in rc
        ]
        self._neighbours = [
            frozenset(t for t in moves if t != cell) for cell, moves in enumerate(self._moves)
        ]
        if g <= _FULL_VIEW_MAX_GRID:
            self._views = [itemgetter(*range(cells))] * cells
        else:
            span = range(-_WINDOW_RADIUS, _WINDOW_RADIUS + 1)
            self._views = [
                itemgetter(*(index(r + dr, c + dc, cells) for dr in span for dc in span))
                for r, c in rc
            ]
        caps = [float(c) for c in config.predator_capabilities]
        self._teammates = [
            tuple(c for j, c in enumerate(caps) if j != i) if config.capability_observable else None
            for i in range(config.num_predators)
        ]
        try:
            self._capability_digits = [
                _capability_digits(cap, mates) for cap, mates in zip(caps, self._teammates)
            ]
        except ValueError:
            # an unencodable capability keeps failing in key(), not here
            self._capability_digits = [None] * config.num_predators

    # ---- public state accessors -------------------------------------------------

    def predator_positions(self) -> tuple:
        return tuple(self._predators)

    def prey_positions(self) -> tuple:
        return tuple(self._prey)

    @property
    def steps_taken(self) -> int:
        return self._steps

    # ---- episode control --------------------------------------------------------

    def reset(self, predator_positions=None, prey_positions=None) -> list:
        """Place every piece (randomly unless pinned) and return observations."""
        g = self._g
        cells = g * g
        total = self.config.num_predators + self.config.num_prey
        if predator_positions is None and prey_positions is None:
            chosen = self._rng.choice(cells, size=total, replace=False)
            flat = [int(c) for c in chosen]
        else:
            if predator_positions is None or prey_positions is None:
                raise ValueError("pin both predator and prey positions or neither")
            flat = [int(r) * g + int(c) for r, c in predator_positions]
            flat += [int(r) * g + int(c) for r, c in prey_positions]
            if len(flat) != total or len(set(flat)) != total:
                raise ValueError("pinned positions must be distinct and cover every piece")
            for cell in flat:
                if not (0 <= cell < cells):
                    raise ValueError("pinned position is off the grid")
        self._predators = flat[: self.config.num_predators]
        self._prey = flat[self.config.num_predators :]
        self._steps = 0
        self._live = True
        self._mask = None
        if self._trajectory_log is not None:
            self._log(
                event="reset",
                predators=self._cells_rc(self._predators),
                prey=self._cells_rc(self._prey),
            )
        return self._observations()

    def available_actions(self) -> np.ndarray:
        """Boolean legality mask of shape (num_predators, 6), a fresh array per call."""
        return self._legal().copy()

    def step(self, joint_action) -> tuple:
        """Advance one step; returns (observations, team reward, done)."""
        mask = self._legal()
        actions = [int(a) for a in joint_action]
        if len(actions) != self.config.num_predators:
            raise ValueError("one action per predator is required")
        for i, action in enumerate(actions):
            if not (0 <= action < NUM_PP_ACTIONS) or not mask[i, action]:
                raise ValueError(f"agent {i} submitted unavailable action {action}")

        self._mask = None
        predators = self._predators
        capturing = []
        occupied = set(predators) | set(self._prey)
        for i, action in enumerate(actions):
            if action < 4:
                target = self._moves[predators[i]][action]
                # a legal-at-decision-time move can be blocked by an earlier mover
                if target not in occupied:
                    occupied.discard(predators[i])
                    occupied.add(target)
                    predators[i] = target
            elif action == ACTION_CAPTURE:
                capturing.append(i)

        reward = 0.0
        captured = []
        for p, prey_cell in enumerate(self._prey):
            near = self._neighbours[prey_cell]
            attackers = [i for i in capturing if predators[i] in near]
            if not attackers:
                continue
            strength = sum(self.config.predator_capabilities[i] for i in attackers)
            if strength >= self.config.prey_health[p]:
                reward += self.config.capture_reward
                captured.append(p)
            else:
                reward += self.config.penalty

        for p in captured:
            self._prey[p] = self._respawn_cell()

        self._move_prey()
        self._steps += 1
        done = self._steps >= self.config.episode_limit
        if self._trajectory_log is not None:
            self._log(
                event="step",
                t=self._steps,
                actions=actions,
                reward=float(reward),
                captured=captured,
                predators=self._cells_rc(predators),
                prey=self._cells_rc(self._prey),
                done=done,
            )
        return self._observations(), reward, done

    # ---- internals ----------------------------------------------------------------

    def _legal(self) -> np.ndarray:
        """The cached legality mask of the current state (callers must not mutate it)."""
        if not self._live:
            raise RuntimeError("call reset() before interacting with the environment")
        if self._mask is None:
            occupied = set(self._predators) | set(self._prey)
            prey = self._prey
            self._mask = np.array(
                [
                    [t != cell and t not in occupied for t in self._moves[cell]]
                    + [True, not self._neighbours[cell].isdisjoint(prey)]
                    for cell in self._predators
                ],
                dtype=bool,
            )
        return self._mask

    def _cells_rc(self, cells) -> list:
        return [list(divmod(int(cell), self._g)) for cell in cells]

    def _log(self, **record):
        self._trajectory_log.write(json.dumps(record) + "\n")

    def _respawn_cell(self) -> int:
        cells = self._g * self._g
        occupied = set(self._predators) | set(self._prey)
        empty = [c for c in range(cells) if c not in occupied]
        if not empty:
            raise RuntimeError("no empty cell is available for a respawn")
        return int(empty[self._rng.integers(len(empty))])

    def _move_prey(self):
        occupied = set(self._predators) | set(self._prey)
        for p, cell in enumerate(self._prey):
            if self._rng.random() >= self.config.prey_move_prob:
                continue
            legal = [t for t in self._moves[cell] if t != cell and t not in occupied]
            if legal:
                target = legal[self._rng.integers(len(legal))]
                occupied.discard(cell)
                occupied.add(target)
                self._prey[p] = target

    def _observations(self) -> list:
        g = self._g
        grid = [_CELL_EMPTY] * (g * g) + [_CELL_OFFGRID]
        for cell in self._predators:
            grid[cell] = _CELL_PREDATOR
        for cell in self._prey:
            grid[cell] = _CELL_PREY
        caps = self.config.predator_capabilities
        return [
            PPObservation(
                agent_id=i,
                num_cells=g * g,
                own_cell=cell,
                view=self._views[cell](grid),
                own_capability=float(caps[i]),
                teammate_capabilities=self._teammates[i],
                capability_digits=self._capability_digits[i],
            )
            for i, cell in enumerate(self._predators)
        ]


@dataclass(frozen=True)
class PPTask:
    """One pursuit task: a predator team, prey health profile, and penalty."""

    predator_capabilities: tuple
    prey_health: tuple
    penalty: float

    def to_config(self, **settings) -> PredatorPreyConfig:
        """The task's environment; settings are the other PredatorPreyConfig fields.

        grid_size, episode_limit, prey_move_prob and capability_observable
        default to PredatorPreyConfig's.
        """
        return PredatorPreyConfig(
            num_predators=len(self.predator_capabilities),
            num_prey=len(self.prey_health),
            predator_capabilities=self.predator_capabilities,
            prey_health=self.prey_health,
            penalty=self.penalty,
            **settings,
        )


@dataclass(frozen=True)
class PPTaskSuite:
    """Train/test task split plus the designated generalization-gap pairing."""

    name: str
    train: tuple
    test: tuple
    gap_train_team: tuple
    gap_test_team: tuple
    prey_health: tuple


_PENALTIES = (0.0, -0.008)


def pp_task_suites() -> dict:
    """The two train/test splits used by the generalization experiments."""
    suites = {}

    prey = (2, 2, 2, 3)
    train_teams = ((2, 3, 2, 3), (1, 2, 1, 2))
    test_teams = ((1, 1, 2, 3), (1, 1, 1, 3))
    suites["unseen_team"] = PPTaskSuite(
        name="unseen_team",
        train=tuple(
            PPTask(team, prey, pen) for team in train_teams for pen in _PENALTIES
        ),
        test=tuple(
            PPTask(team, prey, pen) for team in test_teams for pen in _PENALTIES
        ),
        gap_train_team=(1, 2, 1, 2),
        gap_test_team=(1, 1, 1, 3),
        prey_health=prey,
    )

    prey = (1, 2, 3, 4)
    train_teams = ((1, 2, 2, 3), (1, 1, 2, 2), (1, 3, 2, 1))
    test_teams = ((1, 1, 1, 4), (1, 1, 3, 4), (1, 1, 2, 4))
    suites["unseen_team_agent"] = PPTaskSuite(
        name="unseen_team_agent",
        train=tuple(
            PPTask(team, prey, pen) for team in train_teams for pen in _PENALTIES
        ),
        test=tuple(
            PPTask(team, prey, pen) for team in test_teams for pen in _PENALTIES
        ),
        gap_train_team=(1, 3, 2, 1),
        gap_test_team=(1, 1, 1, 4),
        prey_health=prey,
    )
    return suites
