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
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..qlearning import PCG64Draws, checked_action

NUM_PP_ACTIONS = 6  # up, left, down, right, no-op, capture
ACTION_UP, ACTION_LEFT, ACTION_DOWN, ACTION_RIGHT, ACTION_NOOP, ACTION_CAPTURE = range(6)
_PP_MOVES = ((-1, 0), (0, -1), (1, 0), (0, 1))

_CELL_EMPTY, _CELL_PREDATOR, _CELL_PREY, _CELL_OFFGRID = range(4)
_FULL_VIEW_MAX_GRID = 5
_WINDOW_RADIUS = 2
_CAP_CODE_RADIX = 512
# bytes(view).translate(_BASE4) spells the view's cell codes 0..3 as base-4
# digits and any other code as "x", which int(..., 4) rejects
_BASE4 = b"0123" + b"x" * 252
_DIGIT_0 = ord("0")


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
        # a captured prey respawns on an empty cell, so a full grid cannot run
        if self.grid_size**2 <= self.num_predators + self.num_prey:
            raise ValueError("the grid is too small: it needs an empty cell beyond all pieces")


@dataclass(frozen=True)
class PPObservation:
    """One agent's discretized view, decoded; key() gives its stable integer key.

    PredatorPreyEnv returns the keys themselves. env.observation(agent)
    builds this decoded form of the current state for tests and debugging,
    and its key() equals the key the env returned for that agent.

    view is a row-major tuple of cell codes (empty 0, predator 1, prey 2,
    off-grid 3) over the whole grid at small sizes or a radius-2 window
    otherwise. teammate_capabilities is None unless the environment exposes
    them. key() is injective over observations of one environment shape, and
    raises ValueError for a view cell outside 0..3 or a capability outside
    the encodable range.
    """

    agent_id: int
    num_cells: int
    own_cell: int
    view: tuple
    own_capability: float
    teammate_capabilities: tuple | None

    def key(self) -> int:
        aware = self.teammate_capabilities is not None
        scale, digits = _capability_digits(self.own_capability, self.teammate_capabilities)
        return _encode_key(
            _key_prefix(aware, self.agent_id, self.num_cells),
            self.own_cell,
            2 * len(self.view),
            bytes(self.view).translate(_BASE4),
            scale,
            digits,
        )


def _key_prefix(aware: bool, agent_id: int, num_cells: int) -> int:
    """The key's leading digits, awareness then agent, scaled to take the own cell."""
    return (int(aware) * 16 + agent_id) * (num_cells + 1)


def _encode_key(
    prefix: int, own_cell: int, width: int, view_digits, scale: int, digits: int
) -> int:
    """An observation key: the own cell, then the view, then the capability digits.

    view_digits spells the view's cell codes as ASCII base-4 digits, which
    take width (2 per cell) bits; (scale, digits) is _capability_digits.
    """
    return ((prefix + own_cell) << width | int(view_digits or b"0", 4)) * scale + digits


def _capability_digits(own: float, teammates: tuple | None) -> tuple:
    """(radix ** count, digits) of the own then teammate capability codes.

    A key appends them as base-_CAP_CODE_RADIX digits: code * scale + digits.
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

    An observation is its table key: reset() and step() return one plain int
    per predator, the number PPObservation.key() gives for that agent's view
    of the state, and observation(agent) builds that PPObservation. Each
    agent's key constants (its awareness-and-agent prefix, the view's width
    and its capability digits) are computed once here, so a step reads each
    key off one grid of ASCII base-4 cell codes through _encode_key, the
    encoder PPObservation.key() uses too. A capability outside the encodable
    range raises ValueError when the environment is built.

    trajectory_log, when given, is a writable text stream that receives one
    JSON line per reset and per step (positions as (row, col) pairs, so a
    logged reset line can pin a fresh environment for replay debugging).

    The grid geometry is tabulated once, so a step costs lookups, not divmod:
    _moves[cell] holds the four move targets (the cell itself off the grid),
    _exits[cell] the on-grid (action, target) pairs in action order,
    _neighbours[cell] the frozenset of adjacent cells, and _views[cell] an
    operator.itemgetter of the observed cells of the code grid (one slice of
    the whole grid up to size 5, else the radius-2 window, whose off-grid
    cells read one sentinel slot).

    Legality is held as action indices: reset and step compute each
    state's legal actions once, as one ascending tuple of action indices per
    predator, and legal_actions() returns them. step validates against the
    same tuples, and available_actions() builds a fresh boolean mask from
    them on each call.

    The prey moves and respawns draw through a PCG64Draws over
    default_rng(seed), which gives the Generator's own random() and
    integers() values; reset takes the Generator back for its one choice
    call.
    """

    num_actions = NUM_PP_ACTIONS

    def __init__(self, config: PredatorPreyConfig, seed: int, trajectory_log=None):
        self.config = config
        self._draws = PCG64Draws(np.random.default_rng(seed))
        self._g = g = config.grid_size
        self._predators: list = []
        self._prey: list = []
        self._steps = 0
        self._legal = None  # the current state's legal action tuples; None before reset
        self._trajectory_log = trajectory_log

        cells = g * g
        rc = [divmod(cell, g) for cell in range(cells)]

        def index(r, c, off_grid):
            return r * g + c if 0 <= r < g and 0 <= c < g else off_grid

        self._moves = [
            tuple(index(r + dr, c + dc, r * g + c) for dr, dc in _PP_MOVES) for r, c in rc
        ]
        self._exits = [
            tuple((a, t) for a, t in enumerate(moves) if t != cell)
            for cell, moves in enumerate(self._moves)
        ]
        self._neighbours = [frozenset(t for _, t in exits) for exits in self._exits]
        if g <= _FULL_VIEW_MAX_GRID:
            self._views = [itemgetter(slice(0, cells))] * cells
            width = 2 * cells
        else:
            span = range(-_WINDOW_RADIUS, _WINDOW_RADIUS + 1)
            self._views = [
                itemgetter(*(index(r + dr, c + dc, cells) for dr in span for dc in span))
                for r, c in rc
            ]
            width = 2 * len(span) ** 2
        # the code grid of an empty board: every cell's code as its base-4
        # digit, then the sentinel slot that off-grid window cells read
        self._empty_grid = bytes([_DIGIT_0 + _CELL_EMPTY] * cells + [_DIGIT_0 + _CELL_OFFGRID])
        self._capabilities = caps = [float(c) for c in config.predator_capabilities]
        aware = config.capability_observable
        self._teammates = [
            tuple(c for j, c in enumerate(caps) if j != i) if aware else None
            for i in range(config.num_predators)
        ]
        # each agent's key constants: (prefix, view width, capability scale, digits);
        # _capability_digits raises here for a capability outside the encodable range
        self._key_constants = [
            (_key_prefix(aware, i, cells), width, *_capability_digits(cap, mates))
            for i, (cap, mates) in enumerate(zip(caps, self._teammates))
        ]

    # ---- public state accessors -------------------------------------------------

    def predator_positions(self) -> tuple:
        return tuple(self._predators)

    def prey_positions(self) -> tuple:
        return tuple(self._prey)

    # ---- episode control --------------------------------------------------------

    def reset(self, predator_positions=None, prey_positions=None) -> list:
        """Place every piece (randomly unless pinned); returns each predator's key."""
        g = self._g
        cells = g * g
        total = self.config.num_predators + self.config.num_prey
        if predator_positions is None and prey_positions is None:
            chosen = self._draws.generator().choice(cells, size=total, replace=False)
            flat = [int(c) for c in chosen]
        else:
            if predator_positions is None or prey_positions is None:
                raise ValueError("pin both predator and prey positions or neither")
            flat = []
            for r, c in [*predator_positions, *prey_positions]:
                r, c = int(r), int(c)
                # check the row and column, not the flat cell: (0, g) would pass as (1, 0)
                if not (0 <= r < g and 0 <= c < g):
                    raise ValueError(f"pinned position ({r}, {c}) is off the grid")
                flat.append(r * g + c)
            if len(flat) != total or len(set(flat)) != total:
                raise ValueError("pinned positions must be distinct and cover every piece")
        self._predators = flat[: self.config.num_predators]
        self._prey = flat[self.config.num_predators :]
        self._steps = 0
        self._legal = self._legal_tuples(set(flat))
        if self._trajectory_log is not None:
            self._log(
                event="reset",
                predators=self._cells_rc(self._predators),
                prey=self._cells_rc(self._prey),
            )
        return self._keys()

    def observation(self, agent: int) -> PPObservation:
        """Predator agent's decoded observation of the current state.

        Its key() is the key that the last reset or step returned for agent.
        """
        self.legal_actions()  # raises before the first reset
        if not 0 <= agent < len(self._predators):
            raise IndexError(f"no predator {agent}")
        cell = self._predators[agent]
        return PPObservation(
            agent_id=agent,
            num_cells=self._g * self._g,
            own_cell=cell,
            view=tuple(code - _DIGIT_0 for code in self._views[cell](self._code_grid())),
            own_capability=self._capabilities[agent],
            teammate_capabilities=self._teammates[agent],
        )

    def legal_actions(self) -> tuple:
        """One ascending tuple of legal action indices per predator.

        The tuples are the ones step validates against; they hold until the
        next step or reset.
        """
        if self._legal is None:
            raise RuntimeError("call reset() before interacting with the environment")
        return self._legal

    def available_actions(self) -> np.ndarray:
        """Boolean legality mask of shape (num_predators, 6), a fresh array per call."""
        legal = self.legal_actions()
        mask = np.zeros((len(legal), NUM_PP_ACTIONS), dtype=bool)
        for row, indices in zip(mask, legal):
            row[list(indices)] = True
        return mask

    def step(self, joint_action) -> tuple:
        """Advance one step; returns (each predator's key, team reward, done).

        Each action must be a Python or numpy integer (not a bool) that is
        legal for its agent in the current state.
        """
        legal = self.legal_actions()
        actions = list(joint_action)
        if len(actions) != len(legal):
            raise ValueError("one action per predator is required")
        for i, action in enumerate(actions):
            if type(action) is not int or action not in legal[i]:
                actions[i] = checked_action(action, legal[i], i)

        config = self.config
        predators = self._predators
        prey = self._prey
        occupied = set(predators)
        occupied.update(prey)
        capturing = []
        for i, action in enumerate(actions):
            if action < 4:
                cell = predators[i]
                target = self._moves[cell][action]
                # a legal-at-decision-time move can be blocked by an earlier mover
                if target not in occupied:
                    occupied.discard(cell)
                    occupied.add(target)
                    predators[i] = target
            elif action == ACTION_CAPTURE:
                capturing.append(i)

        reward = 0.0
        captured = []
        if capturing:
            for p, prey_cell in enumerate(prey):
                near = self._neighbours[prey_cell]
                attackers = [i for i in capturing if predators[i] in near]
                if not attackers:
                    continue
                strength = sum(config.predator_capabilities[i] for i in attackers)
                if strength >= config.prey_health[p]:
                    reward += config.capture_reward
                    captured.append(p)
                else:
                    reward += config.penalty
            if captured:
                for p in captured:
                    prey[p] = self._respawn_cell()
                occupied = set(predators)
                occupied.update(prey)

        # prey moves: one draw per prey, and one more to pick among its free moves
        draws = self._draws
        for p, cell in enumerate(prey):
            if draws.random() >= config.prey_move_prob:
                continue
            free = [t for _, t in self._exits[cell] if t not in occupied]
            if free:
                target = free[draws.integers(len(free))]
                occupied.discard(cell)
                occupied.add(target)
                prey[p] = target

        self._legal = self._legal_tuples(occupied)
        self._steps += 1
        done = self._steps >= config.episode_limit
        if self._trajectory_log is not None:
            self._log(
                event="step",
                t=self._steps,
                actions=actions,
                reward=float(reward),
                captured=captured,
                predators=self._cells_rc(predators),
                prey=self._cells_rc(prey),
                done=done,
            )
        return self._keys(), reward, done

    # ---- internals ----------------------------------------------------------------

    def _legal_tuples(self, occupied: set) -> tuple:
        """The legal actions of each predator, given every occupied cell."""
        prey = self._prey
        exits = self._exits
        legal = []
        for cell in self._predators:
            indices = [a for a, t in exits[cell] if t not in occupied]
            indices.append(ACTION_NOOP)
            if not self._neighbours[cell].isdisjoint(prey):
                indices.append(ACTION_CAPTURE)
            legal.append(tuple(indices))
        return tuple(legal)

    def _cells_rc(self, cells) -> list:
        return [list(divmod(int(cell), self._g)) for cell in cells]

    def _log(self, **record):
        self._trajectory_log.write(json.dumps(record) + "\n")

    def _respawn_cell(self) -> int:
        # PredatorPreyConfig leaves at least one cell empty
        cells = self._g * self._g
        occupied = set(self._predators) | set(self._prey)
        empty = [c for c in range(cells) if c not in occupied]
        return empty[self._draws.integers(len(empty))]

    def _code_grid(self) -> bytearray:
        """Every cell's code as its ASCII base-4 digit, then the off-grid sentinel."""
        grid = bytearray(self._empty_grid)
        for cell in self._predators:
            grid[cell] = _DIGIT_0 + _CELL_PREDATOR
        for cell in self._prey:
            grid[cell] = _DIGIT_0 + _CELL_PREY
        return grid

    def _keys(self) -> list:
        """Each predator's observation key, read off the code grid."""
        grid = self._code_grid()
        views = self._views
        return [
            _encode_key(prefix, cell, width, bytes(views[cell](grid)), scale, digits)
            for (prefix, width, scale, digits), cell in zip(self._key_constants, self._predators)
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
