"""Capability-parameterized team dynamics assembled into concrete MDPs.

A team is a tuple of non-negative d-dimensional capability vectors plus a
simplex of influence weights. The influence-weighted capability mixture
selects, per capability component, a row-stochastic transition kernel and a
row of the reward kernel, yielding one TabularMMDP per team. The kernel's
components share one layout: dense (S, A, S) tensors, or (S, A, K)
probabilities over a successor index that every component shares; the
assembled MDP keeps that layout. Lipschitz and polynomial reward forms
cover teams whose effect on the reward is not a plain weighted sum.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .mdp import (
    DISTRIBUTION_ATOL,
    StateSpace,
    TabularMMDP,
    check_distribution,
    check_next_states,
)

SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class CapabilityVector:
    """Non-negative capability components of one agent."""

    c: np.ndarray
    strict_simplex: bool = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValueError("capability vector must be a non-empty 1-d vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("capability components must be finite and non-negative")
        object.__setattr__(self, "c", arr)
        object.__setattr__(
            self, "strict_simplex", bool(abs(float(arr.sum()) - 1.0) <= SIMPLEX_ATOL)
        )

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class TeamComposition:
    """Ordered tuple of agent capability vectors, all with the same dimension."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a team needs at least one member")
        members = tuple(
            m if isinstance(m, CapabilityVector) else CapabilityVector(np.asarray(m, dtype=float))
            for m in members
        )
        d = members[0].dim
        if any(m.dim != d for m in members):
            raise ValueError("all capability vectors in a team must share one dimension")
        object.__setattr__(self, "members", members)

    @property
    def num_agents(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def matrix(self) -> np.ndarray:
        """Stack capabilities into an (num_agents, dim) matrix."""
        return np.stack([m.c for m in self.members])

    def all_simplex(self) -> bool:
        return all(m.strict_simplex for m in self.members)

    def replace_member(self, index: int, capability: CapabilityVector) -> "TeamComposition":
        members = list(self.members)
        members[index] = capability
        return TeamComposition(tuple(members))

    def drop_last(self) -> "TeamComposition":
        if self.num_agents < 2:
            raise ValueError("cannot drop the only member of a team")
        return TeamComposition(self.members[:-1])

    def append_member(self, capability: CapabilityVector) -> "TeamComposition":
        return TeamComposition(self.members + (capability,))


@dataclass(frozen=True, eq=False)
class InfluenceWeights:
    """Simplex weights giving each agent's share of the team mixture."""

    a: np.ndarray

    def __post_init__(self):
        arr = check_distribution(self.a, "influence weights", atol=SIMPLEX_ATOL)
        object.__setattr__(self, "a", arr)

    @property
    def num_agents(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class RewardKernel:
    """Maps state features to one reward contribution per capability component."""

    w: np.ndarray  # (capability_dim, feature_dim)

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=float)
        if arr.ndim != 2:
            raise ValueError("reward kernel must be a (capability_dim, feature_dim) matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("reward kernel entries must be finite")
        object.__setattr__(self, "w", arr)

    @property
    def capability_dim(self) -> int:
        return self.w.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One row-stochastic transition kernel per capability component.

    Dense layout (next_states None): components[j, s, u, s'] is component j's
    probability of moving from s to s' under joint action u. Indexed layout:
    components[j, s, u, k] is its probability of moving to next_states[s, u, k],
    the same successor index for every component.
    """

    components: np.ndarray  # (d, S, A, S) dense, or (d, S, A, K) beside next_states
    next_states: np.ndarray | None = None  # (S, A, K) successor index, or None

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if self.next_states is None:
            if arr.ndim != 4 or arr.shape[1] != arr.shape[3]:
                raise ValueError(
                    "transition kernel must have shape (capability_dim, S, A, S)"
                )
        else:
            if arr.ndim != 4:
                raise ValueError("transition kernel must have shape (capability_dim, S, A, K)")
            next_states = check_next_states(self.next_states, arr.shape[1], arr.shape[2])
            if next_states.shape != arr.shape[1:]:
                raise ValueError(
                    f"kernel components must have shape (capability_dim,) + "
                    f"{next_states.shape}, got {arr.shape}"
                )
            object.__setattr__(self, "next_states", next_states)
        if np.any(arr < 0):
            j, s, u = np.argwhere((arr < 0).any(axis=3))[0]
            raise ValueError(f"kernel component {j} row (s={s}, u={u}) has a negative entry")
        sums = arr.sum(axis=3)
        bad = np.abs(sums - 1.0) > DISTRIBUTION_ATOL
        if np.any(bad):
            j, s, u = np.argwhere(bad)[0]
            raise ValueError(
                f"kernel component {j} row (s={s}, u={u}) sums to {sums[j, s, u]!r}"
            )
        object.__setattr__(self, "components", arr)

    @property
    def capability_dim(self) -> int:
        return self.components.shape[0]

    @property
    def num_states(self) -> int:
        return self.components.shape[1]

    @property
    def num_joint_actions(self) -> int:
        return self.components.shape[2]

    def equals(self, other: "TransitionKernel") -> bool:
        """Same components in the same layout (array_equal(None, None) is True)."""
        return np.array_equal(self.components, other.components) and np.array_equal(
            self.next_states, other.next_states
        )


@dataclass(frozen=True, eq=False)
class LinearMMDPSpec:
    """Everything needed to assemble the MDP induced by one team.

    relax_simplex admits capability vectors that do not sum to one (utility
    style capabilities). Rewards then use the raw mixture while the transition
    mixture is normalized so rows stay distributions; with strictly simplex
    capabilities the two coincide.
    """

    team: TeamComposition
    weights: InfluenceWeights
    reward_kernel: RewardKernel
    transition_kernel: TransitionKernel
    states: StateSpace
    num_agents: int
    actions_per_agent: int
    gamma: float
    rho: np.ndarray
    relax_simplex: bool = False

    def __post_init__(self):
        d = self.team.dim
        if self.weights.num_agents != self.team.num_agents:
            raise ValueError("influence weights and team must have matching sizes")
        if self.reward_kernel.capability_dim != d or self.transition_kernel.capability_dim != d:
            raise ValueError("kernels must match the team's capability dimension")
        if self.reward_kernel.feature_dim != self.states.feature_dim:
            raise ValueError("reward kernel feature dimension must match the state space")
        if self.transition_kernel.num_states != self.states.num_states:
            raise ValueError("transition kernel state count must match the state space")
        expected_actions = self.actions_per_agent ** self.num_agents
        if self.transition_kernel.num_joint_actions != expected_actions:
            raise ValueError(
                f"transition kernel has {self.transition_kernel.num_joint_actions} joint "
                f"actions, expected {expected_actions}"
            )
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        rho = check_distribution(self.rho, "rho")
        if rho.shape[0] != self.states.num_states:
            raise ValueError("rho length must match the state space")
        object.__setattr__(self, "rho", rho)

    @property
    def capability_dim(self) -> int:
        return self.team.dim

    def capability_mixture(self) -> np.ndarray:
        """Influence-weighted sum of member capabilities, shape (dim,)."""
        return self.weights.a @ self.team.matrix()

    def with_team(self, team: TeamComposition, weights: InfluenceWeights) -> "LinearMMDPSpec":
        return replace(self, team=team, weights=weights)

    def to_json(self) -> str:
        doc = {
            "team": [m.c.tolist() for m in self.team.members],
            "weights": self.weights.a.tolist(),
            "reward_kernel": self.reward_kernel.w.tolist(),
            "transition_kernel": self.transition_kernel.components.tolist(),
            "features": self.states.features.tolist(),
            "num_agents": self.num_agents,
            "actions_per_agent": self.actions_per_agent,
            "gamma": self.gamma,
            "rho": self.rho.tolist(),
            "relax_simplex": self.relax_simplex,
        }
        if self.transition_kernel.next_states is not None:
            doc["next_states"] = self.transition_kernel.next_states.tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "LinearMMDPSpec":
        doc = json.loads(text)
        return cls(
            team=TeamComposition(tuple(np.asarray(m, dtype=float) for m in doc["team"])),
            weights=InfluenceWeights(np.asarray(doc["weights"], dtype=float)),
            reward_kernel=RewardKernel(np.asarray(doc["reward_kernel"], dtype=float)),
            transition_kernel=TransitionKernel(
                np.asarray(doc["transition_kernel"], dtype=float),
                next_states=(
                    np.asarray(doc["next_states"], dtype=np.int64)
                    if "next_states" in doc
                    else None
                ),
            ),
            states=StateSpace(np.asarray(doc["features"], dtype=float)),
            num_agents=int(doc["num_agents"]),
            actions_per_agent=int(doc["actions_per_agent"]),
            gamma=float(doc["gamma"]),
            rho=np.asarray(doc["rho"], dtype=float),
            relax_simplex=bool(doc["relax_simplex"]),
        )


def assemble_linear_mmdp(spec: LinearMMDPSpec) -> TabularMMDP:
    """Build the concrete TabularMMDP induced by a team.

    Rewards are the raw capability mixture applied to the reward kernel. The
    transition mixture uses the same mixture, normalized to total one when
    relax_simplex admits non-simplex capabilities; assembled rows are always
    validated, and a failing row is reported with its (s, u) pair. An indexed
    kernel mixes its (d, S, A, K) probabilities and keeps its successor index.

    The MDP is built once per spec object and kept on it, so every check that
    assembles one spec shares one TabularMMDP; its arrays are read-only.
    """
    assembled = spec.__dict__.get("_assembled")
    if assembled is not None:
        return assembled
    if not spec.relax_simplex and not spec.team.all_simplex():
        bad = [i for i, m in enumerate(spec.team.members) if not m.strict_simplex]
        raise ValueError(
            f"team members {bad} are not simplex-normalized; set relax_simplex to accept them"
        )
    mixture = spec.capability_mixture()
    rewards = spec.states.features @ (spec.reward_kernel.w.T @ mixture)
    transition_mix = mixture
    if spec.relax_simplex:
        total = float(mixture.sum())
        if total <= 0:
            raise ValueError("capability mixture is all-zero; no transition mixture exists")
        transition_mix = mixture / total
    transitions = np.einsum(
        "j,jsut->sut", transition_mix, spec.transition_kernel.components
    )
    assembled = TabularMMDP(
        states=spec.states,
        num_agents=spec.num_agents,
        actions_per_agent=spec.actions_per_agent,
        rewards=rewards,
        transitions=transitions,
        gamma=spec.gamma,
        rho=spec.rho,
        next_states=spec.transition_kernel.next_states,
    )
    assembled.rewards.flags.writeable = False
    assembled.transitions.flags.writeable = False
    object.__setattr__(spec, "_assembled", assembled)
    return assembled


def reward_deviation_exact(mmdp_x: TabularMMDP, mmdp_y: TabularMMDP) -> float:
    """Largest per-state absolute reward difference between two MDPs."""
    if not mmdp_x.states.equals(mmdp_y.states):
        raise ValueError("reward deviation requires a shared state space")
    return float(np.max(np.abs(mmdp_x.rewards - mmdp_y.rewards)))


def transition_deviation_exact(mmdp_x: TabularMMDP, mmdp_y: TabularMMDP) -> float:
    """Largest L1 row distance between the two transition kernels.

    This is twice the total-variation distance, maximized over (s, u). The
    two kernels may use different layouts.
    """
    if not mmdp_x.states.equals(mmdp_y.states):
        raise ValueError("transition deviation requires a shared state space")
    if mmdp_x.num_joint_actions != mmdp_y.num_joint_actions:
        raise ValueError("transition deviation requires matching action spaces")
    return mmdp_x.transition_gaps(mmdp_y)[1]


@dataclass(frozen=True, eq=False)
class PolynomialRewardSpec:
    """Reward weights given by a bounded-degree polynomial over capabilities.

    terms maps a multi-index (one exponent per agent) to its scalar
    coefficient; the term's contribution is coef * prod_i c_i ** k_i taken
    element-wise over capability components. All |coefficients| <= alpha and
    all total degrees <= degree.
    """

    terms: dict
    alpha: float
    degree: int

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        clean = {}
        for idx, coef in self.terms.items():
            idx = tuple(int(k) for k in idx)
            if any(k < 0 for k in idx):
                raise ValueError(f"multi-index {idx} has a negative exponent")
            if sum(idx) > self.degree:
                raise ValueError(f"multi-index {idx} exceeds the declared degree {self.degree}")
            coef = float(coef)
            if abs(coef) > self.alpha + 1e-12:
                raise ValueError(
                    f"coefficient {coef} for {idx} exceeds the declared alpha {self.alpha}"
                )
            clean[idx] = coef
        object.__setattr__(self, "terms", clean)

    def to_json(self) -> str:
        doc = {
            "terms": [[list(idx), coef] for idx, coef in sorted(self.terms.items())],
            "alpha": self.alpha,
            "degree": self.degree,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "PolynomialRewardSpec":
        doc = json.loads(text)
        return cls(
            terms={tuple(idx): coef for idx, coef in doc["terms"]},
            alpha=float(doc["alpha"]),
            degree=int(doc["degree"]),
        )


def polynomial_reward(
    spec: PolynomialRewardSpec,
    team: TeamComposition,
    reward_kernel: RewardKernel,
    state_features: np.ndarray,
) -> float:
    """Evaluate the polynomial team reward at one state feature vector."""
    phi = np.asarray(state_features, dtype=float)
    if phi.shape != (reward_kernel.feature_dim,):
        raise ValueError("state features do not match the reward kernel")
    return float(polynomial_weights(spec, team) @ (reward_kernel.w @ phi))


def polynomial_weights(spec: PolynomialRewardSpec, team: TeamComposition) -> np.ndarray:
    """The (capability_dim,) reward weights a polynomial gives a team, at every state."""
    weights = np.zeros(team.dim)
    caps = team.matrix()
    for idx, coef in sorted(spec.terms.items()):
        if len(idx) != team.num_agents:
            raise ValueError(
                f"multi-index {idx} has length {len(idx)}, team has {team.num_agents} agents"
            )
        mono = np.ones(team.dim)
        for i, k in enumerate(idx):
            if k:
                mono = mono * caps[i] ** k
        weights = weights + coef * mono
    return weights


@dataclass(frozen=True, eq=False)
class LipschitzRewardSpec:
    """Reward weights produced by a Lipschitz map over team capabilities.

    f maps a TeamComposition to a (capability_dim,) weight vector, and
    lipschitz_constants[i] bounds the sup-norm change of f per unit sup-norm
    change of member i's capabilities. Constants are supplied, not estimated.
    """

    f: Callable
    lipschitz_constants: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.lipschitz_constants, dtype=float)
        if arr.ndim != 1 or np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("lipschitz constants must be a non-negative 1-d vector")
        object.__setattr__(self, "lipschitz_constants", arr)


def assemble_lipschitz_mmdp(
    reward_map: LipschitzRewardSpec,
    team: TeamComposition,
    reward_kernel: RewardKernel,
    transitions: np.ndarray,
    states: StateSpace,
    num_agents: int,
    actions_per_agent: int,
    gamma: float,
    rho: np.ndarray,
    next_states: np.ndarray | None = None,
) -> TabularMMDP:
    """Build the MDP whose rewards come from a Lipschitz capability map.

    The transition kernel is capability-independent and shared across teams:
    a dense (S, A, S) tensor, or (S, A, K) probabilities over next_states.
    """
    if reward_map.lipschitz_constants.shape[0] != team.num_agents:
        raise ValueError("one Lipschitz constant per team member is required")
    weights = np.asarray(reward_map.f(team), dtype=float)
    if weights.shape != (reward_kernel.capability_dim,):
        raise ValueError("the reward map must produce one weight per capability component")
    rewards = states.features @ (reward_kernel.w.T @ weights)
    return TabularMMDP(
        states=states,
        num_agents=num_agents,
        actions_per_agent=actions_per_agent,
        rewards=rewards,
        transitions=np.asarray(transitions, dtype=float),
        gamma=gamma,
        rho=rho,
        next_states=next_states,
    )


def perturb_dynamics(
    mmdp: TabularMMDP, eps_r: float, eps_p: float, seed: int
) -> TabularMMDP:
    """Seeded bounded perturbation of rewards and transition rows.

    Rewards move by at most eps_r per state (clipped at zero to keep them
    non-negative). Transition rows get entrywise noise of at most eps_p, are
    clipped and re-normalized, and any row whose realized entry deviation
    exceeds eps_p has its noise halved until it complies, so the output
    deviates from the input by at most eps_p per entry.

    Needs a dense kernel: the noise covers every (s, u, s') entry, including
    the zero ones an indexed kernel does not store.
    """
    if mmdp.next_states is not None:
        raise ValueError(
            "perturb_dynamics needs a dense transition tensor; its noise covers every "
            "(s, u, s') entry, which an indexed kernel does not store"
        )
    if not (0.0 <= eps_r < np.inf and eps_p >= 0.0):
        raise ValueError("perturbation magnitudes must be finite and non-negative")
    if eps_p >= 1.0:
        raise ValueError("transition perturbation >= 1 cannot keep rows valid")
    rng = np.random.default_rng(seed)
    rewards = mmdp.rewards
    if eps_r > 0:
        rewards = np.clip(rewards + rng.uniform(-eps_r, eps_r, rewards.shape), 0.0, None)
    transitions = mmdp.transitions
    if eps_p > 0:
        noise = rng.uniform(-eps_p, eps_p, transitions.shape)
        transitions = _renormalized_rows(transitions, noise, eps_p)
    return TabularMMDP(
        states=mmdp.states,
        num_agents=mmdp.num_agents,
        actions_per_agent=mmdp.actions_per_agent,
        rewards=rewards,
        transitions=transitions,
        gamma=mmdp.gamma,
        rho=mmdp.rho,
    )


def _renormalized_rows(base: np.ndarray, noise: np.ndarray, eps_p: float) -> np.ndarray:
    """base + noise, clipped and renormalized, halving noise in place on bad rows.

    Works in two kernel-sized buffers, so a perturbation holds little more
    than the kernel it returns.
    """
    result = np.empty_like(base)
    gap = np.empty_like(base)
    for _ in range(80):
        np.add(base, noise, out=result)
        np.clip(result, 0.0, None, out=result)
        sums = result.sum(axis=2, keepdims=True)
        if np.any(sums <= 1e-12):
            raise ValueError("perturbation wiped out a transition row; eps_p is infeasible")
        np.divide(result, sums, out=result)
        np.subtract(result, base, out=gap)
        deviation = np.abs(gap, out=gap).max(axis=2)
        bad = deviation > eps_p
        if not np.any(bad):
            return result
        noise[bad] *= 0.5
    raise ValueError("could not fit the transition perturbation inside eps_p")
