"""Concrete environments: an exact linear foraging task and a pursuit simulator."""

from .fruit_forage import (
    UTILITY_TEAM_X,
    UTILITY_TEAM_Y,
    UTILITY_TEAM_Z,
    ForageLayout,
    FruitForageConfig,
    build_fruit_forage,
    default_tree_positions,
    desk_config,
    fruit_forage_layout,
    fruit_forage_state_count,
)
from .predator_prey import (
    NUM_PP_ACTIONS,
    PPObservation,
    PPTask,
    PPTaskSuite,
    PredatorPreyConfig,
    PredatorPreyEnv,
    pp_task_suites,
)

__all__ = [
    "ForageLayout",
    "FruitForageConfig",
    "NUM_PP_ACTIONS",
    "PPObservation",
    "PPTask",
    "PPTaskSuite",
    "PredatorPreyConfig",
    "PredatorPreyEnv",
    "UTILITY_TEAM_X",
    "UTILITY_TEAM_Y",
    "UTILITY_TEAM_Z",
    "build_fruit_forage",
    "default_tree_positions",
    "desk_config",
    "fruit_forage_layout",
    "fruit_forage_state_count",
    "pp_task_suites",
]
