"""Multi-user multi-channel mobile-edge offloading: simulator, neural
epsilon-greedy scheduler, oracle schedulers, and an experiment harness."""

__version__ = "0.1.0"

from .workload import DistributionSpec, Task, WorkloadConfig
from .netsim import ChannelConfig, NodeConfig, Simulator, TaskOutcome
from .bandit import AgentConfig, E2daAgent, RewardParams
from .baselines import eel_star, ee_star, r_star

__all__ = [
    "DistributionSpec",
    "Task",
    "WorkloadConfig",
    "ChannelConfig",
    "NodeConfig",
    "Simulator",
    "TaskOutcome",
    "AgentConfig",
    "E2daAgent",
    "RewardParams",
    "eel_star",
    "ee_star",
    "r_star",
    "__version__",
]
