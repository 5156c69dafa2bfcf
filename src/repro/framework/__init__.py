"""Generic application framework for Azure HPC apps (paper Section III)."""

from .barrier import QueueBarrier
from .taskpool import TaskPoolApp, TaskPoolConfig, TaskResult

__all__ = ["QueueBarrier", "TaskPoolApp", "TaskPoolConfig", "TaskResult"]
