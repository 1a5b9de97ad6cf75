"""Top-level re-exports of the parallel execution engine.

``from repro.parallel import ProcessExecutor`` is the intended public
spelling; the implementation lives in :mod:`repro.runtime.executor`.
See ``docs/parallelism.md`` for the backend guide and the determinism
contract.
"""

from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SeedBlock,
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    default_chunksize,
    get_executor,
    spawn_generators,
    spawn_seeds,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SeedBlock",
    "available_cpus",
    "default_chunksize",
    "get_executor",
    "spawn_generators",
    "spawn_seeds",
]
