"""Executor-process-local engine cache.

The paper builds the index once and answers many queries against it; a
naive ``mapInArrow`` stage would rebuild the per-partition index on every
action. Spark's Python workers are reused within a session
(``spark.python.worker.reuse`` defaults to true), so a module-level dict
keyed by ``(dataset_token, method, partition_id)`` keeps the built
engine alive across actions. Correctness never depends on a hit — the
input DataFrame is hash-partitioned by id, so a rebuilt engine sees the
same rows; a worker restart just costs one rebuild.
"""
from typing import Any, Callable

_CACHE: dict[tuple, Any] = {}


def get_or_build(key: tuple, builder: Callable[[], Any]) -> Any:
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def clear() -> None:
    _CACHE.clear()
