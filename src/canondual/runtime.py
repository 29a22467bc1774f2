"""Deterministic worker-pool helpers for multistart workloads."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; results are merged deterministically."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
