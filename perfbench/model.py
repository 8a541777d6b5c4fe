"""Helpers that need ``repro``: service cells, result digests, model counts
and the error against the paper's held-back tables.

Import only after :func:`common.use_src` (or with ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

from dataclasses import replace

from common import COMPONENTS, SIM_COUNTERS, load_json, sha256_text

#: Table 5 speculation depths and the Table 6 cache size.
DEPTHS = (1, 2, 4)
LARGE_CACHE_BYTES = 32 * 1024


def service_requests() -> list[tuple[tuple[str, str, str], list]]:
    """The service workload's request list: ``(tag, cells)`` pairs.

    One request per (benchmark, config) with all five policies, as
    ``repro --server`` sends ``run_policies``: Table 5 (every benchmark x
    depth 1/2/4), Table 6 (32K cache) and Figure 3 (the five figure
    benchmarks, with and without next-line prefetching).  The list is
    written out here, not taken from running experiments, so it keeps
    its meaning when the experiments are restructured.  ``tag`` is
    ``(table, column group, benchmark)``.
    """
    from repro.config import ALL_POLICIES, CacheConfig, SimConfig
    from repro.program.workloads import FIGURE_BENCHMARKS, SUITE

    def five(name, config):
        return [(name, config.with_policy(p)) for p in ALL_POLICIES]

    requests = []
    for name in SUITE:
        for depth in DEPTHS:
            config = replace(SimConfig(), max_unresolved=depth)
            requests.append((("table5", f"B{depth}", name), five(name, config)))
    for name in SUITE:
        config = replace(
            SimConfig(), cache=CacheConfig(size_bytes=LARGE_CACHE_BYTES)
        )
        requests.append((("table6", "32K", name), five(name, config)))
    for name in FIGURE_BENCHMARKS:
        for prefetch in (False, True):
            config = replace(
                SimConfig(), miss_penalty_cycles=5, prefetch=prefetch
            )
            group = "prefetch" if prefetch else "base"
            requests.append((("figure3", group, name), five(name, config)))
    return requests


def is_missing(result) -> bool:
    return bool(getattr(result, "missing", False))


def result_digest(result) -> str:
    """Content digest of one cell's result (``"missing"`` for a failure).

    ``repr`` of the frozen result dataclass spells out every counter,
    penalty, statistic and the config, so equal digests mean equal
    results.
    """
    if is_missing(result):
        return "missing"
    return sha256_text(repr(result))


def sim_counts(results) -> dict[str, float]:
    """Exact model counts summed over *results* (the ``sim.*`` metrics)."""
    totals = {f"sim.{name}": 0 for name in SIM_COUNTERS}
    totals.update({f"sim.slots.{c}": 0 for c in COMPONENTS})
    prefetched = used = 0
    for result in results:
        if is_missing(result):
            continue
        counters = result.counters
        prefetched += counters.prefetches + counters.target_prefetches
        if result.cache_stats is not None:
            used += result.cache_stats.prefetch_used
        for name in SIM_COUNTERS:
            totals[f"sim.{name}"] += getattr(counters, name)
        slots = result.penalties.as_dict()
        for c in COMPONENTS:
            totals[f"sim.slots.{c}"] += slots[c]
    fills = totals["sim.right_fills"] + totals["sim.wrong_fills"]
    # Each prefetched line counted once, at its first demand hit
    # (``prefetch_hits`` counts every hit on a prefetched line).
    totals["sim.prefetch_useful_frac"] = used / prefetched if prefetched else 0.0
    totals["sim.wrong_fill_frac"] = (
        totals["sim.wrong_fills"] / fills if fills else 0.0
    )
    return totals


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def ispi_error_pct(pairs: list[tuple[float, float]]) -> float:
    """Mean absolute relative error, in percent, of (measured, paper)."""
    return 100.0 * _mean(abs(m - p) / p for m, p in pairs)


def paper_pairs_from_tables(table5: dict, table6: dict) -> list:
    """(measured, paper) suite averages from Table 5/6 ``data`` dicts.

    *table5* maps benchmark -> {"B<d>-<policy>": ispi}; *table6* maps
    benchmark -> {policy: ispi} — the shape of
    ``ExperimentResult.data["per_benchmark"]``.
    """
    paper = load_json("paper_tables.json")
    pairs = []
    for depth_key, row in paper["table5"].items():
        for policy, value in row.items():
            key = f"{depth_key}-{policy}"
            pairs.append((_mean(d[key] for d in table5.values()), value))
    for policy, value in paper["table6"].items():
        pairs.append((_mean(d[policy] for d in table6.values()), value))
    return pairs


def paper_pairs_per_benchmark(means: dict) -> list:
    """(measured, paper) per-benchmark Table 5 B4 pairs.

    *means* maps benchmark -> {policy: ispi} for the default (B4)
    configuration; only benchmarks and policies with a paper value are
    paired.
    """
    paper = load_json("paper_tables.json")["table5_b4_per_benchmark"]
    return [
        (value, paper[name][policy])
        for name, row in means.items() if name in paper
        for policy, value in row.items() if policy in paper[name]
    ]


def perfect_cache_violations(runner, benchmarks) -> list[str]:
    """Benchmarks on which the five policies disagree with a perfect cache.

    With no misses there is nothing for a fetch policy to decide, so
    every policy must give the same total ISPI, on every seed.
    """
    from repro.config import ALL_POLICIES, SimConfig

    bad = []
    base = SimConfig(perfect_cache=True)
    for name in benchmarks:
        values = {
            runner.run(name, base.with_policy(p)).total_ispi
            for p in ALL_POLICIES
        }
        if len(values) != 1:
            bad.append(name)
    return bad
