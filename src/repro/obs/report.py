"""Rendering and adapters for the runtime statistics layer.

``render_report`` turns one ``StatsRegistry.snapshot()`` dict into the
text report ``repro-dml --stats`` prints — a heavy-hitter instruction
table followed by one section per subsystem, mirroring the layout of
SystemDS' ``-stats`` output.

The ``attach_*`` helpers wire the pre-existing ad-hoc metric dicts
(buffer pool, reuse cache, simulated Spark, federated sites, serving)
into a registry as live section probes.
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.registry import CANONICAL_SECTIONS, StatsRegistry

_SECTION_TITLES = {
    "bufferpool": "Buffer pool",
    "reuse": "Lineage reuse cache",
    "spark": "Distributed backend (shuffle)",
    "federated": "Federated sites",
    "transport": "Transport",
    "serving": "Serving",
    "resilience": "Resilience",
    "checkpoint": "Checkpoint",
    "trace": "Trace compilation",
    "qa": "Differential fuzzing",
}


# ---------------------------------------------------------------------------
# adapters: fold existing subsystem metric dicts into a registry
# ---------------------------------------------------------------------------


def attach_pool(registry: StatsRegistry, pool) -> None:
    """Feed ``BufferPool.stats`` (+ live occupancy) into ``bufferpool``."""

    def probe() -> dict:
        stats = dict(pool.stats)
        stats["used_bytes"] = pool.used
        stats["budget_bytes"] = pool.budget
        stats["entries"] = pool.num_entries
        return stats

    registry.attach("bufferpool", probe)


def attach_reuse(registry: StatsRegistry, cache) -> None:
    """Feed ``ReuseCache.snapshot()`` into the ``reuse`` section."""
    registry.attach("reuse", cache.snapshot)


def attach_spark(registry: StatsRegistry, context_or_probe) -> None:
    """Feed ``SimSparkContext.metrics`` into the ``spark`` section.

    Accepts either a live ``SimSparkContext`` or a zero-argument callable
    returning one (or None) — the execution context creates its simulated
    cluster lazily, so the probe must re-resolve it at snapshot time.
    """

    def probe() -> dict:
        sc = context_or_probe() if callable(context_or_probe) else context_or_probe
        return dict(sc.metrics) if sc is not None else {}

    registry.attach("spark", probe)


def attach_federated(registry: StatsRegistry, worker_registry=None) -> None:
    """Feed per-site transfer accounting into the ``federated`` section."""

    def probe() -> dict:
        from repro.federated.site import FederatedWorkerRegistry

        sites = worker_registry or FederatedWorkerRegistry.default()
        with sites._lock:
            hosted = dict(sites._sites)
        # metrics reads happen outside the registry lock: against the tcp
        # transport each one is an RPC to the hosting worker process
        per_site = {
            address: dict(site.metrics) for address, site in hosted.items()
        }
        totals = {
            "sites": len(per_site),
            "requests": sum(m["requests"] for m in per_site.values()),
            "bytes_sent": sum(m["bytes_sent"] for m in per_site.values()),
            "bytes_received": sum(m["bytes_received"] for m in per_site.values()),
            "local_flops": sum(m["local_flops"] for m in per_site.values()),
        }
        return {"totals": totals, "sites": per_site} if per_site else {}

    registry.attach("federated", probe)


def attach_transport(registry: StatsRegistry, transport) -> None:
    """Feed a ``repro.net.Transport.snapshot()`` into ``transport``."""
    registry.attach("transport", transport.snapshot)


def attach_serving(registry: StatsRegistry, source) -> None:
    """Feed ``source.snapshot()`` — a scoring service's, or a bare
    ``ServingMetrics``' — into the ``serving`` section."""
    registry.attach("serving", source.snapshot)


def attach_resilience(registry: StatsRegistry, manager) -> None:
    """Feed a ``ResilienceManager.snapshot()`` into the ``resilience`` section."""
    registry.attach("resilience", manager.snapshot)


def attach_qa(registry: StatsRegistry, stats) -> None:
    """Feed a ``repro.qa.FuzzStats.snapshot()`` into the ``qa`` section."""
    registry.attach("qa", stats.snapshot)


def attach_checkpoint(registry: StatsRegistry, manager) -> None:
    """Feed a ``CheckpointManager.snapshot()`` into ``checkpoint``."""
    registry.attach("checkpoint", manager.snapshot)


def attach_trace(registry: StatsRegistry, cache) -> None:
    """Feed a ``repro.trace.TraceCache.snapshot()`` into ``trace``."""
    registry.attach("trace", cache.snapshot)


def observe_context(registry: StatsRegistry, ctx) -> None:
    """Attach the standard probes of one execution context's services."""
    attach_pool(registry, ctx.pool)
    if ctx.reuse is not None:
        attach_reuse(registry, ctx.reuse)
    attach_spark(registry, lambda: ctx._spark)
    if getattr(ctx, "transport", None) is not None:
        attach_transport(registry, ctx.transport)
        attach_federated(registry, ctx.transport.registry())
    if getattr(ctx, "faults", None) is not None:
        attach_resilience(registry, ctx.faults)
    if getattr(ctx, "checkpoints", None) is not None:
        attach_checkpoint(registry, ctx.checkpoints)
    if getattr(ctx, "traces", None) is not None:
        attach_trace(registry, ctx.traces)


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:,.0f}{unit}" if unit == "B" else f"{value:,.1f}{unit}"
        value /= 1024.0
    return f"{n}B"


def _kv_line(section: dict) -> str:
    parts = []
    for key, value in section.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.3f}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def render_heavy_hitters(instructions: List[dict], top_k: int = 10) -> str:
    """The top-K opcode table (count, total/mean time, output bytes)."""
    lines = [f"Heavy hitter instructions (top {min(top_k, max(len(instructions), 1))}):"]
    header = f"  {'#':>3}  {'opcode':<24} {'count':>8} {'time(s)':>10} {'mean(ms)':>10} {'bytes':>12}"
    lines.append(header)
    if not instructions:
        lines.append("  (no instructions executed)")
        return "\n".join(lines)
    for rank, stat in enumerate(instructions[:top_k], start=1):
        lines.append(
            f"  {rank:>3}  {stat['opcode']:<24} {stat['count']:>8} "
            f"{stat['total_s']:>10.4f} {stat['mean_ms']:>10.3f} "
            f"{_fmt_bytes(stat['bytes']):>12}"
        )
    return "\n".join(lines)


def _render_serving(section: dict, lines: List[str]) -> None:
    lines.append(f"  queue_depth={section.get('queue_depth', 0)}")
    for name, entry in sorted(section.get("models", {}).items()):
        latency = entry.get("latency_ms", {})
        lines.append(
            f"  {name}: submitted={entry.get('submitted', 0)} "
            f"completed={entry.get('completed', 0)} "
            f"rejected={entry.get('rejected', 0)} "
            f"timeouts={entry.get('timeouts', 0)} "
            f"errors={entry.get('errors', 0)} "
            f"p50={latency.get('p50', 0.0):.2f}ms "
            f"p99={latency.get('p99', 0.0):.2f}ms"
        )
    for name, entry in sorted(section.get("tenants", {}).items()):
        lines.append(
            f"  tenant {name}: submitted={entry.get('submitted', 0)} "
            f"completed={entry.get('completed', 0)} "
            f"throttled={entry.get('throttled', 0)} "
            f"rejected={entry.get('rejected', 0)}"
        )
    for worker, entry in sorted(section.get("workers", {}).items()):
        lines.append(
            f"  worker {worker}: batches={entry.get('batches', 0)} "
            f"requests={entry.get('requests', 0)} "
            f"deaths={entry.get('deaths', 0)} "
            f"respawns={entry.get('respawns', 0)} "
            f"shm={entry.get('shm_segments_attached', 0)}/"
            f"{entry.get('shm_checksums_verified', 0)}"
        )
    transport = section.get("transport")
    if transport:
        lines.append("  transport: " + _kv_line(transport))


def _render_resilience(section: dict, lines: List[str]) -> None:
    scalars = {k: v for k, v in section.items() if not isinstance(v, dict)}
    lines.append("  " + _kv_line(scalars))
    injected = section.get("injected_by_point", {})
    if injected:
        lines.append(
            "  injected: "
            + "  ".join(f"{point}={n}" for point, n in sorted(injected.items()))
        )
    breakers = section.get("breakers", {})
    if breakers:
        lines.append(
            "  breakers: "
            + "  ".join(f"{key}={state}" for key, state in sorted(breakers.items()))
        )


def _render_federated(section: dict, lines: List[str]) -> None:
    totals = section.get("totals", {})
    lines.append("  " + _kv_line(totals))
    for address, metrics in sorted(section.get("sites", {}).items()):
        lines.append(f"  {address}: {_kv_line(metrics)}")


def render_report(snapshot: dict, top_k: int = 10) -> str:
    """The full ``--stats`` text report for one snapshot dict."""
    lines = ["=== runtime statistics (repro.obs) ==="]
    lines.append(f"Elapsed time:       {snapshot.get('elapsed_s', 0.0):.3f} sec")
    counters = snapshot.get("counters", {})
    for name in sorted(counters):
        lines.append(f"{name + ':':<20}{counters[name]}")
    timers = snapshot.get("timers", {})
    for name in sorted(timers):
        cell = timers[name]
        lines.append(
            f"time[{name}]:        {cell['total_s']:.4f} sec ({cell['count']} calls)"
        )
    lines.append("")
    lines.append(render_heavy_hitters(snapshot.get("instructions", []), top_k))
    for section in CANONICAL_SECTIONS:
        data = snapshot.get(section, {})
        lines.append("")
        lines.append(f"{_SECTION_TITLES[section]}:")
        if not data:
            lines.append("  (inactive)")
        elif section == "serving":
            _render_serving(data, lines)
        elif section == "federated":
            _render_federated(data, lines)
        elif section == "resilience":
            _render_resilience(data, lines)
        else:
            lines.append("  " + _kv_line(data))
    return "\n".join(lines)


def render_json(snapshot: dict) -> str:
    """The snapshot as pretty-printed JSON (for dashboards / CI artifacts)."""
    return json.dumps(snapshot, indent=2, sort_keys=True, default=str)
