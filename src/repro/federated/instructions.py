"""Federated operations: computation push-down to sites (paper section 3.3).

Each operation ships the *small* side (or nothing) to the sites, runs the
local part there, and either aggregates the small results at the master
(tsmm, tmm, aggregates) or leaves the large results at the sites as a new
federated tensor (matmult, elementwise) — "pushing as much computation to
the individual sites as possible, while adhering to exchange constraints".
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.errors import FederatedError
from repro.federated.tensor import FederatedPartition, FederatedRange, FederatedTensor
from repro.tensor import BasicTensorBlock
from repro.tensor import ops as local_ops
from repro.types import Direction

_TMP_NAMES = itertools.count(1)


def _require_row_partitioned(fed: FederatedTensor, op: str) -> None:
    if not fed.is_row_partitioned:
        raise FederatedError(f"{op} requires a row-partitioned federated tensor")


def channel_of(ctx):
    """The context's :class:`~repro.resilience.ResilientChannel`, or None.

    Call sites pass the result as ``channel=``; a None channel keeps every
    federated operation on the direct, zero-overhead request path.
    """
    faults = getattr(ctx, "faults", None)
    return faults.channel if faults is not None else None


def _call_sites(channel, requests, degrade: bool = False):
    """Execute one ``(site, method, args)`` request per partition.

    Returns ``(serving site, result)`` pairs in partition order, so the
    callers combine partials in the same order on every transport and
    sums stay bit-identical.  Without a channel the requests go out
    directly (:func:`_call_direct`: every site in flight at once when
    they are remote).  With a resilient channel they run one at a time in
    partition order: the seeded ``site.request`` / ``fed.worker`` /
    ``net.*`` fault streams are drawn in call order, and that order must
    replay.  The serving site is the primary or the replica the channel
    failed over to; with ``degrade`` an unreachable partition yields
    ``(None, None)`` instead of raising.
    """
    if channel is None:
        return _call_direct(requests, scatter=True)
    fallback = (lambda: (None, None)) if degrade else None
    return [
        channel.call(
            site, "site.request",
            lambda target, m=method, a=args: (target, getattr(target, m)(*a)),
            fallback=fallback,
        )
        for site, method, args in requests
    ]


def _call_direct(requests, scatter: bool):
    """The requests without a channel: scattered through the transport
    the sites share when they are remote proxies (and ``scatter``), in
    partition order otherwise."""
    transports = {site.transport for site, __, __ in requests}
    if scatter and len(transports) == 1 and None not in transports:
        (transport,) = transports
        replies = transport.site_calls(
            [site.request(method, args) for site, method, args in requests]
        )
        return [(site, reply) for (site, __, __), reply in zip(requests, replies)]
    return [(site, getattr(site, method)(*args)) for site, method, args in requests]


def drop_site_temps(partitions, channel=None) -> None:
    """Drop the ``_fedtmp*`` tensors behind ``partitions``: one request
    per site.

    Housekeeping goes to the hosting sites directly — no retry, no
    failover, no ``site.request`` faults — but a bound channel still
    keeps it in order (see :func:`_call_sites`).
    """
    names = {}
    for part in partitions:
        names.setdefault(part.site, []).append(part.tensor_name)
    _call_direct(
        [(site, "drop", (tuple(dropped),)) for site, dropped in names.items()],
        scatter=channel is None,
    )


def _store_at_sites(channel, requests, ranges) -> FederatedTensor:
    """Run ``execute_and_store`` requests; the federated tensor of their
    outputs, each partition at the site that served it."""
    served = _call_sites(channel, requests)
    return FederatedTensor([
        FederatedPartition(live_site, args[1], out_range)  # args[1]: the output name
        for (live_site, __), (__, __, args), out_range in zip(served, requests, ranges)
    ])


def _sum_in_order(results) -> BasicTensorBlock:
    total: Optional[np.ndarray] = None
    for __, result in results:
        data = result.to_numpy()
        total = data if total is None else total + data
    return BasicTensorBlock.from_numpy(total)


def collect_federated(fed: FederatedTensor, channel=None) -> BasicTensorBlock:
    """Assemble the full tensor at the master (raw transfer, checked).

    With a resilient channel, an unreachable partition degrades to zeros
    (a counted ``degraded_reads``) instead of failing the whole collect.
    """
    out = np.zeros(fed.shape, dtype=np.float64)
    fetched = _call_sites(
        channel,
        [(part.site, "fetch", (part.tensor_name,)) for part in fed.partitions],
        degrade=True,
    )
    for part, (__, block) in zip(fed.partitions, fetched):
        if block is None:
            continue  # degraded read: this partition stays zero
        (r0, c0), (r1, c1) = part.range.begin, part.range.end
        out[r0:r1, c0:c1] = block.to_numpy()
    return BasicTensorBlock.from_numpy(out)


def fed_tsmm(fed: FederatedTensor, channel=None) -> BasicTensorBlock:
    """t(X) %*% X over a row-federated X: sum of per-site local TSMMs.

    Only k x k aggregates leave the sites — the federated counterpart of
    the distributed TSMM.
    """
    _require_row_partitioned(fed, "federated tsmm")
    return _sum_in_order(_call_sites(channel, [
        (part.site, "execute_and_return",
         (part.tensor_name, local_ops.tsmm, 0,
          2 * part.range.rows * fed.num_cols**2))
        for part in fed.partitions
    ]))


def fed_tmm(fed: FederatedTensor, y: BasicTensorBlock, channel=None) -> BasicTensorBlock:
    """t(X) %*% y: ship each site its y-slice, aggregate k x m results."""
    _require_row_partitioned(fed, "federated tmm")
    if y.num_rows != fed.num_rows:
        raise FederatedError(f"dimension mismatch: {fed.shape} vs {y.shape}")
    y_data = y.to_numpy()
    requests = []
    for part in fed.partitions:
        r0, r1 = part.range.begin[0], part.range.end[0]
        y_slice = BasicTensorBlock.from_numpy(y_data[r0:r1].copy())
        requests.append((
            part.site, "execute_and_return",
            (part.tensor_name,
             lambda block, y_part=y_slice: local_ops.mapmm_transpose_left(block, y_part),
             y_slice.memory_size(),
             2 * part.range.rows * fed.num_cols * y.num_cols),
        ))
    return _sum_in_order(_call_sites(channel, requests))


def fed_matmult(fed: FederatedTensor, right: BasicTensorBlock,
                channel=None) -> FederatedTensor:
    """X %*% B: broadcast B to the sites; per-site results stay federated."""
    _require_row_partitioned(fed, "federated matmult")
    if fed.num_cols != right.num_rows:
        raise FederatedError(f"dimension mismatch: {fed.shape} %*% {right.shape}")
    requests = [
        (part.site, "execute_and_store",
         (part.tensor_name, f"_fedtmp{next(_TMP_NAMES)}",
          lambda block, b=right: local_ops.matmult(block, b),
          right.memory_size(),
          2 * part.range.rows * fed.num_cols * right.num_cols))
        for part in fed.partitions
    ]
    ranges = [
        FederatedRange((part.range.begin[0], 0), (part.range.end[0], right.num_cols))
        for part in fed.partitions
    ]
    return _store_at_sites(channel, requests, ranges)


def fed_elementwise_scalar(op: str, fed: FederatedTensor, scalar: float,
                           scalar_left: bool = False, channel=None) -> FederatedTensor:
    """Elementwise op with a scalar: pushed down, results stay at the sites."""
    requests = [
        (part.site, "execute_and_store",
         (part.tensor_name, f"_fedtmp{next(_TMP_NAMES)}",
          lambda block: local_ops.binary_scalar(op, block, scalar, scalar_left),
          8, 0))
        for part in fed.partitions
    ]
    return _store_at_sites(channel, requests, [part.range for part in fed.partitions])


def fed_binary_rowsliced(op: str, fed: FederatedTensor, other: BasicTensorBlock,
                         channel=None) -> FederatedTensor:
    """Elementwise op with a local matrix, sliced per partition range."""
    _require_row_partitioned(fed, f"federated {op}")
    data = other.to_numpy()
    broadcast_row = data.shape[0] == 1
    requests = []
    for part in fed.partitions:
        r0, r1 = part.range.begin[0], part.range.end[0]
        piece = data if broadcast_row else data[r0:r1]
        operand = BasicTensorBlock.from_numpy(np.ascontiguousarray(piece))
        requests.append((
            part.site, "execute_and_store",
            (part.tensor_name, f"_fedtmp{next(_TMP_NAMES)}",
             lambda block, other_part=operand: local_ops.binary_op(op, block, other_part),
             operand.memory_size(), 0),
        ))
    return _store_at_sites(channel, requests, [part.range for part in fed.partitions])


def fed_aggregate(op: str, fed: FederatedTensor, direction: Direction, channel=None):
    """sum/min/max/mean aggregates with per-site partials (aggregate-checked)."""
    _require_row_partitioned(fed, f"federated {op}")
    if direction == Direction.COL or direction == Direction.FULL:
        inner = "sum" if op == "mean" else op
        results = _call_sites(channel, [
            (part.site, "execute_and_return",
             (part.tensor_name,
              lambda block, o=inner, d=direction: _local_partial(o, block, d)))
            for part in fed.partitions
        ])
        stacked = np.vstack([np.atleast_2d(r.to_numpy()) for __, r in results])
        if direction == Direction.FULL:
            # per-site partials are scalar totals (or min/max)
            if op == "sum":
                return float(stacked.sum())
            if op == "mean":
                return float(stacked.sum()) / (fed.num_rows * fed.num_cols)
            return float(stacked.min() if op == "min" else stacked.max())
        if op in ("sum", "mean"):
            combined = stacked.sum(axis=0, keepdims=True)
            if op == "mean":
                combined = combined / fed.num_rows
        elif op == "min":
            combined = stacked.min(axis=0, keepdims=True)
        else:
            combined = stacked.max(axis=0, keepdims=True)
        return BasicTensorBlock.from_numpy(combined)
    # row aggregates: per-site row vectors concatenate in range order
    out = np.zeros((fed.num_rows, 1))
    results = _call_sites(channel, [
        (part.site, "execute_and_return",
         (part.tensor_name,
          lambda block, o=op: local_ops.aggregate(o, block, Direction.ROW)))
        for part in fed.partitions
    ])
    for part, (__, result) in zip(fed.partitions, results):
        out[part.range.begin[0]:part.range.end[0]] = result.to_numpy()
    return BasicTensorBlock.from_numpy(out)


def _local_partial(op: str, block: BasicTensorBlock, direction: Direction) -> BasicTensorBlock:
    if direction == Direction.FULL:
        return BasicTensorBlock.scalar(local_ops.aggregate(op, block))
    return local_ops.aggregate(op, block, direction)
