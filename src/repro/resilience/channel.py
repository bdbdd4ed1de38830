"""Resilient request channel for federated site calls.

With resilience enabled, every batch of coordinator-to-site requests goes
through :meth:`ResilientChannel.scatter`, in rounds of one send each (all
sites in flight at once when they are remote).  A request that failed
*transiently* (injected fault, dead site, I/O error, a response slower
than the timeout) is retried alone in the next round with capped
exponential backoff and jitter, while its siblings keep their replies;
sites that keep failing are blacklisted in the worker registry for a
cooldown, and the request fails over to a configured replica site.  When
every candidate is exhausted, the caller either degrades (reads pass a
``fallback``) or gets a typed :class:`FederatedSiteUnavailableError`
naming the injection point.  :meth:`ResilientChannel.call` is the
one-request case.

Permanent errors — privacy-constraint violations, unknown tensors — are
*not* retried or failed over: masking those with degraded data would turn
a correctness error into silent corruption.  The earliest is raised once
its round is drained.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.errors import (
    FederatedError,
    FederatedSiteUnavailableError,
    InjectedFaultError,
    SiteDownError,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.stats import ResilienceStats

#: Failures worth retrying/failing over.  ConnectionError and TimeoutError
#: are OSError subclasses; FederatedError deliberately is NOT here.
TRANSIENT_ERRORS = (InjectedFaultError, SiteDownError, OSError)


class ResilientChannel:
    """Retry + timeout + blacklist + failover around site requests."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        injector=None,
        stats: Optional[ResilienceStats] = None,
        registry=None,
        timeout_s: Optional[float] = 5.0,
        blacklist_after: int = 3,
        blacklist_cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = time.sleep,
        rng=None,
    ):
        self.policy = policy or RetryPolicy()
        self.injector = injector
        self.stats = stats or ResilienceStats()
        self.timeout_s = timeout_s
        self.blacklist_after = max(1, int(blacklist_after))
        self.blacklist_cooldown_s = blacklist_cooldown_s
        self._registry = registry
        self._clock = clock
        self._sleep = sleep
        self._rng = rng
        self._strikes = {}  # address -> consecutive exhausted requests

    def _resolve_registry(self):
        if self._registry is not None:
            return self._registry
        from repro.federated.site import FederatedWorkerRegistry

        return FederatedWorkerRegistry.default()

    def _candidates(self, site, registry) -> List:
        """The primary site followed by its (transitive) replica chain."""
        chain = [site]
        seen = {site.address}
        address = registry.replica_of(site.address)
        while address is not None and address not in seen:
            seen.add(address)
            try:
                chain.append(registry.site(address))
            except FederatedError:
                break  # replica not started; stop following the chain
            address = registry.replica_of(address)
        return chain

    def call(self, site, point: str, thunk: Callable, fallback: Optional[Callable] = None):
        """Run ``thunk(site)`` resiliently: the one-request :meth:`scatter`.

        ``thunk`` receives the site actually serving the request (the
        primary or a replica), so operations that leave results at the
        site can record *where*.
        """

        def send(batch, on_reply):
            try:
                return [thunk(batch[0][1])]
            except Exception as exc:  # noqa: BLE001 - the request's outcome
                return [exc]
            finally:
                on_reply(0)

        return self.scatter(point, [site], send, fallback)[0]

    def scatter(self, point: str, sites: Sequence, send: Callable,
                fallback: Optional[Callable] = None) -> List:
        """One request per entry of ``sites``, in rounds; results in order.

        A round draws the ``point`` fault of every pending request, in
        order, for the candidate its attempt goes to (the site, then its
        replicas); the untripped ones go out as ``send(batch, on_reply)``
        with ``batch`` = ``(position, target)`` pairs.  ``send`` returns
        each result or exception in batch order and calls ``on_reply(k)`` as
        the k-th is in: a request is charged the time spent waiting for
        *it*.  ``fallback`` stands in for a request with no candidate left.
        """
        registry = self._resolve_registry()
        runs = [self._attempts(site, point, registry, fallback) for site in sites]
        results: List = [None] * len(runs)
        outcomes = dict.fromkeys(range(len(runs)))  # position -> last outcome
        while outcomes:
            asks, failure = {}, None
            for position, outcome in outcomes.items():
                try:
                    asks[position] = runs[position].send(outcome)
                except StopIteration as done:
                    results[position] = done.value
                except Exception as exc:  # noqa: BLE001 - after the others
                    failure = failure or exc
            if failure is not None:
                raise failure
            if asks and self._sleep is not None:
                backoff = max(delay for __, delay in asks.values())
                if backoff > 0.0:
                    self._sleep(backoff)
            outcomes, batch, elapsed = dict.fromkeys(asks), [], {}
            for position, (target, __) in asks.items():
                start = self._clock()
                try:
                    if self.injector is not None:
                        self.injector.fire(point)
                    batch.append((position, target))
                except InjectedFaultError as exc:
                    outcomes[position] = exc
                elapsed[position] = self._clock() - start
            mark = self._clock()

            def on_reply(k):
                nonlocal mark
                now = self._clock()
                elapsed[batch[k][0]] += now - mark
                mark = now

            for (position, target), outcome in zip(
                batch, send(batch, on_reply) if batch else ()
            ):
                if not isinstance(outcome, BaseException) and \
                        self.timeout_s is not None and elapsed[position] > self.timeout_s:
                    self.stats.incr("timeouts")
                    outcome = TimeoutError(
                        f"{point} on {target.address}: response exceeded "
                        f"{self.timeout_s}s deadline"
                    )
                outcomes[position] = outcome
        return results

    def _attempts(self, site, point: str, registry, fallback: Optional[Callable]):
        """One request's attempts, as :meth:`scatter` drives them: yields
        ``(target, backoff)`` before each attempt and is sent its outcome;
        returns the result, the fallback's value, or raises."""
        attempted = 0
        last_error: Optional[BaseException] = None
        for target in self._candidates(site, registry):
            if not registry.is_healthy(target.address, self._clock()):
                continue  # blacklisted: fail over without burning retries
            if attempted > 0:
                self.stats.incr("site_failovers")
            attempted += 1
            backoff = 0.0
            for retry in range(self.policy.max_retries + 1):
                outcome = yield target, backoff
                if not isinstance(outcome, TRANSIENT_ERRORS):
                    if isinstance(outcome, BaseException):
                        raise outcome  # permanent: not retried, not failed over
                    self._strikes.pop(target.address, None)
                    return outcome
                last_error = outcome
                if retry < self.policy.max_retries:
                    backoff = (self.policy.delay_s(retry, self._rng)
                               if self._sleep is not None else 0.0)
                    self.stats.record_retry("site", backoff)
            self._strike(registry, target.address)
        if fallback is not None:
            self.stats.incr("degraded_reads")
            return fallback()
        if attempted == 0:
            # Not a single candidate was even tried: every one of them sat
            # inside a blacklist cooldown.  Distinct from retries running
            # out — report when the earliest cooldown ends so the caller
            # knows how long until the request could succeed again.
            self.stats.incr("all_blacklisted")
            cooldowns = registry.blacklisted(self._clock())
            detail = ""
            if cooldowns:
                soonest = min(cooldowns.values())
                detail = f"cooldown ends in {max(0.0, soonest):.1f}s"
            raise FederatedSiteUnavailableError(
                point, site.address, reason="all_blacklisted", detail=detail
            ) from None
        self.stats.incr("candidates_exhausted")
        raise FederatedSiteUnavailableError(
            point, site.address, reason="candidates_exhausted",
            detail=f"{attempted} candidate(s) attempted",
        ) from last_error

    def _strike(self, registry, address: str) -> None:
        """Count one exhausted request; blacklist after ``blacklist_after``."""
        strikes = self._strikes.get(address, 0) + 1
        self._strikes[address] = strikes
        if strikes >= self.blacklist_after:
            registry.mark_unhealthy(
                address, self._clock() + self.blacklist_cooldown_s
            )
            self.stats.incr("sites_blacklisted")
            self._strikes.pop(address, None)
