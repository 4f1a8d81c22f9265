"""Admission control: per-tenant request quotas.

:class:`TenantQuotas` bounds each tenant's concurrent *requests*.  An
over-budget submission is rejected immediately with
:class:`QuotaExceeded` (HTTP 429 + ``Retry-After``) — the tenant is told
to back off rather than silently queued, so one noisy client cannot
monopolize the executor.  Cells of admitted requests queue in the
executor itself.

Event-loop-confined (no locks): every acquire/release happens on the
server loop.
"""

from contextlib import contextmanager
from typing import Dict

from repro.errors import ReproError


class QuotaExceeded(ReproError):
    """A tenant's in-flight request budget is exhausted."""

    def __init__(self, tenant: str, limit: int, retry_after: float):
        super().__init__(
            f"tenant {tenant!r} has {limit} request(s) in flight "
            f"(limit {limit}); retry after {retry_after:g}s")
        self.tenant = tenant
        self.limit = limit
        self.retry_after = retry_after


class TenantQuotas:
    """Per-tenant concurrent-request budgets.

    ``max_inflight`` is the per-tenant ceiling; ``retry_after`` is the
    back-off hint (seconds) carried by :class:`QuotaExceeded` and
    surfaced as the HTTP ``Retry-After`` header.
    """

    def __init__(self, max_inflight: int = 4, retry_after: float = 1.0):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if retry_after <= 0:
            raise ValueError(
                f"retry_after must be > 0, got {retry_after}")
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._inflight: Dict[str, int] = {}
        #: Requests rejected over budget (the 429 count).
        self.rejected = 0

    def acquire(self, tenant: str) -> None:
        """Claim one request slot for ``tenant`` or raise
        :class:`QuotaExceeded` — never blocks."""
        count = self._inflight.get(tenant, 0)
        if count >= self.max_inflight:
            self.rejected += 1
            raise QuotaExceeded(tenant, self.max_inflight,
                                self.retry_after)
        self._inflight[tenant] = count + 1

    def release(self, tenant: str) -> None:
        count = self._inflight.get(tenant, 0)
        if count <= 1:
            self._inflight.pop(tenant, None)
        else:
            self._inflight[tenant] = count - 1

    @contextmanager
    def held(self, tenant: str):
        self.acquire(tenant)
        try:
            yield
        finally:
            self.release(tenant)

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    def snapshot(self) -> Dict[str, object]:
        return {"max_inflight": self.max_inflight,
                "retry_after": self.retry_after,
                "inflight": dict(self._inflight),
                "rejected": self.rejected}
