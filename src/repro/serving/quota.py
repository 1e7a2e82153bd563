"""Per-tenant admission quotas.

The queue's round-robin rotation makes *service* fair; quotas make
*admission* fair: a tenant may not hold more than its share of the
system's bounded capacity, so one tenant's burst can never starve the
others out of queue slots.  Exceeding the quota is a typed
:class:`~repro.serving.job.TenantQuotaError` at ``submit`` — the tenant
that is over budget is the only one that hears about it.

Counts cover *in-flight* jobs (queued or executing): a tenant's slot is
released only when its job reaches a terminal state, so retries and long
attempts keep holding the slot they were admitted under.
"""

from __future__ import annotations

import threading

from repro.serving.job import TenantQuotaError

__all__ = ["TenantQuotas"]


class TenantQuotas:
    """In-flight job counters with a per-tenant cap.

    ``default_limit`` applies to every tenant without an explicit entry
    in ``limits``; ``None`` means unlimited.
    """

    def __init__(self, default_limit: int | None = None,
                 limits: dict[str, int] | None = None) -> None:
        self.default_limit = default_limit
        self.limits = dict(limits or {})
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}

    def limit_of(self, tenant: str) -> int | None:
        return self.limits.get(tenant, self.default_limit)

    def admit(self, tenant: str) -> None:
        """Charge one in-flight slot or raise :class:`TenantQuotaError`."""
        limit = self.limit_of(tenant)
        with self._lock:
            held = self._inflight.get(tenant, 0)
            if limit is not None and held >= limit:
                raise TenantQuotaError(tenant, held, limit)
            self._inflight[tenant] = held + 1

    def release(self, tenant: str) -> None:
        """Return the slot when its job reaches a terminal state."""
        with self._lock:
            held = self._inflight.get(tenant, 0)
            if held <= 0:  # pragma: no cover - accounting bug guard
                raise AssertionError(
                    f"quota release without admit for tenant {tenant!r}")
            if held == 1:
                self._inflight.pop(tenant)
            else:
                self._inflight[tenant] = held - 1

    def inflight(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._inflight.get(tenant, 0)
            return sum(self._inflight.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._inflight)
