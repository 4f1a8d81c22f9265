"""Sweep-as-a-service: the multi-tenant experiment serving tier.

Promotes the cell machinery (content-addressed cache, barrier-free
executor, catalog resolution) behind an asyncio HTTP/JSON front end:
``rtdvs serve`` runs :class:`SweepService`, ``rtdvs submit`` drives it
through :class:`SweepServiceClient`.  See :mod:`repro.service.server`
for the serving-layer design and :mod:`repro.service.protocol` for the
wire format.
"""

from repro.service.client import ServiceError, SweepServiceClient
from repro.service.dedup import SingleFlight
from repro.service.protocol import (PROTOCOL_VERSION, ProtocolError,
                                    SweepJob, SweepRequest, parse_request,
                                    resolve_jobs)
from repro.service.quotas import QuotaExceeded, TenantQuotas
from repro.service.server import ServiceStats, ServiceThread, SweepService

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QuotaExceeded",
    "ServiceError",
    "ServiceStats",
    "ServiceThread",
    "SingleFlight",
    "SweepJob",
    "SweepRequest",
    "SweepService",
    "SweepServiceClient",
    "TenantQuotas",
    "parse_request",
    "resolve_jobs",
]
