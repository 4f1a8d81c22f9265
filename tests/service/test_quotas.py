"""Tests for tenant quotas."""

import pytest

from repro.service.quotas import QuotaExceeded, TenantQuotas


class TestTenantQuotas:
    def test_acquire_release_roundtrip(self):
        quotas = TenantQuotas(max_inflight=2)
        quotas.acquire("t")
        quotas.acquire("t")
        assert quotas.inflight("t") == 2
        quotas.release("t")
        assert quotas.inflight("t") == 1
        quotas.release("t")
        assert quotas.inflight("t") == 0
        assert quotas.rejected == 0

    def test_over_budget_raises_with_retry_hint(self):
        quotas = TenantQuotas(max_inflight=1, retry_after=0.25)
        quotas.acquire("t")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.acquire("t")
        assert excinfo.value.tenant == "t"
        assert excinfo.value.retry_after == 0.25
        assert quotas.rejected == 1
        # Release frees the slot for the retry.
        quotas.release("t")
        quotas.acquire("t")

    def test_tenants_are_isolated(self):
        quotas = TenantQuotas(max_inflight=1)
        quotas.acquire("a")
        quotas.acquire("b")  # b is unaffected by a's budget
        with pytest.raises(QuotaExceeded):
            quotas.acquire("a")

    def test_held_context_manager_releases_on_error(self):
        quotas = TenantQuotas(max_inflight=1)
        with pytest.raises(RuntimeError):
            with quotas.held("t"):
                assert quotas.inflight("t") == 1
                raise RuntimeError("boom")
        assert quotas.inflight("t") == 0

    def test_release_never_goes_negative(self):
        quotas = TenantQuotas()
        quotas.release("ghost")
        assert quotas.inflight("ghost") == 0
        quotas.acquire("ghost")
        assert quotas.inflight("ghost") == 1

    def test_snapshot_shape(self):
        quotas = TenantQuotas(max_inflight=3, retry_after=2.0)
        quotas.acquire("t")
        snapshot = quotas.snapshot()
        assert snapshot["max_inflight"] == 3
        assert snapshot["retry_after"] == 2.0
        assert snapshot["inflight"] == {"t": 1}

    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0},
        {"retry_after": 0.0},
        {"retry_after": -1.0},
    ])
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuotas(**kwargs)
