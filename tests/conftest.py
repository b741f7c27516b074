"""Shared fixtures: small deterministic deployments reused across tests."""

from __future__ import annotations

import pytest

from repro.core.siphash import SipKey
from repro.isp.builder import build_deployment
from repro.isp.profiles import profile_by_key


@pytest.fixture(scope="session")
def mini_deployment():
    """A heavily scaled-down full deployment (all fifteen blocks)."""
    return build_deployment(scale=100_000, seed=42, min_devices=30)


@pytest.fixture(scope="session")
def cn_mobile_deployment():
    """One /60-delegation block with loops and services, moderately sized."""
    return build_deployment(
        profiles=[profile_by_key("cn-mobile-broadband")],
        scale=20_000,
        seed=7,
    )


@pytest.fixture(scope="session")
def jio_deployment():
    """One /64-delegation, same-dominant block."""
    return build_deployment(
        profiles=[profile_by_key("in-jio-broadband")],
        scale=20_000,
        seed=7,
    )


@pytest.fixture
def scalar_hash_calls(monkeypatch):
    """The argument tuples of every scalar ``SipKey.hash_uints`` call made
    while the test runs — a count of per-value Python hashing, which the
    block paths exist to avoid (with numpy; without it they are all scalar).
    """
    calls = []
    scalar = SipKey.hash_uints

    def counted(key, *parts):
        calls.append(parts)
        return scalar(key, *parts)

    monkeypatch.setattr(SipKey, "hash_uints", counted)
    return calls
