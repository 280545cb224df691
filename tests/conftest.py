"""Shared fixtures."""

import pytest

from ecriesel import primality
from ecriesel.numtheory import MR_DEFAULT_BASES


@pytest.fixture
def routes_decide_composites(monkeypatch):
    """auto_test and replay as if the presieve and the trial factoring of
    M_k found no factor of p and base 3 witnessed no p, so that a composite
    reaches the curve routes and the fallback, and their certificates are
    what auto_test writes and replay checks.  Every other Miller-Rabin call
    runs as it is."""
    strong = primality.miller_rabin

    def no_witness_to_3(n, bases=MR_DEFAULT_BASES):
        return bases == (primality.WITNESS_BASE,) or strong(n, bases)

    monkeypatch.setattr(primality, "sieve_divisors", lambda k, ns: {})
    monkeypatch.setattr(primality, "miller_rabin", no_witness_to_3)
