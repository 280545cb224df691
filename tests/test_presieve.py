"""The search presieve: fixed cases, and a differential test against
auto_test, trial division and replay.

A presieved n must be composite with its least prime factor as the
divisor; every other n must reach the curve routes and get the record a
lone `test k n --json` would give it.
"""

import io
import json

import pytest

from ecriesel import cli
from ecriesel.numtheory import (
    ORACLE_LIMIT,
    SIEVE_BOUND,
    FormCandidate,
    presieve,
    presieve_bound,
    sieve_primes,
    trial_division,
)
from ecriesel.primality import COMPOSITE, PRIME, auto_test, replay_verdict


def search(k, n_min, n_max):
    out = io.StringIO()
    argv = ["search", "--k", str(k), "--n-min", str(n_min), "--n-max", str(n_max), "--json"]
    assert cli.main(argv, out=out, err=io.StringIO()) == 0
    *records, summary = (json.loads(line) for line in out.getvalue().splitlines())
    return records, summary["summary"]


def check_search(k, n_min, n_max):
    """The four presieve properties on one search range."""
    records, _ = search(k, n_min, n_max)
    ns = range(n_min | 1, n_max + 1, 2)
    assert [int(r["candidate"]["n"]) for r in records] == list(ns)
    sieving = sieve_primes(presieve_bound(k, ns))[1:]
    for n, record in zip(ns, records):
        c = FormCandidate(k=k, n=n)
        p = c.p
        if record["algorithm"] == "sieve":
            d = int(record["certificate"]["divisor"])
            assert record["verdict"] == COMPOSITE
            assert auto_test(c).status != PRIME
            assert d in sieving and d < p and p % d == 0
            if p <= ORACLE_LIMIT:
                assert d == trial_division(p)
            assert all(p % ell for ell in sieving if ell < d)
            assert replay_verdict(*cli.record_to_inputs(record))
        else:
            assert record == cli.build_record(c, auto_test(c))
            assert all(p % ell for ell in sieving if ell < p)


class TestPresieve:
    def test_marks_least_prime_factor(self):
        ns = range(40001, 42001, 2)
        marks = presieve(31, ns)
        assert presieve_bound(31, ns) == 16_000
        primes = sieve_primes(16_000)[1:]
        for n in ns:
            p = (n << 31) - 1
            assert marks.get(n) == next((ell for ell in primes if p % ell == 0), None), n

    def test_prime_sieving_primes_stay_unmarked(self):
        # p = 4n - 1 up to 7999; every prime p below the bound 89 is a sieving prime
        ns = range(1, 2001, 2)
        assert presieve_bound(2, ns) == 89
        marks = presieve(2, ns)
        small = [n for n in ns if (4 * n - 1) in sieve_primes(89)]
        assert [4 * n - 1 for n in small] == [3, 11, 19, 43, 59, 67, 83]
        assert not any(n in marks for n in small)
        assert marks[7] == 3 and marks[9] == 5  # p = 27, 35

    def test_bound_rule(self):
        assert presieve_bound(31, range(1, 1, 2)) == 0
        assert presieve_bound(2, range(1, 26, 2)) == 9  # sqrt(99)
        assert presieve_bound(31, range(40001, 40027, 2)) == 16 * 13
        assert presieve_bound(31, range(1, 20001, 2)) == SIEVE_BOUND

    def test_rejects_other_ranges(self):
        assert presieve(5, range(3, 3, 2)) == {}
        for ns in (range(2, 10, 2), range(1, 10, 1), range(1, 10, 4), range(-1, 10, 2)):
            with pytest.raises(ValueError):
                presieve(5, ns)

    def test_huge_k(self):
        marks = presieve(100_000, range(1, 400, 2))
        assert marks and all((n << 100_000) % ell == 1 for n, ell in marks.items())

    def test_fixed_ranges(self):
        check_search(2, 1, 25)
        check_search(2, 1, 301)  # p = 4n - 1 reaches 1203, bound 34
        check_search(31, 40001, 40199)
        check_search(64, 1, 61)

    def test_workload_range_is_mostly_sieved(self):
        records, summary = search(31, 33791, 34790)
        sieved = sum(r["algorithm"] == "sieve" for r in records)
        assert 0.85 * len(records) < sieved < len(records)
        assert summary[COMPOSITE] + summary[PRIME] == len(records)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; the fixed cases above still run
    pass
else:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.integers(2, 64),
           n_min=st.one_of(st.integers(1, 40), st.integers(1, 2**24)),
           width=st.integers(0, 120))
    def test_search_presieve_differential(k, n_min, width):
        # n_min up to 40 with small k puts prime p below the sieving bound
        check_search(k, n_min, n_min + width)
