"""The trial factoring of M_k = 2^k - 1 by its q = 2jk + 1 below k^2 / 4.

numtheory.mersenne_trial_factor walks only the q = +-1 (mod 8) and takes
the least that divides M_k as its least prime factor.  The reference here
walks every q = 1 (mod 2k) below k^2 / 4 and checks each divisor for
primality.  auto_test, replay and search run the step through one sieve,
numtheory.sieve_divisors (on one n in primality._sieve_divisor, on the
whole range in search), so an M_k it catches ends on the sieve record and
a witness record for it is INVALID.
"""

import io
import json

import pytest

from ecriesel import cli, primality
from ecriesel.numtheory import (
    MERSENNE_TRIAL_MIN_K,
    FormCandidate,
    mersenne_trial_factor,
    presieve,
    sieve_divisors,
    sieve_primes,
    trial_division,
)
from ecriesel.primality import (
    COMPOSITE,
    PRIME,
    Verdict,
    auto_test,
    replay_verdict,
    sieve_verdict,
)

WITNESS = Verdict(COMPOSITE, "miller-rabin", {"witness": 3})


def least_prime_factor_below_bound(k):
    """The least prime q = 1 (mod 2k) below k^2 / 4 that divides M_k, by a walk
    with no mod-8 filter."""
    p = (1 << k) - 1
    return next((q for q in range(2 * k + 1, k * k // 4, 2 * k)
                 if p % q == 0 and trial_division(q) == q), None)


def test_matches_the_unfiltered_walk():
    caught = 0
    for k in sieve_primes(1000):
        if k >= MERSENNE_TRIAL_MIN_K:
            q = mersenne_trial_factor(k)
            assert q == least_prime_factor_below_bound(k), k
            caught += q is not None
    assert caught == 47  # of the 150 prime k in [67, 997]


@pytest.mark.parametrize("k, q", [
    (73, 439), (1439, 2879), (1451, 2903), (1459, 14591),
    (1433, 20063), (1447, 57881), (1453, 8719),
    (1277, None), (1279, None), (1759, None),
    (1741, None),  # its least factor 1002817 is 0.33 k^2
])
def test_pinned_exponents(k, q):
    assert mersenne_trial_factor(k) == q


def test_other_exponents_are_left_alone():
    # below MERSENNE_TRIAL_MIN_K (M_37 = 223 * 616318177, 223 < 37^2) and
    # composite k (M_1461 has M_3 = 7 as a factor) get no trial factor
    assert MERSENNE_TRIAL_MIN_K > 64
    assert (1 << 37) % 223 == 1 and mersenne_trial_factor(37) is None
    assert mersenne_trial_factor(1461) is None and mersenne_trial_factor(1460) is None


@pytest.mark.parametrize("k, ns, m_k", [
    (1459, range(1, 10, 2), 14591),  # the presieve leaves M_1459 to the trial factor
    (73, range(1, 2, 2), 439),
    (1277, range(1, 10, 2), None),  # M_1277 has no factor below k^2 / 4
    (1462, range(1, 10, 2), 3),  # the presieve's 3 divides M_1462
    (1459, range(3, 42, 2), None),  # no n = 1 in the range
])
def test_sieve_divisors_is_the_presieve_and_the_step(k, ns, m_k):
    sieved = sieve_divisors(k, ns)
    assert sieved.get(1) == m_k
    sieved.pop(1, None)
    assert sieved == {n: d for n, d in presieve(k, ns).items() if n != 1}


@pytest.mark.parametrize("k", [1277, 1741, 1759])
def test_uncaught_composites_end_on_the_witness(k):
    c = FormCandidate(k, 1)
    assert primality._sieve_divisor(c) is None
    assert auto_test(c) == WITNESS and replay_verdict(c, WITNESS)


def test_uncaught_prime_ends_on_the_chain():
    c = FormCandidate(1279, 1)
    v = auto_test(c)
    assert (v.status, v.algorithm) == (PRIME, "small-n") and replay_verdict(c, v)


def test_caught_exponent_ends_on_the_sieve():
    c = FormCandidate(1459, 1)
    assert auto_test(c) == sieve_verdict(14591)
    assert replay_verdict(c, sieve_verdict(14591))
    # 3 witnesses M_1459, but deciding never runs the test there
    assert primality.miller_rabin(c.p, (3,)) is False
    assert not replay_verdict(c, WITNESS)


def cli_lines(argv):
    out = io.StringIO()
    cli.main(argv, out=out, err=io.StringIO())
    return out.getvalue().splitlines()


def test_search_runs_the_step_on_n_1():
    *lines, summary = cli_lines(["search", "--k", "1459", "--n-min", "1", "--n-max", "5",
                                 "--json"])
    records = [json.loads(line) for line in lines]
    assert [r["candidate"]["n"] for r in records] == ["1", "3", "5"]
    assert records[0]["algorithm"] == "sieve"
    assert records[0]["certificate"] == {"divisor": "14591"}
    assert json.loads(summary) == {"summary": {"composite": 3, "inconclusive": 0,
                                               "not-applicable": 0, "prime": 0}}
    assert all(replay_verdict(*cli.record_to_inputs(r)) for r in records)


def test_mersenne_range_ends_on_the_sieve(tmp_path):
    lines = cli_lines(["mersenne", "1433", "1459", "--json"])
    records = [json.loads(line) for line in lines]
    caught = {int(r["candidate"]["k"]): int(r["certificate"]["divisor"]) for r in records
              if r["algorithm"] == "sieve" and int(r["candidate"]["k"]) in sieve_primes(1459)}
    assert caught == {1433: 20063, 1439: 2879, 1447: 57881, 1451: 2903, 1453: 8719,
                      1459: 14591}
    assert all(replay_verdict(*cli.record_to_inputs(r)) for r in records)
    # the witness record of M_1459 is refused at the command line too
    forged = dict(records[-1], algorithm="miller-rabin",
                  certificate={"witness": "3"})
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(forged) + "\n")
    out = io.StringIO()
    assert cli.main(["test", "--replay", str(path)], out=out, err=io.StringIO()) == 1
    assert out.getvalue().startswith("replay: INVALID (composite via miller-rabin")
