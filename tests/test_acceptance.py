"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight sweeps
(every candidate below 10^6, Mersenne exponents to 1000) run once as
module-scoped fixtures and feed several criteria.
"""

import io
import json
import random
import time

import pytest

import ecriesel as ec
from ecriesel.cli import main as cli_main

KNOWN_MERSENNE_EXPONENTS = {3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607}

SWEEP_LIMIT = 10**6


def _report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _check_decided(c, verdict, stats):
    """Shared bookkeeping for criteria 2, 6 and 7."""
    truth = ec.PRIME if ec.trial_division(c.p) == c.p else ec.COMPOSITE
    if verdict.status != truth:
        stats["disagreements"].append((c.k, c.n, verdict.status))
    if verdict.status == ec.COMPOSITE:
        witness = ec.factor_witness(verdict)
        if witness is not None:
            stats["witnesses_checked"] += 1
            if not (1 < witness < c.p and c.p % witness == 0):
                stats["witness_failures"].append((c.k, c.n, witness))
    stats["replayed"] += 1
    if not ec.replay_verdict(c, verdict):
        stats["replay_failures"].append((c.k, c.n, verdict.algorithm))


def _fresh_stats():
    return {
        "decided": 0,
        "undecided": {ec.INCONCLUSIVE: 0, ec.NOT_APPLICABLE: 0},
        "disagreements": [],
        "witnesses_checked": 0,
        "witness_failures": [],
        "replayed": 0,
        "replay_failures": [],
    }


@pytest.fixture(scope="module")
def sweep_stats():
    """Criterion 2's full sweep: every p = 2^k * n - 1 < 10^6."""
    max_n = (SWEEP_LIMIT + 3) // 4
    spf = list(range(max_n + 1))
    for i in range(2, int(max_n**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, max_n + 1, i):
                if spf[j] == j:
                    spf[j] = i

    def factors(n):
        fs = []
        while n > 1:
            fs.append(spf[n])
            n //= spf[n]
        return fs

    stats = _fresh_stats()
    stats["total"] = 0
    started = time.perf_counter()
    k = 2
    while (1 << k) - 1 < SWEEP_LIMIT:
        n = 1
        while (n << k) - 1 < SWEEP_LIMIT:
            fs = factors(n) if n > 1 else []
            nf = tuple(fs) if 1 <= len(fs) <= 2 else None
            c = ec.FormCandidate(k=k, n=n, n_factors=nf)
            verdict = ec.auto_test(c)
            stats["total"] += 1
            if verdict.status in (ec.PRIME, ec.COMPOSITE):
                stats["decided"] += 1
                _check_decided(c, verdict, stats)
            else:
                stats["undecided"][verdict.status] += 1
            n += 2
        k += 1
    stats["elapsed"] = time.perf_counter() - started
    return stats


@pytest.fixture(scope="module")
def mersenne_stats():
    """Criterion 3's scan: every exponent in [3, 1000], with replays."""
    stats = _fresh_stats()
    stats["primes_found"] = set()
    stats["lucas_lehmer_mismatches"] = []
    started = time.perf_counter()
    for k in range(3, 1001):
        c = ec.FormCandidate(k=k, n=1)
        verdict = ec.test_mersenne(k)
        stats["decided"] += 1
        classical = ec.PRIME if ec.lucas_lehmer(k) else ec.COMPOSITE
        if verdict.status != classical:
            stats["lucas_lehmer_mismatches"].append(k)
        if verdict.status == ec.PRIME:
            stats["primes_found"].add(k)
        if verdict.status == ec.COMPOSITE:
            witness = ec.factor_witness(verdict)
            if witness is not None:
                stats["witnesses_checked"] += 1
                if not (1 < witness < c.p and c.p % witness == 0):
                    stats["witness_failures"].append((k, witness))
        stats["replayed"] += 1
        if not ec.replay_verdict(c, verdict):
            stats["replay_failures"].append(k)
    stats["elapsed"] = time.perf_counter() - started
    return stats


@pytest.fixture(scope="module")
def section6_stats():
    """Criterion 5's fixtures, shared with 6 and 7."""
    stats = _fresh_stats()
    prime_c = ec.FormCandidate(k=2, n=2633)
    composite_c = ec.FormCandidate(k=2, n=2503)
    assert ec.gate_large_n(prime_c) and ec.gate_large_n(composite_c)
    stats["prime_verdict"] = ec.auto_test(prime_c)
    stats["composite_verdict"] = ec.auto_test(composite_c)
    for c, v in ((prime_c, stats["prime_verdict"]), (composite_c, stats["composite_verdict"])):
        stats["decided"] += 1
        _check_decided(c, v, stats)
    return stats


def test_criterion_1_theorem_sweep():
    started = time.perf_counter()
    code, out, _ = _run_cli("verify", "--p-max", "2000")
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["p_max"] == 2000
    assert report["full_sweep_below"] == 200
    assert report["sampled_m_per_prime"] == 5
    assert elapsed < 60
    _report(
        1,
        f"verify --p-max 2000: {report['curves_checked']} curves "
        f"({report['cyclic_curves']} cyclic, {report['split_curves']} split), "
        f"{report['nonresidue_points_checked']} order checks, 0 violations, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence(sweep_stats):
    s = sweep_stats
    assert s["disagreements"] == []
    assert s["decided"] > 0
    _report(
        2,
        f"{s['total']} candidates below 10^6: {s['decided']} decided, 0 disagreements "
        f"with trial division; undecided counted: {s['undecided'][ec.INCONCLUSIVE]} "
        f"inconclusive, {s['undecided'][ec.NOT_APPLICABLE]} not-applicable ({s['elapsed']:.1f}s)",
    )


def test_criterion_3_mersenne_agreement(mersenne_stats):
    s = mersenne_stats
    assert s["lucas_lehmer_mismatches"] == []
    assert s["primes_found"] == KNOWN_MERSENNE_EXPONENTS
    assert s["elapsed"] < 600
    _report(
        3,
        f"exponents 3..1000 match the classical test everywhere; primes exactly at "
        f"{sorted(s['primes_found'])} ({s['elapsed']:.1f}s)",
    )


def test_criterion_4_hand_trace_fixture():
    outcome, trace = ec.mersenne_sequence(5)
    assert outcome.kind == ec.FINAL_ZERO
    assert trace.s_values == (6, 13, 11, 29, 0)
    assert trace.x_values == (4, 21, 15, 30, 0)

    # independent recomputation: x = 4 lies on the twist of y^2 = x^3 + x
    # over F_31, so lift -4 to (27, 5) on the curve and follow full tangent
    # doublings; the doubling map is odd, so they give the x-chain negated
    curve = ec.Curve(31, -1)
    pt = ec.Point(27, 5)
    assert ec.on_curve(curve, pt)
    xs = []
    for _ in range(5):
        xs.append(pt.x if not pt.is_infinity else None)
        pt = ec.double(curve, pt)
    assert tuple(xs) == tuple(-x % 31 for x in trace.x_values)
    assert all(
        s == (x**3 + x) % 31 for s, x in zip(trace.s_values, trace.x_values)
    )

    # M_4 = 15: the start search meets (5/15) = 0 at u = 2
    with pytest.raises(ec.FactorFound) as info:
        ec.mersenne_sequence(4)
    assert info.value.divisor == 5
    _report(4, "k=5 trace (6,13,11,29,0) on x-chain (4,21,15,30,0); k=4 start search meets 5")


def test_criterion_5_section6_fixtures(section6_stats):
    s = section6_stats
    assert s["prime_verdict"].status == ec.PRIME
    assert s["composite_verdict"].status == ec.COMPOSITE
    assert ec.trial_division(10531) == 10531
    assert ec.trial_division(10011) == 3
    assert s["disagreements"] == []
    _report(5, "p=10531 (k=2, q=2633) prime; p=10011 (k=2, q=2503) composite; both gate-passing")


def test_criterion_6_factor_witness_soundness(sweep_stats, mersenne_stats, section6_stats):
    total_checked = 0
    for s in (sweep_stats, mersenne_stats, section6_stats):
        assert s["witness_failures"] == []
        total_checked += s["witnesses_checked"]
    assert total_checked > 0
    _report(6, f"{total_checked} factor witnesses all divide their p strictly; zero exceptions")


def test_criterion_7_certificate_replay(sweep_stats, mersenne_stats, section6_stats):
    total_replayed = 0
    for s in (sweep_stats, mersenne_stats, section6_stats):
        assert s["replay_failures"] == []
        total_replayed += s["replayed"]
    assert total_replayed > 0
    _report(7, f"{total_replayed} prime/composite certificates replayed, 100% valid")


def test_criterion_8_determinism():
    for c in (
        ec.FormCandidate(k=7, n=3),
        ec.FormCandidate(k=2, n=2633),
        ec.FormCandidate(k=2, n=250127, n_factors=(389, 643)),
        ec.FormCandidate(k=61, n=1),
    ):
        runs = {
            json.dumps(ec.auto_test(c).certificate, sort_keys=True) for _ in range(3)
        }
        assert len(runs) == 1, c

    single = [_run_cli("test", "2", "2633", "--json")[1] for _ in range(3)]
    assert len(set(single)) == 1

    search_args = ("search", "--k", "5", "--n-min", "1", "--n-max", "99", "--json")
    sequential = _run_cli(*search_args)[1]
    parallel = _run_cli(*search_args, "--workers", "8")[1]
    repeat = _run_cli(*search_args, "--workers", "8")[1]
    assert sequential == parallel == repeat
    _report(8, "byte-identical JSON for repeated tests and 1- vs 8-worker searches")


def test_criterion_9_curve_law_suite():
    rng = random.Random(2024)
    primes = [p for p in ec.sieve_primes(3000) if p % 4 == 3 and p > 3]
    checks = 0
    failures = 0

    def on_some_curve(p):
        while True:
            x = rng.randrange(1, p)
            y = rng.randrange(0, p)
            m = (x * x * x - y * y) * pow(x, -1, p) % p
            if m != 0:
                return ec.Curve(p, m), ec.Point(x, y)

    # closure of double/add/scalar_mul over prime moduli
    for _ in range(2500):
        p = rng.choice(primes)
        curve, pt = on_some_curve(p)
        doubled = ec.double(curve, pt)
        multiple = ec.scalar_mul(curve, rng.randrange(0, 64), pt)
        mixed = ec.add(curve, doubled, multiple)
        for value in (doubled, multiple, mixed):
            checks += 1
            failures += 0 if ec.on_curve(curve, value) else 1

    # x-only doubling agrees with the full tangent formula
    for _ in range(2500):
        p = rng.choice(primes)
        curve, pt = on_some_curve(p)
        full = ec.double(curve, pt)
        x_only = ec.double_x_only(curve, pt.x)
        checks += 1
        ok = (x_only is None) == full.is_infinity and (
            full.is_infinity or x_only == full.x
        )
        failures += 0 if ok else 1

    # scalar_mul respects oracle orders computed by repeated addition
    small = [p for p in primes if p < 300]
    for _ in range(1000):
        p = rng.choice(small)
        m = rng.randrange(1, p)
        points = ec.enumerate_points(p, m)
        pt = rng.choice(points)
        order = ec.point_order(p, m, pt)
        checks += 1
        failures += 0 if ec.scalar_mul(ec.Curve(p, m), order, pt).is_infinity else 1
        if not pt.is_infinity:
            checks += 1
            failures += 0 if not ec.scalar_mul(ec.Curve(p, m), order // 2, pt).is_infinity else 1

    # chord law is commutative and associative on enumerated points
    while checks < 10_000:
        p = rng.choice(small)
        m = rng.randrange(1, p)
        curve = ec.Curve(p, m)
        points = ec.enumerate_points(p, m)
        a, b, c = (rng.choice(points) for _ in range(3))
        checks += 2
        failures += 0 if ec.add(curve, a, b) == ec.add(curve, b, a) else 1
        lhs = ec.add(curve, ec.add(curve, a, b), c)
        rhs = ec.add(curve, a, ec.add(curve, b, c))
        failures += 0 if lhs == rhs else 1

    assert checks >= 10_000
    assert failures == 0
    _report(9, f"{checks} randomized curve-law checks, zero failures")
