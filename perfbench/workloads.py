"""The four benchmark workloads and the golden values every run checks.

Each workload turns a seed into a list of op inputs, runs one op on one
input, and checks the op's result.  The program only ever sees the
generated n values.  Ops call the library through module attributes
(``primes.build_quotient_pi``, ``cli.run_sweep``, ...) so that a traced
run can swap those attributes for timing wrappers.

Inputs fall in a few narrow log-size strata that a run visits in turn,
each n distinct and placed by the seed.  Op latency grows with n, so in
a run spread evenly over a wide range only the one or two ops nearest
the middle size set the median latency, and the machine's state during
those few ops moved it by a quarter from run to run.  With strata of
equal count, the median and the 90th percentile each fall inside one
stratum, among a third of all the run's ops, spread over the whole run.
"""

from __future__ import annotations

import csv
import io
import math
import random

import semipi.cli as cli
from semipi import identity, primes, semiprimes

#: Inputs generated per run; a run stops at its deadline long before.
MAX_OPS = 2000

#: Methods every sweep op asks the CLI for.
SWEEP_METHODS = ("eq1", "eq3_grouped")

#: Exponents k whose pi(10^k) and pi2(10^k) every run pins.
GOLDEN_POWERS = range(1, 12)

#: pi2(10^k), the number of semiprimes <= 10^k (OEIS A072000).
PI2_GOLDEN = {
    1: 4,
    2: 34,
    3: 299,
    4: 2625,
    5: 23378,
    6: 210035,
    7: 1904324,
    8: 17427258,
    9: 160788536,
    10: 1493776443,
    11: 13959990342,
}

#: pi(10^k), the number of primes <= 10^k (OEIS A006880).
PI_GOLDEN = {
    1: 4,
    2: 25,
    3: 168,
    4: 1229,
    5: 9592,
    6: 78498,
    7: 664579,
    8: 5761455,
    9: 50847534,
    10: 455052511,
    11: 4118054813,
}

#: Log-size strata of every workload's inputs, visited in turn.  With
#: three, a run's p50 is the median of the middle stratum and its p90
#: the 70th percentile of the top one.
STRATA = 3

#: Half-width of a stratum, as a share of the range in log scale.
JITTER = 0.01

_GOLDEN_RATIO_FRAC = (math.sqrt(5) - 1) / 2


def stratified_points(seed: int, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi), in STRATA log-size strata, visited in turn.

    Input i lies in stratum j = i % STRATA, within JITTER of log-position
    (j + 1/2) / STRATA of the range.  Its offset runs along a Weyl
    sequence from a start the seed picks, so every stratum's inputs
    cover it evenly and differ from each other and between seeds.
    """
    u0 = random.Random(seed).random()
    ratio = hi / lo
    points = []
    for i in range(count):
        w = (u0 + (i // STRATA) * _GOLDEN_RATIO_FRAC) % 1.0
        u = (i % STRATA + 0.5) / STRATA + JITTER * (2 * w - 1)
        points.append(min(hi - 1, int(lo * ratio**u)))
    return points


def expect(label: str, got, want) -> list[str]:
    """[] when got == want, else one line describing the mismatch."""
    return [] if got == want else [f"{label}: got {got}, want {want}"]


def agreement(label: str, counts: dict[str, int]) -> list[str]:
    """[] when every method gave the same count, else one line naming them."""
    if len(set(counts.values())) == 1:
        return []
    detail = ", ".join(f"{m}={c}" for m, c in counts.items())
    return [f"{label}: methods disagree: {detail}"]


def reference_count(n: int) -> int:
    """pi2(n) by a direct build_quotient_pi call, outside the CLI."""
    return semiprimes.count_semiprimes_eq1(n, primes.build_quotient_pi(n)).count


def golden_mismatches() -> list[str]:
    """Check pi(10^k) and pi2(10^k) by eq1 and eq3_grouped against OEIS."""
    problems = []
    for k in GOLDEN_POWERS:
        n = 10**k
        qpi = primes.build_quotient_pi(n)
        problems += expect(f"pi(10^{k})", qpi.pi(n), PI_GOLDEN[k])
        problems += expect(
            f"pi2(10^{k}) eq1",
            semiprimes.count_semiprimes_eq1(n, qpi).count,
            PI2_GOLDEN[k],
        )
        problems += expect(
            f"pi2(10^{k}) eq3_grouped",
            semiprimes.count_semiprimes_eq3(n, qpi, "grouped").count,
            PI2_GOLDEN[k],
        )
    return problems


class Workload:
    """Defaults for ops that verify one n and write no output."""

    name: str
    warmup_input: int

    def n_count(self, x) -> int:
        """How many n one op on input x verifies."""
        return 1

    def output_bytes(self, result) -> int:
        """Bytes of CLI output one op wrote."""
        return 0


class LargeN(Workload):
    """Verify one large n: table, eq1, eq3_grouped, both identity sides."""

    name = "large_n"

    def __init__(self, lo: int = 10**10, hi: int = 10**11):
        self.lo, self.hi = lo, hi
        self.warmup_input = 10**6

    def inputs(self, seed: int) -> list[int]:
        return stratified_points(seed, self.lo, self.hi, MAX_OPS)

    def op(self, n: int) -> dict:
        qpi = primes.build_quotient_pi(n)
        _, _, lhs = identity.identity_lhs(n, qpi)
        rhs = identity.identity_rhs(n, primes.build_prime_table(primes.isqrt(n)))
        return {
            "eq1": semiprimes.count_semiprimes_eq1(n, qpi).count,
            "eq3_grouped": semiprimes.count_semiprimes_eq3(n, qpi, "grouped").count,
            "residual": lhs - rhs,
        }

    def check(self, n: int, result: dict) -> list[str]:
        counts = {m: result[m] for m in ("eq1", "eq3_grouped")}
        return agreement(f"n={n}", counts) + expect(
            f"identity residual at n={n}", result["residual"], 0
        )


class Sweep(Workload):
    """One cli.run_sweep call over `width` contiguous n, csv into memory."""

    def __init__(self, name: str, lo: int, hi: int, width: int):
        self.name = name
        self.lo, self.hi, self.width = lo, hi, width
        self.warmup_input = lo

    def inputs(self, seed: int) -> list[int]:
        return stratified_points(seed, self.lo, self.hi - self.width + 1, MAX_OPS)

    def n_count(self, start: int) -> int:
        return self.width

    def output_bytes(self, result: tuple[int, str]) -> int:
        return len(result[1])

    def op(self, start: int) -> tuple[int, str]:
        out = io.StringIO()
        config = cli.SweepConfig(
            start=start,
            end=start + self.width - 1,
            stride=1,
            methods=SWEEP_METHODS,
            output_format="csv",
            parallelism=1,
        )
        code = cli.run_sweep(config, out)
        return code, out.getvalue()

    def check(self, start: int, result: tuple[int, str]) -> list[str]:
        code, text = result
        end = start + self.width - 1
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = expect("sweep exit code", code, cli.EXIT_OK)
        problems += expect(
            "sweep n column", [int(r["n"]) for r in rows], list(range(start, end + 1))
        )
        if problems:
            return problems
        for r in rows:
            problems += expect(f"agree column at n={r['n']}", r["agree"], "true")
            problems += agreement(f"n={r['n']}", {m: r[m] for m in SWEEP_METHODS})
        counts = [int(r["eq1"]) for r in rows]
        for n, a, b in zip(range(start + 1, end + 1), counts, counts[1:]):
            if b - a not in (0, 1):
                problems.append(f"pi2 steps by {b - a} at n={n}")
        problems += expect(f"sweep pi2({start})", counts[0], reference_count(start))
        problems += expect(f"sweep pi2({end})", counts[-1], reference_count(end))
        return problems


class CrossCheck(Workload):
    """Count one n by all four methods; all four must agree."""

    name = "crosscheck"

    def __init__(self, lo: int = 10**6, hi: int = 10**7 + 1):
        self.lo, self.hi = lo, hi
        self.warmup_input = 10**4

    def inputs(self, seed: int) -> list[int]:
        return stratified_points(seed, self.lo, self.hi, MAX_OPS)

    def op(self, n: int) -> dict:
        qpi = primes.build_quotient_pi(n)
        return {
            "eq1": semiprimes.count_semiprimes_eq1(n, qpi).count,
            "eq3_grouped": semiprimes.count_semiprimes_eq3(n, qpi, "grouped").count,
            "eq3_naive": semiprimes.count_semiprimes_eq3(n, qpi, "naive").count,
            "oracle": semiprimes.count_semiprimes_oracle(n).count,
        }

    def check(self, n: int, result: dict) -> list[str]:
        return agreement(f"n={n}", result)


WORKLOADS = {
    w.name: w
    for w in (
        LargeN(),
        Sweep("high_sweep", 10**8, 10**10, 6),
        Sweep("dense_sweep", 10**6, 10**7 + 1, 5000),
        CrossCheck(),
    )
}


def setup(name: str, seed: int) -> list[int]:
    """What a fresh process does before its first op: the inputs."""
    return WORKLOADS[name].inputs(seed)
