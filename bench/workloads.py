"""The benchmark's three workloads: seeded inputs, the operation, the oracle.

Each workload object yields fresh inputs from its own `random.Random(seed)`,
runs one operation through a public pentacheck entry point, and judges the
output against an answer known independently of the code under test:

verify-all          one `python -m pentacheck.cli verify all --report PATH`
                    process; the answer is the pinned list of 27 check ids,
                    all `pass`, exit code 0, and report bytes equal to those
                    of the run's first operation.
section-sweep       one `hyperplane_section_milnor(zx - y^2 + x^3, a, b)`;
                    the section's quadratic part a*x^2 + b*x*y - y^2 is
                    degenerate exactly when b^2 + 4a = 0, where the section
                    is a cusp (mu = 2); elsewhere it is a node (mu = 1).
deformation-family  one member (c, k): the singular locus of
                    z(zx - y^2 + c*x^k) is V(z, y^2 - c*x^k), the polar curve
                    of z(zx - y^2) + c*t*z*x^k is empty (both derived by hand
                    from the partials), and four gradient limits of the
                    paper's F along tangency curves equal the closed form
                    (-5a1 : -2g : (2a3 + b3 - g^2)/a1 : 1).

Every operation gets an input never used before in the run, so memoising
identical calls cannot look like a gain.  The module imports pentacheck, so
import it only after `src` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from fractions import Fraction

from pentacheck import cli, singularity
from pentacheck.groebner import Ideal
from pentacheck.multipoly import MultiPoly, parse_poly

# The 27 registered checks at the time the benchmark was written.  A missing
# id, an extra id or a status other than "pass" fails the operation.
CHECK_IDS = (
    "arrangement.aprime.line-deficiencies",
    "arrangement.aprime.rigidity",
    "arrangement.aprime.weights",
    "arrangement.c.weights",
    "arrangement.cprime.weights",
    "arrangement.cross-ratio",
    "counterexample.cone",
    "counterexample.deformation",
    "counterexample.discriminant",
    "counterexample.discriminant-multiplicity",
    "counterexample.dual-cone",
    "counterexample.exceptional-tangents",
    "counterexample.gradient-limits",
    "counterexample.hyperplane-sections",
    "counterexample.lojasiewicz",
    "counterexample.milnor",
    "counterexample.polar-curve",
    "counterexample.scaling",
    "counterexample.singular-locus",
    "counterexample.tangent-cone",
    "field.conjugates",
    "field.galois-group",
    "field.minimal-polynomial",
    "galois.aprime.noninvariant",
    "galois.cprime.rational",
    "galois.rational10.line-permutation",
    "galois.rational10.rational",
)

XYZ = ("x", "y", "z")
XYZT = ("x", "y", "z", "t")
# A verify-all process that runs this long has hung; it is killed and fails.
CLI_TIMEOUT_S = 120


class Unused:
    """Inputs used so far, remembered by hash in a bitmap of fixed size.

    The benchmark's own memory then does not grow with the number of
    operations, which would blur `peak_rss_mb`.  A hash collision only makes
    an unused input look used, and it is drawn again.  Numeric hashes do not
    depend on PYTHONHASHSEED, so a seed gives the same inputs in every process.
    """

    BITS = 1 << 23

    def __init__(self):
        self.bits = bytearray(self.BITS // 8)

    def take(self, value) -> bool:
        """Mark value as used; False if it (or a colliding value) already was."""
        h = hash(value) & (self.BITS - 1)
        byte, mask = h >> 3, 1 << (h & 7)
        if self.bits[byte] & mask:
            return False
        self.bits[byte] |= mask
        return True


def _rational(rng: random.Random, height: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if q or not nonzero:
            return q


class Workload:
    """Defaults for a workload whose operations run in this process."""

    @staticmethod
    def check(output, expected) -> bool:
        return output == expected

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class VerifyAll(Workload):
    """Cold `pentacheck verify all`, one fresh process per operation.

    The command takes no input but the report path, so the seed only names
    the report files.  `in_process=True` calls `cli.main` instead, which the
    traced run needs to see the checks' spans.
    """

    name = "verify-all"
    traced_batch = 1

    def __init__(self, seed: int, workdir: str, src: str, in_process: bool = False):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.in_process = in_process
        self.reference = None  # report bytes of the run's first correct operation
        self.unused = Unused()
        self.rss_kb = []

    def next_input(self):
        while True:
            token = self.rng.getrandbits(64)
            if self.unused.take(token):
                break
        report = os.path.join(self.workdir, f"report-{token:016x}.json")
        return ["verify", "all", "--report", report]

    def expected(self, argv):
        return frozenset(CHECK_IDS), self.reference

    @staticmethod
    def corrupt(expected):
        ids, reference = expected
        return (ids - {CHECK_IDS[0]}) | {"field.no-such-check"}, reference

    def run(self, argv):
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
        else:
            code = self._run_process(argv)
        report = argv[-1]
        try:
            with open(report, "rb") as fh:
                data = fh.read()
        finally:
            if os.path.exists(report):
                os.remove(report)
        return code, data

    def _run_process(self, argv) -> int:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pentacheck.cli", *argv],
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        return proc.returncode

    def check(self, output, expected) -> bool:
        code, data = output
        ids, reference = expected
        if code != 0:
            return False
        if reference is not None and data != reference:
            return False
        entries = json.loads(data)["entries"]
        got = [e["check_id"] for e in entries]
        ok = len(got) == len(ids) and set(got) == ids
        ok = ok and all(e["status"] == "pass" for e in entries)
        if ok and self.reference is None:
            self.reference = data
        return ok

    def peak_rss_kb(self) -> int:
        if self.rss_kb:
            return sorted(self.rss_kb)[len(self.rss_kb) // 2]
        return super().peak_rss_kb()


class SectionSweep(Workload):
    """Milnor numbers of plane sections z = a*x + b*y of zx - y^2 + x^3."""

    name = "section-sweep"
    traced_batch = 200
    height = 99

    def __init__(self, seed: int, **_):
        self.rng = random.Random(seed)
        self.f = parse_poly("z*x - y^2 + x^3", XYZ)
        self.unused = Unused()
        self.count = 0

    def next_input(self):
        on_parabola = self.count % 4 == 0  # a quarter of the points
        self.count += 1
        while True:
            b = _rational(self.rng, self.height)
            if on_parabola:
                a = -b * b / 4
            else:
                a = _rational(self.rng, self.height)
                if b * b + 4 * a == 0:
                    continue
            if self.unused.take((a, b)):
                return a, b

    @staticmethod
    def expected(ab):
        a, b = ab
        return 2 if b * b + 4 * a == 0 else 1

    @staticmethod
    def corrupt(expected):
        return 3 - expected

    def run(self, ab):
        return singularity.hyperplane_section_milnor(self.f, *ab)


def limit_closed_form(a1, a2, a3, b3, g) -> tuple:
    """(-5a1 : -2g : (2a3 + b3 - g^2)/a1 : 1) scaled so the first entry is 1."""
    lead = -5 * a1
    return (Fraction(1), -2 * g / lead, (2 * a3 + b3 - g * g) / a1 / lead, 1 / lead)


class DeformationFamily(Workload):
    """Singular locus, polar curve and gradient limits of one seeded member."""

    name = "deformation-family"
    traced_batch = 8
    height = 30
    limits_per_member = 4
    truncation = 64

    def __init__(self, seed: int, **_):
        self.rng = random.Random(seed)
        self.F = singularity.cusp_family()
        self.unused = Unused()

    def _fresh(self, draw):
        while True:
            value = draw()
            if self.unused.take(value):
                return value

    def next_input(self):
        rng = self.rng
        c, k = self._fresh(
            lambda: (_rational(rng, self.height, nonzero=True), rng.randint(3, 6))
        )
        curves = [
            self._fresh(
                lambda: (
                    _rational(rng, 9, nonzero=True),
                    *(_rational(rng, 9) for _ in range(4)),
                )
            )
            for _ in range(self.limits_per_member)
        ]
        x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
        surface = z * (z * x - y * y + x**k * c)
        locus = Ideal([z, y * y - x**k * c])
        X, Y, Z, T = (MultiPoly.var(XYZT, v) for v in XYZT)
        family = Z * (Z * X - Y * Y) + T * Z * X**k * c
        return surface, locus, family, curves

    @staticmethod
    def expected(member):
        curves = member[3]
        return True, True, [limit_closed_form(*tp) for tp in curves]

    @staticmethod
    def corrupt(expected):
        locus, polar, limits = expected
        first = limits[0]
        return locus, polar, [first[:-1] + (first[-1] + 1,)] + limits[1:]

    def run(self, member):
        surface, locus, family, curves = member
        locus_ok = singularity.singular_locus_equals(surface, locus)
        polar_empty = bool(singularity.polar_curve_empty(family))
        limits = [
            tuple(
                singularity.gradient_limit(
                    self.F, singularity.tangency_curve(*tp, truncation=self.truncation)
                ).eta
            )
            for tp in curves
        ]
        return locus_ok, polar_empty, limits


WORKLOADS = {w.name: w for w in (VerifyAll, SectionSweep, DeformationFamily)}
