"""Workloads of the cbfsim benchmark and the checks on their outputs.

A workload is a fixed list of ``cbfsim`` command lines.  The benchmark feeds
its workload seed to every ``--seed`` and runs the lines in order through
``cbfsim.cli.main``.  No line passes ``--workers``: the program's own default
is what gets measured.

After every invocation the outputs are checked.  A failed check is reported
and counted against the invocation; it never stops the run.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

from cbfsim.beams import ComplementaryBeamSet
from cbfsim.channel import awgn_qpsk_ber, rayleigh_qpsk_ber

# Output files whose bytes must repeat exactly across reruns.  Manifests are
# left out: they carry a creation timestamp.
DATA_SUFFIXES = {
    "ber": (".ber.csv",),
    "search": (".beams.json", ".pattern.csv"),
}

# Closed-form references and how a point is compared against them.
_ORACLES = {
    # cbf and single must match the single-antenna curve within 3 ci95.
    "awgn": lambda ebn0, ber, ci: abs(ber - awgn_qpsk_ber(ebn0)) <= 3 * ci,
    "rayleigh": lambda ebn0, ber, ci: abs(ber - rayleigh_qpsk_ber(ebn0)) <= 3 * ci,
    # rbf is only isotropic on average, so in AWGN it is strictly worse.
    "worse_than_awgn": lambda ebn0, ber, ci: ber - ci > awgn_qpsk_ber(ebn0),
}

_SIGMA_RE = re.compile(r"^sigma_g2=(\S+)$", re.MULTILINE)


@dataclass(frozen=True)
class Invocation:
    """One command line plus what its outputs must satisfy.

    ``name`` is the output base name inside the run directory.  For ``ber``
    lines, ``points`` is the lattice size, ``bit_range`` the stopping rule's
    [min_bits, max_bits] and ``oracle`` a key of ``_ORACLES`` (or None).  For
    ``search`` lines, ``candidates`` is the exact candidate count (None when
    only a positive count up to ``--budget`` is promised) and
    ``max_variance`` a bound on the achieved composite variance.
    """

    name: str
    argv: tuple[str, ...]
    points: int = 0
    bit_range: tuple[int, int] = (0, 0)
    oracle: str | None = None
    candidates: int | None = None
    max_variance: float | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def argv_with_out(self, base: Path) -> list[str]:
        return [*self.argv, "--out", str(base)]


def _ber(name, scheme, channel, snr, angles, seed, points, bit_range,
         oracle, *extra):
    argv = ("ber", "--scheme", scheme, "--channel", channel, "--snr-db", snr,
            "--angles", angles, *extra, "--seed", str(seed))
    return Invocation(name, argv, points=points, bit_range=bit_range,
                      oracle=oracle)


def _point(name, scheme, channel, snr, bits, seed, oracle):
    n = str(bits)
    return _ber(name, scheme, channel, snr, "0", seed, 1, (bits, bits), oracle,
                "--min-bits", n, "--max-bits", n, "--target-errors", "0")


def ber_lattice(seed: int) -> list[Invocation]:
    """The README campaigns: many lattice points of unequal size, which stop
    at min_bits, at target_errors or at max_bits."""
    return [
        _ber("cbf_awgn", "cbf", "awgn", "0:1:10", "0,30,60", seed, 33,
             (1_000_000, 10_000_000), "awgn", "--min-bits", "1000000"),
        _ber("cbf_rayleigh", "cbf", "rayleigh", "0:5:20", "0,30,60", seed, 15,
             (1_000_000, 10_000_000), "rayleigh", "--min-bits", "1000000"),
        # README line as written: the default min_bits (100k, max 10x).
        _ber("single_rayleigh", "single", "rayleigh", "0:5:20", "0", seed, 5,
             (100_000, 1_000_000), "rayleigh"),
    ]


def ber_point(seed: int) -> list[Invocation]:
    """One fixed-size lattice point per line: batch-bound, with no
    point-level parallelism to exploit."""
    return [
        _point("rbf_awgn", "rbf", "awgn", "4", 12_000_000, seed,
               "worse_than_awgn"),
        _point("rbf_rayleigh", "rbf", "rayleigh", "10", 8_000_000, seed, None),
        _point("single_awgn", "single", "awgn", "4", 8_000_000, seed, "awgn"),
    ]


def search(seed: int) -> list[Invocation]:
    """Three ways through beams/arrays: a vectorised pair table, a Python
    loop over triples, and a cached hill climb; plus the Golay construction.
    No channel, stbc or simulate code runs here."""
    return [
        Invocation("pairs", ("search", "--elements", "20", "--subarrays", "2",
                             "--accuracy", "2", "--method", "exhaustive"),
                   candidates=2 ** 18),
        Invocation("triples", ("search", "--elements", "21", "--subarrays", "3",
                               "--accuracy", "2", "--method", "exhaustive"),
                   candidates=2 ** 18),
        Invocation("stochastic", ("search", "--elements", "32", "--subarrays",
                                  "2", "--accuracy", "4", "--method",
                                  "stochastic", "--budget", "100000",
                                  "--seed", str(seed))),
        Invocation("golay", ("search", "--elements", "16", "--subarrays", "2",
                             "--method", "golay"),
                   candidates=1, max_variance=1e-10),
    ]


WORKLOADS = {"ber_lattice": ber_lattice, "ber_point": ber_point,
             "search": search}


def read_outputs(inv: Invocation, base: Path) -> dict[str, bytes]:
    """Bytes of the invocation's data files; a missing file maps to b""."""
    out = {}
    for suffix in DATA_SUFFIXES[inv.command]:
        path = base.with_name(base.name + suffix)
        out[suffix] = path.read_bytes() if path.is_file() else b""
    return out


@dataclass
class Outcome:
    """What one checked invocation produced: its problems and its work."""

    problems: list[str]
    bits: int = 0
    candidates: int = 0


def check(inv: Invocation, outputs: dict[str, bytes], stdout: str,
          first: dict[str, bytes] | None) -> Outcome:
    """Check one invocation's outputs.  ``first`` holds the bytes the same
    invocation wrote on the run's first repetition (None on that one)."""
    problems = []
    for suffix, data in outputs.items():
        if not data:
            problems.append(f"{suffix} missing")
        elif first is not None and data != first[suffix]:
            problems.append(f"{suffix} differs from the first repetition")
    if any(not data for data in outputs.values()):
        return Outcome(problems)
    try:
        if inv.command == "ber":
            outcome = _check_ber(inv, outputs[".ber.csv"].decode("utf-8"))
        else:
            outcome = _check_search(inv, outputs, stdout)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return Outcome(problems + [f"unreadable output: {exc!r}"])
    outcome.problems[:0] = problems
    return outcome


def _check_ber(inv: Invocation, text: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != inv.points:
        problems.append(f"{len(rows)} points, expected {inv.points}")
    lo, hi = inv.bit_range
    total = 0
    for row in rows:
        ebn0 = float(row["ebn0_db"])
        bits, errors = int(row["bits"]), int(row["errors"])
        ber, ci95 = float(row["ber"]), float(row["ci95"])
        where = f"angle {row['angle_deg']} Eb/N0 {row['ebn0_db']}"
        total += bits
        if not lo <= bits <= hi:
            problems.append(f"{where}: {bits} bits outside [{lo}, {hi}]")
        if abs(ber - errors / bits) > 1e-8 * max(ber, 1e-300):
            problems.append(f"{where}: ber {ber} != errors/bits")
        if inv.oracle and not _ORACLES[inv.oracle](ebn0, ber, ci95):
            problems.append(f"{where}: ber {ber} +- {ci95} fails the "
                            f"{inv.oracle} oracle")
    return Outcome(problems, bits=total)


def _check_search(inv: Invocation, outputs: dict[str, bytes],
                  stdout: str) -> Outcome:
    problems = []
    doc = json.loads(outputs[".beams.json"])
    # Reloading recomputes the composite variance from the stored weights.
    beams = ComplementaryBeamSet.from_json_dict(doc)
    candidates = beams.meta.candidates
    printed = _SIGMA_RE.findall(stdout)
    if printed != [f"{beams.variance:.9g}"]:
        problems.append(f"stdout sigma_g2 {printed} != {beams.variance:.9g}")
    if inv.candidates is not None and candidates != inv.candidates:
        problems.append(f"{candidates} candidates, expected {inv.candidates}")
    if inv.candidates is None:
        budget = int(inv.argv[inv.argv.index("--budget") + 1])
        if not 0 < candidates <= budget:
            problems.append(f"{candidates} candidates outside (0, {budget}]")
    if inv.max_variance is not None and not beams.variance <= inv.max_variance:
        problems.append(f"variance {beams.variance} > {inv.max_variance}")
    rows = outputs[".pattern.csv"].decode("utf-8").count("\n") - 1
    if rows != len(beams.grid):
        problems.append(f"pattern has {rows} rows for {len(beams.grid)} "
                        "grid points")
    return Outcome(problems, candidates=candidates)
