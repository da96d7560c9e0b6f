"""README's stop rule: a BER point's folded batches and its stop reason follow
from its CSV row and the manifest's config alone.  Every point of the
benchmark's three ``ber_lattice`` lines, at seeds 5 and 9 with 1 and 2
workers, is derived so and compared with what ``simulate._schedule`` folded,
seen by a wrapper around its ``submit`` callback."""

import csv
import json
import sys
from collections import defaultdict
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from cbfsim import simulate
from cbfsim.cli import main

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from bench_workloads import ber_lattice  # noqa: E402

REASONS = ("max_bits", "min_bits", "target_errors")     # README's order


def derive(row: dict, config: dict) -> tuple[int, str]:
    """A point's folded batches and stop reason by README's rule, from its
    CSV row and the manifest's config."""
    block = 2 * (config["rbf_block"] if config["scheme"] == "rbf" else 2)
    full = max(200_000 // block, 1) * block
    cap = (config["max_bits"] or 10 * config["min_bits"]) // block * block
    certain = min(-(-config["min_bits"] // full), -(-cap // full))
    bits = int(row["bits"])
    reason = ("max_bits" if bits == cap else
              "min_bits" if bits == certain * full else "target_errors")
    return -(-bits // full), reason


def observe(folds: list, config: simulate.SimConfig) -> tuple[int, int, str]:
    """A point's folded batches, errors and stop reason as its schedule ran:
    ``folds`` holds the (batch, errors) of each count asked for, in order."""
    full, cap = simulate._point_bits(config)
    most, target = -(-cap // full), config.target_errors
    assert [batch for batch, _ in folds] == list(range(len(folds)))   # batch order
    errors = list(accumulate(e for _, e in folds))
    # the point stopped at its first fold where the cap, or min_bits and the
    # target together, held
    held = [k == most or (k * full >= config.min_bits and errors[k - 1] >= target)
            for k in range(1, len(folds) + 1)]
    assert held.index(True) == len(folds) - 1
    f = len(folds)
    bound = {"max_bits": f == most,
             # the target was met, but min_bits kept the point to this batch
             "min_bits": errors[-1] >= target and (f - 1) * full < config.min_bits,
             # the target was met with this batch
             "target_errors": errors[-1] >= target and (f == 1 or errors[-2] < target)}
    return f, errors[-1], next(reason for reason in REASONS if bound[reason])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [5, 9])
def test_stop_reasons_follow_from_the_outputs(tmp_path, monkeypatch, seed, workers):
    schedule, seen = simulate._schedule, []

    def watched(config, procs, submit):
        folds = defaultdict(list)

        def submit_seen(ai, si, batch):
            count = submit(ai, si, batch)

            def folded():
                errors = count()
                folds[ai, si].append((batch, errors))
                return errors
            return folded
        points = schedule(config, procs, submit_seen)
        seen.append([observe(folds[key], config)
                     for key in np.ndindex(len(config.angles), len(config.snr_db))])
        return points

    monkeypatch.setattr(simulate, "_schedule", watched)
    reasons = set()
    for line in ber_lattice(seed):
        base = tmp_path / line.name
        assert main([*line.argv, "--workers", str(workers), "--out", str(base)]) == 0
        with open(f"{base}.ber.csv", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        config = json.loads(Path(f"{base}.manifest.json").read_text())["config"]
        observed = seen.pop()
        assert len(rows) == len(observed) == line.points
        for row, (batches, errors, reason) in zip(rows, observed):
            assert derive(row, config) == (batches, reason), row
            assert int(row["errors"]) == errors
            reasons.add(reason)
    assert reasons == set(REASONS)
