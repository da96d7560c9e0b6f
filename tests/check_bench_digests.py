"""Check that the benchmark's data files keep their bytes and its searches
their work.

    python tests/check_bench_digests.py            # compare with the tables
    python tests/check_bench_digests.py --update   # rewrite the tables

Every command line of the workloads in ``perfbench/bench_workloads.py`` runs
at seeds 5 and 9 through ``cbfsim.cli.main`` in a temporary directory, and
the SHA-256 of each data file it writes (``.ber.csv``, ``.beams.json``,
``.pattern.csv``) is compared with ``bench_digests.json`` beside this
script.  The work of each ``search`` line is compared with
``bench_work.json``: member tables built (weight vectors passed to
``beams.subarray_gains``), steering bases (its calls), groups rescored
exactly (rows passed to the search's exact scorer) and ``_settle`` calls,
counted by wrappers on those module attributes.  The lines are read from
that module, never copied, so they and the tables cannot drift apart.  Exit
status 0 means every digest and count matched, 1 that one differed or was
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE = HERE / "bench_digests.json"
WORK_TABLE = HERE / "bench_work.json"
SEEDS = (5, 9)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bench_workloads import DATA_SUFFIXES, WORKLOADS  # noqa: E402

from cbfsim import beams, climb  # noqa: E402
from cbfsim.cli import main  # noqa: E402


def counting_work(tally: Counter) -> contextlib.ExitStack:
    """Wrappers on the module attributes the searches look their work up
    through, each call adding to ``tally``; the stack removes them."""
    gains, scorer, settle = beams.subarray_gains, beams._exact_scorer, beams._settle

    def counted_gains(w, *args):
        tally["bases"] += 1
        tally["tables"] += np.reshape(w, (len(w), -1)).shape[1]
        return gains(w, *args)

    def counted_scorer(*args):
        score = scorer(*args)

        def counted_score(groups):
            tally["rescored"] += len(groups)
            return score(groups)
        return counted_score

    def counted_settle(*args):
        tally["settles"] += 1
        return settle(*args)

    stack = contextlib.ExitStack()
    for module, name, wrapper in ((beams, "subarray_gains", counted_gains),
                                  (beams, "_exact_scorer", counted_scorer),
                                  (beams, "_settle", counted_settle),
                                  (climb, "_settle", counted_settle)):
        stack.enter_context(mock.patch.object(module, name, wrapper))
    return stack


def digests() -> tuple[dict[str, str], dict[str, dict[str, int]]]:
    """``seed/workload/name+suffix`` -> SHA-256 of that data file, and
    ``seed/search/name`` -> that search line's work counts."""
    out, work, tally = {}, {}, Counter()
    with tempfile.TemporaryDirectory() as tmp, counting_work(tally):
        for seed in SEEDS:
            for workload, lines in WORKLOADS.items():
                for inv in lines(seed):
                    base = Path(tmp, str(seed), workload, inv.name)
                    tally.clear()
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = main(inv.argv_with_out(base))
                    if status != 0:
                        raise SystemExit(f"{' '.join(inv.argv)} exited {status}")
                    if workload == "search":
                        work[f"{seed}/{workload}/{inv.name}"] = {
                            key: tally[key] for key in ("tables", "bases", "rescored",
                                                        "settles")}
                    for suffix in DATA_SUFFIXES[inv.command]:
                        data = base.with_name(base.name + suffix).read_bytes()
                        key = f"{seed}/{workload}/{inv.name}{suffix}"
                        out[key] = hashlib.sha256(data).hexdigest()
    return out, work


def compare(path: Path, found: dict, what: str) -> int:
    """Print each entry of found that differs from the table at path, and a
    summary; the number that differ."""
    table = json.loads(path.read_text())
    keys = table.keys() | found.keys()
    moved = sorted(key for key in keys if table.get(key) != found.get(key))
    for key in moved:
        print(f"{key}: table {table.get(key)}, now {found.get(key)}")
    print(f"{len(keys) - len(moved)} of {len(keys)} {what} match")
    return len(moved)


def main_check(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the tables instead of comparing with them")
    args = parser.parse_args(argv)
    found, work = digests()
    if args.update:
        for path, table in ((TABLE, found), (WORK_TABLE, work)):
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(table)} entries to {path.name}")
        return 0
    moved = compare(TABLE, found, "digests") + compare(WORK_TABLE, work, "work counts")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_check())
