"""Check that the benchmark's data files keep their bytes.

    python tests/check_bench_digests.py            # compare with the table
    python tests/check_bench_digests.py --update   # rewrite the table

Every command line of the workloads in ``perfbench/bench_workloads.py`` runs
at seeds 5 and 9 through ``cbfsim.cli.main`` in a temporary directory, and
the SHA-256 of each data file it writes (``.ber.csv``, ``.beams.json``,
``.pattern.csv``) is compared with ``bench_digests.json`` beside this
script.  The lines are read from that module, never copied, so they and the
table cannot drift apart.  Exit status 0 means every digest matched, 1 that
one differed or was missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE = HERE / "bench_digests.json"
SEEDS = (5, 9)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bench_workloads import DATA_SUFFIXES, WORKLOADS  # noqa: E402

from cbfsim.cli import main  # noqa: E402


def digests() -> dict[str, str]:
    """``seed/workload/name+suffix`` -> SHA-256 of that data file."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload, lines in WORKLOADS.items():
                for inv in lines(seed):
                    base = Path(tmp, str(seed), workload, inv.name)
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = main(inv.argv_with_out(base))
                    if status != 0:
                        raise SystemExit(f"{' '.join(inv.argv)} exited {status}")
                    for suffix in DATA_SUFFIXES[inv.command]:
                        data = base.with_name(base.name + suffix).read_bytes()
                        key = f"{seed}/{workload}/{inv.name}{suffix}"
                        out[key] = hashlib.sha256(data).hexdigest()
    return out


def main_check(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the table instead of comparing with it")
    args = parser.parse_args(argv)
    found = digests()
    if args.update:
        TABLE.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(found)} digests to {TABLE.name}")
        return 0
    table = json.loads(TABLE.read_text())
    keys = table.keys() | found.keys()
    moved = sorted(key for key in keys if table.get(key) != found.get(key))
    for key in moved:
        print(f"{key}: table {table.get(key)}, now {found.get(key)}")
    print(f"{len(keys) - len(moved)} of {len(keys)} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_check())
