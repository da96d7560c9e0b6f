"""Print the ``tracemalloc`` peak of one full BER batch for each scheme x
channel: the second 200,000-bit batch of a fresh process, whose first batch
has already loaded what a batch loads on first use.  These peaks repeat to
the byte across processes, so a memory change can be read from them where
the benchmark's ``peak_rss_mb`` moves with the host.

    python tests/batch_peaks.py                 # all six, each in a fresh process
    python tests/batch_peaks.py cbf rayleigh    # one, in this process

The batches are those of an 8-element array (two sub-arrays and the Golay
pair for cbf) at 0.3 rad and 4 dB Eb/N0, seed 0.  Exit status 0 means every
batch ran; no number is checked.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from cbfsim import AngleGrid, ArrayGeometry, find_complementary_set  # noqa: E402
from cbfsim import simulate  # noqa: E402

SCHEMES = ("cbf", "rbf", "single")
CHANNELS = ("awgn", "rayleigh")


def scheme_config(kind: str) -> simulate.SchemeConfig:
    if kind == "cbf":
        beams = find_complementary_set(ArrayGeometry(8, 2), 2, AngleGrid.uniform_theta(512),
                                       "golay")
        return simulate.SchemeConfig("cbf", beams.geometry, beams)
    return simulate.SchemeConfig(kind, ArrayGeometry(8 if kind == "rbf" else 1, 1))


def second_batch_peak(kind: str, channel: str) -> int:
    """The traced peak of batch 1 of a two-batch point, after batch 0 ran."""
    config = simulate.SimConfig(scheme_config(kind), channel, (0.3,), (4.0,),
                                min_bits=2 * simulate.BATCH_BITS,
                                max_bits=2 * simulate.BATCH_BITS)
    simulate._run_batch(config, 0, 0, 0)
    tracemalloc.start()
    try:
        simulate._run_batch(config, 0, 0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    if argv:
        kind, channel = argv
        print(f"{kind}/{channel} {second_batch_peak(kind, channel):,} B")
        return 0
    for kind in SCHEMES:
        for channel in CHANNELS:
            subprocess.run([sys.executable, __file__, kind, channel], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
