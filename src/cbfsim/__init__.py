"""Omnidirectional broadcasting over sub-array hybrid beamforming.

The toolkit synthesizes complementary beam sets whose composite radiation is
flat over angle, transmits Alamouti-precoded QPSK through angle-dependent
channels, and runs seeded Monte Carlo BER comparisons between complementary
beamforming, random beamforming, and a single-antenna benchmark.
"""

__version__ = "0.1.0"

from .arrays import AngleGrid, ArrayGeometry
from .beams import (ComplementaryBeamSet, SearchCapacityError, find_complementary_set,
                    golay_construct, phase_levels)
from .channel import (awgn_qpsk_ber, noise_variance, qpsk_demodulate, qpsk_modulate,
                      rayleigh_qpsk_ber)

_LAZY = {"simulate", "BerCurve", "BerPoint", "SchemeConfig", "SimConfig", "run_ber",
         "transmit_cbf", "transmit_rbf", "transmit_single"}
__all__ = sorted(_LAZY.union(name for name in dir() if not name.startswith("_")))


def __getattr__(name):  # PEP 562: simulate and its exports compile on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    simulate = import_module(".simulate", __name__)    # binds cbfsim.simulate
    globals().update((n, getattr(simulate, n)) for n in _LAZY - {"simulate"})
    return globals()[name]
