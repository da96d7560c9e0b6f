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
from .simulate import (BerCurve, BerPoint, SchemeConfig, SimConfig, run_ber,
                       transmit_cbf, transmit_rbf, transmit_single)

__all__ = [name for name in dir() if not name.startswith("_")]
