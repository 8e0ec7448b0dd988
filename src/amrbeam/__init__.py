"""Average multicast rate of finite-alphabet inputs under statistical-CSI
analog beamforming: evaluation, high-SNR asymptotics, and phase optimization."""

__version__ = "0.1.0"

from .amr import (
    SaturationGap,
    amr_coop,
    amr_noncoop,
    array_gain_coop,
    array_gain_noncoop,
    fit_gap_slope,
    mellin_mmse,
)
from .channel_info import (
    DirectInfo,
    InfoTable,
    build_table,
    mi_curve,
    mmse_curve,
)
from .channel_model import (
    ChannelEnsemble,
    MrcLaw,
    NulledUserError,
    PhaseVector,
    TruncationError,
    make_correlation,
    make_ensemble,
    min_snr_law,
    mrc_law,
    quadratic_forms,
    wrap_phase,
)
from .constellation import Constellation, make_custom, make_psk, make_qam
from .genetic_opt import GaConfig, GaResult, fitness, ga_optimize
from .manifold_opt import (
    CompositeSnrObjective,
    LogGainSumObjective,
    RmCgdResult,
    retract,
    riemannian_grad,
    rm_cgd,
)
from .mc_sim import McEstimate, mc_amr
