"""Secret-key-rate toolkit for single-photon and weak-coherent-pulse QKD.

Computes, optimises and simulates secure key rates: asymptotic rate
limits and advantage boundaries in the (mean photon number, g2) plane,
finite-key key lengths with concentration-bound parameter estimation,
a decoy-state comparator, genetic-algorithm parameter tuning, and
Monte Carlo validation of the analytic pipeline.
"""

from .photon_source import (
    NonPhysicalSource,
    PhotonNumberDistribution,
    SourceKind,
    SourceSpec,
    UndefinedG2,
    attenuate,
    moments,
    sps_distribution,
    wcp_distribution,
)
from .channel import (
    ChannelDetectorModel,
    DetectionStats,
    RateTooHigh,
    dark_count_prob,
    detection_stats,
    link_transmittance,
)
from .asymptotic import (
    BoundaryCurve,
    EmptyCurve,
    advantage_boundary,
    boundary_g2,
    boundary_min_mean,
    eta_threshold,
    sps_asymptotic_rate,
    sps_rate_fixed_mean,
    wcp_asymptotic_rate,
)
from .finite_key import (
    CompareReport,
    DecoyInfeasible,
    DomainError,
    InsufficientBlock,
    KeyReport,
    NoCrossover,
    ProtocolConfig,
    SecurityParams,
    TallySet,
    WcpIntensities,
    binary_entropy,
    chernoff_bound,
    compare,
    expected_tallies,
    finite_boundary,
    optimized_sps_rate,
    optimized_wcp_rate,
    sps_expected_rate,
    sps_key_length,
    sweep_rates,
    wcp_asymptotic_practical_rate,
    wcp_finite_key_rate,
)

__version__ = "0.1.0"
