"""Secret-key-rate toolkit for single-photon and weak-coherent-pulse QKD.

Computes, optimises and simulates secure key rates: asymptotic rate
limits and advantage boundaries in the (mean photon number, g2) plane,
finite-key key lengths with concentration-bound parameter estimation,
a decoy-state comparator, genetic-algorithm parameter tuning, and
Monte Carlo validation of the analytic pipeline.

The API lives in the modules (see README, "Library layout"); importing
the package itself loads none of them.
"""

__version__ = "0.1.0"
