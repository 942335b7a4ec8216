"""Simulator for personalized federated multi-scenario multi-task recommendation.

Each simulated client trains a mixture-of-experts model with decoupled
expert weights on private data; a coordinating server runs rounds of
upload normalization, conflict-coordinated update composition, and
personalized aggregation over the declared shared-parameter sets.
"""

__version__ = "0.1.0"
