"""Deterministic federated-learning simulator with cosine-guided parameter
packaging, dual-weight mask aggregation, FedAvg/FedProx/magnitude Top-k
baselines, bit-exact traffic accounting and reproducible Non-IID
partitioning.
"""

__version__ = "0.1.0"
