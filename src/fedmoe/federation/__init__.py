"""Federated round protocol: normalization, coordination, personalization."""
