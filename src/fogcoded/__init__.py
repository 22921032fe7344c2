"""Coded caching with delayed requests: simulator and load analytics."""
