"""Comparison methods the paper evaluates against."""

from .amplitude import AmplitudeMethod
from .rss import rss_breathing_bpm, rss_series_db

__all__ = [
    "AmplitudeMethod",
    "rss_breathing_bpm",
    "rss_series_db",
]
