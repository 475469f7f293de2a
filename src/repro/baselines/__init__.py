"""Comparison methods the paper evaluates against."""

from .amplitude import AmplitudeMethod
from .rss import RSSMethod, rss_series_db

__all__ = [
    "AmplitudeMethod",
    "RSSMethod",
    "rss_series_db",
]
