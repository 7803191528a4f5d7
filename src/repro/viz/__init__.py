"""Text rendering of figures and tables."""

from .text import bar, percent, render_table, seconds, series_row

__all__ = [
    "render_table",
    "bar",
    "percent",
    "seconds",
    "series_row",
]
