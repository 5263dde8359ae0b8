"""Shared utilities: table formatting for bench output."""

from repro.utils.tables import format_table

__all__ = ["format_table"]
