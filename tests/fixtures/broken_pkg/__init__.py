"""Deliberately broken package exercised by tests/test_contracts.py."""

from .a import accumulate

__all__ = ["phantom"]
