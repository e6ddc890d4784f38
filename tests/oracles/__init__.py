"""Test-only reference implementations that fast paths are checked against."""
