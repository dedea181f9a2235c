"""Tier-1 tests; a package so that `tests.reference` cannot shadow
perfbench's own `reference` module when both suites run in one process."""
