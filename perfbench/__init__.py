"""Benchmark of the repro package: see README.md."""
