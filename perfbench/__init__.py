"""Benchmark of ccrisk; run it with ``python3 perfbench/run.py`` (see README.md)."""
