"""Benchmark of the bitcol CLI flow; run it with `python3 perfbench/run.py`."""
