"""End-to-end and per-layer benchmark for momentspot; run it with perfbench/run.py."""
