"""End-to-end and per-layer benchmark of the pfol package; entry point ``perfbench/run.py``."""
