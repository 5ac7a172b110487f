"""Release benchmark for ``repro.release_synthetic_data``; see ``perfbench/run.py``."""
