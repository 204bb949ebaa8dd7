"""End-to-end and per-layer benchmark of the serving stack (see ``run.py``)."""
