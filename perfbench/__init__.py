"""The repository's benchmark (see ``perfbench/README.md``); run ``perfbench/run.py``."""
