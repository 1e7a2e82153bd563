"""End-to-end, layer-attributed benchmark of the whole stack.

One command (``python -m benchmarks.e2e --seed N``) takes five workloads
from source text to verified values; see ``README.md`` beside this file.
"""
