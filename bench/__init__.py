"""The repository benchmark: APS on the simulator (wide and narrow
chips), a warm-cache fabric sweep and open-loop served jobs.

Run ``python -m bench`` from the root of a checkout; ``bench/README.md``
describes the workloads, the metric catalog (``BENCHMARK.json``) and
how to trace and compare runs.
"""
