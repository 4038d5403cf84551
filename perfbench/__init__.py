"""End-to-end, layer-attributed benchmark of the NetKernel datapath.

Run it with ``python3 perfbench/run.py`` (see ``run.py``); the workloads
are in ``workloads.py``, the metric definitions in ``harness.py`` and the
layer tracer in ``tracer.py``.
"""
