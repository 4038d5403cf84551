"""Capacity search (``repro capacity``): the NDR/PDR binary search over
offered load in :mod:`repro.perf.capacity`.

Unlike ``repro.experiments``, which reproduces the paper's figures,
this package asks where one NSM's capacity saturates and how the
switch degrades past that knee.  How fast the simulator itself runs is
perfbench's question (``perfbench/``); cost is gated by the exact
per-op counts of ``tests/test_cost_ratchet.py``.
"""
