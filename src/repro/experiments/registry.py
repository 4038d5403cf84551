"""Registry mapping experiment ids to declared, validated runners.

``run_experiment("fig13")`` regenerates the corresponding paper table or
figure and returns an :class:`~repro.experiments.report.ExperimentResult`.
Each :class:`ExperimentEntry` *declares* its runner's keyword-parameter
names up front, so callers — the CLI, the control-plane job validator
(`repro.ctrl.jobs`), the examples — can reject an unknown parameter with
a clear error *before* dispatch instead of surfacing a ``TypeError``
deep inside a runner.  ``tests/test_experiments.py`` cross-checks every
declaration against the runner's real signature, so the two cannot
drift.

Ids are canonicalized: ``fig08`` and ``fig8`` name the same experiment
(zero-padded forms are what the ``benchmarks/`` file names and the
control-plane smoke use).
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional, Tuple

from repro.errors import JobValidationError
from repro.experiments.report import ExperimentResult


class ExperimentEntry:
    """One registry row: lazy runner + declared parameter interface.

    The entry is callable (``entry(**kwargs)`` validates then runs), so
    existing callers that treated REGISTRY values as bare runners keep
    working.  ``params`` is the declared tuple of keyword-parameter
    names the runner accepts; ``param_defaults()`` resolves their
    defaults from the live signature (cached, imports the module).
    """

    __slots__ = ("module", "fn", "params", "title", "_defaults")

    def __init__(self, module: str, fn: str = "run",
                 params: Tuple[str, ...] = (), title: str = ""):
        self.module = module
        self.fn = fn
        self.params = tuple(params)
        self.title = title
        self._defaults: Optional[Dict[str, Any]] = None

    def resolve(self):
        """Import the experiment module and return the runner."""
        import importlib

        mod = importlib.import_module(f"repro.experiments.{self.module}")
        return getattr(mod, self.fn)

    def param_defaults(self) -> Dict[str, Any]:
        """Declared parameter names -> default values (from the runner's
        signature; every declared parameter must have a default)."""
        if self._defaults is None:
            import inspect

            signature = inspect.signature(self.resolve())
            self._defaults = {
                name: parameter.default
                for name, parameter in signature.parameters.items()
                if parameter.default is not inspect.Parameter.empty
            }
        return dict(self._defaults)

    def validate_kwargs(self, kwargs: Dict[str, Any]) -> None:
        """Reject parameters the runner does not declare."""
        unknown = sorted(set(kwargs) - set(self.params))
        if unknown:
            allowed = ", ".join(self.params) if self.params else "(none)"
            raise JobValidationError(
                f"unknown parameter(s) {unknown} for experiment "
                f"{self.module}.{self.fn}; declared parameters: {allowed}")

    def __call__(self, **kwargs) -> ExperimentResult:
        self.validate_kwargs(kwargs)
        return self.resolve()(**kwargs)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready declaration (what GET /experiments serves)."""
        return {
            "module": self.module,
            "fn": self.fn,
            "title": self.title,
            "params": {name: default for name, default
                       in self.param_defaults().items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ExperimentEntry {self.module}.{self.fn} "
                f"params={self.params}>")


REGISTRY: Dict[str, ExperimentEntry] = {
    "fig7": ExperimentEntry(
        "fig07_trace", params=("minutes",),
        title="Traffic of three most-utilized AGs"),
    "fig8": ExperimentEntry(
        "fig08_multiplexing", "run_fig8",
        title="Per-core RPS under multiplexing"),
    "fig9": ExperimentEntry(
        "fig09_fairness", params=("duration",),
        title="VM-level fair bandwidth sharing"),
    "fig10": ExperimentEntry(
        "fig10_shm", params=("sizes",),
        title="Shared-memory NSM vs colocated TCP"),
    "fig11": ExperimentEntry(
        "fig11_nqe_switching", params=("batches",),
        title="CoreEngine NQE switching vs batch size"),
    "fig12": ExperimentEntry(
        "fig12_memcopy", params=("sizes",),
        title="Hugepage memory-copy throughput"),
    "fig13": ExperimentEntry(
        "fig13_single_send", title="Single-stream send throughput"),
    "fig14": ExperimentEntry(
        "fig14_single_recv", title="Single-stream receive throughput"),
    "fig15": ExperimentEntry(
        "fig15_multi_send", title="8-stream send throughput"),
    "fig16": ExperimentEntry(
        "fig16_multi_recv", title="8-stream receive throughput"),
    "fig17": ExperimentEntry(
        "fig17_short_conn", params=("sizes",),
        title="Short-connection RPS vs message size"),
    "fig18": ExperimentEntry(
        "fig18_send_scaling", title="Send scaling with vCPUs"),
    "fig19": ExperimentEntry(
        "fig19_recv_scaling", title="Receive scaling with vCPUs"),
    "fig20": ExperimentEntry(
        "fig20_rps_scaling", title="RPS scaling (kernel and mTCP NSMs)"),
    "fig21": ExperimentEntry(
        "fig21_isolation", params=("scale", "time_factor", "bin_sec"),
        title="Isolation with per-VM rate caps"),
    "table2": ExperimentEntry(
        "fig08_multiplexing", "run_table2", params=("fleet_size", "seed"),
        title="AG packing on a 32-core machine"),
    "table3": ExperimentEntry(
        "table3_nginx", title="nginx over kernel vs mTCP NSMs"),
    "table4": ExperimentEntry(
        "table4_nsm_scaling", title="Scaling with number of NSMs"),
    "table5": ExperimentEntry(
        "table5_latency", params=("requests", "concurrency"),
        title="Response-time distribution"),
    "table6": ExperimentEntry(
        "table6_table7_overhead", "run_table6",
        title="CPU overhead vs throughput"),
    "table7": ExperimentEntry(
        "table6_table7_overhead", "run_table7",
        title="CPU overhead vs request rate"),
    # Design-choice ablations (DESIGN.md §6).
    "ablation-batching": ExperimentEntry(
        "ablations", "run_batching", params=("batches",),
        title="Ablation: CoreEngine batch size"),
    "ablation-polling": ExperimentEntry(
        "ablations", "run_polling",
        title="Ablation: interrupt-driven polling window"),
    "ablation-pipelining": ExperimentEntry(
        "ablations", "run_pipelining", params=("messages", "size"),
        title="Ablation: pipelined vs synchronous send()"),
    "ablation-queues": ExperimentEntry(
        "ablations", "run_queue_sharing", params=("core_counts",),
        title="Ablation: lockless per-vCPU queues vs shared"),
    "ablation-double-stack": ExperimentEntry(
        "ablations", "run_double_stack", params=("sizes",),
        title="Ablation: stack-on-hypervisor alternative"),
    # Robustness (§8): NSM failure detection + connection failover.
    "fig-failover": ExperimentEntry(
        "fig_failover", params=("duration", "seed", "detection_timeouts"),
        title="Recovery time vs failure-detection timeout"),
    # Live migration (§8): zero-reset stack upgrade between NSMs.
    "fig-migration": ExperimentEntry(
        "fig_migration", params=("duration", "seed", "stream_counts"),
        title="Migration downtime vs live-connection count"),
    # Elastic NSM fleet on the AG-trace load signal (§7.3 follow-on).
    "fig-autoscale": ExperimentEntry(
        "fig_autoscale",
        params=("seed", "ticks", "ce_shards", "n_clients", "n_ags",
                "max_nsms"),
        title="NSM autoscaling on the AG-trace load signal"),
    # Overload control (§7 follow-on): where multiplexing saturates.
    "fig-capacity": ExperimentEntry(
        "fig_capacity",
        params=("seed", "scenarios", "n_vms", "iterations"),
        title="NDR/PDR capacity envelope with overload control"),
}

_PADDED_ID = re.compile(r"^(fig|table)0+(\d+)$")


def canonical_id(exp_id: str) -> str:
    """Map zero-padded ids ("fig08", "table02") onto registry keys."""
    exp_id = exp_id.strip().lower()
    if exp_id in REGISTRY:
        return exp_id
    match = _PADDED_ID.match(exp_id)
    if match:
        unpadded = match.group(1) + match.group(2)
        if unpadded in REGISTRY:
            return unpadded
    return exp_id


def experiment_entry(exp_id: str) -> ExperimentEntry:
    """The registry entry for an id (canonicalized); raises
    JobValidationError naming the choices for unknown ids."""
    entry = REGISTRY.get(canonical_id(exp_id))
    if entry is None:
        raise JobValidationError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{sorted(REGISTRY)}")
    return entry


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    Paper artifacts: "fig7".."fig21" and "table2".."table7" (zero-padded
    aliases like "fig08" accepted).  Design ablations:
    "ablation-batching", "ablation-polling", "ablation-pipelining",
    "ablation-queues", "ablation-double-stack".  Unknown ids and unknown
    keyword parameters raise :class:`~repro.errors.JobValidationError`
    (a KeyError subclass is *not* used; the job validator and the CLI
    map it onto the "usage" exit code).
    """
    try:
        entry = REGISTRY[exp_id]
    except KeyError:
        canonical = canonical_id(exp_id)
        if canonical not in REGISTRY:
            raise KeyError(
                f"unknown experiment {exp_id!r}; choose from "
                f"{sorted(REGISTRY)}") from None
        entry = REGISTRY[canonical]
    return entry(**kwargs)
