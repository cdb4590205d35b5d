"""Scenario builder: the standard experimental configurations (§VII).

Terminology follows the paper: the *reporting VM* runs the
latency-sensitive 64 KB BenchEx instance on the server host; the
*interfering VM* runs a larger-buffer instance beside it; their clients
run on the second host.  The *base case* is the reporting VM alone.

Construction and execution are split: :func:`build_scenario` wires the
testbed, workload pairs and (optionally) the ResEx controller into a
:class:`ScenarioSetup` without advancing time, and
:meth:`ScenarioSetup.execute` runs it.  :func:`run_scenario` composes
the two — the one-call API every figure uses — while the split lets
:func:`run_chaos_scenario` attach a :class:`~repro.faults.FaultEngine`
to the built platform before the first event fires.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.benchex import (
    BenchExConfig,
    BenchExPair,
    LatencyBreakdown,
    run_pairs,
)
from repro.errors import ConfigError
from repro.experiments.platform import Node, Testbed
from repro.faults import (
    CompletionDelay,
    ControllerOutage,
    DoorbellStall,
    FaultCampaign,
    FaultEngine,
    FaultImpact,
    LinkDegradation,
    MonitorDropout,
    MonitorStale,
    ResilienceReport,
    VCPUFreeze,
    fault_impacts,
    preset_campaign,
)
from repro.faults.metrics import DEFAULT_RECOVER_PCT, DEFAULT_ROLLING_WINDOW
from repro.resex import (
    LatencySLA,
    PricingPolicy,
    ResExController,
    policy_by_name,
)
from repro.telemetry import TelemetryBus
from repro.units import SEC, MiB

#: The calibrated base-case SLA for the reporting VM (209 us, tight).
REPORTING_SLA = LatencySLA(
    base_mean_us=209.0, base_std_us=3.0, threshold_pct=10.0
)


@dataclass
class ScenarioResult:
    """Everything the figure builders need from one run."""

    name: str
    #: Server-side breakdown per reporting VM (one per server pair).
    breakdowns: List[LatencyBreakdown]
    #: Pooled reporting-VM latencies (us).
    latencies_us: np.ndarray
    #: (completion time ns, latency us) samples of the first reporting VM.
    samples: List[tuple]
    #: Controller probe series keyed by name (empty without a policy).
    #: Backward-compatible accessor: the same samples flow over the
    #: telemetry bus (as ``resex`` counter records) when tracing is on.
    probe_series: Dict[str, tuple]
    #: domid of the interfering VM (None if absent).
    interferer_domid: Optional[int]
    sim_time_ns: int
    #: The telemetry bus the run emitted to (None when tracing was off).
    telemetry: Optional["TelemetryBus"] = None

    @property
    def breakdown(self) -> LatencyBreakdown:
        return self.breakdowns[0]

    def summary(self) -> LatencySummary:
        return LatencySummary.from_samples(self.latencies_us)


@dataclass
class ScenarioSetup:
    """A fully wired, not-yet-run scenario."""

    name: str
    bed: Testbed
    server_node: Node
    client_node: Node
    reporters: List[BenchExPair]
    pairs: List[BenchExPair]
    intf_pair: Optional[BenchExPair]
    controller: Optional[ResExController]
    interferer_pacer_hz: Optional[float]
    interferer_start_s: float
    telemetry: Optional[TelemetryBus]

    def execute(self, sim_s: float = 1.5) -> ScenarioResult:
        """Deploy the pairs, run for ``sim_s`` seconds, collect results."""
        bed = self.bed
        intf_pair = self.intf_pair
        needs_custom_deploy = intf_pair is not None and (
            self.interferer_pacer_hz is not None or self.interferer_start_s > 0
        )
        if needs_custom_deploy:
            def deploy_all(env):
                for pair in self.pairs:
                    yield from pair.deploy()
                if self.interferer_pacer_hz is not None:
                    gap_ns = int(SEC / self.interferer_pacer_hz)
                    intf_pair.client.pacer = lambda now: gap_ns
                for pair in self.pairs:
                    if pair is intf_pair and self.interferer_start_s > 0:
                        continue
                    pair.start()
                if self.interferer_start_s > 0:
                    yield env.timeout(int(self.interferer_start_s * SEC))
                    intf_pair.start()

            bed.env.process(deploy_all(bed.env), name="deploy")
            bed.env.run(until=int(sim_s * SEC))
        else:
            run_pairs(bed, self.pairs, until_ns=int(sim_s * SEC))

        reporters = self.reporters
        breakdowns = [r.server_breakdown() for r in reporters]
        pooled = np.concatenate(
            [r.server.latencies_us() for r in reporters]
        ) if reporters else np.array([])

        probe_series: Dict[str, tuple] = {}
        if self.controller is not None:
            for key, series in self.controller.probes.series.items():
                probe_series[key] = (series.times, series.values)

        return ScenarioResult(
            name=self.name,
            breakdowns=breakdowns,
            latencies_us=pooled,
            samples=[
                (r.t_cycle_start, r.total_us)
                for r in reporters[0].server.records
            ],
            probe_series=probe_series,
            interferer_domid=(
                self.intf_pair.server_dom.domid if self.intf_pair else None
            ),
            sim_time_ns=bed.env.now,
            telemetry=self.telemetry,
        )


def build_scenario(
    name: str,
    *,
    interferer: Optional[BenchExConfig] = None,
    policy: "PricingPolicy | str | None" = None,
    manual_cap: Optional[int] = None,
    n_servers: int = 1,
    seed: int = 7,
    sla: LatencySLA = REPORTING_SLA,
    reporting_config: Optional[BenchExConfig] = None,
    interferer_pacer_hz: Optional[float] = None,
    interferer_start_s: float = 0.0,
    reso_weights: Optional[Dict[str, float]] = None,
    telemetry: Optional[TelemetryBus] = None,
) -> ScenarioSetup:
    """Wire one standard scenario without running it.

    Parameters mirror the paper's experiment axes: an optional
    interfering instance, an optional ResEx pricing policy (instance or
    registry name), an optional *manual* CPU cap on the interfering VM
    (Figs. 3-4 bypass ResEx and set caps by hand), and the number of
    collocated reporting servers (Fig. 2).

    Extensions beyond the paper's figures: ``interferer_start_s`` delays
    the interferer's onset (for measuring policy reaction time), and
    ``reso_weights`` maps ``{"reporting": w1, "interferer": w2}`` to a
    priority-weighted Reso distribution (§V-C's unequal shares).

    ``telemetry`` attaches a :class:`~repro.telemetry.TelemetryBus` to
    the run's environment so every layer emits trace records into it
    (see ``python -m repro trace``).
    """
    if n_servers < 1:
        raise ConfigError("n_servers must be >= 1")
    if isinstance(policy, str):
        policy = policy_by_name(policy)()

    # Free a finished scenario's world (a reference cycle) before wiring
    # the next, as build_cluster does.
    gc.collect()
    bed = Testbed.paper_testbed(seed=seed)
    if telemetry is not None:
        bed.env.telemetry = telemetry
    server_node = bed.node("server-host")
    client_node = bed.node("client-host")

    base_cfg = reporting_config or BenchExConfig(name="rep", warmup_requests=50)
    with_agent = policy is not None
    reporters = [
        BenchExPair(
            bed,
            server_node,
            client_node,
            replace(base_cfg, name=f"{base_cfg.name}{i}"),
            with_agent=with_agent,
        )
        for i in range(n_servers)
    ]
    pairs: List[BenchExPair] = list(reporters)

    intf_pair = None
    if interferer is not None:
        intf_pair = BenchExPair(bed, server_node, client_node, interferer)
        pairs.append(intf_pair)
        if manual_cap is not None:
            server_node.hypervisor.set_cap(intf_pair.server_dom.domid, manual_cap)

    controller = None
    if policy is not None:
        weights = None
        if reso_weights is not None:
            weights = {}
            for rep in reporters:
                weights[rep.server_dom.domid] = reso_weights.get("reporting", 1.0)
            if intf_pair is not None:
                weights[intf_pair.server_dom.domid] = reso_weights.get(
                    "interferer", 1.0
                )
        controller = ResExController(server_node, policy, weights=weights)
        for rep in reporters:
            controller.monitor(rep.server_dom, agent=rep.agent, sla=sla)
        if intf_pair is not None:
            controller.monitor(intf_pair.server_dom)
        controller.start()

    return ScenarioSetup(
        name=name,
        bed=bed,
        server_node=server_node,
        client_node=client_node,
        reporters=reporters,
        pairs=pairs,
        intf_pair=intf_pair,
        controller=controller,
        interferer_pacer_hz=interferer_pacer_hz,
        interferer_start_s=interferer_start_s,
        telemetry=telemetry,
    )


def run_scenario(
    name: str,
    *,
    sim_s: float = 1.5,
    **kwargs,
) -> ScenarioResult:
    """Run one standard scenario and collect reporting-VM results.

    Equivalent to ``build_scenario(name, **kwargs).execute(sim_s)``;
    see :func:`build_scenario` for the parameter axes.
    """
    return build_scenario(name, **kwargs).execute(sim_s)


# -- chaos variants (repro.faults) ------------------------------------------

#: The standard chaos scenarios: Fig. 9-style interfered configurations
#: under each management regime, ready for a fault campaign.
CHAOS_SCENARIOS: Dict[str, Dict[str, Optional[str]]] = {
    "fig9": {"interferer": "2MB", "policy": "ioshares"},
    "fig9-static": {"interferer": "2MB", "policy": "static-ratio"},
    "fig9-freemarket": {"interferer": "2MB", "policy": "freemarket"},
    "interfered": {"interferer": "2MB", "policy": None},
    "base": {"interferer": None, "policy": None},
}


@dataclass
class ChaosResult:
    """One chaos run: the scenario outcome plus its resilience report."""

    scenario: ScenarioResult
    campaign: FaultCampaign
    engine: FaultEngine
    impacts: List[FaultImpact]
    report: ResilienceReport


def default_fault_engine(
    setup: ScenarioSetup, campaign: FaultCampaign
) -> FaultEngine:
    """Wire the standard injector set for a built scenario.

    Fabric and hypervisor injectors are always available; the monitor
    and controller injectors only exist when the scenario runs under a
    pricing policy.
    """
    engine = FaultEngine(setup.bed.env, campaign)
    engine.register(LinkDegradation(setup.bed.fabric))
    engine.register(DoorbellStall(setup.server_node.hca))
    engine.register(CompletionDelay(setup.server_node.hca))
    engine.register(VCPUFreeze(setup.server_node.hypervisor))
    if setup.controller is not None:
        engine.register(MonitorDropout(setup.controller.ibmon))
        engine.register(MonitorStale(setup.controller.ibmon))
        engine.register(ControllerOutage(setup.controller))
    return engine


def chaos_config(scenario: str) -> Dict[str, object]:
    """Translate a :data:`CHAOS_SCENARIOS` preset into builder kwargs."""
    try:
        preset = CHAOS_SCENARIOS[scenario]
    except KeyError:
        raise ConfigError(
            f"unknown chaos scenario {scenario!r} "
            f"(try {sorted(CHAOS_SCENARIOS)})"
        ) from None
    kwargs: Dict[str, object] = {}
    if preset["interferer"] == "2MB":
        kwargs["interferer"] = BenchExConfig(
            name="interferer", buffer_bytes=2 * MiB
        )
    kwargs["policy"] = preset["policy"]
    return kwargs


def run_chaos_scenario(
    name: str,
    *,
    campaign: "FaultCampaign | str",
    sim_s: float = 1.5,
    seed: int = 7,
    recover_pct: float = DEFAULT_RECOVER_PCT,
    rolling_window: int = DEFAULT_ROLLING_WINDOW,
    telemetry: Optional[TelemetryBus] = None,
    **kwargs,
) -> ChaosResult:
    """Run a scenario with a fault campaign injected against it.

    ``name`` may be a :data:`CHAOS_SCENARIOS` preset (which fixes the
    interferer and policy) or any label, with the scenario axes passed
    explicitly via ``kwargs`` as for :func:`build_scenario`.
    ``campaign`` is a :class:`~repro.faults.FaultCampaign` or a preset
    name from :func:`~repro.faults.campaign_presets`, scaled to
    ``sim_s``.

    After the run, per-fault resilience metrics are computed from the
    first reporting VM's latency samples, and — when tracing — fault
    recovery instants are appended to the telemetry bus so campaigns
    render on their own track in Chrome traces.
    """
    if name in CHAOS_SCENARIOS:
        merged = chaos_config(name)
        merged.update(kwargs)
        kwargs = merged
    if isinstance(campaign, str):
        campaign = preset_campaign(campaign, sim_s, seed=seed)

    setup = build_scenario(name, seed=seed, telemetry=telemetry, **kwargs)
    engine = default_fault_engine(setup, campaign)
    engine.start()
    result = setup.execute(sim_s)

    impacts = fault_impacts(
        result.samples,
        campaign,
        recover_pct=recover_pct,
        rolling_window=rolling_window,
    )
    policy = kwargs.get("policy")
    policy_name = (
        policy if isinstance(policy, str)
        else policy.name if policy is not None
        else "none"
    )
    report = ResilienceReport(
        scenario=name,
        policy=policy_name,
        campaign=campaign.name,
        seed=seed,
        sim_s=sim_s,
        baseline_us=(
            impacts[0].baseline_us if impacts else float("nan")
        ),
        impacts=tuple(impacts),
    )
    if telemetry is not None and telemetry.enabled:
        for impact in impacts:
            if impact.recovery_ns is None:
                continue
            fault = impact.fault
            telemetry.event(
                "faults",
                "recover",
                impact.recovery_ns,
                lane=f"{fault.kind}:{fault.target}",
                kind=fault.kind,
                target=fault.target,
                ttr_ns=impact.ttr_ns,
            )
    return ChaosResult(
        scenario=result,
        campaign=campaign,
        engine=engine,
        impacts=impacts,
        report=report,
    )
