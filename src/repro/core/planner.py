"""Memory-compaction planning (Section III-D).

The planner combines D2D swap, GPU-CPU swap, and recomputation:

1. profile the job; compute live intervals and per-stage peaks;
2. pick a device mapping that places light GPUs next to overflowing
   ones (Figure 6) when the topology is asymmetric;
3. build an initial assignment — GPU-CPU swap for tensors with
   extremely long live intervals (optimizer state above all),
   recomputation for activations whose re-forward is cheaper than a
   PCIe round trip, GPU-CPU swap for the rest — until every stage
   fits;
4. refine: repeatedly upgrade the worst-overhead assignments to D2D
   swap while spare GPU memory allows, keeping a change only when
   the emulator measures an improvement.

Disabling techniques through :class:`PlannerConfig` yields the
paper's baselines: recomputation-only, GPU-CPU-swap-only, and the
D2D-only MPress variant of Figure 7.

Given a fault profile (:class:`~repro.faults.spec.FaultSchedule`),
the planner plans for the degraded machine instead of the nominal
one: D2D stripes avoid parking state on degraded peers, CPU-swap
cost estimates use the derated PCIe bandwidth, and stage periods use
the derated compute speed — so congestion/capacity checks run
against what the hardware will actually deliver.

This planner optimises *within* a fixed parallelism shape (one
pipeline chain on one server).  Choosing the shape itself — the
TP x DP x PP point and its placement — is :mod:`repro.autoplan`'s
job; ``Planner`` is the innermost layer its frontier executor runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.cost_model import CostModel
from repro.core.device_mapping import (
    MappingResult,
    assign_spare_memory,
    search_device_mapping,
)
from repro.core.emulator import EmulationReport, Emulator
from repro.core.plan import Action, MemorySavingPlan
from repro.core.profiler import Profiler, ProfileStats
from repro.core.rewriter import Assignment, Rewriter
from repro.core.striping import StripePlan
from repro.faults.spec import FaultSchedule
from repro.graph.tensor import TensorClass, TensorKind
from repro.job import TrainingJob


@dataclass(frozen=True)
class PlannerConfig:
    """Planner knobs; technique toggles reproduce the baselines."""

    allow_recompute: bool = True
    allow_cpu_swap: bool = True
    allow_d2d: bool = True
    striping: bool = True
    mapping_mode: str = "auto"        # "auto" | "exact" | "greedy" | "identity"
    fit_margin: float = 0.03          # target peak <= capacity * (1 - margin)
    spare_reserve: float = 0.03       # importers keep this fraction free
    max_refine_iterations: int = 6
    refine_batch: int = 4
    improvement_eps: float = 0.003
    prefetch_lead: int = 2
    # "emulate" measures every tentative upgrade batch; "coarse2fine"
    # prices a wider candidate pool with the analytic cost model first
    # and only lowers+simulates the predicted-profitable frontier
    # (docs/fastpath.md).
    search: str = "emulate"


@dataclass
class PlannerReport:
    """Search trajectory, for inspection and the paper's Table IV."""

    profile: ProfileStats
    device_map: List[int]
    mapping: Optional[MappingResult]
    feasible: bool
    initial_time: float = 0.0
    final_time: float = 0.0
    refine_iterations: int = 0
    accepted_upgrades: int = 0
    emulation_times: List[float] = field(default_factory=list)
    # Candidate plans emulated during the search; all of them share
    # one lowering skeleton (the Emulator lowers per plan only).
    n_emulations: int = 0
    # Coarse-to-fine accounting: candidates priced by the analytic
    # cost model instead of simulated, and full simulations actually
    # spent (== n_emulations; kept separate so the ratio reads off
    # the report directly).
    n_fast_path: int = 0
    n_full_sims: int = 0
    # Emulations the incremental simulator resumed from a snapshot or
    # answered from its memo of the previous program.
    n_incremental_resumes: int = 0
    n_memoized: int = 0
    # Fault-aware planning (set when a fault profile was supplied).
    fault_profile: Optional[FaultSchedule] = None
    avoided_importers: List[int] = field(default_factory=list)
    pcie_derates: Dict[int, float] = field(default_factory=dict)
    compute_derates: Dict[int, float] = field(default_factory=dict)


class Planner:
    """Builds a memory-saving plan for one training job."""

    def __init__(
        self,
        job: TrainingJob,
        config: PlannerConfig = PlannerConfig(),
        faults: Optional[FaultSchedule] = None,
        reserve_bytes: int = 0,
    ):
        self.job = job
        self.config = config
        if config.search not in ("emulate", "coarse2fine"):
            raise ValueError(f"unknown planner search {config.search!r}")
        if faults is not None and faults.is_empty:
            faults = None
        self.faults = faults
        self._avoid_importers = (
            faults.degraded_devices() if faults is not None else set()
        )
        self._capacity = job.server.gpu_memory
        # ``reserve_bytes`` is carved out of the fit target before
        # planning — hybrid DP x PP runs park gradient-bucket staging
        # buffers there, so plans leave room for them.
        self.reserve_bytes = max(0, reserve_bytes)
        self._target = (
            int(self._capacity * (1.0 - config.fit_margin)) - self.reserve_bytes
        )

    # -- public API --------------------------------------------------------

    def build(self) -> Tuple[MemorySavingPlan, PlannerReport]:
        profile = Profiler(self.job).run()
        device_map, mapping = self._choose_device_map(profile)
        self._device_map = device_map
        self._classes_by_key = {cls.key: cls for cls in profile.classes}
        cost_model = CostModel(self.job, device_map, profile.intervals)
        rewriter = Rewriter(self.job, profile.classes)
        # One emulator for the whole search: the tighten/refine loop
        # re-interprets candidate plans against a single cached
        # lowering skeleton instead of re-walking the graph per plan.
        emulator = Emulator(self.job, prefetch_lead=self.config.prefetch_lead)

        assignments, feasible = self._initial_assignments(profile, device_map, cost_model)
        if self.config.allow_recompute:
            assignments = rewriter.consolidate_recompute(assignments)
        self._intervals = profile.intervals
        plan = self._instrument(rewriter, assignments, device_map)
        report = PlannerReport(
            profile=profile,
            device_map=device_map,
            mapping=mapping,
            feasible=feasible,
        )
        if self.faults is not None:
            report.fault_profile = self.faults
            report.avoided_importers = sorted(self._avoid_importers)
            report.pcie_derates = {
                dev: self.faults.pcie_factor(dev)
                for dev in device_map
                if self.faults.pcie_factor(dev) < 1.0
            }
            report.compute_derates = {
                dev: self.faults.compute_factor(dev)
                for dev in device_map
                if self.faults.compute_factor(dev) < 1.0
            }

        baseline_report = emulator.run(plan)
        report.emulation_times.append(baseline_report.minibatch_time)

        # Feedback loop (Fig. 5, step 5): static savings estimates
        # undershoot because swap transients overlap; keep assigning
        # reductions to whatever the emulator still sees overflowing.
        plan, assignments, baseline_report = self._tighten(
            assignments,
            plan,
            baseline_report,
            profile,
            device_map,
            cost_model,
            rewriter,
            emulator,
            report,
        )
        report.initial_time = baseline_report.minibatch_time
        report.feasible = report.feasible and baseline_report.fits

        if self.config.allow_d2d:
            plan, assignments = self._refine(
                assignments,
                plan,
                baseline_report,
                profile,
                device_map,
                cost_model,
                rewriter,
                emulator,
                report,
            )
        report.final_time = report.emulation_times[-1]
        report.n_emulations = emulator.n_emulations
        report.n_full_sims = emulator.n_emulations
        report.n_incremental_resumes = emulator.n_incremental_resumes
        report.n_memoized = emulator.n_memoized
        return plan, report

    # -- device mapping ---------------------------------------------------

    def _choose_device_map(
        self, profile: ProfileStats
    ) -> Tuple[List[int], Optional[MappingResult]]:
        n = self.job.n_stages
        identity = list(range(n))
        if not self.config.allow_d2d or self.config.mapping_mode == "identity":
            return identity, None
        demand = self._d2d_demand_vector(profile)
        spare = self._reserved_spare(profile.stage_peaks)
        if not any(demand):
            return identity, None
        mapping = search_device_mapping(
            self.job.server.topology,
            demand,
            spare,
            mode=self.config.mapping_mode,
        )
        return mapping.device_map, mapping

    def _d2d_demand_for(self, stage: int, overflow: int, profile: ProfileStats) -> int:
        """Importer bytes ``stage`` needs to D2D ``overflow`` bytes away.

        A class saving ``size * (instances - 1)`` bytes parks
        ``size * instances`` on importers, and classes are claimed
        whole, so the demand is ceil(overflow / class saving) whole
        classes' parked footprint.
        """
        if overflow <= 0:
            return 0
        acts = [
            cls
            for cls in profile.classes_of_stage(stage)
            if cls.kind is TensorKind.ACTIVATION and cls.instances > 1
        ]
        if not acts:
            return int(overflow * 1.3)
        # Claims land on the large transformer-layer tensors; tiny
        # embedding/head activations would skew a plain mean.
        largest = max(cls.size for cls in acts)
        major = [cls for cls in acts if cls.size >= largest // 2]
        size = sum(cls.size for cls in major) / len(major)
        instances = major[0].instances
        saving = size * max(1, instances - 1)
        parked = size * instances
        classes_needed = -(-overflow // int(saving))  # ceil
        # 10% slack absorbs lane-weighted splitting and per-instance
        # flooring losses when claims are carved out of the pot.
        return int(classes_needed * parked * 1.1)

    def _d2d_demand_vector(self, profile: ProfileStats) -> List[int]:
        return [
            self._d2d_demand_for(stage, max(0, peak - self._target), profile)
            for stage, peak in enumerate(profile.stage_peaks)
        ]

    def _reserved_spare(self, peaks_by_stage: List[int]) -> List[int]:
        """Importable bytes per stage.

        Importers may fill closer to capacity than exporters' planning
        target — their own footprint is small and predictable — so
        spare is measured against a higher import cap.
        """
        reserve = self.config.spare_reserve
        import_cap = int(self._capacity * (1.0 - self.config.fit_margin / 2))
        return [
            max(0, int((import_cap - peak) * (1.0 - reserve)))
            for peak in peaks_by_stage
        ]

    # -- initial assignment ------------------------------------------------

    def _initial_assignments(
        self,
        profile: ProfileStats,
        device_map: List[int],
        cost_model: CostModel,
    ) -> Tuple[Dict[tuple, Assignment], bool]:
        assignments: Dict[tuple, Assignment] = {}
        d2d_budgets = self._fresh_pots(profile, device_map)
        self._device_map = device_map
        feasible = True
        residents: Dict[int, int] = {}
        for stage in range(self.job.n_stages):
            resident = profile.stage_peaks[stage]
            if resident <= self._target:
                continue
            classes = profile.classes_of_stage(stage)
            # When model state alone overflows the device, optimizer
            # swapping is inevitable — commit to it up front so the
            # activation decisions see the PCIe budget that traffic
            # consumes.  Otherwise activations go first and optimizer
            # state stays resident unless they fall short, matching
            # the paper's measured mixes (Table IV: tiny GPU-CPU
            # shares whenever recomputation suffices).
            if self._state_bytes(classes) > 0.75 * self._target:
                resident = self._assign_optimizer(
                    classes, assignments, cost_model, resident
                )
                resident = self._assign_stash(
                    classes, assignments, cost_model, resident, d2d_budgets,
                    force=True,
                )
            resident = self._assign_activations(
                classes, assignments, cost_model, resident, d2d_budgets
            )
            if resident > self._target:
                resident = self._assign_optimizer(
                    classes, assignments, cost_model, resident
                )
            if resident > self._target:
                resident = self._assign_stash(
                    classes, assignments, cost_model, resident, d2d_budgets
                )
            residents[stage] = resident
        if self.config.allow_d2d:
            self._retry_failed_d2d(
                profile, device_map, cost_model, assignments, residents
            )
        feasible = all(resident <= self._target for resident in residents.values())
        return assignments, feasible

    def _retry_failed_d2d(
        self,
        profile: ProfileStats,
        device_map: List[int],
        cost_model: CostModel,
        assignments: Dict[tuple, Assignment],
        residents: Dict[int, int],
    ) -> None:
        """Second claim pass against the spare the pots left stranded.

        Per-exporter pots are sized with slack, and claims rarely use
        a grant exactly, so real spare remains after the first pass.
        Stages still over target retry their unclaimed classes
        against the global leftover (reserved spare minus what was
        actually claimed into each device).
        """
        if not any(res > self._target for res in residents.values()):
            return
        spare_by_stage = self._reserved_spare(profile.stage_peaks)
        leftover: Dict[int, int] = {
            device_map[stage]: spare for stage, spare in enumerate(spare_by_stage)
        }
        for key, (action, stripe) in assignments.items():
            if action is Action.D2D_SWAP and stripe is not None:
                cls = self._classes_by_key[key]
                instances = max(1, cls.instances)
                for importer in stripe.importers:
                    leftover[importer] = max(
                        0, leftover.get(importer, 0)
                        - stripe.bytes_to(importer) * instances
                    )
        for stage, resident in sorted(residents.items()):
            if resident <= self._target:
                continue
            candidates = sorted(
                (
                    cls
                    for cls in profile.classes_of_stage(stage)
                    if cls.key not in assignments
                    and cls.kind in (TensorKind.ACTIVATION, TensorKind.STASHED_PARAMS)
                ),
                key=lambda cls: -cls.layer,
            )
            for cls in candidates:
                if resident <= self._target:
                    break
                stripe = self._claim_d2d(cls, cost_model, leftover)
                if stripe is None:
                    continue
                assignments[cls.key] = (Action.D2D_SWAP, stripe)
                resident -= self._estimated_saving(cls, Action.D2D_SWAP, stripe)
            residents[stage] = resident

    @staticmethod
    def _state_bytes(classes) -> int:
        """Peak model-state bytes (working + optimizer + stash)."""
        return sum(
            cls.peak_bytes
            for cls in classes
            if cls.kind in (
                TensorKind.WORKING_STATE,
                TensorKind.OPTIMIZER_STATE,
                TensorKind.STASHED_PARAMS,
            )
        )

    def _assign_optimizer(self, classes, assignments, cost_model, resident) -> int:
        """Optimizer state: the extreme-live-interval case — CPU swap."""
        if not self.config.allow_cpu_swap:
            return resident
        for cls in classes:
            if cls.kind is TensorKind.OPTIMIZER_STATE and resident > self._target:
                assignments[cls.key] = (Action.CPU_SWAP, None)
                resident -= self._estimated_saving(cls, Action.CPU_SWAP)
        return resident

    def _assign_activations(
        self, classes, assignments, cost_model, resident, d2d_budgets
    ) -> int:
        """Activations: recompute vs CPU swap by extra overhead.

        Later layers first — the paper's second observation: their
        backward passes start first, and delaying them stretches the
        live intervals of earlier layers, creating swap headroom.
        """
        config = self.config
        activations = sorted(
            (cls for cls in classes if cls.kind is TensorKind.ACTIVATION),
            key=lambda cls: -cls.layer,
        )
        for cls in activations:
            if resident <= self._target:
                break
            action = self._pick_activation_action(cls, cost_model, assignments)
            if action is None:
                if config.allow_d2d:
                    stripe = self._claim_d2d(
                        cls, cost_model, d2d_budgets.get(cls.stage, {})
                    )
                    if stripe is not None:
                        assignments[cls.key] = (Action.D2D_SWAP, stripe)
                        resident -= self._estimated_saving(
                            cls, Action.D2D_SWAP, stripe
                        )
                continue
            assignments[cls.key] = (action, None)
            resident -= self._estimated_saving(cls, action)
        return resident

    def _pick_activation_action(
        self,
        cls: TensorClass,
        cost_model: CostModel,
        assignments: Dict[tuple, Assignment],
    ) -> Optional[Action]:
        """Recompute vs CPU swap, aware of PCIe congestion.

        A swap is only free while the stage's aggregate PCIe traffic
        still fits in the hideable window; beyond that, queueing
        delay surfaces as extra time (the effect behind the paper's
        67% GPU-CPU-swap throughput loss).
        """
        config = self.config
        if config.allow_recompute and config.allow_cpu_swap:
            costs = cost_model.costs_for(cls)
            cpu_extra = self._congested_cpu_extra(cls, costs.cpu_swap_extra, assignments)
            if cpu_extra == 0.0:
                return Action.CPU_SWAP
            if costs.recompute_extra is not None and costs.recompute_extra < cpu_extra:
                return Action.RECOMPUTE
            return Action.CPU_SWAP
        if config.allow_recompute:
            return Action.RECOMPUTE
        if config.allow_cpu_swap:
            return Action.CPU_SWAP
        return None

    # Fraction of a stage's per-microbatch period that PCIe traffic
    # can hide behind.  Deliberately conservative: real swap engines
    # reach nowhere near full copy/compute overlap (the paper
    # measures 67% throughput loss when swapping 39% of a stage's
    # data — far beyond a pure bandwidth effect), so only a modest
    # slice of the period counts as free.
    _HIDEABLE_FRACTION = 0.5

    def _stage_period(self, stage: int) -> float:
        device = self._device_map[stage]
        period = self.job.forward_time(stage, device) + self.job.backward_time(stage, device)
        if self.faults is not None:
            period /= self.faults.compute_factor(device)
        return period

    def _swap_seconds(self, cls: TensorClass) -> float:
        """Per-microbatch PCIe seconds this class adds when CPU-swapped."""
        bandwidth = self.job.server.pcie.sustained_bandwidth
        if self.faults is not None:
            bandwidth *= self.faults.pcie_factor(self._device_map[cls.stage])
        round_trip = 2.0 * cls.size / bandwidth
        if cls.kind is TensorKind.OPTIMIZER_STATE:
            # Optimizer swaps happen once per minibatch.
            return round_trip / self.job.microbatches_per_minibatch
        return round_trip

    def _stage_pcie_load(
        self, stage: int, assignments: Dict[tuple, Assignment]
    ) -> float:
        """Per-microbatch PCIe seconds already committed on a stage."""
        load = 0.0
        for key, (action, _stripe) in assignments.items():
            if action is Action.CPU_SWAP and key[1] == stage:
                cls = self._class_by_key(key)
                if cls is not None:
                    load += self._swap_seconds(cls)
        return load

    def _congested_cpu_extra(
        self,
        cls: TensorClass,
        base_extra: float,
        assignments: Dict[tuple, Assignment],
    ) -> float:
        period = self._stage_period(cls.stage)
        budget = self._HIDEABLE_FRACTION * period
        load = self._stage_pcie_load(cls.stage, assignments)
        swap_time = self._swap_seconds(cls)
        congestion = max(0.0, (load + swap_time) - max(0.0, budget))
        return max(base_extra, min(swap_time, congestion))

    def _assign_stash(
        self, classes, assignments, cost_model, resident, d2d_budgets, force=False
    ) -> int:
        for cls in classes:
            if cls.kind is not TensorKind.STASHED_PARAMS:
                continue
            if not force and resident <= self._target:
                continue
            if cls.key in assignments:
                continue
            if self.config.allow_cpu_swap:
                assignments[cls.key] = (Action.CPU_SWAP, None)
                resident -= self._estimated_saving(cls, Action.CPU_SWAP)
            elif self.config.allow_d2d:
                stripe = self._claim_d2d(
                    cls, cost_model, d2d_budgets.get(cls.stage, {})
                )
                if stripe is not None:
                    assignments[cls.key] = (Action.D2D_SWAP, stripe)
                    resident -= self._estimated_saving(cls, Action.D2D_SWAP, stripe)
        return resident

    def _class_by_key(self, key: tuple) -> Optional[TensorClass]:
        return self._classes_by_key.get(key)

    # -- plan materialization --------------------------------------------

    def _instrument(self, rewriter, assignments, device_map) -> MemorySavingPlan:
        """Build the plan, spilling CPU swaps to NVMe if host memory
        cannot hold every in-flight swapped tensor."""
        nvme_keys = self._select_nvme_spill(assignments)
        return rewriter.instrument(assignments, device_map, nvme_keys).plan

    def _select_nvme_spill(self, assignments: Dict[tuple, Assignment]) -> set:
        """CPU-swap entries to push onward to NVMe.

        Tensors with the longest live intervals go first — their
        slower NVMe round trips have the most slack to hide in
        (the same reasoning as the paper's Table III t1 case).
        """
        # Static estimates miss staging transients and warmup
        # overshoot, so budget conservatively.
        host_cap = int(self.job.server.host.memory_bytes * 0.65)
        entries = []
        total = 0
        for key, (action, _stripe) in assignments.items():
            if action is not Action.CPU_SWAP:
                continue
            cls = self._classes_by_key[key]
            resident = cls.size * max(1, cls.instances)
            total += resident
            interval = self._intervals.get(key)
            entries.append((interval.mean if interval else 0.0, key, resident))
        if total <= host_cap:
            return set()
        entries.sort(key=lambda entry: -entry[0])
        spill = set()
        excess = total - host_cap
        for _interval, key, resident in entries:
            if excess <= 0:
                break
            spill.add(key)
            excess -= resident
        return spill

    # -- D2D budgets ---------------------------------------------------------
    #
    # Spare memory is partitioned into per-exporter *pots* using the
    # same spare-assignment routine the device-mapping search scores
    # (Fig. 6): each overflowing stage owns the share of its
    # neighbours' headroom the assignment gave it, so one stage's
    # claims cannot starve another's earmarked spare.

    def _exporter_pots(
        self,
        device_map: List[int],
        peaks_by_stage: List[int],
        demand_by_stage: List[int],
    ) -> Dict[int, Dict[int, int]]:
        spare = self._reserved_spare(peaks_by_stage)
        evaluation = assign_spare_memory(
            self.job.server.topology, tuple(device_map), demand_by_stage, spare
        )
        pots: Dict[int, Dict[int, int]] = {}
        for exporter, alloc in evaluation.assignments.items():
            pots[exporter] = {
                device_map[imp_stage]: amount for imp_stage, amount in alloc.items()
            }
        return pots

    def _fresh_pots(
        self, profile: ProfileStats, device_map: List[int]
    ) -> Dict[int, Dict[int, int]]:
        """Initial pots: the same parked-byte demand the mapping saw."""
        demand = self._d2d_demand_vector(profile)
        return self._exporter_pots(device_map, profile.stage_peaks, demand)

    def _global_headroom(self, device_peaks: List[int]) -> Dict[int, int]:
        """Per-device importable bytes from *measured* peaks.

        Measured peaks already embed earlier claims (parked imports
        and transients), so first-come claims against this shared
        budget cannot starve anyone retroactively — each tighten or
        refine round re-measures.
        """
        reserve = self.config.spare_reserve
        import_cap = int(self._capacity * (1.0 - self.config.fit_margin / 2))
        return {
            dev: max(0, int((import_cap - peak) * (1.0 - reserve)))
            for dev, peak in enumerate(device_peaks)
        }

    def _claim_d2d(
        self,
        cls: TensorClass,
        cost_model: CostModel,
        budgets: Dict[int, int],
    ) -> Optional[StripePlan]:
        """Reserve importer budget for all in-flight instances of ``cls``."""
        if not budgets:
            return None
        instances = max(1, cls.instances)
        # State parked on a degraded peer would ride a slow or soon-dead
        # resource — the fault profile's devices are off limits.
        per_instance = {
            dev: (0 if dev in self._avoid_importers else amount // instances)
            for dev, amount in budgets.items()
        }
        stripe = cost_model.candidate_stripe(
            cls, per_instance, striping=self.config.striping
        )
        if stripe is None and cls.kind is TensorKind.ACTIVATION:
            # Partial-tensor fallback: park whatever fraction the
            # remaining spare can hold (striping is byte-granular).
            for fraction in (0.75, 0.5, 0.25):
                stripe = cost_model.candidate_stripe(
                    cls,
                    per_instance,
                    striping=self.config.striping,
                    tensor_bytes=int(cls.size * fraction),
                )
                if stripe is not None:
                    break
        if stripe is None:
            return None
        for importer in stripe.importers:
            budgets[importer] -= stripe.bytes_to(importer) * instances
        return stripe

    # -- feasibility tightening -------------------------------------------

    def _tighten(
        self,
        assignments: Dict[tuple, Assignment],
        plan: MemorySavingPlan,
        current: EmulationReport,
        profile: ProfileStats,
        device_map: List[int],
        cost_model: CostModel,
        rewriter: Rewriter,
        emulator: Emulator,
        report: PlannerReport,
        max_rounds: int = 5,
    ) -> Tuple[MemorySavingPlan, Dict[tuple, Assignment], EmulationReport]:
        """Assign further reductions until the emulator sees no overflow."""
        stage_of_device = {dev: stage for stage, dev in enumerate(device_map)}
        for _ in range(max_rounds):
            if current.fits:
                break
            progressed = False
            budgets = self._global_headroom(current.device_peaks)
            for device in current.overflowed_devices:
                stage = stage_of_device.get(device)
                if stage is None:
                    continue
                extra = current.device_peaks[device] - self._target
                if self._assign_more(
                    stage, extra, assignments, profile, cost_model, budgets
                ):
                    progressed = True
            if not progressed:
                break
            if self.config.allow_recompute:
                assignments = rewriter.consolidate_recompute(assignments)
            plan = self._instrument(rewriter, assignments, device_map)
            current = emulator.run(plan)
            report.emulation_times.append(current.minibatch_time)
        return plan, assignments, current

    def _assign_more(
        self,
        stage: int,
        extra: int,
        assignments: Dict[tuple, Assignment],
        profile: ProfileStats,
        cost_model: CostModel,
        budgets: Dict[int, int],
    ) -> bool:
        """Extend the stage's assignment to cover ``extra`` more bytes."""
        need = int(extra * 1.2)
        progressed = False
        candidates = sorted(
            (
                cls
                for cls in profile.classes_of_stage(stage)
                if cls.key not in assignments
                and cls.kind in (TensorKind.ACTIVATION, TensorKind.STASHED_PARAMS,
                                 TensorKind.OPTIMIZER_STATE)
            ),
            key=lambda cls: -cls.layer,
        )
        for cls in candidates:
            if need <= 0:
                break
            action = None
            stripe = None
            if cls.kind is TensorKind.ACTIVATION:
                action = self._pick_activation_action(cls, cost_model, assignments)
            elif self.config.allow_cpu_swap:
                action = Action.CPU_SWAP
            if action is None and self.config.allow_d2d:
                stripe = self._claim_d2d(cls, cost_model, budgets)
                if stripe is not None:
                    action = Action.D2D_SWAP
            if action is None:
                continue
            assignments[cls.key] = (action, stripe)
            need -= self._estimated_saving(cls, action)
            progressed = True
        return progressed

    # -- refinement -----------------------------------------------------------

    def _refine(
        self,
        assignments: Dict[tuple, Assignment],
        plan: MemorySavingPlan,
        current: EmulationReport,
        profile: ProfileStats,
        device_map: List[int],
        cost_model: CostModel,
        rewriter: Rewriter,
        emulator: Emulator,
        report: PlannerReport,
    ) -> Tuple[MemorySavingPlan, Dict[tuple, Assignment]]:
        """Upgrade worst-overhead assignments to D2D, keeping wins."""
        config = self.config
        blacklist: set = set()
        classes_by_key = {cls.key: cls for cls in profile.classes}
        best_time = current.minibatch_time
        best_fits = current.fits
        best_peaks = current.device_peaks
        for _ in range(config.max_refine_iterations):
            report.refine_iterations += 1
            candidates = self._refine_candidates(
                assignments, classes_by_key, cost_model, blacklist
            )
            if not candidates:
                break
            budgets = self._global_headroom(best_peaks)
            if config.search == "coarse2fine":
                candidates = self._coarse_frontier(
                    candidates, classes_by_key, cost_model, budgets,
                    blacklist, report,
                )
                if not candidates:
                    # The analytic model predicts no profitable
                    # upgrade this round — the whole batch's lowering
                    # and simulation is skipped.
                    continue
            tentative = dict(assignments)
            upgraded: List[tuple] = []
            for key, _extra in candidates[: config.refine_batch]:
                cls = classes_by_key[key]
                stripe = self._claim_d2d(cls, cost_model, budgets)
                if stripe is not None:
                    tentative[key] = (Action.D2D_SWAP, stripe)
                    upgraded.append(key)
                else:
                    blacklist.add(key)
            if not upgraded:
                continue
            new_plan = self._instrument(rewriter, tentative, device_map)
            trial = emulator.run(new_plan)
            report.emulation_times.append(trial.minibatch_time)
            improved = trial.minibatch_time < best_time * (1.0 - config.improvement_eps)
            fits_ok = trial.fits or not best_fits
            if improved and fits_ok:
                assignments = tentative
                plan = new_plan
                best_time = trial.minibatch_time
                best_fits = trial.fits
                best_peaks = trial.device_peaks
                report.accepted_upgrades += len(upgraded)
            else:
                blacklist.update(upgraded)
        return plan, assignments

    def _coarse_frontier(
        self,
        candidates: List[Tuple[tuple, float]],
        classes_by_key: Dict[tuple, TensorClass],
        cost_model: CostModel,
        budgets: Dict[int, int],
        blacklist: set,
        report: PlannerReport,
    ) -> List[Tuple[tuple, float]]:
        """Coarse pass of the coarse-to-fine search (docs/fastpath.md).

        A wide pool of upgrade candidates is *priced* with the
        analytic collective/cost model — predicted gain is the
        candidate's current overhead minus its D2D overhead on a
        tentative stripe — and only the profitable frontier survives
        to be lowered and simulated.  Claims here run against a copy
        of the importer budgets; the fine pass re-claims for real.
        """
        pool = candidates[: self.config.refine_batch * 4]
        priced: List[Tuple[float, tuple, float]] = []
        for key, extra in pool:
            cls = classes_by_key[key]
            report.n_fast_path += 1
            stripe = self._claim_d2d(cls, cost_model, dict(budgets))
            if stripe is None:
                blacklist.add(key)
                continue
            d2d_extra = cost_model.costs_for(cls, stripe).d2d_swap_extra or 0.0
            gain = extra - d2d_extra
            if gain <= 0:
                blacklist.add(key)
                continue
            priced.append((gain, key, extra))
        priced.sort(key=lambda entry: -entry[0])
        return [(key, extra) for _gain, key, extra in priced]

    def _refine_candidates(
        self,
        assignments: Dict[tuple, Assignment],
        classes_by_key: Dict[tuple, TensorClass],
        cost_model: CostModel,
        blacklist: set,
    ) -> List[Tuple[tuple, float]]:
        """Assigned tensors ranked by the extra overhead they impose.

        Recomputation always costs its re-forward; a CPU swap costs
        the portion of its round trip the stage's PCIe window cannot
        hide (congestion-aware, so saturating traffic surfaces here
        even when each tensor's interval looks long enough).
        """
        loads = {
            stage: self._stage_pcie_load(stage, assignments)
            for stage in range(self.job.n_stages)
        }
        scored = []
        for key, (action, _stripe) in assignments.items():
            if key in blacklist or action not in (Action.RECOMPUTE, Action.CPU_SWAP):
                continue
            cls = classes_by_key[key]
            if action is Action.RECOMPUTE:
                extra = cost_model.extra_overhead(cls, action.value)
            else:
                period = self._stage_period(cls.stage)
                budget = self._HIDEABLE_FRACTION * period
                overload = max(0.0, loads[cls.stage] - budget)
                base = cost_model.extra_overhead(cls, action.value)
                extra = max(base, min(self._swap_seconds(cls), overload))
                # Even a "hidden" swap interferes with other PCIe
                # traffic; keep it as a last-resort upgrade candidate
                # so emulation gets to judge.
                extra = max(extra, 1e-6)
            if extra > 0:
                scored.append((key, extra))
        scored.sort(key=lambda kv: -kv[1])
        return scored

    # -- accounting -----------------------------------------------------------

    def _estimated_saving(
        self, cls: TensorClass, action: Action, stripe: Optional[StripePlan] = None
    ) -> int:
        """Bytes a reduction removes from the stage's peak.

        One instance stays transient (during generation/restore), so
        multi-instance classes save ``size * (instances - 1)``;
        optimizer state leaves the device entirely between steps.
        Recomputation additionally retains per-layer boundary
        checkpoints for every in-flight microbatch.
        """
        if cls.kind is TensorKind.OPTIMIZER_STATE:
            # Chunked streaming keeps ~3 chunks (capacity/16 each)
            # transiently resident around the optimizer step.
            transient = min(cls.size, 3 * self._capacity // 16)
            return cls.size - transient
        size = cls.size
        if action is Action.D2D_SWAP and stripe is not None:
            size = stripe.tensor_bytes
        saving = size * max(0, cls.instances - 1)
        if action is Action.RECOMPUTE and cls.layer >= 0:
            boundary = self.job.model.layers[cls.layer].boundary_bytes(
                self.job.microbatch_size, self.job.bytes_per_element
            )
            saving = max(0, saving - boundary * cls.instances)
        return saving


def baseline_config(kind: str) -> PlannerConfig:
    """Planner configs for the paper's baselines.

    ``"recomputation"``, ``"gpu-cpu-swap"``, ``"d2d-only"``, or the
    full ``"mpress"``.
    """
    if kind == "recomputation":
        return PlannerConfig(
            allow_cpu_swap=False, allow_d2d=False, mapping_mode="identity"
        )
    if kind == "gpu-cpu-swap":
        return PlannerConfig(
            allow_recompute=False, allow_d2d=False, mapping_mode="identity"
        )
    if kind == "d2d-only":
        return PlannerConfig(allow_recompute=False, allow_cpu_swap=False)
    if kind == "mpress":
        return PlannerConfig()
    raise ValueError(f"unknown baseline kind {kind!r}")
