"""Continuous-batching serving scheduler (plan-time, deterministic).

The scheduler runs the whole serving episode on a logical clock and
emits a :class:`ServingTape`: per-iteration admission, decode, KV
alloc/free, and swap decisions.  The tape is then lowered onto the
discrete-event substrate (`repro.inference.lowering`), where the
interpreters replay exactly these decisions with real link timings —
the same plan-then-simulate split the training planner uses.

Policy (vLLM-flavoured, simplified to stay deterministic):

* requests admit in arrival order at iteration boundaries, capped by
  ``max_batch`` and by KV headroom on *every* stage;
* every running request decodes one token per iteration (a prefill
  produces the request's first token);
* when a decode needs a KV block that does not fit, the
  latest-admitted running request is victimized — suspended via swap
  (``kv_swap="d2d"``/``"pcie"``) or preempted outright and re-prefilled
  later (``kv_swap="none"``);
* suspended requests resume FIFO as soon as their blocks fit again.

Crucially the victim choice and iteration structure never look at
*which* swap transport is configured, so D2D and PCIe runs of the
same workload spill byte-identical volumes — the controlled
comparison behind the decode-stall crossover claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.inference.costing import ServingCost
from repro.inference.kvcache import KVBlockManager
from repro.inference.workload import InferenceConfig, Request
from repro.sim.memory import DeviceMemory

_MAX_PASSES = 1_000_000
_PREFIX_KEY = "system-prompt"


@dataclass
class SwapDecision:
    """One stage's share of one suspension: bytes leaving a device."""

    rid: int
    stage: int
    device: int
    size: int
    out_iteration: int
    in_iteration: Optional[int] = None


@dataclass(frozen=True)
class IterationRecord:
    """Everything one continuous-batching iteration does."""

    index: int
    gate: Optional[float]               # max arrival among admissions
    prefills: Tuple[Tuple[int, int], ...]   # (rid, chargeable prompt tokens)
    decodes: Tuple[Tuple[int, int], ...]    # (rid, KV context read)
    stage_durations: Tuple[float, ...]
    kv_alloc: Tuple[int, ...]           # per stage: fresh bytes at compute start
    kv_free: Tuple[int, ...]            # per stage: bytes dropped at compute end
    boundary_tokens: int


@dataclass
class ServingTape:
    """The scheduler's full decision record for one serving episode."""

    requests: List[Request]
    iterations: List[IterationRecord] = field(default_factory=list)
    swaps: List[SwapDecision] = field(default_factory=list)
    completion: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    preemptions: int = 0
    prefix_cache_hits: int = 0
    prefix_saved_tokens: int = 0
    total_flops: float = 0.0
    total_output_tokens: int = 0

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def swapped_bytes(self) -> int:
        return sum(decision.size for decision in self.swaps)

    @property
    def swapped_requests(self) -> int:
        return len({decision.rid for decision in self.swaps})

    @property
    def swap_gated_iterations(self) -> Set[int]:
        """Iterations whose compute waits on a KV swap-in."""
        return {
            decision.in_iteration
            for decision in self.swaps
            if decision.in_iteration is not None
        }


@dataclass
class _Active:
    """Mutable per-request serving state."""

    request: Request
    order: int                  # admission sequence number (victim priority)
    context: int = 0            # tokens whose KV is (logically) resident
    generated: int = 0
    blocks_held: int = 0        # incl. shared prefix blocks
    prefix_blocks: int = 0
    prefill_iter: int = -1


def schedule_serving(
    requests: List[Request], cost: ServingCost, config: InferenceConfig
) -> ServingTape:
    """Run the continuous-batching policy; returns the decision tape."""
    stages = range(cost.n_stages)
    managers = [
        KVBlockManager(
            DeviceMemory(name=f"kvplan{s}", capacity=cost.kv_pool_bytes(s)),
            cost.block_bytes(s),
        )
        for s in stages
    ]
    validate_pool(cost, requests)
    tape = ServingTape(requests=list(requests))
    waiting: List[Request] = list(requests)
    running: Dict[int, _Active] = {}
    parked: Dict[int, _Active] = {}
    parked_private: Dict[int, int] = {}
    open_swaps: Dict[int, List[int]] = {}   # rid -> indices into tape.swaps
    suspended: List[int] = []
    clock = 0.0
    next_order = 0
    idle_passes = 0

    def fresh_blocks_needed(request: Request) -> Tuple[int, int, int]:
        """(fresh, prefix_blocks, cached_tokens) for admitting ``request``."""
        total = cost.blocks_for_tokens(request.prompt_tokens)
        if request.shared_prefix and config.shared_prefix_tokens >= config.block_tokens:
            prefix_blocks = min(
                config.shared_prefix_tokens // config.block_tokens, total
            )
            if managers[0].has_prefix(_PREFIX_KEY):
                cached = prefix_blocks * config.block_tokens
                return total - prefix_blocks, prefix_blocks, cached
            return total, prefix_blocks, 0
        return total, 0, 0

    for _guard in range(_MAX_PASSES):
        if not (waiting or running or suspended):
            break
        iteration = len(tape.iterations)
        if not running and not suspended and waiting:
            clock = max(clock, waiting[0].arrival)

        kv_alloc = [0] * cost.n_stages
        kv_free = [0] * cost.n_stages
        prefills: List[Tuple[int, int]] = []
        decodes: List[Tuple[int, int]] = []
        gate: Optional[float] = None
        resumed: Set[int] = set()
        suspended_now = False

        def suspend(victim: int) -> None:
            nonlocal suspended_now
            suspended_now = True
            state = running.pop(victim)
            if config.kv_swap == "none":
                # Recompute preemption: drop everything, re-prefill later.
                for s in stages:
                    kv_free[s] += managers[s].free_request(victim, clock)
                tape.preemptions += 1
                waiting.insert(0, state.request)
                return
            decisions: List[int] = []
            for s in stages:
                freed = managers[s].evict_private(victim, clock)
                tape.swaps.append(
                    SwapDecision(rid=victim, stage=s, device=cost.stage_device(s),
                                 size=freed, out_iteration=iteration)
                )
                decisions.append(len(tape.swaps) - 1)
            parked_private[victim] = state.blocks_held - state.prefix_blocks
            state.blocks_held = state.prefix_blocks
            parked[victim] = state
            open_swaps[victim] = decisions
            suspended.append(victim)

        # 1. Resume suspended requests, strictly FIFO.
        while suspended:
            rid = suspended[0]
            blocks = parked_private[rid]
            if len(running) >= config.max_batch or not all(
                managers[s].can_allocate(blocks) for s in stages
            ):
                break
            suspended.pop(0)
            state = parked.pop(rid)
            for s in stages:
                # The device-side bytes come back on the swap-in
                # instructions, not on this iteration's compute.
                managers[s].restore_private(rid, blocks, clock)
            for index in open_swaps.pop(rid):
                tape.swaps[index].in_iteration = iteration
            state.blocks_held += blocks
            parked_private.pop(rid)
            running[rid] = state
            resumed.add(rid)

        # 2. Admit newly-arrived requests in order.
        while waiting and waiting[0].arrival <= clock and len(running) < config.max_batch:
            request = waiting[0]
            fresh, prefix_blocks, cached_tokens = fresh_blocks_needed(request)
            if not all(managers[s].can_allocate(fresh) for s in stages):
                break
            waiting.pop(0)
            key = _PREFIX_KEY if prefix_blocks else None
            for s in stages:
                kv_alloc[s] += managers[s].admit(
                    request.rid, cost.blocks_for_tokens(request.prompt_tokens),
                    clock, prefix_key=key, prefix_blocks=prefix_blocks,
                )
            if cached_tokens:
                tape.prefix_cache_hits += 1
                tape.prefix_saved_tokens += cached_tokens
            running[request.rid] = _Active(
                request=request, order=next_order,
                context=request.prompt_tokens, generated=1,
                blocks_held=cost.blocks_for_tokens(request.prompt_tokens),
                prefix_blocks=prefix_blocks, prefill_iter=iteration,
            )
            next_order += 1
            prefills.append((request.rid, max(1, request.prompt_tokens - cached_tokens)))
            gate = request.arrival if gate is None else max(gate, request.arrival)

        # 3. Decode one token for every request admitted before this
        #    iteration, in admission order.  Victims are only taken
        #    from later-admitted requests that have not decoded yet
        #    this iteration (and were not just resumed or prefilled),
        #    so an evicted block is never read after its swap-out.
        prefill_rids = {rid for rid, _ in prefills}
        for _, rid in sorted(
            (state.order, rid)
            for rid, state in running.items()
            if rid not in prefill_rids
        ):
            if rid not in running:
                continue  # evicted by an earlier decode this iteration
            state = running[rid]
            if state.context + 1 > state.blocks_held * config.block_tokens:
                stalled = False
                while not all(managers[s].can_allocate(1) for s in stages):
                    victims = [
                        (other.order, other_rid)
                        for other_rid, other in running.items()
                        if other.order > state.order
                        and other_rid not in prefill_rids
                        and other_rid not in resumed
                    ]
                    if victims:
                        suspend(max(victims)[1])
                    elif rid in resumed:
                        stalled = True  # just swapped in; sit this one out
                        break
                    else:
                        suspend(rid)
                        break
                if stalled or rid not in running:
                    continue
                for s in stages:
                    kv_alloc[s] += managers[s].append(rid, 1, clock)
                state.blocks_held += 1
            decodes.append((rid, state.context))
            state.context += 1
            state.generated += 1

        # 4. Retire completed requests; their KV drops with the
        #    iteration's compute.
        for rid, _ in prefills + decodes:
            state = running.get(rid)
            if state is None:
                continue
            if state.generated >= state.request.output_tokens:
                for s in stages:
                    kv_free[s] += managers[s].free_request(rid, clock)
                tape.completion[rid] = (state.prefill_iter, iteration)
                tape.total_output_tokens += state.request.output_tokens
                del running[rid]

        if not prefills and not decodes:
            idle_passes += 1
            if idle_passes > 64:
                raise SimulationError(
                    "serving livelock: suspend/resume cycles without progress "
                    "(shrink shared_prefix_tokens or grow kv_pool_mib)")
            if suspended_now or resumed:
                continue  # suspension/resume made progress, retry
            if waiting and not running:
                clock = max(clock, waiting[0].arrival)
                continue
            raise SimulationError(
                "serving deadlock: suspended work cannot fit back into the KV "
                "pool (shrink shared_prefix_tokens or grow kv_pool_mib)")
        idle_passes = 0

        prefill_tokens = [tokens for _, tokens in prefills]
        decode_contexts = [context for _, context in decodes]
        durations = []
        for s in stages:
            duration, prefill_flops, decode_flops = cost.price_iteration(
                s, prefill_tokens, decode_contexts)
            durations.append(duration)
            tape.total_flops += prefill_flops
            tape.total_flops += decode_flops
        clock += sum(durations)

        tape.iterations.append(
            IterationRecord(
                index=iteration,
                gate=gate,
                prefills=tuple(prefills),
                decodes=tuple(decodes),
                stage_durations=tuple(durations),
                kv_alloc=tuple(kv_alloc),
                kv_free=tuple(kv_free),
                boundary_tokens=sum(prefill_tokens) + len(decodes),
            )
        )
    else:
        raise SimulationError(
            "serving scheduler exceeded the pass guard — the KV pool is too "
            "small for the workload to make progress")

    for manager in managers:
        manager.check_books()
    if len(tape.completion) != len(tape.requests):
        raise SimulationError(
            f"serving ended with {len(tape.completion)} of "
            f"{len(tape.requests)} requests completed")
    return tape


def validate_pool(cost: ServingCost, requests: List[Request]) -> None:
    """Fail fast if any single request can never fit its KV."""
    worst = max(
        cost.blocks_for_tokens(r.prompt_tokens + r.output_tokens) for r in requests
    )
    for s in range(cost.n_stages):
        if worst * cost.block_bytes(s) > cost.kv_pool_bytes(s):
            raise ConfigurationError(
                f"stage {s}: a single request needs {worst} KV blocks "
                f"({worst * cost.block_bytes(s)} bytes) but the pool holds "
                f"{cost.kv_pool_bytes(s)} — raise kv_pool_mib")
