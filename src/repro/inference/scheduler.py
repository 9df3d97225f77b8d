"""Continuous-batching serving scheduler (plan-time, deterministic).

The scheduler runs the whole serving episode on a logical clock.  It
hands each decided iteration (admission gate, per-stage durations, KV
alloc/free, boundary tokens) and each swap decision straight to the
serving lowering (`repro.inference.lowering`), which emits them onto
the discrete-event substrate at once; the interpreters then replay
exactly these decisions with real link timings — the same
plan-then-simulate split the training planner uses.  What the metrics
need afterwards (swaps, completions, counters) stays on the returned
:class:`ServingTape`.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.inference.costing import ServingCost
from repro.inference.kvcache import KVBlockManager
from repro.inference.workload import InferenceConfig, Request
from repro.sim.memory import DeviceMemory

_MAX_PASSES = 1_000_000
_PREFIX_KEY = "system-prompt"
_LIVELOCK = ("serving livelock: suspend/resume cycles without progress "
             "(shrink shared_prefix_tokens or grow kv_pool_mib)")


@dataclass
class SwapDecision:
    """One stage's share of one suspension: bytes leaving a device."""

    rid: int
    stage: int
    device: int
    size: int
    out_iteration: int
    in_iteration: Optional[int] = None


@dataclass
class ServingTape:
    """The scheduler's full decision record for one serving episode."""

    requests: List[Request]
    n_iterations: int = 0
    swaps: List[SwapDecision] = field(default_factory=list)
    completion: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    preemptions: int = 0
    prefix_cache_hits: int = 0
    prefix_saved_tokens: int = 0
    total_flops: float = 0.0
    total_output_tokens: int = 0

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


@dataclass(eq=False)
class _Active:
    """Mutable per-request serving state."""

    request: Request
    order: int                  # admission sequence number (victim priority)
    context: int = 0            # tokens whose KV is (logically) resident
    generated: int = 0
    blocks_held: int = 0        # incl. shared prefix blocks
    prefix_blocks: int = 0
    prefill_iter: int = -1
    shielded: int = -1          # pass that prefilled or resumed it (no victim)
    live: bool = True           # in the running list
    parked_blocks: int = 0      # private blocks out while suspended
    open_swaps: List[SwapDecision] = field(default_factory=list)


def schedule_serving(
    requests: List[Request], cost: ServingCost, config: InferenceConfig, sink,
) -> ServingTape:
    """Run the continuous-batching policy; returns the decision tape.

    ``sink`` (the serving lowering) receives every decision the moment
    it is made: ``swap_out(decision)`` as a request is suspended,
    ``swap_in(decision)`` for each resumed stage share once its
    iteration is decided, after that iteration's swap-outs, and then
    ``iteration(index, gate, durations, kv_alloc, kv_free,
    boundary_tokens)`` with the per-stage compute it runs.
    """
    n_stages = cost.n_stages
    stages = range(n_stages)
    managers = [
        KVBlockManager(
            DeviceMemory(name=f"kvplan{s}", capacity=cost.kv_pool_bytes(s)),
            cost.block_bytes(s),
        )
        for s in stages
    ]
    validate_pool(cost, requests)
    pricing = [cost.stage_pricing(s).price for s in stages]
    devices = [cost.stage_device(s) for s in stages]
    block_tokens = config.block_tokens
    max_batch = config.max_batch
    recompute = config.kv_swap == "none"
    prefix_blocks_wanted = 0
    if config.shared_prefix_tokens >= block_tokens:
        prefix_blocks_wanted = config.shared_prefix_tokens // block_tokens
    last_arrival = max(request.arrival for request in requests)
    tape = ServingTape(requests=list(requests))
    waiting = deque(requests)
    running: List[_Active] = []     # admission order
    suspended = deque()             # _Active, FIFO
    resumed_swaps: List[SwapDecision] = []   # swap-ins of this iteration
    clock = 0.0
    iteration = 0
    next_order = 0
    idle_passes = 0
    n_suspends = 0
    self_preempted = False
    # States entered after a self-preemption since the last completion.
    seen: Set[tuple] = set()

    def fits(n_blocks: int) -> bool:
        for manager in managers:
            if not manager.can_allocate(n_blocks):
                return False
        return True

    def suspend(state: _Active) -> None:
        nonlocal n_suspends
        n_suspends += 1
        rid = state.request.rid
        running.remove(state)
        state.live = False
        if recompute:
            # Recompute preemption: drop everything, re-prefill later.
            for s, manager in enumerate(managers):
                kv_free[s] += manager.free_request(rid, clock)
            tape.preemptions += 1
            waiting.appendleft(state.request)
            return
        pending = [decision for decision in resumed_swaps if decision.rid == rid]
        if pending:
            # Resumed in an idle pass of this same iteration, so nothing
            # has read its blocks: undo the resume rather than swap the
            # same bytes out before they are back.
            for manager in managers:
                manager.evict_private(rid, clock)
            for decision in pending:
                decision.in_iteration = None
                resumed_swaps.remove(decision)
            state.open_swaps = pending
        else:
            for s, manager in enumerate(managers):
                decision = SwapDecision(
                    rid=rid, stage=s, device=devices[s],
                    size=manager.evict_private(rid, clock),
                    out_iteration=iteration)
                tape.swaps.append(decision)
                state.open_swaps.append(decision)
                sink.swap_out(decision)
        state.parked_blocks = state.blocks_held - state.prefix_blocks
        state.blocks_held = state.prefix_blocks
        suspended.append(state)

    for pass_no in range(_MAX_PASSES):
        if not (waiting or running or suspended):
            break
        if self_preempted and clock >= last_arrival:
            # Once every request has arrived the clock steers no
            # decision, so a state that recurs recurs forever.  A loop
            # without a completion must undo progress, and only a
            # recompute self-preemption closes one: any other victim
            # leaves an earlier request that keeps decoding.
            state_key = (
                idle_passes,
                managers[0].has_prefix(_PREFIX_KEY),
                tuple(request.rid for request in waiting),
                tuple((state.request.rid, state.context, state.generated,
                       state.blocks_held, state.prefix_blocks)
                      for state in running),
            )
            if state_key in seen:
                raise SimulationError(_LIVELOCK)
            seen.add(state_key)
        self_preempted = False
        if not running and not suspended and waiting:
            clock = max(clock, waiting[0].arrival)

        kv_alloc = [0] * n_stages
        kv_free = [0] * n_stages
        prefilled: List[_Active] = []
        prefill_tokens: List[int] = []
        decoded: List[_Active] = []
        decode_contexts: List[int] = []
        gate: Optional[float] = None
        suspends_before = n_suspends
        resumed_now = False

        # 1. Resume suspended requests, strictly FIFO.
        while suspended:
            state = suspended[0]
            blocks = state.parked_blocks
            if len(running) >= max_batch or not fits(blocks):
                break
            suspended.popleft()
            rid = state.request.rid
            for manager in managers:
                # The device-side bytes come back on the swap-in
                # instructions, not on this iteration's compute.
                manager.restore_private(rid, blocks, clock)
            for decision in state.open_swaps:
                decision.in_iteration = iteration
            resumed_swaps.extend(state.open_swaps)
            state.open_swaps = []
            state.blocks_held += blocks
            state.shielded = pass_no
            state.live = True
            at = len(running)
            while at and running[at - 1].order > state.order:
                at -= 1
            running.insert(at, state)
            resumed_now = True
        decoders = list(running)  # everyone admitted before this iteration

        # 2. Admit newly-arrived requests in order.
        while waiting and waiting[0].arrival <= clock and len(running) < max_batch:
            request = waiting[0]
            total = cost.blocks_for_tokens(request.prompt_tokens)
            prefix_blocks = cached_tokens = 0
            if request.shared_prefix and prefix_blocks_wanted:
                prefix_blocks = min(prefix_blocks_wanted, total)
                if managers[0].has_prefix(_PREFIX_KEY):
                    cached_tokens = prefix_blocks * block_tokens
            fresh = total - prefix_blocks if cached_tokens else total
            if not fits(fresh):
                break
            waiting.popleft()
            key = _PREFIX_KEY if prefix_blocks else None
            for s, manager in enumerate(managers):
                kv_alloc[s] += manager.admit(
                    request.rid, total, clock,
                    prefix_key=key, prefix_blocks=prefix_blocks,
                )
            if cached_tokens:
                tape.prefix_cache_hits += 1
                tape.prefix_saved_tokens += cached_tokens
            state = _Active(
                request=request, order=next_order,
                context=request.prompt_tokens, generated=1,
                blocks_held=total, prefix_blocks=prefix_blocks,
                prefill_iter=iteration, shielded=pass_no,
            )
            next_order += 1
            running.append(state)
            prefilled.append(state)
            prefill_tokens.append(max(1, request.prompt_tokens - cached_tokens))
            gate = request.arrival if gate is None else max(gate, request.arrival)

        # 3. Decode one token for every request admitted before this
        #    iteration, in admission order.  Victims are only taken
        #    from later-admitted requests that have not decoded yet
        #    this iteration (and were not just resumed or prefilled),
        #    so an evicted block is never read after its swap-out.
        for state in decoders:
            if not state.live:
                continue  # evicted by an earlier decode this iteration
            if state.context + 1 > state.blocks_held * block_tokens:
                stalled = False
                while not fits(1):
                    victim = None
                    for other in reversed(running):
                        if other.order <= state.order:
                            break
                        if other.shielded != pass_no:
                            victim = other
                            break
                    if victim is not None:
                        suspend(victim)
                    elif state.shielded == pass_no:
                        stalled = True  # just swapped in; sit this one out
                        break
                    else:
                        suspend(state)
                        self_preempted = recompute
                        break
                if stalled or not state.live:
                    continue
                rid = state.request.rid
                for s, manager in enumerate(managers):
                    kv_alloc[s] += manager.append(rid, 1, clock)
                state.blocks_held += 1
            decoded.append(state)
            decode_contexts.append(state.context)
            state.context += 1
            state.generated += 1

        # 4. Retire completed requests; their KV drops with the
        #    iteration's compute.
        for state in prefilled + decoded:
            if state.generated >= state.request.output_tokens:
                rid = state.request.rid
                for s, manager in enumerate(managers):
                    kv_free[s] += manager.free_request(rid, clock)
                tape.completion[rid] = (state.prefill_iter, iteration)
                tape.total_output_tokens += state.request.output_tokens
                running.remove(state)
                state.live = False
                seen.clear()

        if not prefilled and not decoded:
            idle_passes += 1
            if idle_passes > 64:
                raise SimulationError(_LIVELOCK)
            if resumed_now or n_suspends != suspends_before:
                continue  # suspension/resume made progress, retry
            if waiting and not running:
                clock = max(clock, waiting[0].arrival)
                continue
            raise SimulationError(
                "serving deadlock: suspended work cannot fit back into the KV "
                "pool (shrink shared_prefix_tokens or grow kv_pool_mib)")
        idle_passes = 0

        durations = []
        for price in pricing:
            duration, prefill_flops, decode_flops = price(
                prefill_tokens, decode_contexts)
            durations.append(duration)
            tape.total_flops += prefill_flops
            tape.total_flops += decode_flops
        clock += sum(durations)
        for decision in resumed_swaps:
            sink.swap_in(decision)
        resumed_swaps.clear()
        sink.iteration(iteration, gate, durations, kv_alloc, kv_free,
                       sum(prefill_tokens) + len(decode_contexts))
        iteration += 1
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
    tape.n_iterations = iteration
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
