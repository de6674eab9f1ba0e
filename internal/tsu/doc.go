// Package tsu implements the Thread Synchronization Unit (TSU) Group of the
// TFlux platform.
//
// The TSU is the component that performs data-driven scheduling: it holds
// the Synchronization Graph metadata of the currently loaded DDM Block,
// tracks the Ready Count of every DThread instance, and hands ready
// DThreads to the Kernels. TFlux groups the per-CPU TSUs into a single TSU
// Group; the units of the group split into per-kernel state and global
// state (paper §3.3).
//
// This package separates the TSU into three layers:
//
//   - State: the pure synchronization engine — Synchronization Memories
//     (one per kernel, holding the Ready Counts of the instances that
//     kernel owns), the Thread-to-Kernel Table (TKT) used for Thread
//     Indexing (§4.2), Block sequencing with synthesized Inlet/Outlet
//     DThreads (§2), and the post-processing arc expansion, in which a
//     large broadcast arc is one barrier cell (P + C Ready Count updates
//     instead of P×C; see compileBarriers). State has no
//     goroutines and no locks: in single-driver form, exactly one driver
//     mutates it — the Cell PPE emulator polling CommandBuffers (package
//     cellsim), the memory-mapped hardware device model (package hardsim),
//     or the TFluxSoft emulator goroutine in legacy mode (package rts).
//     The TKT itself is pluggable: a Mapping policy (range split,
//     round-robin, or the Access-region locality mapping) can re-assign
//     contexts to kernels; the default stays the paper's closed-form
//     chunked split.
//
//   - ShardedState: the parallel driver mode. The mutable bookkeeping is
//     partitioned into shards along TKT ownership; each shard is stepped
//     by one kernel's lane, which applies intra-shard decrements lock-free
//     and routes cross-shard decrements through per-shard inbox TUBs
//     drained at step boundaries. This replaces the single dedicated
//     emulator with bookkeeping spread across the kernels themselves; see
//     the ShardedState type for the two invariants that make it safe.
//
//   - TUB: the Thread-to-Update Buffer of the software TSU emulator
//     (§4.2). Kernels deposit completion records into the first available
//     segment using a non-blocking try-lock so that at most one segment is
//     held by any kernel at a time; the drainer empties segments in bulk.
//     A single-lock mode exists as an ablation of the segmentation design,
//     and an unbounded mode serves as the sharded engine's cross-shard
//     inbox (where a blocking Push could deadlock two shards).
//
// Read-only queries (arc expansion, TKT lookup) touch only immutable
// tables built at construction time and are safe to call from every kernel
// concurrently — this is the "Local TSU" half of the TSU Group. Mutating
// calls (Decrement, Done) belong to the single driver, or, in sharded
// mode, to the owning shard's stepper via its Lane.
package tsu
