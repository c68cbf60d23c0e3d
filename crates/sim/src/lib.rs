//! Trace-driven serving simulator for hybrid-LLM prefix caching.
//!
//! Replays a [`marconi_workload::Trace`] against any
//! [`marconi_core::PrefixCache`], producing per-request [`EventRecord`]s
//! (hit tokens, FLOPs, TTFT) in an aggregate [`EventReport`], the one
//! record and report type every driver returns. TTFT comes from an analytic
//! [`GpuModel`]: prefill is compute-bound, so time-to-first-token is the
//! FLOPs of the *uncached* prefill portion divided by effective device
//! throughput plus a fixed overhead, an analytic stand-in for the paper's
//! 4×A100 testbed (`docs/latency.md` covers the load-dependent model).
//!
//! The [`Comparison`] runner drives the same trace through Marconi and
//! every baseline (vanilla, vLLM+, SGLang+, and the offline static-α
//! oracle) for the paper's end-to-end experiments.
//!
//! Beyond the paper's single-replica setting, [`EventCluster`] shards the
//! cache across N replicas behind a pluggable [`Router`] from the
//! [`cluster`] module (round-robin, session-affinity, prefix-aware, or
//! queue-aware placement) to study how much prefix reuse survives at
//! cluster scale; see `ARCHITECTURE.md` for the layer's contract.
//!
//! ## The event layer (`event`)
//!
//! The engine above replays instantaneously — arrivals only *order*
//! requests. The [`event`] module adds a deterministic discrete-event
//! simulator: [`EventSim`] drives arrivals through a per-device FIFO
//! admission queue into a continuous-batching executor ([`BatchConfig`]:
//! chunked prefill shared FIFO across batch slots, one decode token per
//! decoding request per iteration, slots freed mid-batch), with iteration
//! latencies from the same [`GpuModel`] and cache insertion at request
//! *completion*. Its [`EventReport`] carries what the engine cannot see:
//! queueing delay, load-dependent TTFT (= queue + prefill), device
//! utilization, and goodput under an SLO; the engine fills those fields
//! with zero-load values. [`EventCluster`] shards
//! it behind the routers, whose [`ReplicaStatus`] then carries live queue
//! depth; in zero-time mode
//! ([`EventClusterBuilder::instantaneous`]) it is the multi-replica
//! counterpart of [`Engine`]; for single-tier replicas the engine's
//! load-blind TTFT is [`GpuModel::ttft_ms`] of each record's input and
//! hit tokens.
//!
//! **Determinism guarantees:** the event layer is a pure function of
//! `(trace, cache config, BatchConfig, ServiceMode)` — no wall clock and
//! no unseeded randomness anywhere in the subsystem; simultaneous events
//! resolve executor-before-arrival, then by replica index, then FIFO, in
//! the one event loop [`EventSim`] and [`EventCluster`] share. In the
//! [`ServiceMode::Instantaneous`] limit it reproduces [`Engine`]
//! **byte-for-byte** in every non-latency record field (the zero-load
//! parity contract in `ARCHITECTURE.md`).
//!
//! # Examples
//!
//! ```
//! use marconi_model::ModelConfig;
//! use marconi_sim::{Comparison, GpuModel, SystemKind};
//! use marconi_workload::{DatasetKind, TraceGenerator};
//!
//! let trace = TraceGenerator::new(DatasetKind::ShareGpt)
//!     .sessions(5)
//!     .seed(1)
//!     .generate();
//! let cmp = Comparison::new(ModelConfig::hybrid_7b(), 4 << 30)
//!     .gpu(GpuModel::a100_x4())
//!     .systems(&[SystemKind::Vanilla, SystemKind::Marconi])
//!     .run(&trace);
//! let marconi = cmp.report(SystemKind::Marconi).unwrap();
//! let vanilla = cmp.report(SystemKind::Vanilla).unwrap();
//! assert!(marconi.token_hit_rate() >= vanilla.token_hit_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod comparison;
mod engine;
pub mod event;
mod executor;
mod gpu;
mod report;

pub use cluster::{
    PrefixAware, QueueAware, ReplicaStatus, RoundRobin, Router, RoutingPolicy, SessionAffinity,
};
pub use comparison::{Comparison, ComparisonResult, SystemKind};
pub use engine::Engine;
pub use event::{EventCluster, EventClusterBuilder, EventClusterReport, EventSim};
pub use executor::{BatchConfig, ServiceMode};
pub use gpu::{decode_token_flops, GpuModel, ReloadDecision};
pub use report::{EventRecord, EventReport};
