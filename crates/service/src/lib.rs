//! # paco-service
//!
//! The front door of the PACO workspace: one typed request API over every
//! workload.
//!
//! The paper's central claim is that processor-aware (PACO) schedules beat
//! processor-oblivious ones *when the runtime knows `p` up front*.  Before
//! this crate that knowledge was scattered across five per-crate function
//! families, each hand-threading a `WorkerPool` and its own magic tuning
//! knob.  Here the same capability is one surface:
//!
//! * a [`Session`] owns the [`WorkerPool`](paco_runtime::WorkerPool) and a
//!   [`Tuning`] config (processor count, base/grain sizes, oversampling,
//!   trace mode) — construct it once, reuse it for every request;
//! * a two-phase [`Solve`] trait is implemented by typed request structs —
//!   [`Lcs`], [`Apsp`]/[`Closure`], [`MatMul`], [`Strassen`], [`Sort`],
//!   [`OneD`], [`Gap`] — each compiling a shape-only [`Skeleton`] of the
//!   runtime's wave-based [`Plan`](paco_runtime::schedule::Plan) IR and then
//!   *binding* its buffers to it.  Skeletons are cached per session (and per
//!   engine shard) keyed on [`ShapeKey`] + processor count +
//!   [`Tuning::epoch`], so repeated same-shaped requests plan once;
//! * three verbs run everything:
//!   [`Session::run`] (one request),
//!   [`Session::run_batch`] (a homogeneous batch through **one** pool pass via
//!   `Plan::batch`, so the barrier count is the *maximum* of the constituent
//!   wave counts, not the sum — now for every workload, including MM, Strassen
//!   and sort), and
//!   [`Session::submit`]/[`Session::flush`] (a deferred front-end that
//!   coalesces queued submissions — including *heterogeneous mixes* of
//!   workload types — into one pool pass and resolves them through
//!   [`Ticket`]s).
//!
//! For **concurrent ingress** the same executor core is fronted by an
//! [`Engine`]: `Engine::builder()` spawns one or more executor shards (each
//! owning its own pool), and [`Engine::client`] hands out
//! `Clone + Send` [`Client`]s whose [`Client::submit`] can be called from
//! any thread at any time — the executors gather whatever has arrived under
//! a [`BatchPolicy`] (batch size cap, gathering window — optionally
//! [`adaptive`](BatchPolicy::adaptive) to the arrival rate — queue
//! capacity, shard count, routing), merge it through the same step-erased
//! machinery, and resolve [`Ticket`]s as passes complete.  Producers block
//! on [`Ticket::wait`] (condvar, no spin) or poll [`Ticket::try_wait`];
//! nobody calls `flush`.
//!
//! The engine is **admission-controlled** for open-loop traffic: bound the
//! shard queues with [`BatchPolicy::capacity`] and [`Client::submit`]
//! becomes backpressure (blocks for space) while [`Client::try_submit`]
//! sheds load ([`Overloaded`]).  Requests carry [`SubmitOptions`] — a
//! [`Priority`] class the queues drain strictly by, and an optional
//! deadline after which a still-queued request resolves
//! [`TicketError::Expired`] instead of occupying a pass slot.
//!
//! **Stateful, incremental** workloads ride the same two verbs through the
//! [`incr_requests`] family: [`IncClose`] closes a graph once and registers
//! it in a [`HandleRegistry`] as a `Copy` [`ClosedGraph`] handle,
//! [`IncUpdate`] re-propagates [`EdgeUpdate`] batches through only the
//! dirty blocks (full re-closure fallback past
//! [`Tuning::incr_fallback_percent`]; a batch that must re-close from its
//! first effective update runs FW's parallel plan and commits at finish),
//! [`IncSnapshot`]/[`IncDrop`] read and
//! retire the state, and [`LcsTrace`] recovers an actual [`EditOp`]
//! alignment script in linear space.  Handle-carrying requests hint their
//! engine shard via [`Solve::route_hint`], so one graph's updates keep
//! their cache/queue affinity on a multi-shard [`Engine`].
//!
//! The pre-service free functions (`lcs_paco_with_base`, `fw_paco_batch`,
//! `paco_sort_with_oversampling`, …) are gone: the per-workload `*Run`
//! machinery they delegated to is what this crate schedules, and the
//! README's migration table maps each retired entry point to its request
//! type.
//!
//! ```
//! use paco_service::{Lcs, MatMul, Session, Sort};
//! use paco_core::workload::{random_keys, random_matrix_wrapping, related_sequences};
//!
//! let session = Session::new(2);
//!
//! // One request.
//! let (a, b) = related_sequences(200, 4, 0.2, 7);
//! let len = session.run(Lcs { a, b });
//!
//! // A homogeneous batch: one pool pass, max-of-waves barriers.
//! let sorted = session.run_batch((0..4).map(|i| Sort { keys: random_keys(100, i) }));
//! assert_eq!(sorted.len(), 4);
//!
//! // A deferred heterogeneous mix: queued, then one pool pass.
//! let t1 = session.submit(Lcs { a: vec![1, 2, 3], b: vec![2, 3, 4] });
//! let m = random_matrix_wrapping(16, 16, 1);
//! let t2 = session.submit(MatMul { a: m.clone(), b: m });
//! session.flush();
//! assert_eq!(t1.take(), 2);
//! assert_eq!(t2.take().rows(), 16);
//! # let _ = len;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod engine;
mod exec;
pub mod incr_requests;
pub mod policy;
pub mod requests;
pub mod session;
pub mod solve;
pub mod ticket;

pub use backend::Backend;
pub use cache::PlanCacheStats;
pub use client::{Client, Overloaded, SubmitOptions};
pub use engine::{Engine, EngineBuilder, EngineStats, ShardStats};
pub use incr_requests::{IncClose, IncDrop, IncSnapshot, IncUpdate, LcsTrace};
pub use paco_core::semiring::{Bottleneck, CountMod, Viterbi};
pub use paco_core::tuning::Tuning;
pub use paco_dp::lcs::EditOp;
pub use paco_incr::{ClosedGraph, ClosedState, EdgeUpdate, HandleRegistry, UpdateStats};
pub use policy::{BatchPolicy, Priority, Routing};
pub use requests::{Apsp, Closure, Gap, HeteroMatMul, Lcs, MatMul, OneD, Sort, Strassen};
pub use session::{RunStats, Session, SessionBuilder};
pub use solve::{Compiled, Prepared, ShapeKey, Skeleton, Solve};
pub use ticket::{Ticket, TicketError};
