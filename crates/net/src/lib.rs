//! # saga-net
//!
//! Saga as a *server*: a hand-rolled, std-only, length-prefixed binary
//! protocol on TCP that puts the whole serving stack — KGQ queries, name
//! resolution, point record reads, and
//! [`WriteBatch`](saga_core::WriteBatch) commits — in front of
//! remote clients. Everything the platform built in-process (the
//! replicated fleet, read-your-writes sessions, the write-ahead log)
//! keeps its contracts across the wire:
//!
//! * [`protocol`] — the frame codec (magic + version + request id +
//!   opcode + payload length) and the request/response vocabulary.
//!   Payloads are binary, written with the [`saga_core::binary`]
//!   vocabulary the checkpoint sections use (varints, length-prefixed
//!   strings, tagged values) straight into the frame buffer and read
//!   straight out of it — one codec, one version, no negotiation. Torn,
//!   oversized and garbage frames are rejected without taking the server
//!   down.
//! * [`server`] — [`SagaServer`]: a thread-pool connection acceptor in
//!   front of a [`FleetRouter`](saga_fleet::FleetRouter) for reads and a
//!   [`LoggedWriter`](saga_graph::LoggedWriter) for writes — never a bare
//!   replica, so lag bounds, session filters and the write-ahead ordering
//!   all hold for networked traffic. Requests from one connection are
//!   *pipelined*: each carries a request id, executes on a shared worker
//!   pool, and responds out of order. A bounded admission semaphore plus
//!   queue-depth rejection turn overload into a typed
//!   [`Response::Overloaded`] instead of
//!   unbounded queueing.
//! * [`client`] — [`SagaClient`]: a blocking call API plus a pipelined
//!   `send`/`recv_by_id` API, with
//!   [`SessionToken`](saga_core::SessionToken) threading so a
//!   commit-then-query round trip keeps read-your-writes over TCP (and
//!   across reconnects).
//!
//! The freshness discipline mirrors the maintained-view contracts of
//! Kara et al. ("Conjunctive Queries with Free Access Patterns under
//! Updates"): a client that just committed must be routed to a replica at
//! or past its token's LSN, never a stale serve. See `docs/network.md`
//! for the frame format, opcode table, pipelining contract and
//! backpressure policy.

pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;

#[cfg(test)]
mod protocol_properties;

pub use client::{ClientConfig, SagaClient};
pub use pool::{BreakerConfig, BreakerState, EndpointStats, PoolConfig, RetryPolicy, SagaPool};
pub use protocol::{Committed, ErrorKind, Frame, FrameError, Request, Response, WireBatch, WireOp};
pub use server::{SagaServer, ServerConfig, ServerStats};
