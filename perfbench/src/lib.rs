//! The repository benchmark for the AsyncFilter stack.
//!
//! It drives the stack only through its public API: workloads build a
//! `Simulation` or a `BufferedServer` from seeded inputs, untraced runs give
//! the end-to-end numbers, and decorated, traced runs give per-layer numbers
//! measured from outside ([`layers`]). See `README.md` in this directory for
//! the workloads, the metrics and how they are expected to interact.

pub mod layers;
pub mod report;
pub mod workloads;
