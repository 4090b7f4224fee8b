//! A minimal, deterministic data-parallel runtime.
//!
//! The face-map rasterization (cells × pairs classifications) and the
//! Monte-Carlo experiment sweeps are embarrassingly parallel. Rather than
//! pulling in rayon, this crate implements the one primitive the suite
//! needs — an indexed parallel map with dynamic load balancing — on
//! `std::thread::scope` plus an atomic chunk dispenser, following the
//! scoped-threads + atomics idioms of the session's HPC guides.
//!
//! Guarantees:
//!
//! * **Determinism** — `par_map(items, f)` returns exactly
//!   `items.iter().map(f).collect()` in order, regardless of thread count
//!   or scheduling (workers tag chunks with their start index).
//! * **Panic propagation** — a panicking closure aborts the whole map and
//!   re-panics on the caller's thread.
//! * **Seed hygiene** — [`seed_for`] derives independent per-item RNG seeds
//!   from a master seed with SplitMix64, so parallel Monte-Carlo trials
//!   reproduce bit-for-bit at any parallelism level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod seed;

pub use pool::{chunk_len, par_map, par_map_threads, recommended_threads};
pub use seed::seed_for;
