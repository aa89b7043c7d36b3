//! # dcn-paging
//!
//! The **paging substrate** behind R-BMA. Theorem 2 of the paper reduces the
//! uniform (b,a)-matching problem to (b,a)-**paging**: one paging instance per
//! node whose cache (capacity `b`) holds the node pairs incident to it. The
//! randomized marking algorithm ([`Marking`]) plugged into that reduction
//! gives the `O(log(b/(b−a+1)))`-competitive uniform algorithm; Lemma 1 runs
//! the reduction in reverse to obtain the lower bound.
//!
//! The crate implements the classic paging model: a cache of fixed capacity,
//! fetch-on-fault (no bypassing), unit fault cost, free evictions — exactly
//! the model the paper's Theorem 2 adapts (§2.2 discusses the two cost-model
//! differences and handles them inside the proof; the reduction code in
//! `dcn-core` mirrors that).
//!
//! Policies:
//!
//! * [`Marking`] — randomized marking (Fiat et al. \[28\]); also the
//!   (b,a)-variant of Young \[75\] (the algorithm is identical, only the
//!   analysis compares against a smaller offline cache).
//! * [`DenseMarking`] — the same algorithm over a dense page universe
//!   known at construction (R-BMA's per-rack caches hold partner rack
//!   ids): flat index-addressed slot tables plus cached/marked bitsets,
//!   and an allocation-free access path. Draw-for-draw identical to
//!   [`Marking`] under the same seed (tested), so the two are
//!   interchangeable without changing simulated costs. Callers that can
//!   prove an access is a cached hit (R-BMA's matched-and-unmarked
//!   specials gate) may take the `mark_cached_hit` entry directly,
//!   skipping the probe/fault machinery with identical observable state.
//! * [`Lru`], [`Fifo`] — deterministic baselines (the chaser below forces
//!   them to fault on every request).
//! * [`Belady`] — the offline optimum (farthest-in-future), used as the
//!   denominator of empirical competitive ratios.
//!
//! [`adversary`] generates nemesis sequences: the uniform random sequence
//! over `k+1` pages (hard for randomized algorithms) and a *chaser* that
//! defeats any deterministic policy by always requesting an uncached page.
//! These drive the Θ(b) vs Θ(log b) separation experiment.

pub mod adversary;
pub mod belady;
pub mod dense;
pub mod fifo;
pub mod lru;
pub mod marking;
pub mod policy;
pub mod sim;

pub use belady::Belady;
pub use dense::{DenseAccess, DenseMarking};
pub use fifo::Fifo;
pub use lru::Lru;
pub use marking::Marking;
pub use policy::{Access, PageId, PagingPolicy};
pub use sim::{phase_count, run_policy, PagingStats};
