//! **RPT-E** — the end-to-end entity-resolution pipeline (§3, Fig. 5):
//!
//! ```text
//! tables A, B ──▶ Blocker ──▶ candidate pairs ──▶ Matcher (pretrained,
//!   few-shot calibrated) ──▶ matches ──▶ Clusterer (transitive closure,
//!   conflict detection) ──▶ clusters ──▶ Consolidator (golden records)
//! ```
//!
//! The matcher is a pretrained pair classifier trained *collaboratively* on
//! other benchmarks (leave-one-out, the paper's opportunity O1) and adapted
//! to the target's "subjective" criteria with a few examples (opportunity
//! O2, PET-style).

mod blocker;
mod cluster;
mod consolidate;
mod federated;
mod fewshot;
mod matcher;
mod pipeline;

pub use blocker::{Blocker, BlockerConfig, BlockingStats};
pub use cluster::{find_conflicts, transitive_closure, Clusters, Conflict};
pub use consolidate::{Consolidator, Preference};
pub use federated::{federated_rounds, FederatedConfig};
pub use fewshot::{
    calibrate_threshold, calibrate_threshold_f1, infer_match_patterns, MatchPatterns,
};
pub use matcher::{Matcher, MatcherConfig};
pub use pipeline::{ErPipeline, PipelineReport};
