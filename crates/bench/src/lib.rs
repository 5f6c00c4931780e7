//! # pnats-bench — the experiment harness
//!
//! Every table and figure of the paper, every ablation and every CI gate
//! is an entry of the [`experiments`] registry, run through the one
//! `pnats-bench` binary: `pnats-bench <name> [seed] [--smoke]`,
//! `pnats-bench all [seed]` (the whole paper sweep as one
//! EXPERIMENTS.md-ready report) and `pnats-bench list`. All of them are
//! built on this crate's [`harness`]: standard cluster configurations,
//! scheduler constructors and the parallel run matrix. [`bench_json`] is
//! the one writer of the `BENCH_*.json` result files.
//!
//! ## Standard configurations
//!
//! * [`harness::cloud_config`] — the **headline** configuration for the
//!   completion-time experiments (Figures 4–6): the paper's 60-node
//!   testbed shape with the cloud/NAS data layout of its §I motivation
//!   (replicas confined to each job's ingest subset) and shared-cluster
//!   background traffic. This is the regime where fine-grained
//!   network-aware placement has room to act.
//! * [`harness::hdfs_config`] — stock HDFS rack-aware layout on a quiet
//!   cluster; used for the locality experiments (Table III, Figure 7) and
//!   as a sensitivity point for the JCT experiments.
//!
//! Both are documented, deterministic and seed-parameterized.

pub mod bench_json;
pub mod experiments;
pub mod failover;
pub mod harness;

pub use harness::{
    batch_runs, cloud_config, harness_threads, hdfs_config, make_placer, mean_jct, parallel_map,
    run_matrix, run_matrix_with, trace_path, Ctx, PlacerSpec, Run, SchedulerKind, ALL_SCHEDULERS,
    PAPER_SCHEDULERS,
};
