//! Golden fingerprints of the paper's 60-node experiment cells.
//!
//! The fluid network, the transfer manager and the runner's event loop
//! may be rewritten for speed only if every run stays bit-identical. This
//! suite pins, per cell, everything a run externalizes: the FNV-1a of the
//! decision-trace JSONL and of the task and job CSVs, the bits of the
//! makespan, of `sim_end` and of the network byte total, and the offer
//! count. The cells are the shared-cloud configuration behind Figures 4–6
//! and the stock-HDFS one behind Table III / Figure 7, each across the
//! paper's three applications and three schedulers, on test-sized
//! batches. Two more cells cover what the batch cells do not reach:
//!
//! * a cloud cell under a fault plan with a node crash and recovery, a
//!   link-degradation window and a heartbeat-loss window — the transfer
//!   teardown, link rescaling and wake re-arming paths;
//! * two cells cut short by `max_sim_time`, where `sim_end` is the time of
//!   the last event dispatched rather than of the last job completion. In
//!   the second that event is a transfer wake-up gone stale, which the
//!   runner no longer pushes and must still account for.
//!
//! The values were captured before the fluid-path optimizations and must
//! never be edited to make a change pass. On a mismatch the assertion
//! prints the observed row in source form, for diagnosis.

use pnats_bench::harness::{cloud_config, hdfs_config, Run, SchedulerKind, PAPER_SCHEDULERS};
use pnats_core::faults::{FaultPlan, HeartbeatLoss, LinkDegradation, NodeCrash};
use pnats_obs::FaultKind;
use pnats_sim::{check_report, JobInput, SimConfig, SimReport};
use pnats_workloads::{scaled_batch, AppKind};

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one cell pins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Golden {
    decisions: u64,
    tasks: u64,
    jobs: u64,
    makespan: u64,
    sim_end: u64,
    network_bytes: u64,
    offers: u64,
}

impl Golden {
    fn of(r: &SimReport) -> Self {
        Self {
            decisions: fnv64(r.trace_jsonl.as_deref().expect("traced run yields JSONL").as_bytes()),
            tasks: fnv64(r.trace.tasks_csv().as_bytes()),
            jobs: fnv64(r.trace.jobs_csv().as_bytes()),
            makespan: r.trace.makespan().to_bits(),
            sim_end: r.sim_end.to_bits(),
            network_bytes: r.trace.network_bytes.to_bits(),
            offers: r.counters.offers,
        }
    }

    fn source_row(&self, name: &str) -> String {
        format!(
            "(\"{name}\", g(0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}, {})),",
            self.decisions,
            self.tasks,
            self.jobs,
            self.makespan,
            self.sim_end,
            self.network_bytes,
            self.offers
        )
    }
}

const fn g(
    decisions: u64,
    tasks: u64,
    jobs: u64,
    makespan: u64,
    sim_end: u64,
    network_bytes: u64,
    offers: u64,
) -> Golden {
    Golden { decisions, tasks, jobs, makespan, sim_end, network_bytes, offers }
}

const SEED: u64 = 42;

fn inputs(app: AppKind) -> Vec<JobInput> {
    JobInput::from_batch(&scaled_batch(app, 8, 12))
}

/// The 18 paper cells: cloud/hdfs × WordCount/TeraSort/Grep × the three
/// paper schedulers.
fn paper_cells() -> Vec<(String, Run)> {
    let mut cells = Vec::new();
    for (setup, cfg) in [("cloud", cloud_config(SEED)), ("hdfs", hdfs_config(SEED))] {
        for app in [AppKind::Wordcount, AppKind::Terasort, AppKind::Grep] {
            for kind in PAPER_SCHEDULERS {
                let name = format!("{setup}/{}/{}", app.to_string().to_lowercase(), kind.label());
                cells.push((name, Run::new(kind, cfg.clone(), inputs(app)).traced()));
            }
        }
    }
    cells
}

/// A crash with recovery, a link-degradation window and a heartbeat-loss
/// window, all inside the active period of the cloud TeraSort batch.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.crashes = vec![
        NodeCrash { node: 7, at: 20.0, recover_at: Some(45.0) },
        NodeCrash { node: 23, at: 35.0, recover_at: None },
    ];
    plan.link_degradations =
        vec![LinkDegradation { node: 11, from: 10.0, until: 50.0, factor: 0.2 }];
    plan.heartbeat_losses = vec![HeartbeatLoss { node: 31, from: 15.0, until: 40.0 }];
    plan
}

fn fault_cell() -> (String, Run) {
    let mut cfg = cloud_config(SEED);
    cfg.faults = fault_plan();
    let run = Run::new(SchedulerKind::Probabilistic, cfg, inputs(AppKind::Terasort)).traced();
    ("cloud/terasort/probabilistic+faults".to_string(), run)
}

/// The cloud WordCount batch under coupling, stopped at `max_sim_time`
/// well before it finishes. The cut sits between two heartbeats, so the
/// last event dispatched need not be one.
fn truncated_cell() -> (String, Run) {
    let mut cfg: SimConfig = cloud_config(SEED);
    cfg.max_sim_time = 30.01;
    let run = Run::new(SchedulerKind::Coupling, cfg, inputs(AppKind::Wordcount)).traced();
    ("cloud/wordcount/coupling@max_sim_time".to_string(), run)
}

/// A smaller HDFS TeraSort batch cut at a `max_sim_time` whose last
/// dispatched event is a stale transfer wake-up.
fn stale_wake_cell() -> (String, Run) {
    let mut cfg: SimConfig = hdfs_config(SEED);
    cfg.max_sim_time = 5.0 + 5.0 * 0.73 + 5.0 * 0.0091;
    let inputs = JobInput::from_batch(&scaled_batch(AppKind::Terasort, 6, 12));
    let run = Run::new(SchedulerKind::Probabilistic, cfg, inputs).traced();
    ("hdfs/terasort/probabilistic@stale_wake_end".to_string(), run)
}

#[rustfmt::skip]
const GOLDENS: &[(&str, Golden)] = &[
    ("cloud/wordcount/probabilistic", g(0x1c9c261268b67d03, 0xe1317a111e4594c3, 0x29fe3f19518e3e20, 0x40529b48d250f0a3, 0x40529b48d250f0a3, 0x422bb22521d24b78, 621)),
    ("cloud/wordcount/coupling", g(0x941ef7035d43dcbc, 0xaa61f99b521fa561, 0xf045fb3fc23f13d8, 0x40533c41e8e0ede1, 0x40533c41e8e0ede1, 0x422b577787e33617, 9648)),
    ("cloud/wordcount/fair", g(0x547bcac8178050ab, 0xa765095a717946e3, 0x8d05123b83768b28, 0x40550989a8eb4350, 0x40550989a8eb4350, 0x42215cad2d3a5c09, 2766)),
    ("cloud/terasort/probabilistic", g(0xc6c7c0742ea83e39, 0x837fa47fcef5b258, 0x006af0fdc0d874fa, 0x40506a6da71f9841, 0x40506a6da71f9841, 0x4228149e434a3c90, 553)),
    ("cloud/terasort/coupling", g(0x5a5658fd61a13c4f, 0x01c0226ee5508cd8, 0x9bcf7c3538104e84, 0x404af3b1959946e4, 0x404af3b1959946e4, 0x4227ca165d130026, 7805)),
    ("cloud/terasort/fair", g(0x1370e77ef9d40673, 0x20bdca4e4ec08fc2, 0x85593fe632358272, 0x405177eb67ecd4f5, 0x405177eb67ecd4f5, 0x421b21dcf612adb1, 2613)),
    ("cloud/grep/probabilistic", g(0x09b9c340a58d186c, 0xe300217d89fae03c, 0x6e6032ee36d0c30e, 0x40457afc4f726030, 0x40457afc4f726030, 0x4216c00e347542f2, 475)),
    ("cloud/grep/coupling", g(0x2ac1badbb61052d1, 0x4740600008e6a3cb, 0xf292987a649b7c9c, 0x4048a6de258b97ee, 0x4048a6de258b97ee, 0x42168d93f3fe58c8, 9106)),
    ("cloud/grep/fair", g(0x606d38c4a698822d, 0xbdde9be644bd3ff9, 0x8331b78076e06e7a, 0x404ea1b27a35ccc1, 0x404ea1b27a35ccc1, 0x41d5a076c0f70579, 2430)),
    ("hdfs/wordcount/probabilistic", g(0x751bca6d665fe400, 0x82818561d18aff33, 0x09f00b1bebc89f10, 0x40536dbcf2aaca42, 0x40536dbcf2aaca42, 0x4227f15f8726dcf5, 544)),
    ("hdfs/wordcount/coupling", g(0x88a9509076028a38, 0x23e3faae6f451906, 0xa8a73c294e5f673c, 0x40528371c5a70f06, 0x40528371c5a70f06, 0x4227b575b5a81131, 7619)),
    ("hdfs/wordcount/fair", g(0x31f32e814e7617eb, 0xbf3f92ca7f94134b, 0xe93414fc32aba5f6, 0x4054fe7e45df0fc0, 0x4054fe7e45df0fc0, 0x422108350a730900, 1515)),
    ("hdfs/terasort/probabilistic", g(0x03c05da3bc8ceaf4, 0x019359fb6858b028, 0xdb48177c93c3cb16, 0x404dc160d1dc4dc7, 0x404dc160d1dc4dc7, 0x42246eeac091d900, 523)),
    ("hdfs/terasort/coupling", g(0xa969d12e4e345b8e, 0x248acc21c8441211, 0xfc97499a450bf6b2, 0x404ca46bc7481a21, 0x404ca46bc7481a21, 0x4224d07c8d3b3560, 8585)),
    ("hdfs/terasort/fair", g(0x618b9a7d1d2aaefd, 0xe9468000912ad705, 0xa1957ec4047f75ce, 0x404a39f101069b30, 0x404a39f101069b30, 0x421b1188fc757d0e, 1592)),
    ("hdfs/grep/probabilistic", g(0x60a74a611d7d67ee, 0xcc7838b3d0627c9b, 0x231da8fabeb9924a, 0x4046b078f53f58a4, 0x4046b078f53f58a4, 0x420f9044d58e782d, 466)),
    ("hdfs/grep/coupling", g(0xe0703e4aa40ca46a, 0x73412efe62ca67b7, 0xa50d96fac66619a2, 0x4046bfe31078328b, 0x4046bfe31078328b, 0x4211630df20b0633, 8065)),
    ("hdfs/grep/fair", g(0x4cb98e962ea9db56, 0x13d40724d52c6fb1, 0xd55a768de3535cd0, 0x40487b95a0efbfa0, 0x40487b95a0efbfa0, 0x41d7b4d950613592, 1574)),
    ("cloud/terasort/probabilistic+faults", g(0x8dd8dbe37ff9f5fb, 0xe55a488602f1b356, 0xe2028c6a3ad9ed58, 0x40507fc916ea8ac0, 0x40507fc916ea8ac0, 0x42291e771b113b1b, 569)),
    ("cloud/wordcount/coupling@max_sim_time", g(0x48c37ef383cbb5eb, 0x86879d6828ad2c93, 0x5663754f60bd767b, 0x0000000000000000, 0x403e000000000000, 0x42211302a99c8021, 6572)),
    ("hdfs/terasort/probabilistic@stale_wake_end", g(0xb2342dbee97d182f, 0x315ccf821e94b4e3, 0x5663754f60bd767b, 0x0000000000000000, 0x402162dd13cce822, 0x42033bb6636b27d9, 227)),
];

#[test]
fn paper_cells_match_their_goldens() {
    let mut cells = paper_cells();
    cells.push(fault_cell());
    cells.push(truncated_cell());
    cells.push(stale_wake_cell());
    let mut observed = Vec::new();
    let mut mismatched = Vec::new();
    for (name, run) in cells {
        let inputs = run.inputs.clone();
        let r = run.execute();
        let got = Golden::of(&r);
        observed.push(got.source_row(&name));
        let want = GOLDENS.iter().find(|(n, _)| *n == name).map(|(_, g)| *g);
        if want != Some(got) {
            mismatched.push(name.clone());
        }
        if name.contains('@') {
            assert!(!r.all_completed(), "{name}: the cut must land before the batch finishes");
        } else {
            assert!(r.all_completed(), "{name}: {}/{} jobs", r.jobs_completed, r.jobs_submitted);
            check_report(&r, &inputs).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "cells off their goldens: {mismatched:?}\nobserved:\n{}",
        observed.join("\n")
    );
    assert_eq!(GOLDENS.len(), observed.len(), "every golden names a cell");
}

#[test]
fn fault_cell_exercises_every_injected_fault_class() {
    let (name, run) = fault_cell();
    let r = run.execute();
    assert!(r.counters.node_crashes >= 2, "{name}: crashes must fire");
    assert!(r.counters.lost_heartbeats > 0, "{name}: loss window must drop heartbeats");
    let degraded = r.faults.iter().filter(|f| f.kind == FaultKind::LinkDegraded).count();
    assert_eq!(degraded, 1, "{name}: degradation window must open");
}
