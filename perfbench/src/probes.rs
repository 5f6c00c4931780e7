//! Layer probes of the traced run: each one drives a layer's public
//! functions directly with inputs shaped like a workload's, and times the
//! calls from outside.
//!
//! * `net`: a seeded churn on `paper_cloud`'s own topology — its 8
//!   background flows plus ~200 task flows — through `FlowNetwork` and the
//!   simulator's `Transfers`.
//! * `rpc`: `Msg::encode`/`decode` of heartbeat and assignment messages
//!   shaped like a `cluster_live` job's, and `RpcClient::call` round trips
//!   against an echo `RpcServer` on loopback.
//! * `journal`: a live job's own journal records replayed through
//!   `Journal::append`, without and with fsync, and the recovery read.
//! * `engine`: one rotation of `cluster_live` jobs run through the
//!   `exec` map/reduce primitives with no pacing — the compute floor.

use crate::live::{live_job, LiveJob};
use crate::out::Out;
use crate::stats::{median, percentile};
use pnats_bench::harness::cloud_config;
use pnats_cluster::{
    check_journal_recovery, read_journal, FsyncPolicy, Journal, JournalRecord, JournalState,
};
use pnats_core::Partitioner;
use pnats_engine::exec::{execute_map, execute_reduce, split_blocks, MapProgressGauges};
use pnats_net::{FlowNetwork, NodeId, RoutingTable};
use pnats_rpc::{
    Assignment, Handler, MapDone, Msg, ProgressReport, RetryPolicy, RpcClient, RpcServer,
};
use pnats_sim::transfers::{TransferTag, Transfers};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Task flows kept in flight beside the background flows.
const TASK_FLOWS: usize = 200;
/// Timed operations per probe; enough that a p99 has ten samples beyond.
const OPS: usize = 1_500;

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `net.*`: max-min refill after one flow add/remove, and the simulator's
/// transfer operations (`start`/`reap` + `next_wake`), at the population
/// `paper_cloud` runs with.
pub fn net(seed: u64, out: &mut Out) {
    let cfg = cloud_config(seed);
    let topo = cfg.build_topology();
    let routes = RoutingTable::new(&topo);
    let n = topo.n_nodes();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6e65_7470_726f_6265);
    let pair = |rng: &mut SmallRng| {
        let src = rng.gen_range(0..n);
        let dst = (src + rng.gen_range(1..n)) % n;
        (NodeId(src as u32), NodeId(dst as u32))
    };
    // The background lanes each open with a flow at t = 0.
    let background: Vec<(NodeId, NodeId)> = cfg
        .background
        .iter()
        .filter(|f| f.start == 0.0)
        .map(|f| (NodeId(f.src as u32), NodeId(f.dst as u32)))
        .collect();

    let mut fx = FlowNetwork::new(&topo);
    for &(s, d) in &background {
        fx.add_flow(s, d, routes.route(s, d));
    }
    let mut tasks: Vec<_> = (0..TASK_FLOWS)
        .map(|_| {
            let (s, d) = pair(&mut rng);
            fx.add_flow(s, d, routes.route(s, d))
        })
        .collect();
    fx.ensure_rates();
    let mut fill_us = Vec::with_capacity(OPS);
    for i in 0..OPS {
        if i % 2 == 0 {
            let victim = tasks.swap_remove(rng.gen_range(0..tasks.len()));
            fx.remove_flow(victim);
        } else {
            let (s, d) = pair(&mut rng);
            tasks.push(fx.add_flow(s, d, routes.route(s, d)));
        }
        let t = Instant::now();
        fx.ensure_rates();
        fill_us.push(elapsed_us(t));
    }
    out.put_pct("net.fill.p50_us", percentile(&fill_us, 0.5), 1.0, "us");
    out.put_pct("net.fill.p99_us", percentile(&fill_us, 0.99), 1.0, "us");
    out.put("net.flows", fx.n_active() as f64, "count");

    let mut tr = Transfers::new(&topo);
    for (idx, &(s, d)) in background.iter().enumerate() {
        tr.start(0.0, s, d, f64::INFINITY, TransferTag::Background { idx });
    }
    let mut next_map = 0usize;
    let mut start_one = |tr: &mut Transfers, rng: &mut SmallRng, now: f64| {
        let (s, d) = pair(rng);
        let bytes = rng.gen_range(8e6..128e6);
        tr.start(
            now,
            s,
            d,
            bytes,
            TransferTag::MapFetch {
                job: 0,
                map: next_map,
            },
        );
        next_map += 1;
    };
    for _ in 0..TASK_FLOWS {
        start_one(&mut tr, &mut rng, 0.0);
    }
    let mut op_us = Vec::with_capacity(OPS);
    while op_us.len() < OPS {
        let Some((now, _)) = tr.next_wake() else {
            break;
        };
        let t = Instant::now();
        let done = tr.reap(now);
        for _ in 0..done.len() {
            start_one(&mut tr, &mut rng, now);
        }
        std::hint::black_box(tr.next_wake());
        op_us.push(elapsed_us(t));
    }
    out.put_pct("net.transfer_op.p50_us", percentile(&op_us, 0.5), 1.0, "us");
    out.put_pct(
        "net.transfer_op.p99_us",
        percentile(&op_us, 0.99),
        1.0,
        "us",
    );
}

/// A heartbeat and its reply shaped like `job`'s: two running maps'
/// progress, one finished map, and a reply assigning a remote map.
fn job_messages(n_reduces: usize, n_maps: u32) -> [Msg; 2] {
    let part_bytes = vec![4096u64; n_reduces];
    let hb = Msg::Heartbeat {
        node: 1,
        epoch: 0,
        free_map_slots: 1,
        free_reduce_slots: 1,
        progress: (0..2)
            .map(|m| ProgressReport {
                map: m,
                attempt: 0,
                d_read: 2048,
                part_bytes: part_bytes.clone(),
            })
            .collect(),
        map_done: vec![MapDone {
            map: 2,
            attempt: 0,
            bytes: part_bytes.clone(),
        }],
        map_failed: vec![],
        reduce_done: vec![],
        running_reduces: vec![(0, 0)],
        rpc_retries: 0,
        breaker_trips: 0,
        breaker_closes: 0,
        alt_fetches: 0,
        corrupt_frames: 0,
    };
    let reply = Msg::HeartbeatReply {
        assignments: vec![
            Assignment::Map {
                map: n_maps - 1,
                attempt: 0,
                doomed: false,
                sources: vec!["127.0.0.1:40001".to_string(), "127.0.0.1:40002".to_string()],
            },
            Assignment::Reduce {
                reduce: 1,
                attempt: 0,
                n_maps,
            },
        ],
        invalidate: vec![],
        ignored: false,
        dead: false,
        shutdown: false,
        reattach: false,
    };
    [hb, reply]
}

/// `rpc.*`: wire encode/decode of job-shaped messages and loopback RTT.
pub fn rpc(job: &LiveJob, block_bytes: usize, out: &mut Out) {
    let n_maps = split_blocks(&job.input, block_bytes).len() as u32;
    let msgs = job_messages(3, n_maps);
    let (mut enc_ns, mut dec_ns) = (Vec::with_capacity(OPS), Vec::with_capacity(OPS));
    for i in 0..OPS {
        let m = &msgs[i % 2];
        let t = Instant::now();
        let bytes = std::hint::black_box(m.encode());
        enc_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let back = std::hint::black_box(Msg::decode(&bytes));
        dec_ns.push(t.elapsed().as_nanos() as f64);
        assert!(back.as_ref() == Ok(m), "wire round trip changed a message");
    }
    out.put_pct("rpc.encode.p50_ns", percentile(&enc_ns, 0.5), 1.0, "ns");
    out.put_pct("rpc.decode.p50_ns", percentile(&dec_ns, 0.5), 1.0, "ns");

    let echo: Handler = Arc::new(|m| m);
    let mut server = RpcServer::bind("127.0.0.1:0", echo, Duration::from_millis(200))
        .expect("bind echo server on loopback");
    let mut rtt_us = Vec::with_capacity(OPS);
    {
        let mut client = RpcClient::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(2),
        )
        .expect("connect to echo server");
        for _ in 0..32 {
            client.call(&msgs[0]).expect("warm-up call");
        }
        for _ in 0..OPS {
            let t = Instant::now();
            client.call(&msgs[0]).expect("echo call");
            rtt_us.push(elapsed_us(t));
        }
    }
    server.stop();
    out.put_pct("rpc.rtt.p50_us", percentile(&rtt_us, 0.5), 1.0, "us");
    out.put_pct("rpc.rtt.p99_us", percentile(&rtt_us, 0.99), 1.0, "us");
}

/// Appends made with fsync on; enough for a p50 with ten beyond.
const FSYNC_APPENDS: usize = 40;

/// `journal.*`: a job's records replayed through `Journal::append`, then
/// the recovery read of that journal.
pub fn journal(records: &[JournalRecord], bytes: u64, dir: &Path, out: &mut Out) {
    assert!(
        !records.is_empty(),
        "a finished job journals at least its start"
    );
    out.put("journal.records", records.len() as f64, "count");
    out.put("journal.bytes", bytes as f64, "bytes");
    let path = dir.join("probe.journal");
    let append = |policy: FsyncPolicy, n: usize| -> Vec<f64> {
        let mut j = Journal::create(&path, policy).expect("create probe journal");
        (0..n)
            .map(|i| {
                let t = Instant::now();
                j.append(&records[i % records.len()])
                    .expect("append to probe journal");
                elapsed_us(t)
            })
            .collect()
    };
    let plain = append(FsyncPolicy::Never, OPS.max(records.len()));
    out.put_pct("journal.append.p50_us", percentile(&plain, 0.5), 1.0, "us");
    out.put_pct("journal.append.p99_us", percentile(&plain, 0.99), 1.0, "us");
    let synced = append(FsyncPolicy::Always, FSYNC_APPENDS);
    out.put_pct(
        "journal.append_fsync.p50_us",
        percentile(&synced, 0.5),
        1.0,
        "us",
    );

    // The recovery read over exactly the job's own records.
    {
        let mut j = Journal::create(&path, FsyncPolicy::Never).expect("create probe journal");
        for r in records {
            j.append(r).expect("append to probe journal");
        }
    }
    let replay_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let back = read_journal(&path).expect("read probe journal");
            JournalState::from_records(&back).expect("replay probe journal");
            check_journal_recovery(&back).expect("probe journal recovers");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    out.put("journal.replay_ms", median(&replay_ms), "ms");
}

/// `engine.*`: the compute floor of one rotation of live jobs (one job of
/// each kind), per job. Returns the floor in ms per job.
pub fn engine(seed: u64, block_bytes: usize, out: &mut Out) -> f64 {
    let jobs: Vec<LiveJob> = (0..3).map(|i| live_job(seed, i)).collect();
    let (mut map_ms, mut reduce_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut m, mut r) = (0.0, 0.0);
        for job in &jobs {
            let ej = job.spec.job(3);
            let blocks = split_blocks(&job.input, block_bytes);
            let gauges = MapProgressGauges::new(ej.n_reduces);
            let t = Instant::now();
            let outputs: Vec<Vec<Vec<(String, String)>>> = blocks
                .iter()
                .map(|b| {
                    execute_map(
                        &*ej.mapper,
                        b,
                        ej.n_reduces,
                        Partitioner::Hash,
                        &gauges,
                        || {},
                    )
                    .0
                })
                .collect();
            m += t.elapsed().as_secs_f64() * 1e3;
            // Each reduce's input in map-index order, as a worker's fetch
            // loop assembles it.
            let inputs: Vec<Vec<(String, String)>> = (0..ej.n_reduces)
                .map(|part| {
                    outputs
                        .iter()
                        .flat_map(|o| o[part].iter().cloned())
                        .collect()
                })
                .collect();
            let t = Instant::now();
            for pairs in inputs {
                std::hint::black_box(execute_reduce(&*ej.reducer, pairs));
            }
            r += t.elapsed().as_secs_f64() * 1e3;
        }
        map_ms.push(m / jobs.len() as f64);
        reduce_ms.push(r / jobs.len() as f64);
    }
    let (m, r) = (median(&map_ms), median(&reduce_ms));
    out.put("engine.exec_map.self_ms", m, "ms");
    out.put("engine.exec_reduce.self_ms", r, "ms");
    m + r
}
