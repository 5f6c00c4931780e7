//! The live runtime's gates: a real TCP tracker and workers must reproduce
//! the in-process engine's output byte for byte — on a clean network
//! (`cluster_smoke`), across tracker SIGKILLs (`tracker_failover`) and
//! under an escalating wire-fault ladder (`chaos_soak`).

use crate::bench_json;
use crate::failover::{cluster_bin, run_kill_trial, KillTrial};
use crate::harness::Ctx;
use pnats_cluster::{
    check_cluster_report, placer_by_name, run_cluster, run_cluster_chaos, ChaosFault,
    ClusterConfig, JobSpec, LinkRule,
};
use pnats_engine::MapReduceEngine;
use pnats_rpc::{BreakerPolicy, ChaosPlan, Handler, Msg, RetryPolicy, RpcClient, RpcServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic prose-ish input of at least `kib` KiB: lines of
/// `per_line` words drawn from `words` by an LCG started at `state`.
fn words_input(kib: usize, words: &[&str], mut state: u64, per_line: usize) -> String {
    let mut s = String::new();
    while s.len() < kib * 1024 {
        for _ in 0..per_line {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(words[(state >> 33) as usize % words.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// The fault-free engine output of WordCount on `input` under the paper's
/// placer — the bytes every live run must reproduce.
fn engine_reference(
    cfg: &ClusterConfig,
    n_reduces: usize,
    input: &str,
) -> Result<Vec<(String, String)>, String> {
    let expected = MapReduceEngine::new(cfg.engine_config()).run(
        &JobSpec::WordCount.job(n_reduces),
        input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    if expected.failed {
        return Err("engine reference run failed".into());
    }
    Ok(expected.output)
}

/// Mean and p99 round-trip (µs) of an idle-shaped heartbeat against a
/// loopback echo server: pure framing + TCP cost, no scheduling work.
fn heartbeat_rtt_us(rounds: usize) -> (f64, f64) {
    let echo: Handler = Arc::new(|m| m);
    let server =
        RpcServer::bind("127.0.0.1:0", echo, Duration::from_millis(200)).expect("bind echo");
    let mut client =
        RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(2))
            .expect("connect echo");
    let hb = Msg::Heartbeat {
        node: 0,
        epoch: 0,
        free_map_slots: 2,
        free_reduce_slots: 1,
        progress: vec![],
        map_done: vec![],
        map_failed: vec![],
        reduce_done: vec![],
        running_reduces: vec![],
        rpc_retries: 0,
        breaker_trips: 0,
        breaker_closes: 0,
        alt_fetches: 0,
        corrupt_frames: 0,
    };
    for _ in 0..16 {
        client.call(&hb).expect("warmup call");
    }
    let mut us: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            client.call(&hb).expect("rtt call");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    let p99 = us[(us.len() * 99 / 100).min(us.len() - 1)];
    (mean, p99)
}

/// CI smoke for the cluster runtime: a real TCP JobTracker plus three
/// TaskTracker workers run WordCount, and the output must be
/// byte-identical to an in-process engine run of the same job on the same
/// seed. Also measures the framed heartbeat round-trip over loopback TCP —
/// the per-heartbeat overhead the cluster runtime pays versus the engine's
/// in-process calls — for the EXPERIMENTS.md parity methodology section,
/// and records it in `BENCH_cluster.json`.
pub fn cluster_smoke(ctx: &mut Ctx, seed: u64, _smoke: bool) -> Result<(), String> {
    const WORDS: &[&str] = &[
        "smoke", "tracker", "worker", "heartbeat", "frame", "assign", "block", "replica",
        "shuffle", "partition",
    ];
    let wall = Instant::now();

    let cfg = ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        seed,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;
    let input = words_input(32, WORDS, 0x853C_49E6_748F_EA9B, 9);

    let t = Instant::now();
    let expected = engine_reference(&cfg, n_reduces, &input)?;
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let report = run_cluster(
        &cfg,
        &JobSpec::WordCount,
        n_reduces,
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    let cluster_ms = t.elapsed().as_secs_f64() * 1e3;

    if report.failed {
        return Err("cluster run failed".into());
    }
    check_cluster_report(&report).map_err(|e| format!("oracle violation: {e}"))?;
    if report.output != expected {
        return Err("PARITY FAILURE — cluster output diverged from engine output".into());
    }

    let (rtt_mean, rtt_p99) = heartbeat_rtt_us(256);
    ctx.println(format!(
        "cluster_smoke ok seed={seed} nodes={} n_maps={} n_reduces={} \
         engine_ms={engine_ms:.1} cluster_ms={cluster_ms:.1} \
         hb_rtt_mean_us={rtt_mean:.1} hb_rtt_p99_us={rtt_p99:.1} total_s={:.2}",
        cfg.n_nodes,
        report.n_maps,
        report.n_reduces,
        wall.elapsed().as_secs_f64()
    ));

    // The machine-readable trail CI diffs across commits.
    bench_json::set_keys(
        "BENCH_cluster.json",
        &[
            ("bench", "\"cluster_smoke\"".to_string()),
            ("seed", seed.to_string()),
            ("n_nodes", cfg.n_nodes.to_string()),
            ("n_maps", report.n_maps.to_string()),
            ("n_reduces", report.n_reduces.to_string()),
            ("engine_ms", format!("{engine_ms:.1}")),
            ("cluster_ms", format!("{cluster_ms:.1}")),
            ("hb_rtt_mean_us", format!("{rtt_mean:.1}")),
            ("hb_rtt_p99_us", format!("{rtt_p99:.1}")),
        ],
    )?;
    ctx.println("Heartbeat RTT written to BENCH_cluster.json");
    Ok(())
}

/// The tracker-kill job shape shared by `tracker_failover` and the last
/// rung of `chaos_soak`: maps are paced to ~320 ms each so a kill lands
/// mid-job.
const KILL_NODES: usize = 4;
const KILL_REDUCES: usize = 3;
const KILL_HEARTBEAT_MS: u64 = 3;
const KILL_BLOCK_BYTES: usize = 32 << 10;
const KILL_CPU_US_PER_KIB: u64 = 10_000;
const KILL_INPUT_KIB: usize = 384; // 12 maps of 32 KiB

fn kill_trial(seed: u64, label: &str, kill_ms: u64, kill_worker: bool) -> KillTrial {
    KillTrial {
        seed,
        label: label.to_string(),
        kill_after: Duration::from_millis(kill_ms),
        kill_worker,
        nodes: KILL_NODES,
        reduces: KILL_REDUCES,
        heartbeat_ms: KILL_HEARTBEAT_MS,
        block_bytes: KILL_BLOCK_BYTES,
        cpu_us_per_kib: KILL_CPU_US_PER_KIB,
    }
}

/// The engine reference for a tracker-kill trial of `input`.
fn kill_reference(seed: u64, input: &str) -> Result<Vec<(String, String)>, String> {
    let cfg = ClusterConfig {
        n_nodes: KILL_NODES,
        heartbeat: Duration::from_millis(KILL_HEARTBEAT_MS),
        block_bytes: KILL_BLOCK_BYTES,
        cpu_us_per_kib: KILL_CPU_US_PER_KIB,
        seed,
        ..ClusterConfig::default()
    };
    engine_reference(&cfg, KILL_REDUCES, input)
}

/// Tracker-failover bench: SIGKILL a real `pnats-cluster tracker` OS
/// process mid-job at escalating offsets (first map wave, wave boundary,
/// then compound tracker+worker kills mid and late reduce), restart it on
/// the *same address* over its journal, and gate the recovered run on the
/// full oracle stack (see [`crate::failover::run_kill_trial`]):
///
/// * the job completes with output byte-identical to a fault-free engine
///   run of the same seed,
/// * every surviving worker process is still alive at restart time —
///   orphaned, not dead — and re-attaches instead of re-registering,
/// * the journal replays cleanly and deterministically,
/// * exactly one restart and one replay are booked.
///
/// Also measures **failover latency** — tracker kill → first
/// post-recovery assignment — and records mean/p99 in
/// `BENCH_cluster.json`. `--smoke` runs two kill points instead of four
/// and leaves `BENCH_cluster.json` untouched.
pub fn tracker_failover(ctx: &mut Ctx, seed: u64, smoke: bool) -> Result<(), String> {
    const WORDS: &[&str] = &[
        "failover", "journal", "replay", "reattach", "orphan", "epoch", "ledger", "tracker",
        "recover", "assign",
    ];
    let wall = Instant::now();
    let bin = cluster_bin()?;
    let input = words_input(KILL_INPUT_KIB, WORDS, 0xA076_1D64_78BD_642F, 10);
    let expected = kill_reference(seed, &input)?;

    // The kill ladder: tracker-only kills in the first map wave and at
    // the wave boundary, then compound tracker+worker kills mid and late
    // reduce (the worker loss forces the recovered tracker to expire the
    // never-reattaching peer and place fresh re-executions, so the later
    // points still produce a failover-latency sample). `--smoke` keeps
    // the two most telling points.
    let full: &[(&str, u64, bool)] = &[
        ("mid-map", 200, false),
        ("wave-boundary", 350, false),
        ("mid-reduce+worker-loss", 450, true),
        ("late-reduce+worker-loss", 600, true),
    ];
    let points: &[(&str, u64, bool)] = if smoke {
        &[("mid-map", 200, false), ("mid-reduce+worker-loss", 450, true)]
    } else {
        full
    };

    let scratch = std::env::temp_dir().join(format!("pnats-failover-{}", std::process::id()));
    let mut latencies = Vec::new();
    for (label, kill_ms, kill_worker) in points {
        let dir = scratch.join(label);
        let t = kill_trial(seed, label, *kill_ms, *kill_worker);
        match run_kill_trial(&bin, &dir, &t, &input, &expected) {
            Ok(Some(ms)) => {
                ctx.println(format!(
                    "tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms={ms:.1}"
                ));
                latencies.push(ms);
            }
            Ok(None) => {
                // Every live assignment was inherited at re-attach; the
                // recovery gates all passed but there is no fresh-assignment
                // instant to measure.
                ctx.println(format!(
                    "tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms=n/a"
                ));
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(&scratch);
                return Err(format!("trial {label}: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if latencies.is_empty() {
        return Err("no trial produced a fresh post-recovery assignment; \
                    nothing to record in BENCH_cluster.json"
            .into());
    }
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let written = bench_json::record(
        "BENCH_cluster.json",
        &[
            ("failover_trials", latencies.len().to_string()),
            ("failover_ms_mean", format!("{mean:.1}")),
            ("failover_ms_p99", format!("{p99:.1}")),
        ],
        smoke,
    )?;
    ctx.println(format!(
        "tracker_failover ok seed={seed} smoke={smoke} trials={} failover_ms_mean={mean:.1} \
         failover_ms_p99={p99:.1} total_s={:.2}",
        latencies.len(),
        wall.elapsed().as_secs_f64()
    ));
    ctx.println(if written {
        "Failover latency merged into BENCH_cluster.json"
    } else {
        "Smoke run: BENCH_cluster.json left untouched"
    });
    Ok(())
}

/// The escalation ladder: stage index, label, plan. Later stages subsume
/// harsher faults; stage 0 is the control (transparent proxies).
fn ladder(seed: u64) -> Vec<(&'static str, ChaosPlan)> {
    vec![
        ("clean", ChaosPlan::none()),
        (
            "shaped",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::Delay(Duration::from_millis(1))))
                .with_rule(LinkRule::on(
                    "data:w1",
                    ChaosFault::Throttle { chunk_bytes: 64, pause: Duration::from_micros(200) },
                )),
        ),
        (
            "dirty",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::CorruptFrames { p: 0.03 }))
                .with_rule(LinkRule::on("data:w2", ChaosFault::TruncateFrames { p: 0.02 })),
        ),
        (
            "lossy",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::DropFrames { p: 0.03 }))
                .with_rule(LinkRule::on("ctl:w1", ChaosFault::ResetAfterFrames(40)).conns(0, Some(1))),
        ),
        (
            "partitioned",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::on("data:w0", ChaosFault::PartitionFromUpstream)),
        ),
    ]
}

/// Chaos soak: the cluster runtime under an escalating ladder of wire
/// faults, every stage gated by the full oracle stack. Each stage runs
/// WordCount through [`run_cluster_chaos`] with a seeded [`ChaosPlan`]
/// and must (1) complete, (2) produce output byte-identical to a
/// fault-free engine run of the same seed, (3) pass the report oracle
/// ([`check_cluster_report`]), and (4) pass the simulator's
/// completion-ledger oracle ([`pnats_sim::check_cluster_run`]). Any gate
/// failure is fatal — this is the robustness regression CI leans on.
///
/// Determinism artifact: live chaos traffic is timing-shaped (how many
/// frames a connection carries depends on scheduling), so the replayable
/// record is [`ChaosPlan::simulate`] — the plan expanded over a fixed
/// traffic envelope. The soak expands it twice, requires byte-identical
/// JSONL, and writes it to `chaos_soak_trace.jsonl` for CI to diff.
///
/// The final rung leaves the in-process harness entirely: a real
/// `pnats-cluster tracker` OS process is SIGKILLed mid-job and restarted
/// over its journal (see [`crate::failover`]), with the same fatal
/// engine byte-parity gate as every other stage.
///
/// `--smoke` shrinks the input so the whole ladder fits in a CI smoke
/// budget.
pub fn chaos_soak(ctx: &mut Ctx, seed: u64, smoke: bool) -> Result<(), String> {
    const WORDS: &[&str] = &[
        "soak", "ladder", "escalate", "corrupt", "truncate", "reset", "partition", "breaker",
        "degrade", "recover",
    ];
    const STATE: u64 = 0x9E6C_63D0_7698_5FFD;
    let wall = Instant::now();

    let cfg = ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        io_timeout: Duration::from_millis(100),
        retry: RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(25),
            seed,
        },
        breaker: BreakerPolicy { threshold: 2, cooldown: 2 },
        max_wall: Duration::from_secs(60),
        seed,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;
    let input = words_input(if smoke { 16 } else { 64 }, WORDS, STATE, 10);

    // Fault-free engine reference: every stage must reproduce these bytes.
    let expected = engine_reference(&cfg, n_reduces, &input)?;

    // Determinism gate on the replayable artifact: the same plan expanded
    // twice over the same envelope must be byte-identical JSONL.
    let links = ["ctl:w0", "ctl:w1", "ctl:w2", "data:w0", "data:w1", "data:w2"];
    let mut artifact = String::new();
    for (name, plan) in ladder(seed) {
        let a = plan.simulate(&links, 4, 64);
        let b = plan.simulate(&links, 4, 64);
        if a != b {
            return Err(format!("stage {name}: simulate() is not deterministic"));
        }
        artifact.push_str(&a);
    }
    std::fs::write("chaos_soak_trace.jsonl", &artifact).expect("write chaos_soak_trace.jsonl");

    for (stage, (name, plan)) in ladder(seed).into_iter().enumerate() {
        let t = Instant::now();
        let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
        let (report, net) =
            run_cluster_chaos(&cfg, &JobSpec::WordCount, n_reduces, &input, placer, plan);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let stage_err = |what: String| format!("stage {stage} ({name}): {what}");
        if report.failed {
            return Err(stage_err("job failed".into()));
        }
        check_cluster_report(&report).map_err(|e| stage_err(format!("report oracle: {e}")))?;
        pnats_sim::check_cluster_run(
            &report.counters,
            &report.completions,
            report.n_maps,
            report.n_reduces,
            report.failed,
        )
        .map_err(|e| stage_err(format!("completion-ledger oracle: {e}")))?;
        if report.output != expected {
            return Err(stage_err("OUTPUT DIVERGED from engine".into()));
        }
        let c = &report.counters;
        if name == "partitioned" && (c.breaker_trips == 0 || c.reexecuted_maps == 0) {
            return Err(stage_err(format!("partition left no breaker/re-execution trail: {c:?}")));
        }
        ctx.println(format!(
            "chaos_soak stage={stage} name={name} ok wall_ms={ms:.0} events={} retries={} \
             corrupt={} trips={} closes={} alt={} reexec={}",
            net.events().len(),
            c.rpc_retries,
            c.corrupt_frames,
            c.breaker_trips,
            c.breaker_closes,
            c.alt_source_fetches,
            c.reexecuted_maps,
        ));
    }

    // Final rung: the tracker itself dies. A real OS-process tracker is
    // SIGKILLed mid-map-wave and restarted on the same address over its
    // journal; byte parity with the engine stays fatal.
    let t = Instant::now();
    let kill_input = words_input(KILL_INPUT_KIB, WORDS, STATE, 10);
    let kill_expected = kill_reference(seed, &kill_input)?;
    let bin = cluster_bin()?;
    let dir = std::env::temp_dir().join(format!("pnats-soak-kill-{}", std::process::id()));
    let trial = kill_trial(seed, "tracker-kill", 200, false);
    let result = run_kill_trial(&bin, &dir, &trial, &kill_input, &kill_expected);
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|e| format!("stage 5 (tracker-kill): {e}"))?;
    ctx.println(format!(
        "chaos_soak stage=5 name=tracker-kill ok wall_ms={:.0}",
        t.elapsed().as_secs_f64() * 1e3
    ));

    ctx.println(format!(
        "chaos_soak ok seed={seed} smoke={smoke} stages=6 artifact=chaos_soak_trace.jsonl \
         total_s={:.2}",
        wall.elapsed().as_secs_f64()
    ));
    Ok(())
}
