//! Machine-readable benchmark for the persistent worker-pool subsystem.
//!
//! Three measurements, one JSON document (default `BENCH_3.json`):
//!
//! 1. **dispatch** — the cost of one fork/join batch of `k` trivial tasks
//!    via `std::thread::scope` (a fresh OS thread per task, the shape the
//!    engine used before the pool) vs [`distfl_pool::WorkerPool::scope`]
//!    (persistent workers, no spawn). This isolates pure dispatch
//!    overhead: the engine pays one such batch per round when it steps
//!    nodes in parallel.
//! 2. **flood** — a staged step/deliver round pipeline on a dense
//!    bipartite topology (medium traffic: ~8k messages per round), this
//!    benchmark's own replica of the engine's former sharded round, run
//!    with the *same* worker code under both dispatch mechanisms at
//!    thread counts {1, 2, 4, 8}. The speedup is the per-round win from
//!    eliminating thread spawns.
//! 3. **exp_all_quick** — `experiments::run_all(quick)` serial (zero
//!    workers, trials inline) vs pooled, asserting the emitted CSVs are
//!    byte-identical and reporting both wall clocks.
//!
//! The document records `"cores"`: on a single-core host the dispatch and
//! flood wins are real (both contenders get the same core; only the spawn
//! overhead differs) while multi-core scaling of `exp_all` is not
//! measurable — the JSON says which regime produced it.
//!
//! Usage: `bench_pool [--quick] [--smoke] [--out PATH]`.

use std::sync::Arc;
use std::time::Instant;

use distfl_congest::{NodeId, Topology, WorkerPool};

/// Nanoseconds for the best (minimum) of `reps` timed runs of `f`.
fn best_nanos(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// One fork/join batch of `k` trivial tasks on fresh scoped threads.
fn scoped_batch(k: usize) {
    std::thread::scope(|scope| {
        for _ in 0..k {
            scope.spawn(|| {
                std::hint::black_box(0u64);
            });
        }
    });
}

/// The same batch dispatched onto the persistent pool.
fn pool_batch(pool: &WorkerPool, k: usize) {
    pool.scope(|scope| {
        for _ in 0..k {
            scope.spawn(|| {
                std::hint::black_box(0u64);
            });
        }
    });
}

/// How a flood round dispatches its two stages.
enum Dispatch {
    Scoped,
    Pool(Arc<WorkerPool>),
}

/// A staged step/deliver flood pipeline in the engine's former shape:
/// persistent outbox/inbox buffers, chunked node stepping, sharded
/// delivery. The *only* difference between the two dispatch modes is who
/// runs the chunk closures — fresh scoped threads or pool workers.
struct FloodPipeline {
    topo: Topology,
    outboxes: Vec<Vec<(NodeId, u64)>>,
    inboxes: Vec<Vec<(NodeId, u64)>>,
}

impl FloodPipeline {
    fn new(topo: Topology) -> Self {
        let n = topo.num_nodes();
        Self {
            topo,
            outboxes: (0..n).map(|_| Vec::new()).collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Runs `rounds` rounds at the given thread count; returns delivered
    /// messages (used to keep the work honest across modes).
    fn run(&mut self, threads: usize, rounds: u32, dispatch: &Dispatch) -> u64 {
        let n = self.topo.num_nodes();
        let chunk = n.div_ceil(threads.max(1));
        let mut delivered = 0u64;
        for round in 0..rounds {
            let topo = &self.topo;
            // Step stage: every node broadcasts the round counter.
            let step = |base: usize, outbox_chunk: &mut [Vec<(NodeId, u64)>]| {
                for (offset, outbox) in outbox_chunk.iter_mut().enumerate() {
                    outbox.clear();
                    let id = NodeId::new((base + offset) as u32);
                    for &nb in topo.neighbors(id) {
                        outbox.push((nb, u64::from(round)));
                    }
                }
            };
            let step = &step;
            match dispatch {
                Dispatch::Scoped => std::thread::scope(|scope| {
                    for (ci, oc) in self.outboxes.chunks_mut(chunk).enumerate() {
                        scope.spawn(move || step(ci * chunk, oc));
                    }
                }),
                Dispatch::Pool(pool) => {
                    pool.scope(|scope| {
                        for (ci, oc) in self.outboxes.chunks_mut(chunk).enumerate() {
                            scope.spawn(move || step(ci * chunk, oc));
                        }
                    });
                }
            }
            // Deliver stage: each shard owns an inbox range and scans all
            // outboxes for messages addressed into it.
            let outboxes = &self.outboxes;
            let deliver = |base: usize, inbox_chunk: &mut [Vec<(NodeId, u64)>]| {
                let hi = base + inbox_chunk.len();
                for inbox in inbox_chunk.iter_mut() {
                    inbox.clear();
                }
                for (src_index, outbox) in outboxes.iter().enumerate() {
                    let src = NodeId::new(src_index as u32);
                    for &(dst, msg) in outbox {
                        let d = dst.index();
                        if d >= base && d < hi {
                            inbox_chunk[d - base].push((src, msg));
                        }
                    }
                }
            };
            let deliver = &deliver;
            match dispatch {
                Dispatch::Scoped => std::thread::scope(|scope| {
                    for (ci, ic) in self.inboxes.chunks_mut(chunk).enumerate() {
                        scope.spawn(move || deliver(ci * chunk, ic));
                    }
                }),
                Dispatch::Pool(pool) => {
                    pool.scope(|scope| {
                        for (ci, ic) in self.inboxes.chunks_mut(chunk).enumerate() {
                            scope.spawn(move || deliver(ci * chunk, ic));
                        }
                    });
                }
            }
            delivered += self.inboxes.iter().map(|ib| ib.len() as u64).sum::<u64>();
        }
        delivered
    }
}

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut out_path = "BENCH_3.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!("usage: bench_pool [--quick] [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        quick = true;
    }
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 1. Dispatch microbenchmark.
    let dispatch_reps = if quick { 200 } else { 2_000 };
    let mut dispatch_entries = Vec::new();
    for &k in &[2usize, 4, 8] {
        let pool = WorkerPool::shared(k - 1);
        // Warm both paths once before timing.
        scoped_batch(k);
        pool_batch(&pool, k);
        let scoped_ns = best_nanos(dispatch_reps, || scoped_batch(k));
        let pool_ns = best_nanos(dispatch_reps, || pool_batch(&pool, k));
        let speedup = scoped_ns as f64 / pool_ns as f64;
        eprintln!("dispatch k={k}: scoped={scoped_ns} ns pool={pool_ns} ns speedup={speedup:.1}x");
        dispatch_entries.push(format!(
            "    {{\"tasks\": {k}, \"scoped_spawn_ns\": {scoped_ns}, \
             \"pool_ns\": {pool_ns}, \"speedup\": {speedup:.2}}}"
        ));
    }

    // 2. Flood pipeline: same staged worker code, two dispatch modes.
    let (flood_reps, flood_rounds) = if smoke { (1usize, 3u32) } else { (3usize, 20u32) };
    let thread_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let topo = Topology::complete_bipartite(20, 200).expect("topology");
    let mut flood_entries = Vec::new();
    for &threads in thread_counts {
        let pool = WorkerPool::shared(threads.saturating_sub(1));
        let mut pipeline = FloodPipeline::new(topo.clone());
        // Warm-up + message-count cross-check between the two modes.
        let scoped_msgs = pipeline.run(threads, 1, &Dispatch::Scoped);
        let pool_msgs = pipeline.run(threads, 1, &Dispatch::Pool(Arc::clone(&pool)));
        assert_eq!(scoped_msgs, pool_msgs, "modes must do identical work");
        let scoped_ns = best_nanos(flood_reps, || {
            pipeline.run(threads, flood_rounds, &Dispatch::Scoped);
        });
        let pool_dispatch = Dispatch::Pool(Arc::clone(&pool));
        let pool_ns = best_nanos(flood_reps, || {
            pipeline.run(threads, flood_rounds, &pool_dispatch);
        });
        let per_round = |ns: u64| f64::from(flood_rounds) / (ns as f64 / 1e9);
        let speedup = scoped_ns as f64 / pool_ns as f64;
        eprintln!(
            "flood threads={threads}: scoped={:.0} r/s pool={:.0} r/s speedup={speedup:.2}x",
            per_round(scoped_ns),
            per_round(pool_ns),
        );
        flood_entries.push(format!(
            "    {{\"threads\": {threads}, \"msgs_per_round\": {}, \
             \"scoped_rounds_per_sec\": {:.1}, \"pool_rounds_per_sec\": {:.1}, \
             \"speedup\": {speedup:.2}}}",
            scoped_msgs,
            per_round(scoped_ns),
            per_round(pool_ns),
        ));
    }

    // 3. exp_all --quick, serial vs pooled, with a byte-equality check.
    let exp_json = if smoke {
        "null".to_owned()
    } else {
        distfl_bench::set_sweep_workers(0);
        let start = Instant::now();
        let serial = distfl_bench::experiments::run_all(true);
        let serial_secs = start.elapsed().as_secs_f64();

        let workers = if cores > 1 { cores - 1 } else { 3 };
        distfl_bench::set_sweep_workers(workers);
        let start = Instant::now();
        let pooled = distfl_bench::experiments::run_all(true);
        let pooled_secs = start.elapsed().as_secs_f64();
        distfl_bench::set_sweep_workers(0);

        assert_eq!(serial.len(), pooled.len(), "table count must not depend on workers");
        let identical =
            serial.iter().zip(&pooled).all(|(a, b)| a.id() == b.id() && a.to_csv() == b.to_csv());
        assert!(identical, "pooled sweep produced different CSV bytes than serial");
        let speedup = serial_secs / pooled_secs;
        eprintln!(
            "exp_all quick: serial={serial_secs:.2}s pooled({workers} workers)={pooled_secs:.2}s \
             speedup={speedup:.2}x csv_identical={identical}"
        );
        format!(
            "{{\"serial_secs\": {serial_secs:.3}, \"pooled_secs\": {pooled_secs:.3}, \
             \"pool_workers\": {workers}, \"speedup\": {speedup:.2}, \
             \"csv_identical\": {identical}}}"
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"worker_pool\",\n  \"mode\": \"{}\",\n  \"cores\": {cores},\n  \
         \"note\": \"dispatch and flood compare identical work under scoped-spawn vs \
         persistent-pool dispatch, so their speedups hold at any core count; exp_all \
         parallel scaling additionally needs cores > 1\",\n  \
         \"dispatch\": [\n{}\n  ],\n  \"flood\": [\n{}\n  ],\n  \
         \"exp_all_quick\": {}\n}}\n",
        if smoke {
            "smoke"
        } else if quick {
            "quick"
        } else {
            "full"
        },
        dispatch_entries.join(",\n"),
        flood_entries.join(",\n"),
        exp_json
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
