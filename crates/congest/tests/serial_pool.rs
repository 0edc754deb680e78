//! A serial network never starts a worker pool.
//!
//! Kept alone in its own test binary: the global pool is process-wide, so
//! any other test that stepped on it first would hide the threads this one
//! counts.

use distfl_congest::{Network, NodeLogic, StepCtx, Topology};

/// Broadcasts for two rounds, then stops.
struct Chatter {
    done: bool,
}

impl NodeLogic for Chatter {
    type Msg = u64;
    fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
        if ctx.round() < 2 {
            ctx.broadcast(1);
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Threads of this process, from `/proc/self/task`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is mounted").count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_serial_network_starts_no_pool_workers() {
    // Were the global pool built, it would hold two workers on any machine.
    std::env::set_var("DISTFL_POOL_THREADS", "2");
    let before = threads();
    let nodes = (0..4).map(|_| Chatter { done: false }).collect();
    let mut net = Network::new(Topology::ring(4).unwrap(), nodes, 1).unwrap();
    net.run(10).unwrap();
    assert!(net.nodes().iter().all(|n| n.done));
    assert_eq!(threads(), before, "a serial run spawned threads");
}
