//! Seeded inputs: instance families, request lines, and session streams.
//!
//! Everything here is a pure function of the workload seed. The program
//! under test only ever sees the rendered request lines (serve
//! workloads) or the generated instances (`protocol-sim`).

use std::fmt::Write as _;

use distfl_core::SolverKind;
use distfl_instance::generators::{
    Clustered, Euclidean, InstanceGenerator, PowerLaw, UniformRandom,
};
use distfl_instance::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::json_str;

/// The instance families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Uniform,
    PowerLaw,
    Euclidean,
    Clustered,
}

impl Family {
    pub fn generate(self, m: usize, n: usize, seed: u64) -> Instance {
        let made = match self {
            Family::Uniform => UniformRandom::new(m, n).and_then(|g| g.generate(seed)),
            Family::PowerLaw => PowerLaw::new(m, n, 64.0).and_then(|g| g.generate(seed)),
            Family::Euclidean => Euclidean::new(m, n).and_then(|g| g.generate(seed)),
            Family::Clustered => Clustered::new(m.clamp(1, 4), m, n).and_then(|g| g.generate(seed)),
        };
        made.expect("generator parameters are valid")
    }
}

/// A deterministic RNG for one purpose of one workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// An instance payload as the protocol carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    Inline,
    OrLib,
}

/// One distinct stateless request line of a workload's cycle.
#[derive(Debug, Clone)]
pub struct Template {
    pub line: String,
    /// The request id the line carries, `t<index>`.
    pub id: String,
    /// Which distinct instance the line carries.
    pub instance: usize,
}

/// The inline `{"opening":[...],"links":[[f,c,...],...]}` object.
pub fn inline_json(instance: &Instance) -> String {
    let mut out = String::with_capacity(instance.num_links() * 20);
    out.push_str("{\"opening\":[");
    for (k, i) in instance.facilities().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", instance.opening_cost(i).value());
    }
    out.push_str("],\"links\":[");
    for (k, j) in instance.clients().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('[');
        for (l, (i, c)) in instance.client_links(j).iter().enumerate() {
            if l > 0 {
                out.push(',');
            }
            let _ = write!(out, "{i},{c}");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// A stateless solve request line.
pub fn solve_line(id: &str, kind: SolverKind, instance: &Instance, payload: Payload) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":\"{id}\",\"solver\":\"{}\",\"seed\":7,", kind.name());
    match payload {
        Payload::Inline => {
            out.push_str("\"instance\":");
            out.push_str(&inline_json(instance));
        }
        Payload::OrLib => {
            out.push_str("\"orlib\":");
            let text = distfl_instance::orlib::to_string(instance).expect("instances are complete");
            out.push_str(&json_str(&text));
        }
    }
    out.push('}');
    out
}

/// `small-requests`: tiny instances, 2×2 up to 8×40; small ones inline,
/// larger ones as OR-Library text; greedy, local-search and jv.
pub fn small_requests(seed: u64, count: usize) -> Vec<Template> {
    const KINDS: [SolverKind; 3] =
        [SolverKind::Greedy, SolverKind::LocalSearch, SolverKind::JainVazirani];
    let mut r = rng(seed, 1);
    (0..count)
        .map(|t| {
            // Sizes sweep the range on a fixed grid, so the work per
            // request does not depend on the seed; the seed draws costs.
            let (m, n) = (2 + t % 7, 2 + (t * 7) % 39);
            let family = if t % 2 == 0 { Family::Uniform } else { Family::Euclidean };
            let payload = if m * n <= 64 { Payload::Inline } else { Payload::OrLib };
            let kind = KINDS[t % KINDS.len()];
            let instance = family.generate(m, n, r.gen());
            let id = format!("t{t}");
            let line = solve_line(&id, kind, &instance, payload);
            Template { line, id, instance: t }
        })
        .collect()
}

/// `solver-mix`: 20×200 instances of metric and non-metric families,
/// every kind including `auto`, payloads alternating inline / OR-Library
/// per instance visit.
pub fn solver_mix(seed: u64, instances: usize) -> Vec<Template> {
    const FAMILIES: [Family; 4] =
        [Family::Euclidean, Family::Uniform, Family::Clustered, Family::PowerLaw];
    let mut r = rng(seed, 2);
    let pool: Vec<Instance> =
        (0..instances).map(|k| FAMILIES[k % FAMILIES.len()].generate(20, 200, r.gen())).collect();
    let kinds = SolverKind::ALL;
    (0..instances * kinds.len())
        .map(|t| {
            let instance = &pool[t % instances];
            let kind = kinds[t % kinds.len()];
            let payload =
                if (t / instances).is_multiple_of(2) { Payload::Inline } else { Payload::OrLib };
            let id = format!("t{t}");
            let line = solve_line(&id, kind, instance, payload);
            Template { line, id, instance: t % instances }
        })
        .collect()
}

/// The warm kinds a session cycles through, one per stream step.
pub const SESSION_KINDS: [SolverKind; 3] =
    [SolverKind::Greedy, SolverKind::LocalSearch, SolverKind::JainVazirani];

/// One pinned session of `session-churn`: its initial instance and the
/// parameters its infinite mutate/solve stream derives from.
#[derive(Debug, Clone)]
pub struct Session {
    pub name: String,
    pub create_line: String,
    pub facilities: usize,
    pub clients: usize,
    seed: u64,
}

/// One mutation of a session stream, in wire (pre-mutation) ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub remove: u32,
    pub reprice: Vec<(u32, u32, f64)>,
    pub add: Vec<(u32, f64)>,
}

pub fn sessions(seed: u64, count: usize, m: usize, n: usize) -> Vec<Session> {
    let mut r = rng(seed, 3);
    (0..count)
        .map(|s| {
            let family = if s % 2 == 0 { Family::Uniform } else { Family::Euclidean };
            let instance = family.generate(m, n, r.gen());
            let name = format!("s{s}");
            let create_line = format!(
                "{{\"cmd\":\"create\",\"id\":\"{name}.0\",\"session\":\"{name}\",\"instance\":{}}}",
                inline_json(&instance)
            );
            Session { name, create_line, facilities: m, clients: n, seed: r.gen() }
        })
        .collect()
}

impl Session {
    /// Op `op` of the session's stream: 0 creates it; then step `k` is a
    /// mutate (op `2k+1`) followed by a warm solve (op `2k+2`).
    pub fn op_line(&self, op: u64) -> String {
        if op == 0 {
            return self.create_line.clone();
        }
        let k = (op - 1) / 2;
        if (op - 1).is_multiple_of(2) {
            self.mutate_line(k)
        } else {
            self.solve_line(k)
        }
    }

    /// The request id of op `op`, `<session>.<op>`: unique among all the
    /// requests of a run, so a response is paired with its request by
    /// the id it echoes.
    pub fn op_id(&self, op: u64) -> String {
        format!("{}.{op}", self.name)
    }

    /// Step `k`'s mutation: remove one client, reprice 1% of the links of
    /// the others, add one client linked to every facility. The client
    /// count stays constant and the instance stays complete, so every
    /// step is valid whatever the steps before it were.
    pub fn delta(&self, k: u64) -> Delta {
        let (m, n) = (self.facilities as u32, self.clients as u32);
        let mut r = rng(self.seed, k);
        let remove = r.gen_range(0..n);
        let want = (self.facilities * self.clients).div_ceil(100);
        let mut picked: Vec<(u32, u32)> = Vec::with_capacity(want);
        while picked.len() < want {
            let j = r.gen_range(0..n);
            let i = r.gen_range(0..m);
            if j != remove && !picked.contains(&(j, i)) {
                picked.push((j, i));
            }
        }
        let reprice = picked.into_iter().map(|(j, i)| (j, i, cost(&mut r))).collect();
        let add = (0..m).map(|i| (i, cost(&mut r))).collect();
        Delta { remove, reprice, add }
    }

    /// The kind step `k` solves with.
    pub fn kind(&self, k: u64) -> SolverKind {
        SESSION_KINDS[(k % SESSION_KINDS.len() as u64) as usize]
    }

    pub fn mutate_line(&self, k: u64) -> String {
        let d = self.delta(k);
        let mut out = String::with_capacity(d.reprice.len() * 24 + d.add.len() * 12 + 96);
        let _ = write!(
            out,
            "{{\"cmd\":\"mutate\",\"id\":\"{}\",\"session\":\"{}\",\"delta\":{{\"remove\":[{}],\"reprice\":[",
            self.op_id(2 * k + 1),
            self.name,
            d.remove
        );
        for (x, (j, i, c)) in d.reprice.iter().enumerate() {
            if x > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{j},{i},{c}]");
        }
        out.push_str("],\"add\":[[");
        for (x, (i, c)) in d.add.iter().enumerate() {
            if x > 0 {
                out.push(',');
            }
            let _ = write!(out, "{i},{c}");
        }
        out.push_str("]]}}");
        out
    }

    pub fn solve_line(&self, k: u64) -> String {
        format!(
            "{{\"cmd\":\"solve\",\"id\":\"{}\",\"session\":\"{}\",\"solver\":\"{}\",\"seed\":7}}",
            self.op_id(2 * k + 2),
            self.name,
            self.kind(k).name()
        )
    }
}

/// A link cost for stream mutations: two decimals in `[1, 100)`.
fn cost(r: &mut StdRng) -> f64 {
    f64::from(r.gen_range(100u32..10_000)) / 100.0
}
