//! The `distfl-serve` binary: run the batching solver service.
//!
//! ```text
//! distfl-serve [ADDR] [--queue-capacity N] [--max-batch N] [--workers N]
//!              [--shards N] [--write-buffer BYTES] [--reactor KIND]
//!              [--sock-sndbuf BYTES] [--sessions N]
//! ```
//!
//! `ADDR` defaults to `127.0.0.1:7411`. The process serves until a
//! client sends `{"cmd":"shutdown"}`, then drains in-flight requests and
//! exits. Set `DISTFL_TRACE=1` to record request spans and the
//! `serve.*` metrics in the observability registry.

use distfl_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: distfl-serve [ADDR] [--queue-capacity N] [--max-batch N] [--workers N]\n\
         \x20                   [--shards N] [--write-buffer BYTES] [--reactor KIND]\n\
         \x20                   [--sock-sndbuf BYTES] [--sessions N]\n\
         \n\
         ADDR                listen address (default 127.0.0.1:7411)\n\
         --queue-capacity N  admission queue bound, per shard (default 256)\n\
         --max-batch N       max requests per scheduler batch (default 16)\n\
         --workers N         pool workers (default: process-wide global pool)\n\
         --shards N          admission shards / scheduler threads\n\
         \x20                   (default 0 = available parallelism)\n\
         --write-buffer B    per-connection write buffer cap in bytes\n\
         \x20                   (default 262144; slow readers past it are shed)\n\
         --reactor KIND      readiness backend: auto | epoll | sweep\n\
         \x20                   (default auto = epoll on Linux, sweep elsewhere)\n\
         --sock-sndbuf B     clamp each connection's kernel send buffer\n\
         \x20                   (SO_SNDBUF; default: kernel default)\n\
         --sessions N        max pinned sessions before LRU eviction\n\
         \x20                   (default 64)"
    );
    std::process::exit(2);
}

fn main() {
    distfl_obs::init_from_env();
    let mut addr = "127.0.0.1:7411".to_owned();
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {what} needs a value");
                usage()
            })
        };
        let number = |what: &str, raw: String| -> usize {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("error: {what} needs a number");
                usage()
            })
        };
        match arg.as_str() {
            "--queue-capacity" => {
                let raw = value("--queue-capacity");
                config.queue_capacity = number("--queue-capacity", raw).max(1);
            }
            "--max-batch" => {
                let raw = value("--max-batch");
                config.max_batch = number("--max-batch", raw).max(1);
            }
            "--workers" => {
                let raw = value("--workers");
                config.workers = Some(number("--workers", raw));
            }
            "--shards" => {
                let raw = value("--shards");
                config.shards = number("--shards", raw);
            }
            "--write-buffer" => {
                let raw = value("--write-buffer");
                config.write_buffer_cap = number("--write-buffer", raw).max(1024);
            }
            "--sock-sndbuf" => {
                let raw = value("--sock-sndbuf");
                config.sock_send_buffer = Some(number("--sock-sndbuf", raw));
            }
            "--sessions" => {
                let raw = value("--sessions");
                config.session_capacity = number("--sessions", raw).max(1);
            }
            "--reactor" => {
                let raw = value("--reactor");
                config.reactor = raw.parse().unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage()
                });
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => addr = other.to_owned(),
            _ => usage(),
        }
    }

    let server = match Server::start(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "distfl-serve listening on {} ({} shard{})",
        server.local_addr(),
        server.shards(),
        if server.shards() == 1 { "" } else { "s" }
    );
    server.wait();
    println!("distfl-serve drained and stopped");
}
