//! CCS load generator: external request throughput and latency against
//! a running machine, swept over payload size and PE count.
//!
//! Two passes per configuration, both over real TCP:
//!
//! * **latency** — one closed-loop client (a single request in flight);
//!   every round trip is timed individually, yielding honest p50/p99.
//! * **throughput** — several clients, each pipelining a window of
//!   requests; total completed requests over wall-clock gives req/s.
//!
//! Rows follow the shared report schema (`converse_bench::report`);
//! the checked-in `BENCH_ccs.json` is reference data, not gated.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin ccs_throughput
//! ```

use converse_bench::ccs_load::{run_config, CcsBenchConfig};
use converse_bench::report::{Better, Report, Row};

fn main() {
    let mut report = Report::new("ccs", "CCS front-end load generation (real TCP, loopback)");
    for pes in [1usize, 2, 4] {
        for payload in [16usize, 256, 4096, 65536] {
            let cfg = CcsBenchConfig {
                pes,
                payload,
                latency_reqs: 400,
                throughput_clients: 4,
                reqs_per_client: if payload >= 65536 { 250 } else { 1000 },
                window: 32,
            };
            let r = run_config(&cfg);
            let row = |metric, unit, better, value| {
                Row::new("echo", metric, unit, better, value)
                    .with("pes", pes)
                    .with("payload_bytes", payload)
                    .with("throughput_reqs", r.throughput_reqs)
            };
            report.push(row("rate", "reqs/s", Better::Higher, r.reqs_per_sec));
            report.push(row("p50", "us", Better::Lower, r.p50_us));
            report.push(row("p99", "us", Better::Lower, r.p99_us));
        }
    }
    report.finish();
}
