//! Benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|serve-edit|serve-read|shard> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when any check failed.

use perfbench::{common::WIDTH, run, Kind, Size, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: perfbench --workload <stream|serve-edit|serve-read|shard> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    // Every ambient-width stage of the library runs at the benchmark's
    // width; set before any worker pool exists.
    std::env::set_var("INGRASS_THREADS", WIDTH.to_string());
    let w = Workload {
        kind,
        seed,
        seconds,
        trace,
        size: Size::Full,
        work_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("work"),
    };
    let out = run(&w);
    eprintln!(
        "{} seed {seed}{}\n{}",
        kind.name(),
        if trace { " (traced)" } else { "" },
        out.summary
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
