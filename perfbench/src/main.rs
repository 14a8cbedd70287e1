//! The dctopo benchmark: three workloads that between them reach every
//! layer of the throughput engine, each checked for correctness before
//! any of its timings counts.
//!
//! ```text
//! dctopo-perfbench --workload <sweep-failures|scale-agg|serve-whatif>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs a fixed number of units derived from the seed
//! alone; `--seconds` is accepted and recorded in the host line, but
//! never changes the inputs or how many units a run measures.
//!
//! `--trace 0` measures the end-to-end metrics with the recorder off.
//! `--trace 1` gives the per-layer split: timed calls into each layer's
//! public functions plus the events the program already emits, read
//! from the `dctopo-obs` memory sink. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; every line before it starts with `#`.
//!
//! Runs use the whole worker pool (`DCTOPO_THREADS`, else the host's
//! available parallelism); the 1-thread legs of the determinism checks
//! narrow it with `ThreadPool::install(1)` inside the same process.

mod report;
mod scale;
mod serve;
mod sweep;
mod trace;

use std::process::exit;

/// One run's settings, from the command line.
pub struct Config {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Threads of the worker pool.
    pub threads: usize,
}

/// Run `f` with every parallel operation on this thread narrowed to one
/// chunk: the 1-thread leg of the determinism contract.
pub fn one_thread<T>(f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool builder is infallible")
        .install(f)
}

fn usage() -> ! {
    eprintln!(
        "usage: dctopo-perfbench --workload <sweep-failures|scale-agg|serve-whatif> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 20.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let cfg = Config {
        seed,
        trace: traced,
        threads: rayon::pool::pool_threads(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    println!(
        "# host: nproc {nproc}, threads {}, profile {}, rustc {}, commit {}, \
         workload {workload}, seed {seed}, seconds {seconds}, trace {}",
        cfg.threads,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("DCTOPO_BENCH_RUSTC"),
        env("DCTOPO_BENCH_COMMIT"),
        u8::from(traced)
    );
    if cfg.threads > nproc {
        println!("# WARNING: {} threads on {nproc} cores", cfg.threads);
    }

    let steal0 = report::steal_ticks();
    let outcome = match workload.as_str() {
        "sweep-failures" => sweep::run(&cfg),
        "scale-agg" => scale::run(&cfg),
        "serve-whatif" => serve::run(&cfg),
        other => {
            eprintln!("unknown workload '{other}'");
            usage();
        }
    };
    if let Some(layers) = &outcome.layers {
        layers.print_table(&workload);
    } else {
        for (name, value) in &outcome.end_to_end {
            match report::END_TO_END.iter().find(|(n, _)| n == name) {
                Some((_, unit)) => println!("# {name:<14} {value:>16.6} {unit}"),
                None => println!("# {name:<14} {value:>16.6} (printed only, not bounded)"),
            }
        }
    }
    let (steal, total) = report::steal_ticks();
    println!(
        "# host steal: {:.1}% of CPU ticks during the run (time the hypervisor ran others)",
        100.0 * (steal - steal0.0) as f64 / (total - steal0.1).max(1) as f64
    );
    println!("# failed_frac {}", outcome.failed_frac());
    println!("{}", outcome.result_line());
}
