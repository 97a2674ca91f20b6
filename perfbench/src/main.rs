//! `perfbench`: end-to-end and per-layer benchmark of the dpmd-repro
//! workspace. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload md_cu_fp32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run record (host, build and seed).

mod gemm;
mod gen;
mod record;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use record::RunRecord;
use spans::Tracer;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("atom_steps_per_s", "atom-steps/s"),
    ("ns_per_day", "ns/day"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`); a layer
/// a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("step.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("minimd.neighbor.build_ms", "ms/step"),
    ("minimd.neighbor.builds", "1/step"),
    ("minimd.integrate.ms_per_step", "ms/step"),
    ("deepmd.force.ms_per_step", "ms/step"),
    ("deepmd.force.descriptor_ms", "ms/step"),
    ("deepmd.force.embedding_ms", "ms/step"),
    ("deepmd.force.fitting_ms", "ms/step"),
    ("deepmd.force.reduction_ms", "ms/step"),
    ("deepmd.force.coverage", "ratio"),
    ("deepmd.force.rank_call_ms", "ms"),
    ("nnet.gemm.fit_m1.f32.gflops", "GFLOP/s"),
    ("nnet.gemm.fit_m1.f32.flops", "FLOP"),
    ("nnet.gemm.fit_m1.f32.bytes", "B"),
    ("nnet.gemm.embed.f32.gflops", "GFLOP/s"),
    ("nnet.gemm.embed.f32.flops", "FLOP"),
    ("nnet.gemm.embed.f32.bytes", "B"),
    ("nnet.gemm.fit_panel.f32.gflops", "GFLOP/s"),
    ("nnet.gemm.fit_panel.f32.flops", "FLOP"),
    ("nnet.gemm.fit_panel.f32.bytes", "B"),
    ("nnet.gemm.fit_panel.f16.gflops", "GFLOP/s"),
    ("nnet.gemm.fit_panel.f16.flops", "FLOP"),
    ("nnet.gemm.fit_panel.f16.bytes", "B"),
    ("serve.tick_ms_per_tenant_step", "ms"),
    ("serve.occupancy_mean", "count"),
    ("serve.attach_ms", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.queue_wait_rounds_p50", "rounds"),
    ("serve.rounds", "count"),
    ("serve.turnaround_s_p50", "s"),
    ("comm.exchange_ms", "ms/step"),
    ("comm.reverse_ms", "ms/step"),
    ("comm.migrate_ms", "ms/step"),
    ("comm.ghosts_per_step", "count"),
    ("comm.bytes_per_step", "B"),
    ("model.counts_s", "s"),
    ("model.counts_s.n768", "s"),
    ("model.counts_s.n2160", "s"),
    ("model.halo_plan_s", "s"),
    ("model.halo_plan_s.n768", "s"),
    ("model.halo_plan_s.n2160", "s"),
    ("model.pair_s", "s"),
    ("model.pair_s.n768", "s"),
    ("model.pair_s.n2160", "s"),
    ("model.node_round_trip_s", "s"),
    ("model.node_round_trip_s.n768", "s"),
    ("model.node_round_trip_s.n2160", "s"),
    ("model.three_stage_s", "s"),
    ("model.three_stage_s.n768", "s"),
    ("model.three_stage_s.n2160", "s"),
];

pub const WORKLOADS: &[&str] = &[
    "md_cu_fp32",
    "serve_cu_fp16",
    "dist_cu_node",
    "scaling_model",
];

const USAGE: &str =
    "usage: perfbench --workload <md_cu_fp32|serve_cu_fp16|dist_cu_node|scaling_model> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if kv.insert(key, val).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got '{t}'")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// One timed step of a workload: its wall time and the work it did.
pub struct Step {
    pub ms: f64,
    /// Atoms advanced one step (summed over trajectories).
    pub atom_steps: f64,
    /// Simulated time advanced (summed over trajectories), fs.
    pub sim_fs: f64,
}

/// What a workload hands back: operation counts, output checks, metric
/// values and, for traced runs, the spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub info: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Fill the end-to-end metrics from an untraced run: the set-up times
    /// and every timed step. Rates are medians of per-step rates, so a slow
    /// stretch of a run moves them no more than it moves `step_ms_p50`; the
    /// whole-loop rate and the 90th percentile go to the record.
    pub fn end_to_end(&mut self, setup_s: &[f64], steps: &[Step]) {
        let ms: Vec<f64> = steps.iter().map(|s| s.ms).collect();
        let atom_rate: Vec<f64> = steps.iter().map(|s| s.atom_steps / (s.ms * 1e-3)).collect();
        // fs per wall second → ns per wall day.
        let ns_day = |fs: f64, secs: f64| fs * 1e-6 / secs * 86_400.0;
        let ns_rate: Vec<f64> = steps
            .iter()
            .map(|s| ns_day(s.sim_fs, s.ms * 1e-3))
            .collect();
        self.set("setup_s", stats::median(setup_s));
        self.set("step_ms_p50", stats::median(&ms));
        self.set("atom_steps_per_s", stats::median(&atom_rate));
        self.set("ns_per_day", stats::median(&ns_rate));
        let wall_s = ms.iter().sum::<f64>() * 1e-3;
        self.info("setup_samples", setup_s.len());
        self.info("step_samples", steps.len());
        self.info("step_ms_p90", stats::quantile(&ms, 0.9));
        self.info(
            "loop_atom_steps_per_s",
            steps.iter().map(|s| s.atom_steps).sum::<f64>() / wall_s,
        );
        self.info(
            "loop_ns_per_day",
            ns_day(steps.iter().map(|s| s.sim_fs).sum(), wall_s),
        );
    }

    /// Finish a traced run: check span nesting and fill the trace-wide
    /// metrics.
    pub fn finish_trace(&mut self, tracer: Tracer, untraced_s: f64, traced_s: f64) {
        let nesting = tracer.check_nesting();
        self.check(
            "spans_nest",
            nesting.is_ok(),
            nesting.err().unwrap_or_default(),
        );
        self.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
        self.set("trace.spans", tracer.spans().len() as f64);
        self.tracer = Some(tracer);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The result line: every metric of the run's kind, 0 where a layer
    /// was not exercised.
    fn result_json(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` turns an empty sum's -0.0 into 0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Where traced runs write their spans: under the build directory, which
/// version control ignores.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let record = RunRecord::new(&args.workload, args.seed, args.trace);
    let result = match args.workload.as_str() {
        "md_cu_fp32" => workloads::md::run(&args),
        "serve_cu_fp16" => workloads::serve::run(&args),
        "dist_cu_node" => workloads::dist::run(&args),
        _ => workloads::model::run(&args),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for (name, ok, detail) in &report.checks {
        eprintln!(
            "check {name}: {} {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    if let Some(tracer) = report.tracer.take() {
        let path = spans_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => report.info("spans_file", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in list {
        eprintln!(
            "{name:<34} {:>16.6} {unit}",
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", record.to_json(&report.info));
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload dist_cu_node --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("dist_cu_node", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload md_cu_fp32 --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload md_cu_fp32 --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload md_cu_fp32 --seed 1 --seconds 1 --trace 0 --x 1"
        ))
        .is_err());
    }

    /// BENCHMARK.json at the repository root must name exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_after = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let want = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_after("end_to_end"), want(END_TO_END));
        assert_eq!(names_after("per_layer"), want(PER_LAYER));
        assert_eq!(
            names_after("workloads"),
            WORKLOADS.iter().map(|s| s.to_string()).collect::<Vec<_>>()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        let line = r.result_json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
        }
        r.check("x", false, String::new());
        assert!(r.result_json(true).starts_with("{\"correct\": false"));
    }
}
