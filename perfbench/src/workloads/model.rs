//! `scaling_model`: the at-scale performance model on the full 0.54 M-atom
//! copper configuration, decomposed onto the first two paper topologies
//! (768 and 2,160 nodes) and evaluated at `CommLb` and `Baseline` on each.
//! One step of this workload is one sweep of those four evaluations.

use std::time::Instant;

use dpmd_comm::node_based::{self, NodeSchemeConfig};
use dpmd_comm::plan::HaloPlan;
use dpmd_comm::three_stage;
use dpmd_scaling::kernels::OptLevel;
use dpmd_scaling::step_model::{StepBreakdown, StepModel};
use dpmd_scaling::systems::SystemSpec;
use fugaku::collectives::thermo_allreduce_ns;
use fugaku::tofu::Torus3d;
use fugaku::utofu::CommApi;
use minimd::atoms::Atoms;
use minimd::domain::Decomposition;
use minimd::simbox::SimBox;

use super::{another_fits, repeat_setup};
use crate::gen::{self, ModelInput};
use crate::spans::Tracer;
use crate::{Args, Report, Step};

/// Reverse-to-forward time ratio the model charges the baseline 3-stage
/// pattern (a private constant of `step_model`; the bitwise check against
/// the recorded outputs fails if the two drift apart).
const BASELINE_REVERSE_FACTOR: f64 = 0.75;

/// ns/day the model predicts for each (topology, level), as f64 bits:
/// copper 17.2 / 2.51 at 768 nodes and 45.4 / 5.11 at 2,160 nodes.
const RECORDED: [([usize; 3], OptLevel, u64); 4] = [
    ([8, 12, 8], OptLevel::CommLb, 0x4031_3813_037f_706b),
    ([8, 12, 8], OptLevel::Baseline, 0x4004_0a55_f810_6f46),
    ([12, 15, 12], OptLevel::CommLb, 0x4046_b65a_ecc4_84ee),
    ([12, 15, 12], OptLevel::Baseline, 0x4014_73f9_b880_50b0),
];

/// The modelled system: spec, full configuration and step model.
struct System {
    bx: SimBox,
    atoms: Atoms,
    model: StepModel,
}

fn build() -> System {
    let spec = SystemSpec::copper();
    let (bx, atoms) = spec.build_full(1);
    System {
        bx,
        atoms,
        model: StepModel::new(spec),
    }
}

type Output = ([usize; 3], OptLevel, f64);

/// One sweep through `StepModel::evaluate_with`, the way the Fig. 11
/// experiment runs it.
fn sweep(sys: &System, input: &ModelInput) -> Vec<Output> {
    let mut out = Vec::with_capacity(4);
    for &(dims, levels) in &input.plan {
        let decomp = Decomposition::new(sys.bx, dims);
        let torus = Torus3d::new(dims);
        let counts = decomp.counts_per_rank(&sys.atoms);
        let plan = HaloPlan::build(&decomp, &sys.atoms, sys.model.spec.rcut);
        for level in levels {
            let b = sys
                .model
                .evaluate_with(&decomp, &torus, &counts, &plan, level);
            out.push((dims, level, b.ns_per_day(sys.model.spec.timestep_fs)));
        }
    }
    out
}

fn topology_span(nodes: usize) -> &'static str {
    match nodes {
        768 => "model.topology.n768",
        2160 => "model.topology.n2160",
        _ => "model.topology",
    }
}

/// The same sweep with `evaluate_with` taken apart into the calls it
/// makes (`pair_time_ns`, the node round trip or the 3-stage simulation,
/// and the fixed overhead terms), each in its own span.
fn traced_sweep(sys: &System, input: &ModelInput, t: &mut Tracer) -> Vec<Output> {
    let (m, spec) = (&sys.model, &sys.model.spec);
    let mut out = Vec::with_capacity(4);
    let step = t.begin("step");
    for &(dims, levels) in &input.plan {
        let decomp = Decomposition::new(sys.bx, dims);
        let torus = Torus3d::new(dims);
        let topo = t.begin(topology_span(decomp.num_nodes()));
        let counts = t.span("model.counts", || decomp.counts_per_rank(&sys.atoms));
        let plan = t.span("model.halo_plan", || {
            HaloPlan::build(&decomp, &sys.atoms, spec.rcut)
        });
        for level in levels {
            let eval = t.begin("model.evaluate");
            let pair = t.span("model.pair", || m.pair_time_ns(&decomp, &counts, level));
            let comm = if level.uses_node_comm() {
                t.span("model.node_round_trip", || {
                    let per_rank: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
                    node_based::simulate_round_trip(
                        &m.machine,
                        &decomp,
                        &torus,
                        &plan,
                        &per_rank,
                        NodeSchemeConfig::paper_best(),
                    )
                    .comm
                    .total_ns as f64
                })
            } else {
                t.span("model.three_stage", || {
                    let fwd = three_stage::simulate(
                        &m.machine,
                        &decomp,
                        &torus,
                        spec.rcut,
                        spec.density,
                        CommApi::Mpi,
                    )
                    .total_ns as f64;
                    fwd * (1.0 + BASELINE_REVERSE_FACTOR)
                })
            };
            let api = if level.uses_node_comm() {
                CommApi::Utofu
            } else {
                CommApi::Mpi
            };
            let allreduce = thermo_allreduce_ns(&m.machine, &torus, api) as f64;
            let b = StepBreakdown {
                pair_ns: pair,
                comm_ns: comm,
                framework_ns: m.kernel.framework_step_ns(level),
                other_ns: 2_000.0 + allreduce + 0.02 * pair,
            };
            out.push((dims, level, b.ns_per_day(spec.timestep_fs)));
            t.end(eval);
        }
        t.end(topo);
    }
    t.end(step);
    out
}

/// Why `output` differs from its recorded value, if it does.
fn mismatch(&(dims, level, nsday): &Output) -> Option<String> {
    let want = RECORDED
        .iter()
        .find(|(d, l, _)| *d == dims && *l == level)
        .map(|r| r.2);
    (want != Some(nsday.to_bits())).then(|| {
        format!(
            "{dims:?} {}: {nsday} (bits {:#x})",
            level.label(),
            nsday.to_bits()
        )
    })
}

/// Per-topology totals of `name` spans, s: (all, 768 nodes, 2,160 nodes).
fn by_topology(t: &Tracer, name: &str) -> [f64; 3] {
    let spans = t.spans();
    let mut acc = [0.0; 3];
    for s in spans.iter().filter(|s| s.name == name) {
        let secs = s.dur_ns() as f64 * 1e-9;
        acc[0] += secs;
        let mut p = s.parent;
        while let Some(i) = p {
            match spans[i].name {
                "model.topology.n768" => acc[1] += secs,
                "model.topology.n2160" => acc[2] += secs,
                _ => {}
            }
            p = spans[i].parent;
        }
    }
    acc
}

/// Count one sweep's topologies (two levels each, in evaluation order); a
/// topology with any output off its recorded value fails.
fn account(r: &mut Report, outputs: &[Output]) -> Vec<String> {
    let mut bad = Vec::new();
    for topology in outputs.chunks(2) {
        let wrong: Vec<String> = topology.iter().filter_map(mismatch).collect();
        r.attempted += 1;
        r.failed += u64::from(!wrong.is_empty());
        bad.extend(wrong);
    }
    bad
}

pub fn run(args: &Args) -> Result<Report, String> {
    let input = gen::scaling_model(args.seed)?;
    let mut r = Report::default();
    let (sys, setup_s) = repeat_setup(build);
    let natoms = sys.atoms.nlocal as f64;
    let evals = (2 * input.plan.len()) as f64;
    let mut steps = Vec::new();
    let mut bad = Vec::new();
    let t0 = Instant::now();
    let untraced = loop {
        let ts = Instant::now();
        let outputs = sweep(&sys, &input);
        let took = ts.elapsed();
        steps.push(Step {
            ms: took.as_secs_f64() * 1e3,
            atom_steps: natoms * evals,
            sim_fs: sys.model.spec.timestep_fs * evals,
        });
        bad.extend(account(&mut r, &outputs));
        if args.trace || !another_fits(t0.elapsed(), took, args.seconds) {
            break outputs;
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    if !args.trace {
        r.end_to_end(&setup_s, &steps);
    } else {
        let mut t = Tracer::new(args.seed);
        let t1 = Instant::now();
        let traced = traced_sweep(&sys, &input, &mut t);
        let traced_s = t1.elapsed().as_secs_f64();
        bad.extend(account(&mut r, &traced));
        let bits = |o: &[Output]| o.iter().map(|x| x.2.to_bits()).collect::<Vec<_>>();
        r.check(
            "composed_equals_evaluate_with",
            bits(&traced) == bits(&untraced),
            "pair_time_ns + comm + overheads vs evaluate_with".into(),
        );
        r.set("step.coverage", t.coverage("step"));
        for (name, metric) in [
            (
                "model.counts",
                [
                    "model.counts_s",
                    "model.counts_s.n768",
                    "model.counts_s.n2160",
                ],
            ),
            (
                "model.halo_plan",
                [
                    "model.halo_plan_s",
                    "model.halo_plan_s.n768",
                    "model.halo_plan_s.n2160",
                ],
            ),
            (
                "model.pair",
                ["model.pair_s", "model.pair_s.n768", "model.pair_s.n2160"],
            ),
            (
                "model.node_round_trip",
                [
                    "model.node_round_trip_s",
                    "model.node_round_trip_s.n768",
                    "model.node_round_trip_s.n2160",
                ],
            ),
            (
                "model.three_stage",
                [
                    "model.three_stage_s",
                    "model.three_stage_s.n768",
                    "model.three_stage_s.n2160",
                ],
            ),
        ] {
            for (m, v) in metric.into_iter().zip(by_topology(&t, name)) {
                r.set(m, v);
            }
        }
        r.finish_trace(t, wall_s / steps.len() as f64, traced_s);
    }
    bad.dedup();
    r.check("outputs_equal_recorded", bad.is_empty(), bad.join("; "));
    Ok(r)
}
