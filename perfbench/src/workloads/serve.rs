//! `serve_cu_fp16`: a `ContinuousScheduler` serving 8 tenants of the
//! 864-atom copper system at Mix16 under a fixed arrival script, in-flight
//! cap 4. The benchmark drives the script the way `run_script` does, so it
//! can time each round.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use deepmd::model::DeepPotModel;
use dpmd_core::{EngineBuilder, EngineParts};
use dpmd_serve::{ArrivalScript, ContinuousScheduler, InFlightCap, TenantState};
use minimd::atoms::Atoms;
use nnet::precision::Precision;

use super::md::build_engine;
use super::{another_fits, digest, repeat_setup, DIGEST_SEED};
use crate::gemm::{self, set_gemm, GEMM_BUDGET};
use crate::gen::{self, CopperInput, ServeInput, TEMPERATURE};
use crate::record::pool_width;
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::{Args, Report, Step};

const PRECISION: Precision = Precision::Mix16;

fn parts(system: &CopperInput) -> EngineParts {
    EngineBuilder::default()
        .copper_cells(system.cells)
        .with_model(DeepPotModel::new(system.config.clone()))
        .precision(PRECISION)
        .temperature(TEMPERATURE)
        .nve()
        .seed(system.seed)
        .threads(pool_width())
        .build_parts()
}

fn scheduler(input: &ServeInput, script: &ArrivalScript) -> ContinuousScheduler {
    let cap = InFlightCap::AtMost(NonZeroUsize::new(input.in_flight).expect("in-flight cap ≥ 1"));
    ContinuousScheduler::new(parts(&input.system), cap, script.queue_capacity)
}

/// What one pass over the arrival script measured.
#[derive(Default)]
struct ScriptRun {
    /// Per round: wall time (ms) and tenants stepped.
    rounds: Vec<(f64, usize)>,
    turnaround_s: Vec<f64>,
    /// First attach to last finish, s.
    wall_s: f64,
    tenant_steps: u64,
    tenants: u64,
    rejected: u64,
    missed_deadline: u64,
    digest: u64,
    queue_depth: Vec<f64>,
    occupancy: Vec<f64>,
    queue_wait_rounds: Vec<f64>,
}

/// Drive `script` to completion on `sched`: attach every tenant due in the
/// upcoming round, then tick, until all attached tenants finish. With a
/// tracer, each round is a `step` span holding its `serve.attach` and
/// `serve.tick` spans.
fn drive(
    sched: &mut ContinuousScheduler,
    script: &ArrivalScript,
    mut tracer: Option<&mut Tracer>,
) -> ScriptRun {
    let schedule = script.schedule();
    let mut run = ScriptRun::default();
    let (mut starts, mut ends) = (Vec::new(), Vec::new());
    let mut next = 0;
    let t0 = Instant::now();
    while next < schedule.len() || !sched.idle() {
        let upcoming = sched.round() + 1;
        let ts = Instant::now();
        let round = tracer.as_mut().map(|t| t.begin("step"));
        while next < schedule.len() && schedule[next].0 <= upcoming {
            let spec = schedule[next].1;
            let admitted = match tracer.as_mut() {
                Some(t) => t.span("serve.attach", || sched.attach(spec)),
                None => sched.attach(spec),
            };
            run.tenants += 1;
            run.rejected += u64::from(admitted.is_err());
            next += 1;
        }
        run.queue_depth.push(sched.queue_depth() as f64);
        let stepped = match tracer.as_mut() {
            Some(t) => t.span("serve.tick", || sched.tick()),
            None => sched.tick(),
        };
        if let (Some(t), Some(id)) = (tracer.as_mut(), round) {
            t.end(id);
        }
        let te = Instant::now();
        run.rounds.push(((te - ts).as_secs_f64() * 1e3, stepped));
        starts.push(ts);
        ends.push(te);
        if stepped > 0 {
            run.occupancy.push(stepped as f64);
        }
        run.tenant_steps += stepped as u64;
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    let mut h = DIGEST_SEED;
    for t in sched.tenants() {
        h = digest(&t.sim.atoms, h);
        run.missed_deadline += u64::from(t.missed_deadline());
        run.queue_wait_rounds.push(t.queue_wait_rounds as f64);
        if let TenantState::Finished { round } = t.state {
            let (arrived, done) = (
                starts[t.arrival_round as usize - 1],
                ends[round as usize - 1],
            );
            run.turnaround_s.push((done - arrived).as_secs_f64());
        }
    }
    run.digest = h;
    run
}

fn same_bits(a: &Atoms, b: &Atoms) -> bool {
    let bits = |x: &Atoms| -> Vec<u64> {
        x.pos[..x.nlocal]
            .iter()
            .chain(&x.vel[..x.nlocal])
            .flat_map(|v| v.to_array())
            .map(f64::to_bits)
            .collect()
    };
    a.nlocal == b.nlocal && bits(a) == bits(b)
}

/// Count the tenants of a pass; a rejected tenant or a missed deadline
/// fails one.
fn account(r: &mut Report, run: &ScriptRun) {
    r.attempted += run.tenants;
    r.failed += run.rejected + run.missed_deadline;
}

pub fn run(args: &Args) -> Result<Report, String> {
    let input = gen::serve_cu_fp16(args.seed)?;
    let script = ArrivalScript::parse(input.script)?;
    let mut r = Report::default();
    let (first, setup_s) = repeat_setup(|| scheduler(&input, &script));

    // Untraced: whole script passes until the budget is spent (at least
    // one). Traced: one untraced pass, then the same pass traced.
    let mut served = first;
    let mut runs: Vec<ScriptRun> = Vec::new();
    let t0 = Instant::now();
    loop {
        let run = drive(&mut served, &script, None);
        account(&mut r, &run);
        let pass = Duration::from_secs_f64(run.wall_s);
        runs.push(run);
        if args.trace || !another_fits(t0.elapsed(), pass, args.seconds) {
            break;
        }
        served = scheduler(&input, &script);
    }
    let reference = &runs[0];
    let rounds_per_pass = reference.rounds.len();
    let same_passes = runs
        .iter()
        .all(|x| x.digest == reference.digest && x.rounds.len() == rounds_per_pass);
    r.check(
        "passes_repeat_bitwise",
        same_passes,
        format!("{} pass(es)", runs.len()),
    );

    // Tenant 0 against the same seed stepped solo.
    let tenant0 = served
        .tenants()
        .iter()
        .find(|t| t.id == 0)
        .ok_or("tenant 0 never attached")?;
    let mut solo = build_engine(&input.system, PRECISION);
    solo.run(tenant0.trace.len() as u64);
    r.check(
        "tenant0_bitwise_equals_solo",
        tenant0.trace.len() as u64 == script.steps
            && same_bits(&tenant0.sim.atoms, &solo.simulation().atoms),
        format!("{} steps", tenant0.trace.len()),
    );
    let rejected: u64 = runs.iter().map(|x| x.rejected).sum();
    let missed: u64 = runs.iter().map(|x| x.missed_deadline).sum();
    r.check(
        "no_rejections_or_missed_deadlines",
        rejected + missed == 0,
        format!("{rejected} rejected, {missed} missed"),
    );

    let atoms = input.system.atoms() as f64;
    if !args.trace {
        let dt_fs = served.tenants()[0].sim.integrator.dt / minimd::units::FEMTOSECOND;
        // One sample per round: its wall time per tenant it stepped, so a
        // step here is a served tenant-step, comparable with a solo step.
        let rounds = runs
            .iter()
            .flat_map(|x| x.rounds.iter())
            .filter(|x| x.1 > 0);
        let tenant_steps: Vec<Step> = rounds
            .clone()
            .map(|&(ms, stepped)| Step {
                ms: ms / stepped as f64,
                atom_steps: atoms,
                sim_fs: dt_fs,
            })
            .collect();
        r.end_to_end(&setup_s, &tenant_steps);
        r.info("script_passes", runs.len());
        r.info("rounds_per_pass", rounds_per_pass);
        r.info(
            "round_ms_p50",
            median(&rounds.map(|x| x.0).collect::<Vec<_>>()),
        );
        let turnaround: Vec<f64> = runs
            .iter()
            .flat_map(|x| x.turnaround_s.iter().copied())
            .collect();
        r.info("turnaround_s_p50", median(&turnaround));
    } else {
        let mut t = Tracer::new(args.seed);
        let mut sched = scheduler(&input, &script);
        let traced = drive(&mut sched, &script, Some(&mut t));
        account(&mut r, &traced);
        r.check(
            "traced_digest_equals_untraced",
            traced.digest == reference.digest,
            format!("{:016x} vs {:016x}", traced.digest, reference.digest),
        );
        r.set("step.coverage", t.coverage("step"));
        r.set(
            "serve.tick_ms_per_tenant_step",
            t.total_ms("serve.tick") / traced.tenant_steps as f64,
        );
        r.set("serve.occupancy_mean", mean(&traced.occupancy));
        r.set("serve.attach_ms", mean(&t.durations_ms("serve.attach")));
        r.set("serve.queue_depth_mean", mean(&traced.queue_depth));
        r.set(
            "serve.queue_wait_rounds_p50",
            median(&traced.queue_wait_rounds),
        );
        r.set("serve.rounds", traced.rounds.len() as f64);
        r.set("serve.turnaround_s_p50", median(&reference.turnaround_s));
        set_gemm(
            &mut r,
            [
                "nnet.gemm.embed.f32.gflops",
                "nnet.gemm.embed.f32.flops",
                "nnet.gemm.embed.f32.bytes",
            ],
            gemm::f32_rate(&input.system.embedding_gemms(), GEMM_BUDGET),
        );
        // The first fitting layer over a full round: every in-flight
        // tenant's atoms stacked into one panel.
        let (m, n, k) = (
            input.in_flight * input.system.atoms(),
            input.system.config.fitting_widths[0],
            input.system.config.descriptor_len(),
        );
        set_gemm(
            &mut r,
            [
                "nnet.gemm.fit_panel.f32.gflops",
                "nnet.gemm.fit_panel.f32.flops",
                "nnet.gemm.fit_panel.f32.bytes",
            ],
            gemm::f32_rate(&[(m, n, k)], GEMM_BUDGET),
        );
        set_gemm(
            &mut r,
            [
                "nnet.gemm.fit_panel.f16.gflops",
                "nnet.gemm.fit_panel.f16.flops",
                "nnet.gemm.fit_panel.f16.bytes",
            ],
            gemm::f16_rate(m, n, k, GEMM_BUDGET),
        );
        r.finish_trace(t, reference.wall_s, traced.wall_s);
    }
    Ok(r)
}
