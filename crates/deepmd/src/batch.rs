//! The Mix32/Mix16 force evaluator, batched over independent systems.
//!
//! [`DpEngine::energy_forces_batched`] evaluates R independent systems
//! ("jobs" — the replicas and tenants of `dpmd-serve`, or the single system
//! of a solo [`DpEngine::energy_forces`] call, which is a batch of one)
//! through one engine. The local atoms of all jobs form one flat
//! (job, atom) index, cut into blocks by [`dpmd_threads::atom_chunks`] of
//! the total atom count; the blocks run on the engine's pool:
//!
//! * the **embedding pass** stacks every (atom, neighbour) entry of a block
//!   with the same neighbour species into one matrix and runs each layer's
//!   value and tangent matvecs as stacked [`nnet::gemm`] calls, with one
//!   fused transcendental per activation
//!   ([`nnet::activation::Activation::value_grad_f32`]) — the paper's
//!   "sort environment matrices by type so one GEMM serves all same-type
//!   neighbours";
//! * the **fitting pass** stacks every descriptor row of a block with the
//!   same central species into one matrix and runs each layer (forward and
//!   backward) as one stacked [`nnet::gemm`] call.
//!
//! The hard correctness bar is **bitwise determinism**: a job's energy,
//! virial and forces depend on nothing but the job — not on its companions
//! in the batch, the batch size, or the pool width. Three properties make
//! that hold, each enforced by a test:
//!
//! 1. every NN kernel produces output rows that depend only on the matching
//!    input row, folded ascending-k from a zero accumulator with one
//!    rounding per add (`nnet::gemm` module notes) — so how rows are
//!    stacked into blocks is invisible. The embedding's bias-seeded
//!    accumulation is reproduced by augmenting each stacked row with a
//!    leading 1 against `[bias ; W]` (`0 + 1·b` is `b`, bit for bit, for
//!    every finite non-zero bias);
//! 2. each block writes only its own atoms' and entries' outputs (disjoint
//!    slices from `split_at_mut`), and the one order-sensitive f32 sum of
//!    the embedding pass, the T matrix, replays per atom in entry order;
//! 3. all order-dependent f64 accumulations (per-atom energy sums, force
//!    scatter, virial) run per job over [`dpmd_threads::atom_chunks`] of the
//!    job's own atom count, merged in chunk order.
//!
//! `tests/batch_determinism.rs` checks the end-to-end consequence, and
//! `tests/pinned_digests.rs` pins the bits of a solo trajectory.

use dpmd_obs::clock::wall_now;

use dpmd_threads::atom_chunks;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, PotentialOutput};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::f16::F16;
use nnet::gemm;
use nnet::layers::Resnet;
use nnet::precision::Precision;
use nnet::stats::PrecClass;

use crate::descriptor::{build_environments_on, Environment};
use crate::engine::{DpEngine, Fit32};

/// One replica's force evaluation request: borrowed system state plus the
/// (caller-zeroed) force buffer to accumulate into.
pub struct BatchJob<'a> {
    /// Atom storage (positions/types read; forces are NOT written here —
    /// they go to [`forces`](Self::forces) so the caller can hold many
    /// simulations immutably while the batch runs).
    pub atoms: &'a Atoms,
    /// The replica's current neighbour list.
    pub nl: &'a NeighborList,
    /// The replica's box.
    pub bx: &'a SimBox,
    /// Output force buffer, `atoms.len()` long, zeroed by the caller.
    pub forces: &'a mut [Vec3],
}

/// What a batched evaluation did, for metrics and the bench.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchEvalStats {
    /// Jobs evaluated.
    pub jobs: usize,
    /// Stacked GEMM calls issued by the embedding + fitting passes.
    pub fused_gemms: u64,
    /// Total rows stacked into those calls (rows ÷ calls = mean occupancy).
    pub fused_rows: u64,
    /// Jobs evaluated one by one on the f64 reference model (the `Double`
    /// path has no stacked f32 form).
    pub solo_fallbacks: u64,
    /// Aggregate phase breakdown across the whole batch (per-replica wall
    /// time is not separable once the passes are fused).
    pub phases: ForcePhases,
}

/// Stacked embedding rows per GEMM: bounds a block's intermediates so they
/// stay cache-sized (bitwise-invisible — every row is independent).
const EMB_CHUNK: usize = 4096;

/// The evaluator's buffers, owned by the engine and reused across calls so
/// a steady-state step allocates nothing but its outputs. Every buffer is
/// fully overwritten (or zeroed) before it is read, so reuse is
/// bitwise-invisible.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Environments of the flat (job, atom) index.
    envs: Vec<Environment>,
    /// Central species per flat atom.
    species: Vec<usize>,
    /// Flat entry index of each flat atom's first entry, plus the total.
    entry_start: Vec<usize>,
    /// Per entry: embedding value and `d/ds` rows (`m1` wide) and the f32
    /// generalized coordinates.
    g: Vec<f32>,
    dg_ds: Vec<f32>,
    coords: Vec<[f32; 4]>,
    /// Per atom: the T matrix (`m1×4`), fitted energy and `∂E/∂D`
    /// (`m1×m2`).
    t: Vec<f32>,
    efit: Vec<f32>,
    de_dd: Vec<f32>,
    /// One scratch per block of the embedding and fitting passes.
    blocks: Vec<BlockScratch>,
    /// One partial per chunk of the chain-rule pass.
    chunks: Vec<ChunkOut>,
}

/// Stacking buffers of one block.
#[derive(Default)]
struct BlockScratch {
    /// Block-local positions of the stacked rows (entries, then atoms).
    rows: Vec<u32>,
    /// Switching weights of the stacked embedding rows.
    svals: Vec<f32>,
    /// Augmented value and tangent rows (stride `width + 1`) and the next
    /// layer's.
    val: Vec<f32>,
    tan: Vec<f32>,
    val_next: Vec<f32>,
    tan_next: Vec<f32>,
    pre: Vec<f32>,
    dpre: Vec<f32>,
    /// Fitting tape: `xs[l]` is layer `l`'s input (`xs[0]` the stacked
    /// descriptor rows), `dfac[l]` its activation-derivative factors.
    xs: Vec<Vec<f32>>,
    dfac: Vec<Vec<f64>>,
    grad: Vec<f32>,
    dx: Vec<f32>,
    h16: Vec<F16>,
    gemms: u64,
    gemm_rows: u64,
}

/// One chain-rule chunk's partial energy, virial and forces.
#[derive(Default)]
struct ChunkOut {
    energy: f64,
    virial: f64,
    forces: Vec<Vec3>,
    /// `∂E/∂T` scratch, reset per atom.
    dt: Vec<f32>,
}

/// `v` resized to `n` zeros.
fn zeroed<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    v.clear();
    v.resize(n, T::default());
    v
}

/// Split the first `n` items off `rest`: hands each block its disjoint
/// slice of a flat output.
fn take_head<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// The embedding pass over one block of flat atoms: fills the block's
/// per-entry `g`, `dg_ds` and `coords` and its per-atom T matrices.
/// `entry_start` holds the block's atoms' first flat entries plus the end.
#[allow(clippy::too_many_arguments)]
fn embed_block(
    eng: &DpEngine,
    envs: &[Environment],
    entry_start: &[usize],
    g: &mut [f32],
    dg_ds: &mut [f32],
    coords: &mut [[f32; 4]],
    t: &mut [f32],
    s: &mut BlockScratch,
) {
    let m1 = eng.model.config.m1();
    let inv_nm = 1.0f32 / eng.model.config.nmax as f32;
    let tally = eng.obs.as_ref().map(|o| &o.gemm);
    let base = entry_start[0];
    let BlockScratch { rows, svals, val, tan, val_next, tan_next, pre, dpre, gemms, gemm_rows, .. } = s;
    for (ty, net) in eng.emb32.iter().enumerate() {
        rows.clear();
        svals.clear();
        for (env, &first) in envs.iter().zip(entry_start) {
            for (k, e) in env.entries.iter().enumerate() {
                if e.typ as usize == ty {
                    rows.push((first - base + k) as u32);
                    svals.push(e.s as f32);
                }
            }
        }
        for (pos, sv) in rows.chunks(EMB_CHUNK).zip(svals.chunks(EMB_CHUNK)) {
            let n = pos.len();
            // Value rows `[1, s]` and tangent rows `[0, 1]`.
            zeroed(val, n * 2);
            zeroed(tan, n * 2);
            for (r, &sr) in sv.iter().enumerate() {
                val[r * 2] = 1.0;
                val[r * 2 + 1] = sr;
                tan[r * 2 + 1] = 1.0;
            }
            for ((_, _, act, resnet, ind, outd), baug) in net.layers.iter().zip(&net.aug) {
                let (ind, outd) = (*ind, *outd);
                gemm::auto_nn_f32(n, outd, ind + 1, val, baug, zeroed(pre, n * outd));
                gemm::auto_nn_f32(n, outd, ind + 1, tan, baug, zeroed(dpre, n * outd));
                if let Some(tl) = tally {
                    tl.record(n, outd, ind + 1, PrecClass::F32);
                    tl.record(n, outd, ind + 1, PrecClass::F32);
                }
                *gemms += 2;
                *gemm_rows += 2 * n as u64;
                zeroed(val_next, n * (outd + 1));
                zeroed(tan_next, n * (outd + 1));
                for r in 0..n {
                    let prer = &pre[r * outd..(r + 1) * outd];
                    let dprer = &dpre[r * outd..(r + 1) * outd];
                    let vo = &mut val_next[r * (outd + 1)..(r + 1) * (outd + 1)];
                    let to = &mut tan_next[r * (outd + 1)..(r + 1) * (outd + 1)];
                    vo[0] = 1.0;
                    for o in 0..outd {
                        let (v, dfac) = act.value_grad_f32(prer[o]);
                        vo[1 + o] = v;
                        to[1 + o] = (dfac as f32) * dprer[o];
                    }
                    let vi = &val[r * (ind + 1)..(r + 1) * (ind + 1)];
                    let ti = &tan[r * (ind + 1)..(r + 1) * (ind + 1)];
                    match resnet {
                        Resnet::None => {}
                        Resnet::Identity => {
                            for i in 0..ind {
                                vo[1 + i] += vi[1 + i];
                                to[1 + i] += ti[1 + i];
                            }
                        }
                        Resnet::Doubling => {
                            for i in 0..ind {
                                vo[1 + i] += vi[1 + i];
                                vo[1 + i + ind] += vi[1 + i];
                                to[1 + i] += ti[1 + i];
                                to[1 + i + ind] += ti[1 + i];
                            }
                        }
                    }
                }
                std::mem::swap(val, val_next);
                std::mem::swap(tan, tan_next);
            }
            // Scatter the final rows (stride m1+1; column 0 is the
            // augmentation) to their entries.
            for (r, &p) in pos.iter().enumerate() {
                let (p, off) = (p as usize, r * (m1 + 1) + 1);
                g[p * m1..(p + 1) * m1].copy_from_slice(&val[off..off + m1]);
                dg_ds[p * m1..(p + 1) * m1].copy_from_slice(&tan[off..off + m1]);
            }
        }
    }
    // T accumulation per atom in entry order (the only order-sensitive
    // reduction of the pass).
    t.fill(0.0);
    for (a, (env, &first)) in envs.iter().zip(entry_start).enumerate() {
        let ta = &mut t[a * m1 * 4..(a + 1) * m1 * 4];
        for (k, e) in env.entries.iter().enumerate() {
            let p = first - base + k;
            let c64 = e.coords();
            let c = [c64[0] as f32, c64[1] as f32, c64[2] as f32, c64[3] as f32];
            coords[p] = c;
            for m in 0..m1 {
                let gv = g[p * m1 + m];
                for (cc, &cv) in c.iter().enumerate() {
                    ta[m * 4 + cc] += gv * cv * inv_nm;
                }
            }
        }
    }
}

/// The fitting pass over one block of flat atoms: from the block's T
/// matrices, the fitted energy and `∂E/∂D` of every atom, with one stacked
/// forward/backward sweep per central species.
fn fit_block(
    eng: &DpEngine,
    f16_first: bool,
    species: &[usize],
    t: &[f32],
    efit: &mut [f32],
    de_dd: &mut [f32],
    s: &mut BlockScratch,
) {
    let (m1, m2) = (eng.model.config.m1(), eng.model.config.m2);
    let md = m1 * m2;
    for (ty, fit) in eng.fit32.iter().enumerate() {
        s.rows.clear();
        s.rows.extend((0..species.len() as u32).filter(|&a| species[a as usize] == ty));
        let n = s.rows.len();
        if n == 0 {
            continue;
        }
        let nl = fit.layers.len();
        s.xs.resize_with(nl + 1, Vec::default);
        s.dfac.resize_with(nl, Vec::default);
        // Descriptor rows D = T·T₂ᵀ.
        let d = zeroed(&mut s.xs[0], n * md);
        for (r, &a) in s.rows.iter().enumerate() {
            let ta = &t[a as usize * m1 * 4..(a as usize + 1) * m1 * 4];
            for i in 0..m1 {
                for j in 0..m2 {
                    let mut acc = 0.0f32;
                    for c in 0..4 {
                        acc += ta[i * 4 + c] * ta[j * 4 + c];
                    }
                    d[r * md + i * m2 + j] = acc;
                }
            }
        }
        fit_stacked(eng, fit, n, f16_first, s);
        for (r, &a) in s.rows.iter().enumerate() {
            let a = a as usize;
            efit[a] = s.xs[nl][r];
            de_dd[a * md..(a + 1) * md].copy_from_slice(&s.grad[r * md..(r + 1) * md]);
        }
    }
}

/// Forward + backward of one fitting net over `n` stacked descriptor rows
/// in `s.xs[0]`: per-row energies land in `s.xs[nl]`, cotangents `∂E/∂D`
/// in `s.grad`. Biases, activations and resnet adds run per row in layer
/// order; the first layer's GEMMs run on binary16 operands when
/// `f16_first` is set.
fn fit_stacked(eng: &DpEngine, fit: &Fit32, n: usize, f16_first: bool, s: &mut BlockScratch) {
    let tally = eng.obs.as_ref().map(|o| &o.gemm);
    let BlockScratch { xs, dfac, pre, grad, dx, dpre, h16, gemms, gemm_rows, .. } = s;
    for (li, (w, _, b, act, resnet, ind, outd)) in fit.layers.iter().enumerate() {
        let (ind, outd) = (*ind, *outd);
        let (done, next) = xs.split_at_mut(li + 1);
        let x = &done[li];
        let pre = zeroed(pre, n * outd);
        if li == 0 && f16_first {
            let x16 = zeroed(h16, n * ind);
            for (d, &v) in x16.iter_mut().zip(x.iter()) {
                *d = F16::from_f32(v);
            }
            gemm::batched_nn_f16(n, 1, outd, ind, x16, &fit.w16_first, pre);
            if let Some(t) = tally {
                t.record(n, outd, ind, PrecClass::F16);
            }
        } else {
            gemm::auto_nn_f32(n, outd, ind, x, w, pre);
            if let Some(t) = tally {
                t.record(n, outd, ind, PrecClass::F32);
            }
        }
        *gemms += 1;
        *gemm_rows += n as u64;
        let out = zeroed(&mut next[0], n * outd);
        let df = zeroed(&mut dfac[li], n * outd);
        for r in 0..n {
            let prer = &mut pre[r * outd..(r + 1) * outd];
            for (p, &bb) in prer.iter_mut().zip(b) {
                *p += bb;
            }
            let outr = &mut out[r * outd..(r + 1) * outd];
            let dfr = &mut df[r * outd..(r + 1) * outd];
            for ((o, d), &p) in outr.iter_mut().zip(dfr.iter_mut()).zip(prer.iter()) {
                (*o, *d) = act.value_grad_f32(p);
            }
            let xr = &x[r * ind..(r + 1) * ind];
            match resnet {
                Resnet::None => {}
                Resnet::Identity => {
                    for i in 0..ind {
                        outr[i] += xr[i];
                    }
                }
                Resnet::Doubling => {
                    for i in 0..ind {
                        outr[i] += xr[i];
                        outr[i + ind] += xr[i];
                    }
                }
            }
        }
    }

    // Backward with unit cotangent per row (the last layer is 1-wide).
    zeroed(grad, n).fill(1.0);
    for (li, (_, wt, _, _, resnet, ind, outd)) in fit.layers.iter().enumerate().rev() {
        let (ind, outd) = (*ind, *outd);
        let dp = zeroed(dpre, n * outd);
        for ((d, &gv), &f) in dp.iter_mut().zip(grad.iter()).zip(dfac[li].iter()) {
            *d = gv * (f as f32);
        }
        let dxs = zeroed(dx, n * ind);
        if li == 0 && f16_first {
            let d16 = zeroed(h16, n * outd);
            for (d, &v) in d16.iter_mut().zip(dp.iter()) {
                *d = F16::from_f32(v);
            }
            gemm::batched_nn_f16(n, 1, ind, outd, d16, &fit.wt16_first, dxs);
            if let Some(t) = tally {
                t.record(n, ind, outd, PrecClass::F16);
            }
        } else {
            gemm::auto_nn_f32(n, ind, outd, dp, wt, dxs);
            if let Some(t) = tally {
                t.record(n, ind, outd, PrecClass::F32);
            }
        }
        *gemms += 1;
        *gemm_rows += n as u64;
        match resnet {
            Resnet::None => {}
            Resnet::Identity => {
                for r in 0..n {
                    for i in 0..ind {
                        dxs[r * ind + i] += grad[r * outd + i];
                    }
                }
            }
            Resnet::Doubling => {
                for r in 0..n {
                    for i in 0..ind {
                        dxs[r * ind + i] += grad[r * outd + i] + grad[r * outd + i + ind];
                    }
                }
            }
        }
        std::mem::swap(grad, dx);
    }
}

/// The flat inputs of the chain-rule pass: environments, and the
/// per-entry and per-atom outputs of the embedding and fitting passes.
#[derive(Clone, Copy)]
struct Passes<'a> {
    envs: &'a [Environment],
    entry_start: &'a [usize],
    g: &'a [f32],
    dg_ds: &'a [f32],
    coords: &'a [[f32; 4]],
    t: &'a [f32],
    efit: &'a [f32],
    de_dd: &'a [f32],
}

/// The per-neighbour chain rule of atoms `atoms_range` of one job, forces
/// in f64. `first` is the job's first flat atom.
fn chain_rule(
    eng: &DpEngine,
    atoms: &Atoms,
    atoms_range: std::ops::Range<usize>,
    first: usize,
    p: Passes<'_>,
    out: &mut ChunkOut,
) {
    let Passes { envs, entry_start, g, dg_ds, coords, t, efit, de_dd } = p;
    let (m1, m2) = (eng.model.config.m1(), eng.model.config.m2);
    let inv_nm = 1.0f32 / eng.model.config.nmax as f32;
    let ChunkOut { energy, virial, forces, dt } = out;
    *energy = 0.0;
    *virial = 0.0;
    zeroed(forces, atoms.len());
    zeroed(dt, m1 * 4);
    for i in atoms_range {
        let a = first + i;
        let ta = &t[a * m1 * 4..(a + 1) * m1 * 4];
        *energy += efit[a] as f64 + eng.model.energy_bias[atoms.typ[i] as usize];
        let grad = &de_dd[a * m1 * m2..(a + 1) * m1 * m2];
        dt.fill(0.0);
        for p in 0..m1 {
            for q in 0..m2 {
                let gpq = grad[p * m2 + q];
                for c in 0..4 {
                    dt[p * 4 + c] += gpq * ta[q * 4 + c];
                    dt[q * 4 + c] += gpq * ta[p * 4 + c];
                }
            }
        }
        for (k, e) in envs[a].entries.iter().enumerate() {
            let p = entry_start[a] + k;
            let c = coords[p];
            let mut de_ds = 0.0f32;
            let mut de_drt = [0.0f32; 4];
            for m in 0..m1 {
                let mut de_dg = 0.0f32;
                for cc in 0..4 {
                    de_dg += dt[m * 4 + cc] * c[cc];
                    de_drt[cc] += dt[m * 4 + cc] * g[p * m1 + m];
                }
                de_ds += de_dg * inv_nm * dg_ds[p * m1 + m];
            }
            for v in &mut de_drt {
                *v *= inv_nm;
            }
            let grads = e.coord_grads();
            let inv_r = 1.0 / e.r;
            let dsdd = [e.ds_dr * e.disp.x * inv_r, e.ds_dr * e.disp.y * inv_r, e.ds_dr * e.disp.z * inv_r];
            let mut f = Vec3::ZERO;
            for axis in 0..3 {
                let mut v = de_ds as f64 * dsdd[axis];
                for cc in 0..4 {
                    v += de_drt[cc] as f64 * grads[cc][axis];
                }
                f[axis] = v;
            }
            forces[e.j as usize] -= f;
            forces[i] += f;
            *virial += f.dot(e.disp);
        }
    }
}

impl DpEngine {
    /// Evaluate many independent systems through one engine, stacking the
    /// embedding and fitting passes across jobs (see module docs). Per job,
    /// energies/forces/virials are **bitwise independent** of the other
    /// jobs, the batch size and the pool width. Returns one
    /// [`PotentialOutput`] per job (in job order) plus stacking statistics;
    /// the aggregate phase breakdown also lands in
    /// [`last_phases`](Self::last_phases).
    pub fn energy_forces_batched(
        &self,
        jobs: &mut [BatchJob<'_>],
    ) -> (Vec<PotentialOutput>, BatchEvalStats) {
        let mut stats = BatchEvalStats { jobs: jobs.len(), ..Default::default() };
        if let Some(o) = &self.obs {
            let idx = match self.precision {
                Precision::Double => 0,
                Precision::Mix32 => 1,
                Precision::Mix16 => 2,
            };
            o.evals[idx].add(jobs.len() as u64);
        }
        let pool = self.pool();
        let mut outs = Vec::with_capacity(jobs.len()); // dpmd-allow D5: one output per job, returned to the caller
        let mut phases = ForcePhases::default();

        // The Double path is the f64 reference implementation; it has no
        // stacked form, so each job runs on it in turn.
        if self.precision == Precision::Double {
            for job in jobs.iter_mut() {
                let (out, p) = self.model.energy_forces_on(pool, job.atoms, job.nl, job.bx, job.forces);
                phases.descriptor_s += p.descriptor_s;
                phases.embedding_s += p.embedding_s;
                phases.fitting_s += p.fitting_s;
                phases.reduction_s += p.reduction_s;
                stats.solo_fallbacks += 1;
                outs.push(out);
            }
            stats.phases = phases;
            *self.last_phases.lock().unwrap() = Some(phases);
            return (outs, stats);
        }

        let f16_first = self.precision == Precision::Mix16;
        let cfg = &self.model.config;
        let (m1, m2) = (cfg.m1(), cfg.m2);
        let mut guard = self.workspace.lock().expect("workspace poisoned by a panicked evaluation");
        let Workspace { envs, species, entry_start, g, dg_ds, coords, t, efit, de_dd, blocks, chunks } = &mut *guard;

        // Pass 1: descriptors, per job (chunk-parallel inside each call),
        // laid out along the flat (job, atom) index.
        let t0 = wall_now();
        envs.clear();
        species.clear();
        for j in jobs.iter() {
            envs.extend(build_environments_on(pool, j.atoms, j.nl, j.bx, cfg.rcut_smth, cfg.rcut));
            species.extend(j.atoms.typ[..j.atoms.nlocal].iter().map(|&ty| ty as usize));
        }
        entry_start.clear();
        entry_start.push(0);
        for env in envs.iter() {
            entry_start.push(entry_start.last().unwrap() + env.entries.len());
        }
        let (natoms, nentries) = (envs.len(), entry_start[envs.len()]);
        phases.descriptor_s = t0.elapsed().as_secs_f64();

        // Every per-entry and per-atom output is fully written by its
        // block below, so the buffers are resized without re-zeroing.
        g.resize(nentries * m1, 0.0);
        dg_ds.resize(nentries * m1, 0.0);
        coords.resize(nentries, [0.0; 4]);
        t.resize(natoms * m1 * 4, 0.0);
        efit.resize(natoms, 0.0);
        de_dd.resize(natoms * m1 * m2, 0.0);
        let block_ranges = atom_chunks(natoms);
        blocks.resize_with(block_ranges.len(), BlockScratch::default);
        let (envs, species, entry_start) = (&envs[..], &species[..], &entry_start[..]);

        // Pass 2: embedding, one task per block.
        let t0 = wall_now();
        pool.scope(|sc| {
            let (mut g, mut dg_ds, mut coords, mut t) = (&mut g[..], &mut dg_ds[..], &mut coords[..], &mut t[..]);
            for (r, s) in block_ranges.iter().zip(blocks.iter_mut()) {
                let (lo, hi) = (r.start, r.end);
                let ne = entry_start[hi] - entry_start[lo];
                let g_b = take_head(&mut g, ne * m1);
                let dg_b = take_head(&mut dg_ds, ne * m1);
                let c_b = take_head(&mut coords, ne);
                let t_b = take_head(&mut t, (hi - lo) * m1 * 4);
                s.gemms = 0;
                s.gemm_rows = 0;
                sc.spawn(move || {
                    embed_block(self, &envs[lo..hi], &entry_start[lo..=hi], g_b, dg_b, c_b, t_b, s)
                });
            }
        });
        phases.embedding_s = t0.elapsed().as_secs_f64();

        // Pass 3: fitting, one task per block; then the per-job chain rule
        // in `atom_chunks` of the job, merged in chunk order (timed as the
        // reduction).
        let t0 = wall_now();
        pool.scope(|sc| {
            let t = &t[..];
            let (mut efit, mut de_dd) = (&mut efit[..], &mut de_dd[..]);
            for (r, s) in block_ranges.iter().zip(blocks.iter_mut()) {
                let (lo, hi) = (r.start, r.end);
                let e_b = take_head(&mut efit, hi - lo);
                let d_b = take_head(&mut de_dd, (hi - lo) * m1 * m2);
                let t_b = &t[lo * m1 * 4..hi * m1 * 4];
                sc.spawn(move || fit_block(self, f16_first, &species[lo..hi], t_b, e_b, d_b, s));
            }
        });
        for s in &blocks[..block_ranges.len()] {
            stats.fused_gemms += s.gemms;
            stats.fused_rows += s.gemm_rows;
        }
        let passes = Passes { envs, entry_start, g, dg_ds, coords, t, efit, de_dd };
        let mut first = 0;
        for job in jobs.iter_mut() {
            let atoms = job.atoms;
            let ranges = atom_chunks(atoms.nlocal);
            chunks.resize_with(ranges.len(), ChunkOut::default);
            pool.scope(|sc| {
                for (r, out) in ranges.iter().zip(chunks.iter_mut()) {
                    sc.spawn(move || chain_rule(self, atoms, r.start..r.end, first, passes, out));
                }
            });
            let tm = wall_now();
            let mut energy = 0.0f64;
            let mut virial = 0.0f64;
            for c in &chunks[..ranges.len()] {
                energy += c.energy;
                virial += c.virial;
                for (f, b) in job.forces.iter_mut().zip(&c.forces) {
                    *f += *b;
                }
            }
            phases.reduction_s += tm.elapsed().as_secs_f64();
            outs.push(PotentialOutput { energy, virial: -virial });
            first += atoms.nlocal;
        }
        phases.fitting_s = t0.elapsed().as_secs_f64() - phases.reduction_s;
        drop(guard);

        stats.phases = phases;
        *self.last_phases.lock().unwrap() = Some(phases);
        (outs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use crate::model::DeepPotModel;
    use dpmd_threads::ThreadPool;
    use minimd::lattice::{fcc_copper, water_box};
    use minimd::neighbor::ListKind;
    use std::sync::Arc;

    type System = (SimBox, Atoms, NeighborList);

    fn copper_system(perturb_seed: u64) -> System {
        let (bx, mut atoms) = fcc_copper(3, 3, 3);
        for (k, p) in atoms.pos.iter_mut().enumerate() {
            let h = (k as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(perturb_seed);
            p.x += 0.03 * (((h >> 16) & 0xff) as f64 / 255.0 - 0.5);
            p.y += 0.03 * (((h >> 24) & 0xff) as f64 / 255.0 - 0.5);
            p.z += 0.03 * (((h >> 32) & 0xff) as f64 / 255.0 - 0.5);
        }
        let mut nl = NeighborList::new(5.0, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        (bx, atoms, nl)
    }

    fn water_system(seed: u64) -> System {
        let (bx, atoms) = water_box(2, 2, 2, seed);
        let mut nl = NeighborList::new(4.0, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        (bx, atoms, nl)
    }

    /// Evaluate `order` (indices into `systems`) as one batch.
    fn run_batch(
        engine: &DpEngine,
        systems: &[System],
        order: &[usize],
    ) -> (Vec<(PotentialOutput, Vec<Vec3>)>, BatchEvalStats) {
        let mut bufs: Vec<Vec<Vec3>> = order.iter().map(|&i| vec![Vec3::ZERO; systems[i].1.len()]).collect();
        let mut jobs: Vec<BatchJob> = order
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&i, forces)| {
                let (bx, atoms, nl) = &systems[i];
                BatchJob { atoms, nl, bx, forces }
            })
            .collect();
        let (outs, stats) = engine.energy_forces_batched(&mut jobs);
        (outs.into_iter().zip(bufs).collect(), stats)
    }

    /// A job's bits must not depend on its companions, the batch size, its
    /// position in the batch, or the pool width: every batch below must
    /// reproduce each job's batch-of-one evaluation on a serial pool.
    fn assert_invariant(model: &DeepPotModel, precision: Precision, systems: &[System]) {
        let serial = DpEngine::new(model.clone(), precision).with_pool(Arc::new(ThreadPool::serial()));
        let alone: Vec<_> = (0..systems.len()).map(|i| run_batch(&serial, systems, &[i]).0.remove(0)).collect();
        let n = systems.len();
        let orders: [Vec<usize>; 3] = [(0..n).collect(), (0..n).rev().collect(), (0..n).chain(0..n).collect()];
        for threads in [1usize, 2, 3, 6] {
            let engine = DpEngine::new(model.clone(), precision).with_pool(Arc::new(ThreadPool::new(threads)));
            for order in &orders {
                let (outs, stats) = run_batch(&engine, systems, order);
                for (&i, (out, f)) in order.iter().zip(&outs) {
                    let ctx = format!("{precision:?} job {i} of {order:?} at {threads} threads");
                    assert_eq!(alone[i].0.energy.to_bits(), out.energy.to_bits(), "{ctx}: energy");
                    assert_eq!(alone[i].0.virial.to_bits(), out.virial.to_bits(), "{ctx}: virial");
                    assert_eq!(&alone[i].1, f, "{ctx}: forces");
                }
                if precision == Precision::Double {
                    assert_eq!(stats.solo_fallbacks, order.len() as u64);
                } else {
                    assert_eq!(stats.solo_fallbacks, 0);
                    assert!(stats.fused_gemms > 0, "fitting GEMMs must stack");
                    assert!(stats.fused_rows > stats.fused_gemms, "rows must stack");
                }
            }
        }
    }

    /// The whole design hinges on this for one species at every precision.
    #[test]
    fn job_bits_are_invariant_under_companions_and_pool_width() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let systems: Vec<_> = (0..3).map(|s| copper_system(1000 + s)).collect();
        for precision in [Precision::Mix32, Precision::Mix16, Precision::Double] {
            assert_invariant(&model, precision, &systems);
        }
    }

    /// Two species (water): the type-sorted stacking must respect per-atom
    /// species for both embedding and fitting nets.
    #[test]
    fn multi_species_bits_are_invariant_under_companions_and_pool_width() {
        let model = DeepPotModel::new(DeepPotConfig::tiny(2, 4.0));
        let systems = [water_system(31), water_system(32)];
        assert_invariant(&model, Precision::Mix32, &systems);
    }

    /// The augmented-column trick the stacked embedding GEMMs rest on:
    /// a row `[1, v…]` against `[bias ; W]` through a kernel's zero-seeded
    /// ascending-k fold must reproduce the bias-seeded accumulation
    /// `((b + v0·w0) + v1·w1) + …` bit for bit — in *each* dispatch class,
    /// with the class's own rounding regime (two roundings per step on the
    /// scalar class, one fused rounding on the SIMD classes).
    #[test]
    fn augmented_column_reproduces_bias_seeded_fold() {
        use nnet::gemm::dispatch::{self, DispatchClass};

        let (ind, outd) = (7, 13);
        let h = |i: u64| ((i.wrapping_mul(0x9e3779b97f4a7c15) >> 17) & 0xffff) as f32 / 65536.0 - 0.5;
        let w: Vec<f32> = (0..ind * outd).map(|i| h(i as u64)).collect();
        let b: Vec<f32> = (0..outd).map(|i| h(1000 + i as u64)).collect();
        let v: Vec<f32> = (0..ind).map(|i| h(2000 + i as u64)).collect();

        let mut aug_b = b.clone();
        aug_b.extend_from_slice(&w);
        let mut row = vec![1.0f32];
        row.extend_from_slice(&v);

        for kernel in [dispatch::scalar(), dispatch::active()] {
            // Bias-seeded reference in this class's rounding regime,
            // accumulating ascending-i like every kernel's k-fold.
            let fused = kernel.class() != DispatchClass::Scalar;
            let mut seeded = b.clone();
            for i in 0..ind {
                for (o, s) in seeded.iter_mut().enumerate() {
                    *s = if fused { v[i].mul_add(w[i * outd + o], *s) } else { *s + v[i] * w[i * outd + o] };
                }
            }

            let mut c = vec![0.0f32; outd];
            kernel.nn_f32(1, outd, ind + 1, &row, &aug_b, &mut c);
            assert_eq!(seeded, c, "class {:?}", kernel.class());
        }
    }
}
