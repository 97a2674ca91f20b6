//! Mixed-precision inference engines (§III-B3).
//!
//! * `Double` — delegates to the f64 reference implementation.
//! * `Mix32` — embedding-net and fitting-net arithmetic in f32 (descriptor
//!   assembly in f32 as well, per ref [42]); force accumulation stays f64.
//! * `Mix16` — like `Mix32`, but the first-layer fitting-net GEMMs (forward
//!   and backward) run on binary16-stored operands with f32 accumulation —
//!   the paper's fp16-sve-gemm.
//!
//! These paths share the exact dataflow of [`crate::model::DeepPotModel`];
//! Table II and Fig. 6 measure how far the reduced-precision energies and
//! forces drift from the Double path and from the reference labels.
//!
//! `Mix32` and `Mix16` have one evaluator, the stacked, block-parallel
//! [`DpEngine::energy_forces_batched`] of [`crate::batch`]; a solo
//! [`DpEngine::energy_forces`] call is a batch of one. This module holds
//! the engine, its f32/f16 weight copies and the [`Potential`] adapter.

use std::sync::{Arc, Mutex};

use dpmd_obs::{Counter, MetricsRegistry, Unit};
use dpmd_threads::ThreadPool;
use minimd::atoms::Atoms;
use minimd::neighbor::NeighborList;
use minimd::potential::{ForcePhases, Potential, PotentialOutput};
use minimd::simbox::SimBox;
use minimd::vec3::Vec3;
use nnet::activation::Activation;
use nnet::f16::F16;
use nnet::layers::Resnet;
use nnet::precision::Precision;
use nnet::stats::GemmTally;

use crate::batch::{BatchJob, Workspace};
use crate::model::DeepPotModel;

/// One embedding layer: (w in×out, b, act, resnet, in, out).
pub(crate) type EmbLayer32 = (Vec<f32>, Vec<f32>, Activation, Resnet, usize, usize);

/// One embedding net with weights cast to f32, plus the augmented per-layer
/// matrices `[bias ; W]` (shape `(ind+1)×outd`), built once at engine
/// construction — the paper's initialization-phase preprocessing. The
/// embedding pass runs zero-seeded augmented GEMMs against them (value rows
/// `[1, v…]`, tangent rows `[0, t…]`), so the kernel's ascending-k fold
/// reproduces a bias-seeded per-entry accumulation bit for bit within each
/// dispatch class.
#[derive(Clone, Debug)]
pub(crate) struct Emb32 {
    pub(crate) layers: Vec<EmbLayer32>,
    pub(crate) aug: Vec<Vec<f32>>,
}

impl Emb32 {
    fn from_model(net: &crate::embedding::EmbeddingNet) -> Self {
        let layers: Vec<EmbLayer32> = net
            .mlp
            .layers
            .iter()
            .map(|l| {
                (
                    l.w.as_slice().iter().map(|&x| x as f32).collect(),
                    l.b.iter().map(|&x| x as f32).collect(),
                    l.act,
                    l.resnet,
                    l.in_dim(),
                    l.out_dim(),
                )
            })
            .collect();
        let aug = layers
            .iter()
            .map(|(w, b, _, _, _, _): &EmbLayer32| {
                let mut m = Vec::with_capacity(b.len() + w.len());
                m.extend_from_slice(b);
                m.extend_from_slice(w);
                m
            })
            .collect();
        Emb32 { layers, aug }
    }
}

/// One fitting layer: (w in×out, wᵀ out×in, b, act, resnet, in, out).
pub(crate) type FitLayer32 = (Vec<f32>, Vec<f32>, Vec<f32>, Activation, Resnet, usize, usize);

/// One fitting net with f32 weights (and binary16 copies of the first
/// layer's weight matrices for the `Mix16` path).
#[derive(Clone, Debug)]
pub(crate) struct Fit32 {
    pub(crate) layers: Vec<FitLayer32>,
    // First-layer fp16 copies: weights (in×out) and transpose (out×in).
    pub(crate) w16_first: Vec<F16>,
    pub(crate) wt16_first: Vec<F16>,
}

impl Fit32 {
    fn from_model(net: &crate::fitting::FittingNet) -> Self {
        let layers: Vec<_> = net
            .mlp
            .layers
            .iter()
            .map(|l| {
                let w: Vec<f32> = l.w.as_slice().iter().map(|&x| x as f32).collect();
                let wt: Vec<f32> = l.w.transpose().as_slice().iter().map(|&x| x as f32).collect();
                let b: Vec<f32> = l.b.iter().map(|&x| x as f32).collect();
                (w, wt, b, l.act, l.resnet, l.in_dim(), l.out_dim())
            })
            .collect();
        let w16_first = layers[0].0.iter().map(|&x| F16::from_f32(x)).collect();
        let wt16_first = layers[0].1.iter().map(|&x| F16::from_f32(x)).collect();
        Fit32 { layers, w16_first, wt16_first }
    }
}

/// Observability handles of an attached engine: per-precision evaluation
/// counters plus the GEMM shape-class tally shared with `nnet`.
#[derive(Clone, Debug)]
pub(crate) struct DpObs {
    /// `deepmd.eval.{fp64,fp32,fp16}.calls`, indexed by precision path.
    pub(crate) evals: [Counter; 3],
    pub(crate) gemm: GemmTally,
}

/// A precision-parameterized inference engine over a trained model.
pub struct DpEngine {
    /// The underlying f64 model (reference path and source of weights).
    pub model: DeepPotModel,
    /// Active precision mode.
    pub precision: Precision,
    pub(crate) emb32: Vec<Emb32>,
    pub(crate) fit32: Vec<Fit32>,
    /// Owned pool; falls back to the process-global pool when unset.
    pool: Option<Arc<ThreadPool>>,
    /// Phase breakdown of the last evaluation (`compute` takes `&self`, so
    /// interior mutability is needed to record it).
    pub(crate) last_phases: Mutex<Option<ForcePhases>>,
    /// Buffers of the stacked passes, reused across evaluations.
    pub(crate) workspace: Mutex<Workspace>,
    /// Metric handles; `None` (the default) skips all recording.
    pub(crate) obs: Option<DpObs>,
}

impl DpEngine {
    /// Build an engine at the given precision (weights are cast once here —
    /// the paper's "preprocess the transpose in the initial phase" applies
    /// to these cached copies too).
    pub fn new(model: DeepPotModel, precision: Precision) -> Self {
        let emb32 = model.embeddings.iter().map(Emb32::from_model).collect();
        let fit32 = model.fittings.iter().map(Fit32::from_model).collect();
        DpEngine {
            model,
            precision,
            emb32,
            fit32,
            pool: None,
            last_phases: Mutex::new(None),
            workspace: Mutex::default(),
            obs: None,
        }
    }

    /// Register this engine's metrics on `reg` and start recording: one
    /// evaluation counter per precision path, and a GEMM call tally of every
    /// embedding and fitting GEMM. The GEMMs stack a data-dependent number
    /// of rows, so they have no fixed exact shape to pre-register; the
    /// tally's per-precision M-class counters cover them.
    pub fn attach_obs(&mut self, reg: &MetricsRegistry) {
        self.obs = Some(DpObs {
            evals: [
                reg.counter("deepmd.eval.fp64.calls", Unit::Count),
                reg.counter("deepmd.eval.fp32.calls", Unit::Count),
                reg.counter("deepmd.eval.fp16.calls", Unit::Count),
            ],
            gemm: GemmTally::register(reg, &[]),
        });
    }

    /// Run all evaluations on the given pool instead of the global one
    /// (lets one process host engines of different widths, e.g. the
    /// determinism tests and the scaling bench).
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool evaluations run on.
    pub fn pool(&self) -> &ThreadPool {
        match &self.pool {
            Some(p) => p,
            None => ThreadPool::global(),
        }
    }

    /// Phase breakdown of the most recent evaluation, if any ran yet.
    pub fn last_phases(&self) -> Option<ForcePhases> {
        *self.last_phases.lock().unwrap()
    }

    /// Total energy at the engine's precision.
    pub fn energy(&self, atoms: &Atoms, nl: &NeighborList, bx: &SimBox) -> f64 {
        let mut forces = vec![Vec3::ZERO; atoms.len()];
        self.energy_forces(atoms, nl, bx, &mut forces).energy
    }

    /// Energy + forces at the engine's precision (forces accumulated f64):
    /// a batch of one through
    /// [`energy_forces_batched`](Self::energy_forces_batched). Runs on
    /// [`pool`](Self::pool); records the phase breakdown.
    pub fn energy_forces(
        &self,
        atoms: &Atoms,
        nl: &NeighborList,
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> PotentialOutput {
        let mut job = [BatchJob { atoms, nl, bx, forces }];
        self.energy_forces_batched(&mut job).0[0]
    }
}

/// [`Potential`] adapter: a mixed-precision engine drives `minimd`'s
/// simulation loop exactly like the reference model (used by the Fig. 6
/// RDF-under-three-precisions experiment).
impl Potential for DpEngine {
    fn compute(&self, atoms: &mut Atoms, nl: &NeighborList, bx: &SimBox) -> PotentialOutput {
        let mut forces = std::mem::take(&mut atoms.force);
        let out = self.energy_forces(atoms, nl, bx, &mut forces);
        atoms.force = forces;
        out
    }

    fn cutoff(&self) -> f64 {
        self.model.config.rcut
    }

    fn name(&self) -> &'static str {
        match self.precision {
            Precision::Double => "deep-potential (double)",
            Precision::Mix32 => "deep-potential (MIX-fp32)",
            Precision::Mix16 => "deep-potential (MIX-fp16)",
        }
    }

    fn phase_times(&self) -> Option<ForcePhases> {
        self.last_phases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepPotConfig;
    use minimd::lattice::fcc_copper;
    use minimd::neighbor::ListKind;

    fn setup() -> (DeepPotModel, SimBox, Atoms, NeighborList) {
        let model = DeepPotModel::new(DeepPotConfig::tiny(1, 5.0));
        let (bx, mut atoms) = fcc_copper(4, 4, 4);
        // Perturb so forces are non-trivial.
        for (k, p) in atoms.pos.iter_mut().enumerate() {
            p.x += 0.05 * ((k % 7) as f64 - 3.0) / 3.0;
            p.z += 0.04 * ((k % 5) as f64 - 2.0) / 2.0;
        }
        let mut nl = NeighborList::new(model.config.rcut, 0.5, ListKind::Full);
        nl.build(&atoms, &bx);
        (model, bx, atoms, nl)
    }

    #[test]
    fn double_engine_is_bit_identical_to_reference() {
        let (model, bx, atoms, nl) = setup();
        let engine = DpEngine::new(model.clone(), Precision::Double);
        let mut f_ref = vec![Vec3::ZERO; atoms.len()];
        let mut f_eng = vec![Vec3::ZERO; atoms.len()];
        let out_ref = model.energy_forces(&atoms, &nl, &bx, &mut f_ref);
        let out_eng = engine.energy_forces(&atoms, &nl, &bx, &mut f_eng);
        assert_eq!(out_ref.energy, out_eng.energy);
        assert_eq!(f_ref, f_eng);
    }

    #[test]
    fn precision_error_ordering_double_fp32_fp16() {
        let (model, bx, atoms, nl) = setup();
        let e64 = DpEngine::new(model.clone(), Precision::Double).energy(&atoms, &nl, &bx);
        let e32 = DpEngine::new(model.clone(), Precision::Mix32).energy(&atoms, &nl, &bx);
        let e16 = DpEngine::new(model.clone(), Precision::Mix16).energy(&atoms, &nl, &bx);
        let n = atoms.nlocal as f64;
        let err32 = ((e32 - e64) / n).abs();
        let err16 = ((e16 - e64) / n).abs();
        assert!(err32 > 0.0, "fp32 path must actually round");
        assert!(err16 > err32, "fp16 error must exceed fp32: {err16:.3e} vs {err32:.3e}");
        // Both should stay far below physical energy scales (eV/atom).
        assert!(err32 < 1e-3, "err32 {err32:.3e}");
        assert!(err16 < 5e-2, "err16 {err16:.3e}");
    }

    #[test]
    fn mixed_precision_forces_stay_close_to_double() {
        let (model, bx, atoms, nl) = setup();
        let mut f64p = vec![Vec3::ZERO; atoms.len()];
        let mut f32p = vec![Vec3::ZERO; atoms.len()];
        let mut f16p = vec![Vec3::ZERO; atoms.len()];
        DpEngine::new(model.clone(), Precision::Double).energy_forces(&atoms, &nl, &bx, &mut f64p);
        DpEngine::new(model.clone(), Precision::Mix32).energy_forces(&atoms, &nl, &bx, &mut f32p);
        DpEngine::new(model.clone(), Precision::Mix16).energy_forces(&atoms, &nl, &bx, &mut f16p);
        let rms = |a: &[Vec3], b: &[Vec3]| {
            (a.iter().zip(b).map(|(x, y)| (*x - *y).norm2()).sum::<f64>() / (3.0 * a.len() as f64)).sqrt()
        };
        let d32 = rms(&f64p, &f32p);
        let d16 = rms(&f64p, &f16p);
        assert!(d32 > 0.0 && d32 < 1e-4, "fp32 force deviation {d32:.3e}");
        assert!(d16 >= d32 && d16 < 1e-2, "fp16 force deviation {d16:.3e}");
    }

    #[test]
    fn mixed_precision_is_bit_identical_across_pool_widths() {
        let (model, bx, atoms, nl) = setup();
        for precision in [Precision::Mix32, Precision::Mix16] {
            let serial =
                DpEngine::new(model.clone(), precision).with_pool(Arc::new(ThreadPool::serial()));
            let mut f_ref = vec![Vec3::ZERO; atoms.len()];
            let out_ref = serial.energy_forces(&atoms, &nl, &bx, &mut f_ref);
            let phases = serial.last_phases().expect("phases recorded");
            assert!(phases.total() > 0.0);
            for threads in [3usize, 6] {
                let eng = DpEngine::new(model.clone(), precision)
                    .with_pool(Arc::new(ThreadPool::new(threads)));
                let mut f = vec![Vec3::ZERO; atoms.len()];
                let out = eng.energy_forces(&atoms, &nl, &bx, &mut f);
                assert_eq!(out_ref.energy, out.energy, "{precision:?} {threads} threads");
                assert_eq!(out_ref.virial, out.virial, "{precision:?} {threads} threads");
                assert_eq!(f_ref, f, "{precision:?} {threads} threads");
            }
        }
    }

    #[test]
    fn mixed_precision_conserves_momentum() {
        let (model, bx, atoms, nl) = setup();
        let mut f = vec![Vec3::ZERO; atoms.len()];
        DpEngine::new(model, Precision::Mix16).energy_forces(&atoms, &nl, &bx, &mut f);
        let net = f.iter().fold(Vec3::ZERO, |a, &x| a + x);
        assert!(net.norm() < 1e-8, "net force {net:?}");
    }
}
