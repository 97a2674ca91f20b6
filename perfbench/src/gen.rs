//! Seeded workload generators. The benchmark derives every input from the
//! `--seed` argument here; the program under test only receives the
//! generated inputs. The seed varies what a workload's timing does not
//! depend on (thermal velocities, evaluation order), so runs with different
//! seeds measure the same amount of work.

use deepmd::config::DeepPotConfig;
use dpmd_scaling::kernels::OptLevel;
use fugaku::machine::MachineConfig;
use minimd::atoms::Atoms;
use minimd::integrate::init_velocities;
use minimd::lattice::fcc_copper;
use minimd::simbox::SimBox;

/// Verlet skin of the single-box engine (`Engine`, `ContinuousScheduler`).
pub const SOLO_SKIN: f64 = 2.0;
/// Verlet skin of `DistributedSim`.
pub const DIST_SKIN: f64 = 1.0;
/// Initial temperature of every MD workload, K.
pub const TEMPERATURE: f64 = 300.0;

/// SplitMix64: spreads a small `--seed` over the whole u64 range.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Refuse a box with any edge under 2·(r_c + skin). Below that a neighbour
/// list under the minimum-image convention can miss or double-count pair
/// images, so the run would measure physically invalid MD.
pub fn check_box(bx: &SimBox, rc: f64, skin: f64) -> Result<(), String> {
    let l = bx.lengths();
    let min_edge = l.x.min(l.y).min(l.z);
    let need = 2.0 * (rc + skin);
    if min_edge < need {
        return Err(format!(
            "box edge {min_edge:.3} Å is under 2·(r_c + skin) = {need:.3} Å (r_c {rc}, skin {skin})"
        ));
    }
    Ok(())
}

/// A solo or served copper system: `cells³` FCC cells under the production
/// copper model, velocities drawn from `seed`.
#[derive(Clone, Debug, PartialEq)]
pub struct CopperInput {
    pub cells: usize,
    pub config: DeepPotConfig,
    pub seed: u64,
}

impl CopperInput {
    pub fn atoms(&self) -> usize {
        4 * self.cells.pow(3)
    }

    /// The embedding net's GEMMs for one atom of the initial lattice: per
    /// layer, a value and a tangent GEMM of `rows × out × (in + 1)` (the
    /// bias rides as an extra column), `rows` being the atom's neighbours
    /// inside the model cutoff.
    pub fn embedding_gemms(&self) -> Vec<(usize, usize, usize)> {
        let (bx, atoms) = fcc_copper(self.cells, self.cells, self.cells);
        let rc2 = self.config.rcut * self.config.rcut;
        let rows = (1..atoms.nlocal)
            .filter(|&j| bx.dist2(atoms.pos[0], atoms.pos[j]) < rc2)
            .count();
        let mut ind = 1;
        let mut shapes = Vec::new();
        for &out in &self.config.embedding_widths {
            shapes.extend([(rows, out, ind + 1), (rows, out, ind + 1)]);
            ind = out;
        }
        shapes
    }
}

fn copper_input(cells: usize, seed: u64) -> Result<CopperInput, String> {
    let config = DeepPotConfig::copper();
    let (bx, _) = fcc_copper(cells, cells, cells);
    check_box(&bx, config.rcut, SOLO_SKIN)?;
    // Seeds stay under 2^62 so per-tenant offsets (`seed + id`) never wrap.
    Ok(CopperInput {
        cells,
        config,
        seed: splitmix64(seed) >> 2,
    })
}

/// `md_cu_fp32`: 864 atoms (6³ cells, the smallest box the 8 Å model
/// allows), production copper model.
pub fn md_cu_fp32(seed: u64) -> Result<CopperInput, String> {
    copper_input(6, seed)
}

/// `serve_cu_fp16`: the same 864-atom system for every tenant, served by
/// an arrival script. The script is fixed, so every seed runs the same
/// rounds; the seed sets the tenants' velocities (tenant `id` draws from
/// `seed + id`).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeInput {
    pub system: CopperInput,
    pub script: &'static str,
    pub in_flight: usize,
}

pub const SERVE_SCRIPT: &str = "tenants=8;steps=6;window=4;prio=0:interactive;deadline=0@8";

pub fn serve_cu_fp16(seed: u64) -> Result<ServeInput, String> {
    Ok(ServeInput {
        system: copper_input(6, seed)?,
        script: SERVE_SCRIPT,
        in_flight: 4,
    })
}

/// `dist_cu_node`: 9³ FCC copper (2,916 atoms) over 2×2×2 nodes (32
/// ranks) under the serving-sized model.
#[derive(Clone, Debug)]
pub struct DistInput {
    pub bx: SimBox,
    pub global: Atoms,
    pub nodes: [usize; 3],
    pub config: DeepPotConfig,
    pub rebuild_every: u64,
}

fn dist_input(cells: usize, seed: u64) -> Result<DistInput, String> {
    let config = DeepPotConfig::tiny(1, 6.0);
    let (bx, mut global) = fcc_copper(cells, cells, cells);
    check_box(&bx, config.rcut, DIST_SKIN)?;
    init_velocities(&mut global, TEMPERATURE, splitmix64(seed));
    Ok(DistInput {
        bx,
        global,
        nodes: [2, 2, 2],
        config,
        rebuild_every: 10,
    })
}

pub fn dist_cu_node(seed: u64) -> Result<DistInput, String> {
    dist_input(9, seed)
}

/// `scaling_model`: the first two paper topologies, each evaluated at
/// `CommLb` and `Baseline`. The outputs do not depend on the order, so the
/// seed picks it: which topology goes first and, per topology, which level.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelInput {
    pub plan: Vec<([usize; 3], [OptLevel; 2])>,
}

pub fn scaling_model(seed: u64) -> Result<ModelInput, String> {
    let bits = splitmix64(seed);
    let mut topologies: Vec<[usize; 3]> = MachineConfig::paper_scaling_topologies()
        .into_iter()
        .take(2)
        .collect();
    if bits & 1 == 1 {
        topologies.reverse();
    }
    let plan = topologies
        .into_iter()
        .enumerate()
        .map(|(i, dims)| {
            let levels = if bits >> (i + 1) & 1 == 1 {
                [OptLevel::Baseline, OptLevel::CommLb]
            } else {
                [OptLevel::CommLb, OptLevel::Baseline]
            };
            (dims, levels)
        })
        .collect();
    Ok(ModelInput { plan })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_generator_is_seed_deterministic() {
        assert_eq!(md_cu_fp32(3).unwrap(), md_cu_fp32(3).unwrap());
        assert_ne!(md_cu_fp32(3).unwrap().seed, md_cu_fp32(4).unwrap().seed);
        assert_eq!(md_cu_fp32(1).unwrap().atoms(), 864);
        // Two embedding layers, a value and a tangent GEMM each, over the
        // FCC neighbours inside 8 Å.
        let shapes = md_cu_fp32(1).unwrap().embedding_gemms();
        assert_eq!(shapes.len(), 4);
        assert!(shapes.iter().all(|s| s.0 == shapes[0].0 && s.0 > 100));
    }

    #[test]
    fn serve_generator_is_seed_deterministic() {
        assert_eq!(serve_cu_fp16(9).unwrap(), serve_cu_fp16(9).unwrap());
        assert_ne!(
            serve_cu_fp16(9).unwrap().system.seed,
            serve_cu_fp16(10).unwrap().system.seed
        );
        dpmd_serve::ArrivalScript::parse(SERVE_SCRIPT).unwrap();
    }

    #[test]
    fn dist_generator_is_seed_deterministic() {
        let bits = |d: &DistInput| -> Vec<u64> {
            d.global
                .pos
                .iter()
                .chain(&d.global.vel)
                .flat_map(|v| v.to_array())
                .map(f64::to_bits)
                .collect()
        };
        let (a, b, c) = (
            dist_cu_node(5).unwrap(),
            dist_cu_node(5).unwrap(),
            dist_cu_node(6).unwrap(),
        );
        assert_eq!(a.global.nlocal, 2916);
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn model_generator_is_seed_deterministic() {
        assert_eq!(scaling_model(2).unwrap(), scaling_model(2).unwrap());
        let orders: std::collections::BTreeSet<String> = (0..16)
            .map(|s| format!("{:?}", scaling_model(s).unwrap().plan))
            .collect();
        assert!(orders.len() > 1, "the seed must vary the evaluation order");
        for s in 0..16 {
            let mut dims: Vec<_> = scaling_model(s).unwrap().plan.iter().map(|p| p.0).collect();
            dims.sort();
            assert_eq!(dims, vec![[8, 12, 8], [12, 15, 12]]);
        }
    }

    #[test]
    fn boxes_under_twice_cutoff_plus_skin_are_refused() {
        // 5 cells = 18.1 Å < 2·(8 + 2) Å for the production copper model.
        assert!(copper_input(5, 1).is_err());
        assert!(copper_input(6, 1).is_ok());
        // 3 cells = 10.8 Å < 2·(6 + 1) Å for the distributed workload.
        assert!(dist_input(3, 1).is_err());
        assert!(check_box(&SimBox::cubic(20.0), 8.0, 2.0).is_ok());
        assert!(check_box(&SimBox::new(30.0, 30.0, 19.9), 8.0, 2.0).is_err());
    }
}
