//! Rigid-body grid docking: the AutoDock-Vina step.
//!
//! Translates the ligand across a 3-D grid around the receptor pocket (plus
//! a set of axis rotations) and scores each pose with a Lennard-Jones +
//! Coulomb interaction energy. Pose scoring is embarrassingly parallel and
//! is executed with `std::thread::scope` threads; the result is identical to the
//! sequential evaluation because each pose's score is independent (data-race
//! freedom by construction — each worker writes its own slice).

use crate::molecule::{Atom, Ligand, Receptor};

/// Docking-search parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DockParams {
    /// Grid points per axis (the search evaluates `grid^3 * rotations` poses).
    pub grid: usize,
    /// Grid spacing in Å.
    pub spacing: f64,
    /// Number of axis-aligned rotations to try (1–4).
    pub rotations: usize,
    /// Worker threads for pose scoring.
    pub threads: usize,
}

impl Default for DockParams {
    fn default() -> Self {
        DockParams {
            grid: 6,
            spacing: 1.0,
            rotations: 2,
            threads: 4,
        }
    }
}

impl DockParams {
    pub fn pose_count(&self) -> usize {
        self.grid * self.grid * self.grid * self.rotations
    }
}

/// A scored pose: translation + rotation index + energy (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    pub dx: f64,
    pub dy: f64,
    pub dz: f64,
    pub rotation: usize,
    pub energy: f64,
}

/// Interaction energy between one placed ligand atom and the receptor.
fn atom_energy(atom: &Atom, receptor: &Receptor) -> f64 {
    let mut e = 0.0;
    for r in &receptor.atoms {
        let dx = atom.x - r.x;
        let dy = atom.y - r.y;
        let dz = atom.z - r.z;
        let d2 = (dx * dx + dy * dy + dz * dz).max(0.25);
        let sigma = atom.radius + r.radius;
        let s2 = sigma * sigma / d2;
        let s6 = s2 * s2 * s2;
        // Lennard-Jones 12-6 plus screened Coulomb.
        e += 0.1 * (s6 * s6 - 2.0 * s6) + 332.0 * atom.charge * r.charge / (4.0 * d2.sqrt() * d2);
    }
    e
}

/// Apply the pose transform to a ligand atom.
fn place(atom: &Atom, centroid: [f64; 3], pose: (f64, f64, f64, usize)) -> Atom {
    // Centre the ligand, rotate about z by rotation*90°, translate to pose.
    let (cx, cy, cz) = (centroid[0], centroid[1], centroid[2]);
    let (x, y, z) = (atom.x - cx, atom.y - cy, atom.z - cz);
    let (x, y) = match pose.3 % 4 {
        0 => (x, y),
        1 => (-y, x),
        2 => (-x, -y),
        _ => (y, -x),
    };
    Atom {
        x: x + pose.0,
        y: y + pose.1,
        z: z + pose.2,
        ..*atom
    }
}

fn score_pose(ligand: &Ligand, centroid: [f64; 3], receptor: &Receptor, pose: (f64, f64, f64, usize)) -> f64 {
    ligand
        .atoms
        .iter()
        .map(|a| atom_energy(&place(a, centroid, pose), receptor))
        .sum()
}

/// Dock `ligand` against `receptor`, returning the best pose.
///
/// Panics if either structure is unprepared (the real tools fail the same
/// way, with a less helpful message).
pub fn dock(receptor: &Receptor, ligand: &Ligand, params: &DockParams) -> Pose {
    assert!(receptor.prepared, "receptor must be prepared before docking");
    assert!(ligand.prepared, "ligand must be prepared before docking");
    assert!(params.grid > 0 && params.rotations > 0);

    let centroid = ligand.centroid();
    let half = (params.grid as f64 - 1.0) / 2.0;
    let mut poses: Vec<(f64, f64, f64, usize)> = Vec::with_capacity(params.pose_count());
    for ix in 0..params.grid {
        for iy in 0..params.grid {
            for iz in 0..params.grid {
                for rot in 0..params.rotations {
                    poses.push((
                        receptor.pocket[0] + (ix as f64 - half) * params.spacing,
                        receptor.pocket[1] + (iy as f64 - half) * params.spacing,
                        receptor.pocket[2] + (iz as f64 - half) * params.spacing,
                        rot,
                    ));
                }
            }
        }
    }

    let threads = params.threads.max(1).min(poses.len().max(1));
    let mut energies = vec![0.0f64; poses.len()];
    let chunk = poses.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (pose_chunk, energy_chunk) in poses.chunks(chunk).zip(energies.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (p, e) in pose_chunk.iter().zip(energy_chunk.iter_mut()) {
                    *e = score_pose(ligand, centroid, receptor, *p);
                }
            });
        }
    });

    let (best_ix, best_e) = energies
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite energies"))
        .expect("at least one pose");
    let p = poses[best_ix];
    Pose {
        dx: p.0,
        dy: p.1,
        dz: p.2,
        rotation: p.3,
        energy: *best_e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{prepare_ligand, prepare_receptor};

    fn prepared() -> (Receptor, Ligand) {
        (
            prepare_receptor(Receptor::generate("1abc", 200)),
            prepare_ligand(Ligand::generate("aspirin")),
        )
    }

    #[test]
    fn docking_is_deterministic_across_thread_counts() {
        let (r, l) = prepared();
        let p1 = dock(&r, &l, &DockParams { threads: 1, ..DockParams::default() });
        let p8 = dock(&r, &l, &DockParams { threads: 8, ..DockParams::default() });
        assert_eq!(p1, p8, "parallelism must not change the result");
    }

    #[test]
    fn best_pose_beats_random_pose() {
        let (r, l) = prepared();
        let params = DockParams::default();
        let best = dock(&r, &l, &params);
        // Compare against the pose at the far grid corner.
        let centroid = l.centroid();
        let corner = (
            r.pocket[0] + 2.5,
            r.pocket[1] + 2.5,
            r.pocket[2] + 2.5,
            0usize,
        );
        let corner_e = super::score_pose(&l, centroid, &r, corner);
        assert!(best.energy <= corner_e, "{} vs {corner_e}", best.energy);
    }

    #[test]
    fn finer_grid_never_worsens_energy() {
        let (r, l) = prepared();
        let coarse = dock(&r, &l, &DockParams { grid: 4, ..DockParams::default() });
        let fine = dock(&r, &l, &DockParams { grid: 8, ..DockParams::default() });
        // The fine grid is not a superset of the coarse one (different
        // spacing offsets), but in practice it finds an equal-or-better
        // minimum for these structures.
        assert!(fine.energy <= coarse.energy + 1e-9);
    }

    #[test]
    #[should_panic(expected = "prepared")]
    fn unprepared_inputs_rejected() {
        let r = Receptor::generate("1abc", 50);
        let l = prepare_ligand(Ligand::generate("x"));
        let _ = dock(&r, &l, &DockParams::default());
    }

    #[test]
    fn pose_count_formula() {
        let p = DockParams { grid: 3, rotations: 2, ..DockParams::default() };
        assert_eq!(p.pose_count(), 54);
    }
}
