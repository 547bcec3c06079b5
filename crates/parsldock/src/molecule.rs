//! Synthetic molecules, generated deterministically from names.

use hpcci_sim::{DetRng, Fnv};
use std::fmt::Write as _;

/// One atom: position (Å), van-der-Waals radius (Å), partial charge (e).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    pub x: f64,
    pub y: f64,
    pub z: f64,
    pub radius: f64,
    pub charge: f64,
}

/// A receptor: a rigid cloud of atoms with a binding-pocket centre.
#[derive(Debug, Clone, PartialEq)]
pub struct Receptor {
    pub name: String,
    pub atoms: Vec<Atom>,
    /// Pocket centre the docking grid is placed around.
    pub pocket: [f64; 3],
    /// Whether preparation (protonation/charges) has been applied.
    pub prepared: bool,
}

/// A ligand: a small flexible molecule (we treat it rigidly when docking).
#[derive(Debug, Clone, PartialEq)]
pub struct Ligand {
    pub name: String,
    pub atoms: Vec<Atom>,
    pub prepared: bool,
}

/// FNV-1a of the name.
fn name_seed(name: &str) -> u64 {
    let mut h = Fnv::default();
    let _ = h.write_str(name);
    h.0
}

impl Receptor {
    /// Generate a receptor with `n_atoms` atoms in a 30 Å sphere, with a
    /// pocket offset from the centre. Deterministic in `name`.
    pub fn generate(name: &str, n_atoms: usize) -> Receptor {
        let mut rng = DetRng::seed_from_u64(name_seed(name));
        let atoms = (0..n_atoms)
            .map(|_| Atom {
                x: rng.range_f64(-15.0, 15.0),
                y: rng.range_f64(-15.0, 15.0),
                z: rng.range_f64(-15.0, 15.0),
                radius: rng.range_f64(1.2, 1.9),
                // Unprepared structures carry no charges yet.
                charge: 0.0,
            })
            .collect();
        let pocket = [
            rng.range_f64(-5.0, 5.0),
            rng.range_f64(-5.0, 5.0),
            rng.range_f64(-5.0, 5.0),
        ];
        Receptor {
            name: name.to_string(),
            atoms,
            pocket,
            prepared: false,
        }
    }
}

impl Ligand {
    /// Generate a drug-like ligand of 10–40 atoms. Deterministic in `name`.
    pub fn generate(name: &str) -> Ligand {
        let mut rng = DetRng::seed_from_u64(name_seed(name) ^ 0x11c4);
        let n = rng.range_u64(10, 41) as usize;
        let atoms = (0..n)
            .map(|_| Atom {
                x: rng.range_f64(-4.0, 4.0),
                y: rng.range_f64(-4.0, 4.0),
                z: rng.range_f64(-4.0, 4.0),
                radius: rng.range_f64(1.1, 1.7),
                charge: 0.0,
            })
            .collect();
        Ligand {
            name: name.to_string(),
            atoms,
            prepared: false,
        }
    }

    /// Geometric centre.
    pub fn centroid(&self) -> [f64; 3] {
        let n = self.atoms.len().max(1) as f64;
        let (mut cx, mut cy, mut cz) = (0.0, 0.0, 0.0);
        for a in &self.atoms {
            cx += a.x;
            cy += a.y;
            cz += a.z;
        }
        [cx / n, cy / n, cz / n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Ligand::generate("aspirin");
        let b = Ligand::generate("aspirin");
        assert_eq!(a, b);
        let c = Ligand::generate("ibuprofen");
        assert_ne!(a.atoms, c.atoms, "different names, different molecules");
    }

    #[test]
    fn receptor_shape() {
        let r = Receptor::generate("1abc", 500);
        assert_eq!(r.atoms.len(), 500);
        assert!(!r.prepared);
        assert!(r.atoms.iter().all(|a| a.x.abs() <= 15.0 && a.radius >= 1.2));
        assert!(r.pocket.iter().all(|c| c.abs() <= 5.0));
    }

    #[test]
    fn ligand_size_in_druglike_range() {
        for name in ["a", "b", "c", "d", "e"] {
            let l = Ligand::generate(name);
            assert!((10..=40).contains(&l.atoms.len()), "{}", l.atoms.len());
        }
    }

    #[test]
    fn centroid_is_bounded() {
        let l = Ligand::generate("x");
        let c = l.centroid();
        assert!(c.iter().all(|v| v.abs() < 4.0));
    }
}
