//! Real-compute bench: the docking kernel's parallel scaling (scoped
//! threads over pose scoring) and grid-size cost growth.

use hpcci::parsldock::prep::{prepare_ligand, prepare_receptor};
use hpcci::parsldock::{dock, DockParams, Ligand, Receptor};
use hpcci_bench::timing::bench;

fn main() {
    println!("dock_threads_grid6");
    let receptor = prepare_receptor(Receptor::generate("1abc", 300));
    let ligand = prepare_ligand(Ligand::generate("aspirin"));
    for threads in [1usize, 2, 4, 8] {
        let params = DockParams {
            grid: 6,
            rotations: 2,
            threads,
            spacing: 1.0,
        };
        bench(&format!("threads={threads}"), 10, || {
            dock(&receptor, &ligand, &params)
        });
    }

    println!("dock_grid_4threads");
    let receptor = prepare_receptor(Receptor::generate("1abc", 200));
    let ligand = prepare_ligand(Ligand::generate("ibuprofen"));
    for grid in [3usize, 5, 7] {
        let params = DockParams {
            grid,
            rotations: 2,
            threads: 4,
            spacing: 1.0,
        };
        bench(&format!("grid={grid}"), 10, || {
            dock(&receptor, &ligand, &params)
        });
    }

    {
        use hpcci::parsldock::{descriptors, SurrogateModel};
        let samples: Vec<_> = (0..64)
            .map(|i| {
                let l = prepare_ligand(Ligand::generate(&format!("lig{i}")));
                (descriptors(&l), -(i as f64) * 0.1)
            })
            .collect();
        bench("surrogate_fit_64", 20, || SurrogateModel::fit(&samples));
    }
}
