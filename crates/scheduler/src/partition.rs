//! Partitions: named groups of nodes with limits.

use hpcci_cluster::NodeId;
use hpcci_sim::SimDuration;

/// A scheduler partition (SLURM terminology): a set of nodes plus policy
/// limits that job requests are validated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    pub name: String,
    pub nodes: Vec<NodeId>,
    /// Cores per node in this partition (homogeneous within a partition).
    pub cores_per_node: u32,
    /// Upper bound on requested walltime.
    pub max_walltime: SimDuration,
}

impl Partition {
    pub fn new(name: &str, nodes: Vec<NodeId>, cores_per_node: u32) -> Self {
        Partition {
            name: name.to_string(),
            nodes,
            cores_per_node,
            max_walltime: SimDuration::from_hours(48),
        }
    }

    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Can a request of this shape *ever* run here?
    pub fn admits(&self, nodes: u32, cores_per_node: u32, walltime: SimDuration) -> bool {
        nodes > 0
            && nodes <= self.node_count()
            && cores_per_node > 0
            && cores_per_node <= self.cores_per_node
            && walltime <= self.max_walltime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_rules() {
        let p = Partition {
            max_walltime: SimDuration::from_hours(2),
            ..Partition::new("compute", (0..4).map(NodeId).collect(), 64)
        };
        assert!(p.admits(1, 64, SimDuration::from_hours(1)));
        assert!(
            p.admits(4, 1, SimDuration::from_hours(2)),
            "whole partition"
        );
        assert!(!p.admits(5, 1, SimDuration::from_hours(1)), "node cap");
        assert!(!p.admits(1, 65, SimDuration::from_hours(1)), "core cap");
        assert!(!p.admits(1, 64, SimDuration::from_hours(3)), "walltime cap");
        assert!(!p.admits(0, 64, SimDuration::from_hours(1)), "zero nodes");
    }
}
