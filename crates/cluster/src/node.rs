//! Nodes: the unit of compute placement.

use std::fmt;

/// Node identifier, unique within a site (index into the site's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Role determines scheduling and network policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Interactive front-end: always reachable, runs endpoint daemons and
    /// repository clones; not managed by the batch scheduler.
    Login,
    /// Batch-managed worker, allocated through the scheduler.
    Compute,
}

/// One machine at a site.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: NodeId,
    pub role: NodeRole,
    /// Hostname, e.g. `"faster-login-1"`.
    pub hostname: String,
    pub cores: u32,
    pub mem_gb: u32,
    /// Relative CPU speed; 1.0 is the reference machine for
    /// [`crate::perf::WorkUnits`].
    pub cpu_speed: f64,
}

impl Node {
    pub fn new(id: u32, role: NodeRole, hostname: &str, cores: u32, mem_gb: u32) -> Self {
        Node {
            id: NodeId(id),
            role,
            hostname: hostname.to_string(),
            cores,
            mem_gb,
            cpu_speed: 1.0,
        }
    }

    pub fn is_login(&self) -> bool {
        self.role == NodeRole::Login
    }

    pub fn is_compute(&self) -> bool {
        self.role == NodeRole::Compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_is_a_reference_machine() {
        let n = Node::new(3, NodeRole::Compute, "c003", 64, 256);
        assert_eq!(n.id, NodeId(3));
        assert!(n.is_compute());
        assert!(!n.is_login());
        assert_eq!(n.cpu_speed, 1.0);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node7");
    }
}
