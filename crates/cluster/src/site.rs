//! Sites: the unit of administrative domain.
//!
//! A site bundles machines, policy, accounts, filesystem, software and
//! container registry. Presets model the four systems of the paper's
//! evaluation. Calibration targets the *shape* of Fig. 4 — Chameleon's
//! modern IceLake cloud instance outruns the HPC systems on most short
//! tests — not the paper's absolute numbers.

use crate::account::{Uid, UserAccount};
use crate::container::ImageRegistry;
use crate::error::ClusterError;
use crate::fs::{Cred, FileMode, VirtualFs};
use crate::net::NetworkPolicy;
use crate::node::{Node, NodeId, NodeRole};
use crate::perf::PerfModel;
use crate::software::EnvManager;
use hpcci_sim::SimDuration;
use std::collections::BTreeMap;

/// Stable identifier for a site within the federation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub String);

impl SiteId {
    pub fn new(s: &str) -> Self {
        SiteId(s.to_string())
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Broad class of infrastructure — drives defaults and Table-4-style
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Cloud VM (Chameleon): no batch scheduler, open network.
    Cloud,
    /// Batch HPC system: scheduler-managed compute nodes.
    Hpc,
    /// A developer workstation or lab server.
    Workstation,
}

/// One administrative domain of computing resources.
#[derive(Debug)]
pub struct Site {
    pub id: SiteId,
    pub kind: SiteKind,
    pub nodes: Vec<Node>,
    pub perf: PerfModel,
    pub network: NetworkPolicy,
    pub fs: VirtualFs,
    pub envs: EnvManager,
    pub images: ImageRegistry,
    accounts: BTreeMap<String, UserAccount>,
    next_uid: u32,
}

impl Site {
    pub fn new(id: &str, kind: SiteKind, perf: PerfModel, network: NetworkPolicy) -> Self {
        let mut fs = VirtualFs::new();
        let root = Cred::new(Uid(0), &["root"]);
        // Site-standard top-level directories; 0o777 so account creation by
        // the (simulated) provisioning layer can create homes beneath them.
        for dir in ["/home", "/scratch", "/tmp", "/opt"] {
            fs.mkdir_p(dir, &root, FileMode(0o777))
                .expect("fresh fs accepts standard dirs");
        }
        Site {
            id: SiteId::new(id),
            kind,
            nodes: Vec::new(),
            perf,
            network,
            fs,
            envs: EnvManager::new(),
            images: ImageRegistry::new(),
            accounts: BTreeMap::new(),
            next_uid: 1000,
        }
    }

    /// Append a node, assigning the next id.
    pub fn add_node(&mut self, role: NodeRole, hostname: &str, cores: u32, mem_gb: u32) -> NodeId {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::new(id, role, hostname, cores, mem_gb));
        NodeId(id)
    }

    /// Append `count` identical compute nodes.
    pub fn add_compute_nodes(&mut self, count: u32, cores: u32, mem_gb: u32) {
        for i in 0..count {
            let hostname = format!("{}-c{:03}", self.id.0, i);
            self.add_node(NodeRole::Compute, &hostname, cores, mem_gb);
        }
    }

    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or_else(|| ClusterError::UnknownNode(id.to_string()))
    }

    /// The first login node (sites always have at least one in practice).
    pub fn login_node(&self) -> Option<&Node> {
        self.nodes.iter().find(|n| n.is_login())
    }

    pub fn compute_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_compute())
    }

    /// Provision a local account: allocates a uid, creates the home and
    /// scratch directories owned by the new user.
    pub fn add_account(&mut self, username: &str, allocation: &str) -> UserAccount {
        let uid = self.next_uid;
        self.next_uid += 1;
        let account = UserAccount::new(uid, username, allocation);
        let cred = Cred::of(&account);
        self.fs
            .mkdir_p(&account.home, &cred, FileMode::PRIVATE_DIR)
            .expect("home creation under /home");
        self.fs
            .mkdir_p(&account.scratch(), &cred, FileMode::PRIVATE_DIR)
            .expect("scratch creation under /scratch");
        self.accounts.insert(username.to_string(), account.clone());
        account
    }

    pub fn account(&self, username: &str) -> Result<&UserAccount, ClusterError> {
        self.accounts
            .get(username)
            .ok_or_else(|| ClusterError::UnknownUser(username.to_string()))
    }

    pub fn accounts(&self) -> impl Iterator<Item = &UserAccount> {
        self.accounts.values()
    }

    /// Does this site run a batch scheduler?
    pub fn has_scheduler(&self) -> bool {
        self.kind == SiteKind::Hpc
    }

    // ------------------------------------------------------------------
    // Presets: the paper's evaluation infrastructure (§6).
    // ------------------------------------------------------------------

    /// Chameleon Cloud CHI@TACC IceLake instance: a single fast bare-metal
    /// cloud node with open networking and no batch system.
    pub fn chameleon_tacc() -> Site {
        let perf = PerfModel::new(1.30)
            .with_overhead(SimDuration::from_millis(20))
            .with_jitter(0.04)
            .with_wan_latency(SimDuration::from_millis(12));
        let mut s = Site::new("chameleon-tacc", SiteKind::Cloud, perf, NetworkPolicy::open());
        s.add_node(NodeRole::Login, "chi-tacc-icelake", 64, 256);
        s
    }

    /// TAMU FASTER: HPC system; compute nodes have **no outbound internet**.
    pub fn tamu_faster() -> Site {
        let perf = PerfModel::new(1.00)
            .with_overhead(SimDuration::from_millis(80))
            .with_jitter(0.07)
            .with_wan_latency(SimDuration::from_millis(25));
        let mut s = Site::new("tamu-faster", SiteKind::Hpc, perf, NetworkPolicy::login_only());
        s.add_node(NodeRole::Login, "faster-login-1", 32, 128);
        s.add_compute_nodes(180, 64, 256);
        s
    }

    /// SDSC Expanse: HPC system; compute nodes have **no outbound internet**;
    /// slightly older cores than FASTER in our calibration.
    pub fn sdsc_expanse() -> Site {
        let perf = PerfModel::new(0.88)
            .with_overhead(SimDuration::from_millis(90))
            .with_jitter(0.08)
            .with_wan_latency(SimDuration::from_millis(35));
        let mut s = Site::new("sdsc-expanse", SiteKind::Hpc, perf, NetworkPolicy::login_only());
        s.add_node(NodeRole::Login, "expanse-login-1", 32, 128);
        s.add_compute_nodes(728, 128, 256);
        s
    }

    /// Purdue Anvil (CPU): HPC system whose login nodes are beefy enough that
    /// the PSI/J tests of §6.2 run directly on them (login-node workers).
    pub fn purdue_anvil() -> Site {
        let perf = PerfModel::new(1.05)
            .with_overhead(SimDuration::from_millis(60))
            .with_jitter(0.06)
            .with_wan_latency(SimDuration::from_millis(28));
        let mut s = Site::new("purdue-anvil", SiteKind::Hpc, perf, NetworkPolicy::login_only());
        s.add_node(NodeRole::Login, "anvil-login-1", 128, 512);
        s.add_compute_nodes(1000, 128, 256);
        s
    }

    /// A generic workstation — the "any remote device" case of §5.1.
    pub fn workstation(name: &str) -> Site {
        let perf = PerfModel::new(0.9)
            .with_overhead(SimDuration::from_millis(10))
            .with_jitter(0.05)
            .with_wan_latency(SimDuration::from_millis(20));
        let mut s = Site::new(name, SiteKind::Workstation, perf, NetworkPolicy::open());
        s.add_node(NodeRole::Login, &format!("{name}-host"), 16, 64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkZone;

    #[test]
    fn presets_match_paper_topology() {
        let cham = Site::chameleon_tacc();
        assert_eq!(cham.kind, SiteKind::Cloud);
        assert!(!cham.has_scheduler());
        assert!(cham.network.allows(NodeRole::Login, NetworkZone::Internet));

        let faster = Site::tamu_faster();
        assert!(faster.has_scheduler());
        assert!(faster.compute_nodes().count() > 0);
        // The paper's key constraint: no outbound internet on compute.
        assert!(!faster.network.allows(NodeRole::Compute, NetworkZone::Internet));
        assert!(faster.network.allows(NodeRole::Login, NetworkZone::Internet));

        let expanse = Site::sdsc_expanse();
        assert!(!expanse.network.allows(NodeRole::Compute, NetworkZone::Internet));
        // Calibration: Chameleon cores are fastest, Expanse slowest.
        assert!(cham.perf.cpu_speed > faster.perf.cpu_speed);
        assert!(faster.perf.cpu_speed > expanse.perf.cpu_speed);
    }

    #[test]
    fn account_provisioning_creates_directories() {
        let mut s = Site::purdue_anvil();
        let acct = s.add_account("x-vhayot", "CIS230030");
        assert_eq!(acct.home, "/home/x-vhayot");
        assert!(s.fs.is_dir("/home/x-vhayot"));
        assert!(s.fs.is_dir("/scratch/x-vhayot"));
        assert_eq!(s.account("x-vhayot").unwrap().uid, acct.uid);
        assert!(s.account("nobody").is_err());
    }

    #[test]
    fn uids_are_unique_and_increasing() {
        let mut s = Site::workstation("lab");
        let a = s.add_account("a", "p");
        let b = s.add_account("b", "p");
        assert!(b.uid > a.uid);
        assert_eq!(s.accounts().count(), 2);
    }

    #[test]
    fn node_lookup() {
        let s = Site::tamu_faster();
        let login = s.login_node().unwrap();
        assert_eq!(login.hostname, "faster-login-1");
        assert!(s.node(NodeId(0)).is_ok());
        assert!(s.node(NodeId(9999)).is_err());
    }
}
