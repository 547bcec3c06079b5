//! Local user accounts at a site.
//!
//! HPC security policy requires every action to be attributable to a local
//! account (§3, §5.2). Remote identities (see `hpcci-auth`) are *mapped* to
//! these accounts; nothing in the federation executes without one.

use std::fmt;

/// A numeric user id, unique within one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u32);

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

/// The root/superuser id. The federation never *executes* user tasks as
/// root; it exists so tests can assert that nothing escalates to it.
pub const ROOT: Uid = Uid(0);

/// A local account at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserAccount {
    pub uid: Uid,
    /// Local username, e.g. `"x-vhayot"` (Anvil uses an `x-` prefix).
    pub username: String,
    /// Unix-style groups, e.g. the allocation's project group.
    pub groups: Vec<String>,
    /// Compute allocation / project this account charges, e.g. `"CIS230030"`.
    pub allocation: String,
    /// Home directory path on the site filesystem.
    pub home: String,
}

impl UserAccount {
    pub fn new(uid: u32, username: &str, allocation: &str) -> Self {
        UserAccount {
            uid: Uid(uid),
            username: username.to_string(),
            groups: vec![allocation.to_string()],
            allocation: allocation.to_string(),
            home: format!("/home/{username}"),
        }
    }

    pub fn in_group(&self, group: &str) -> bool {
        self.groups.iter().any(|g| g == group)
    }

    /// Scratch space path for this user (site-relative convention).
    pub fn scratch(&self) -> String {
        format!("/scratch/{}", self.username)
    }

    /// `<scratch>/<parts joined by '/'>`, sized exactly and built in one
    /// allocation.
    pub fn scratch_sub(&self, parts: &[&str]) -> String {
        let len = "/scratch/".len() + self.username.len();
        let mut path = String::with_capacity(len + parts.iter().map(|p| 1 + p.len()).sum::<usize>());
        path.push_str("/scratch/");
        path.push_str(&self.username);
        for part in parts {
            path.push('/');
            path.push_str(part);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_paths_follow_convention() {
        let a = UserAccount::new(1001, "x-vhayot", "CIS230030");
        assert_eq!(a.home, "/home/x-vhayot");
        assert_eq!(a.scratch(), "/scratch/x-vhayot");
        assert_eq!(a.scratch_sub(&["tmp"]), format!("{}/tmp", a.scratch()));
        assert_eq!(a.scratch_sub(&["tmp", "repo"]), format!("{}/tmp/repo", a.scratch()));
        assert!(a.in_group("CIS230030"));
        assert!(!a.in_group("other"));
    }

    #[test]
    fn root_is_uid_zero() {
        assert_eq!(ROOT, Uid(0));
        assert_ne!(UserAccount::new(1001, "u", "a").uid, ROOT);
    }

    #[test]
    fn uid_display() {
        assert_eq!(Uid(42).to_string(), "uid:42");
    }
}
