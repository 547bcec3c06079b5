//! Error types for site operations.

use crate::account::Uid;
use std::fmt;

/// Errors raised by cluster substrate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Filesystem permission denied: `uid` attempted `op` on `path`.
    PermissionDenied { uid: Uid, op: &'static str, path: String },
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (e.g. exclusive create).
    AlreadyExists(String),
    /// Parent directory missing.
    NoParent(String),
    /// Target is a directory where a file was expected, or vice versa.
    WrongKind(String),
    /// A tree entry's relative path has an empty, `.` or `..` segment.
    InvalidPath(String),
    /// Outbound network access blocked by site policy.
    NetworkBlocked { node: String, dest: String },
    /// Unknown user account on this site.
    UnknownUser(String),
    /// Unknown node.
    UnknownNode(String),
    /// Unknown software environment.
    UnknownEnv(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::PermissionDenied { uid, op, path } => {
                write!(f, "permission denied: uid {} cannot {op} {path}", uid.0)
            }
            ClusterError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            ClusterError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            ClusterError::NoParent(p) => write!(f, "parent directory missing: {p}"),
            ClusterError::WrongKind(p) => write!(f, "wrong node kind at: {p}"),
            ClusterError::InvalidPath(p) => write!(f, "invalid path '{p}'"),
            ClusterError::NetworkBlocked { node, dest } => {
                write!(f, "outbound network blocked on {node} (dest {dest})")
            }
            ClusterError::UnknownUser(u) => write!(f, "unknown user: {u}"),
            ClusterError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            ClusterError::UnknownEnv(e) => write!(f, "unknown software environment: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}
