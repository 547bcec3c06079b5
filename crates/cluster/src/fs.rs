//! A permission-checked virtual filesystem, one per site.
//!
//! This is the substrate behind the paper's second HPC security invariant:
//! *"users and/or processes launched by the CI cannot access or modify files
//! or aspects of the system beyond their permission"* (§4.4.1, §5.2). Every
//! read and write in the federation goes through [`VirtualFs`] with the
//! credentials of the local account the task was identity-mapped onto, so the
//! invariant is enforced — and testable — rather than assumed.
//!
//! The model is a classic Unix triad: owner / group / other, each with
//! read / write / execute bits. Files and directories are inodes in an arena;
//! a directory maps child names to inode numbers, and a path is resolved by
//! walking its segments from `/`. Every operation that takes a [`Cred`] needs
//! search (`x`) permission on each directory it steps through to reach an
//! existing entry, so a readable file inside a private directory stays
//! private; adding a name to a directory or removing one needs write
//! permission on that directory. The stat calls (`exists`, `is_dir`,
//! `size_of`, `owner_of`) take no credentials and check nothing.

use crate::account::{Uid, UserAccount};
use crate::error::ClusterError;
use bytes::Bytes;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Unix-style permission bits (0o777 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMode(pub u16);

impl FileMode {
    /// rw-r--r--
    pub const REGULAR: FileMode = FileMode(0o644);
    /// rw-------
    pub const PRIVATE: FileMode = FileMode(0o600);
    /// rwxr-xr-x
    pub const DIR: FileMode = FileMode(0o755);
    /// rwx------
    pub const PRIVATE_DIR: FileMode = FileMode(0o700);
    /// rw-rw-r-- (group-writable, e.g. shared project space)
    pub const GROUP_SHARED: FileMode = FileMode(0o664);

    fn class_bits(self, class: u8) -> u16 {
        // class: 0 = owner, 1 = group, 2 = other
        (self.0 >> (6 - 3 * class as u16)) & 0o7
    }
}

/// What a caller is allowed to do, derived from uid + group membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cred {
    pub uid: Uid,
    pub groups: Vec<String>,
}

impl Cred {
    pub fn of(account: &UserAccount) -> Self {
        Cred {
            uid: account.uid,
            groups: account.groups.clone(),
        }
    }

    pub fn new(uid: Uid, groups: &[&str]) -> Self {
        Cred {
            uid,
            groups: groups.iter().map(|s| s.to_string()).collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    File(Bytes),
    /// Child name → inode number.
    Dir(BTreeMap<Box<str>, u32>),
}

#[derive(Debug, Clone)]
struct FsNode {
    owner: Uid,
    group: Arc<str>,
    mode: FileMode,
    kind: NodeKind,
}

impl FsNode {
    fn allows(&self, cred: &Cred, access: Access) -> bool {
        let class = if cred.uid == self.owner {
            0
        } else if cred.groups.iter().any(|g| **g == *self.group) {
            1
        } else {
            2
        };
        self.mode.class_bits(class) & access as u16 != 0
    }

    fn is_file(&self) -> bool {
        matches!(self.kind, NodeKind::File(_))
    }
}

/// Access kind for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read = 0o4,
    Write = 0o2,
    /// `x` on a directory: look a name up in it.
    Search = 0o1,
}

/// A walk met a directory the caller may not search.
struct SearchDenied;

/// Inode number of `/`.
const ROOT: u32 = 0;

/// The per-site filesystem.
#[derive(Debug, Clone)]
pub struct VirtualFs {
    /// Inode arena; slot [`ROOT`] is `/`, slots listed in `free` are vacant.
    nodes: Vec<FsNode>,
    free: Vec<u32>,
    /// Interned group names: every node of a group shares one allocation.
    groups: BTreeSet<Arc<str>>,
}

impl Default for VirtualFs {
    fn default() -> Self {
        VirtualFs::new()
    }
}

fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            s => parts.push(s),
        }
    }
    if parts.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", parts.join("/"))
    }
}

/// A relative path that is its own normal form: segments separated by single
/// slashes, none of them empty, `.` or `..`.
fn is_normal_rel(rel: &str) -> bool {
    rel.split('/').all(|seg| !matches!(seg, "" | "." | ".."))
}

/// The normal form of an absolute path, borrowed when `path` already is it.
fn normal(path: &str) -> Cow<'_, str> {
    assert!(path.starts_with('/'), "paths must be absolute: {path}");
    if path == "/" || is_normal_rel(&path[1..]) {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(normalize(path))
    }
}

/// The absolute path of `rel` below `base`, where `base` is a normal path or
/// `""` for the root. Only error branches call this.
fn join(base: &str, rel: &str) -> String {
    match (base, rel) {
        ("", "") => "/".to_string(),
        (_, "") => base.to_string(),
        _ => format!("{base}/{rel}"),
    }
}

/// Split a non-empty normal relative path into its directory part and leaf.
fn split_leaf(rel: &str) -> (&str, &str) {
    rel.rsplit_once('/').unwrap_or(("", rel))
}

fn denied(cred: &Cred, op: &'static str, path: String) -> ClusterError {
    ClusterError::PermissionDenied {
        uid: cred.uid,
        op,
        path,
    }
}

impl VirtualFs {
    /// An empty filesystem with a world-readable root owned by root.
    pub fn new() -> Self {
        let group: Arc<str> = "root".into();
        VirtualFs {
            nodes: vec![FsNode {
                owner: crate::account::ROOT,
                group: group.clone(),
                mode: FileMode::DIR,
                kind: NodeKind::Dir(BTreeMap::new()),
            }],
            free: Vec::new(),
            groups: BTreeSet::from([group]),
        }
    }

    fn node(&self, id: u32) -> &FsNode {
        &self.nodes[id as usize]
    }

    /// The group new nodes of `cred` belong to.
    fn group_of(&mut self, cred: &Cred) -> Arc<str> {
        let name = cred.groups.first().map_or("users", String::as_str);
        if let Some(group) = self.groups.get(name) {
            return group.clone();
        }
        let group: Arc<str> = name.into();
        self.groups.insert(group.clone());
        group
    }

    /// Walk the normal relative path `rel` down from `start` as far as the
    /// tree goes. Returns the last node reached and how many bytes of `rel`
    /// led to it — all of them when `rel` resolved. With a `cred`, stepping
    /// from a directory into an entry needs search permission on the
    /// directory. This is the only place that rule is written.
    fn descend(&self, start: u32, rel: &str, cred: Option<&Cred>) -> Result<(u32, usize), SearchDenied> {
        let mut cur = start;
        let mut used = 0;
        if rel.is_empty() {
            return Ok((cur, used));
        }
        for seg in rel.split('/') {
            let node = self.node(cur);
            let NodeKind::Dir(children) = &node.kind else { break };
            let Some(&child) = children.get(seg) else { break };
            if cred.is_some_and(|cred| !node.allows(cred, Access::Search)) {
                return Err(SearchDenied);
            }
            cur = child;
            used += seg.len() + usize::from(used != 0);
        }
        Ok((cur, used))
    }

    /// [`descend`](Self::descend), for callers that need all of `rel` to
    /// resolve: the node it names, if there is one.
    fn lookup(&self, start: u32, rel: &str, cred: Option<&Cred>) -> Result<Option<u32>, SearchDenied> {
        let (id, used) = self.descend(start, rel, cred)?;
        Ok((used == rel.len()).then_some(id))
    }

    /// Resolve a normal absolute path on behalf of `cred`'s `op`.
    fn resolve(&self, path: &str, cred: &Cred, op: &'static str) -> Result<u32, ClusterError> {
        match self.lookup(ROOT, &path[1..], Some(cred)) {
            Err(SearchDenied) => Err(denied(cred, op, path.to_string())),
            Ok(Some(id)) => Ok(id),
            Ok(None) => Err(ClusterError::NotFound(path.to_string())),
        }
    }

    /// Resolve a path without credentials (the stat calls).
    fn stat(&self, path: &str) -> Result<&FsNode, ClusterError> {
        let path = normal(path);
        match self.lookup(ROOT, &path[1..], None) {
            Ok(Some(id)) => Ok(self.node(id)),
            _ => Err(ClusterError::NotFound(path.into_owned())),
        }
    }

    /// Store `node` in a vacant slot and enter it in directory `parent`.
    fn link(&mut self, parent: u32, name: &str, node: FsNode) -> u32 {
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 inodes");
                self.nodes.push(node);
                id
            }
        };
        let NodeKind::Dir(children) = &mut self.nodes[parent as usize].kind else {
            unreachable!("callers link into directories only");
        };
        children.insert(name.into(), id);
        id
    }

    /// Vacate `id` and everything below it.
    fn release(&mut self, id: u32) {
        let mut doomed = vec![id];
        while let Some(id) = doomed.pop() {
            let kind = std::mem::replace(&mut self.nodes[id as usize].kind, NodeKind::File(Bytes::new()));
            if let NodeKind::Dir(children) = kind {
                doomed.extend(children.into_values());
            }
            self.free.push(id);
        }
    }

    /// `mkdir -p base/rel`, where the inode `start` is the directory `base`.
    fn mkdir_from(
        &mut self,
        start: u32,
        base: &str,
        rel: &str,
        cred: &Cred,
        mode: FileMode,
    ) -> Result<(), ClusterError> {
        let (anchor, used) = self
            .descend(start, rel, Some(cred))
            .map_err(|SearchDenied| denied(cred, "mkdir", join(base, rel)))?;
        let node = self.node(anchor);
        if node.is_file() {
            return Err(ClusterError::WrongKind(join(base, &rel[..used])));
        }
        if used == rel.len() {
            return Ok(());
        }
        // `anchor` is the deepest existing ancestor: require write on it.
        if !node.allows(cred, Access::Write) {
            return Err(denied(cred, "mkdir", join(base, &rel[..used])));
        }
        let group = self.group_of(cred);
        let mut cur = anchor;
        for seg in rel[used..].trim_start_matches('/').split('/') {
            let dir = FsNode {
                owner: cred.uid,
                group: group.clone(),
                mode,
                kind: NodeKind::Dir(BTreeMap::new()),
            };
            cur = self.link(cur, seg, dir);
        }
        Ok(())
    }

    /// The directory the file `base/rel` belongs in, where the inode `start`
    /// is the directory `base` and `rel` is not empty.
    fn dir_of(&self, start: u32, base: &str, rel: &str, cred: &Cred) -> Result<u32, ClusterError> {
        let (dir_rel, _) = split_leaf(rel);
        match self.lookup(start, dir_rel, Some(cred)) {
            Err(SearchDenied) => Err(denied(cred, "write", join(base, rel))),
            Ok(None) => Err(ClusterError::NotFound(join(base, dir_rel))),
            Ok(Some(dir)) if self.node(dir).is_file() => Err(ClusterError::WrongKind(join(base, dir_rel))),
            Ok(Some(dir)) => Ok(dir),
        }
    }

    /// Create or overwrite the file `base/rel` in `dir`, the directory
    /// [`dir_of`](Self::dir_of) found for it.
    fn write_in(
        &mut self,
        dir: u32,
        base: &str,
        rel: &str,
        cred: &Cred,
        content: Bytes,
        mode: FileMode,
    ) -> Result<(), ClusterError> {
        let (_, leaf) = split_leaf(rel);
        let search_denied = |SearchDenied| denied(cred, "write", join(base, rel));
        if let Some(id) = self.lookup(dir, leaf, Some(cred)).map_err(search_denied)? {
            let existing = self.node(id);
            if !existing.is_file() {
                return Err(ClusterError::WrongKind(join(base, rel)));
            }
            if !existing.allows(cred, Access::Write) {
                return Err(denied(cred, "write", join(base, rel)));
            }
            self.nodes[id as usize].kind = NodeKind::File(content);
        } else {
            if !self.node(dir).allows(cred, Access::Write) {
                return Err(denied(cred, "create", join(base, rel)));
            }
            let file = FsNode {
                owner: cred.uid,
                group: self.group_of(cred),
                mode,
                kind: NodeKind::File(content),
            };
            self.link(dir, leaf, file);
        }
        Ok(())
    }

    /// Create a directory and any missing ancestors, all owned by `cred.uid`.
    /// Existing directories are left untouched (like `mkdir -p`), but the
    /// caller must hold write permission on the deepest existing ancestor.
    pub fn mkdir_p(&mut self, path: &str, cred: &Cred, mode: FileMode) -> Result<(), ClusterError> {
        let path = normal(path);
        self.mkdir_from(ROOT, "", &path[1..], cred, mode)
    }

    /// Write (create or overwrite) a file. Creating requires write on the
    /// parent directory; overwriting requires write on the file itself.
    pub fn write(
        &mut self,
        path: &str,
        cred: &Cred,
        content: impl Into<Bytes>,
        mode: FileMode,
    ) -> Result<(), ClusterError> {
        let path = normal(path);
        if *path == *"/" {
            return Err(ClusterError::WrongKind(path.into_owned()));
        }
        let dir = self.dir_of(ROOT, "", &path[1..], cred)?;
        self.write_in(dir, "", &path[1..], cred, content.into(), mode)
    }

    /// Write a tree of files below `dest`: for each `(relative path, content)`
    /// in order, [`mkdir_p`](Self::mkdir_p) the file's directory with
    /// `dir_mode`, then [`write`](Self::write) the file with `file_mode`,
    /// stopping at the first error. That loop is the definition. When `dest`
    /// is a directory `cred` can reach, it is resolved once and the same two
    /// operations walk each relative path from its inode instead of from `/`;
    /// and the directory one file went into is kept for the next (a tree's
    /// files arrive sorted, so a directory's files are consecutive), which
    /// then costs one probe of that directory and the same write checks.
    /// Both rest on one argument: `write_tree` adds entries and replaces
    /// file contents, so between two of its files no mode, owner or kind
    /// changes on the way from `/` to `dest` or from `dest` to that
    /// directory — every check that passed for the first would pass again.
    pub fn write_tree<'a>(
        &mut self,
        dest: &str,
        cred: &Cred,
        dir_mode: FileMode,
        file_mode: FileMode,
        files: impl IntoIterator<Item = (&'a str, Bytes)>,
    ) -> Result<(), ClusterError> {
        let dest = normal(dest);
        let base = if *dest == *"/" { "" } else { &*dest };
        let start = match self.lookup(ROOT, &dest[1..], Some(cred)) {
            Ok(Some(id)) if !self.node(id).is_file() => Some(id),
            _ => None,
        };
        // The directory part of the last fast-path file, and its inode.
        let mut kept: Option<(&str, u32)> = None;
        for (rel, content) in files {
            match start {
                Some(start) if is_normal_rel(rel) => {
                    let (dir_rel, _) = split_leaf(rel);
                    let dir = match kept {
                        Some((kept_rel, dir)) if kept_rel == dir_rel => dir,
                        _ => {
                            if !dir_rel.is_empty() {
                                self.mkdir_from(start, base, dir_rel, cred, dir_mode)?;
                            }
                            self.dir_of(start, base, rel, cred)?
                        }
                    };
                    self.write_in(dir, base, rel, cred, content, file_mode)?;
                    kept = Some((dir_rel, dir));
                }
                _ => {
                    let target = format!("{base}/{rel}");
                    let dir = &target[..target.rfind('/').expect("joined with a slash")];
                    self.mkdir_p(if dir.is_empty() { "/" } else { dir }, cred, dir_mode)?;
                    self.write(&target, cred, content, file_mode)?;
                }
            }
        }
        Ok(())
    }

    /// Read a file's content.
    pub fn read(&self, path: &str, cred: &Cred) -> Result<Bytes, ClusterError> {
        let path = normal(path);
        let node = self.node(self.resolve(&path, cred, "read")?);
        if !node.allows(cred, Access::Read) {
            return Err(denied(cred, "read", path.into_owned()));
        }
        match &node.kind {
            NodeKind::File(b) => Ok(b.clone()),
            NodeKind::Dir(_) => Err(ClusterError::WrongKind(path.into_owned())),
        }
    }

    /// Read as UTF-8 text (convenience; lossy conversion).
    pub fn read_text(&self, path: &str, cred: &Cred) -> Result<String, ClusterError> {
        Ok(String::from_utf8_lossy(&self.read(path, cred)?).into_owned())
    }

    /// List immediate children of a directory (names only, sorted).
    pub fn list(&self, path: &str, cred: &Cred) -> Result<Vec<String>, ClusterError> {
        let path = normal(path);
        let node = self.node(self.resolve(&path, cred, "list")?);
        if !node.allows(cred, Access::Read) {
            return Err(denied(cred, "list", path.into_owned()));
        }
        match &node.kind {
            NodeKind::Dir(children) => Ok(children.keys().map(|name| name.to_string()).collect()),
            NodeKind::File(_) => Err(ClusterError::WrongKind(path.into_owned())),
        }
    }

    /// Remove a file or (recursively) a directory. Requires write on parent.
    pub fn remove(&mut self, path: &str, cred: &Cred) -> Result<(), ClusterError> {
        let path = normal(path);
        if *path == *"/" {
            return Err(denied(cred, "remove", path.into_owned()));
        }
        let (dir_rel, leaf) = split_leaf(&path[1..]);
        let search_denied = |SearchDenied| denied(cred, "remove", path.to_string());
        let Some(dir) = self.lookup(ROOT, dir_rel, Some(cred)).map_err(search_denied)? else {
            return Err(ClusterError::NotFound(path.into_owned()));
        };
        let Some(id) = self.lookup(dir, leaf, Some(cred)).map_err(search_denied)? else {
            return Err(ClusterError::NotFound(path.into_owned()));
        };
        if !self.node(dir).allows(cred, Access::Write) {
            return Err(denied(cred, "remove", path.into_owned()));
        }
        if let NodeKind::Dir(children) = &mut self.nodes[dir as usize].kind {
            children.remove(leaf);
        }
        self.release(id);
        Ok(())
    }

    pub fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    pub fn is_dir(&self, path: &str) -> bool {
        self.stat(path).is_ok_and(|node| !node.is_file())
    }

    /// Size in bytes of a file (0 for directories).
    pub fn size_of(&self, path: &str) -> Result<u64, ClusterError> {
        match &self.stat(path)?.kind {
            NodeKind::File(b) => Ok(b.len() as u64),
            NodeKind::Dir(_) => Ok(0),
        }
    }

    /// Owner of a path.
    pub fn owner_of(&self, path: &str) -> Result<Uid, ClusterError> {
        Ok(self.stat(path)?.owner)
    }

    /// Change mode; only the owner may do this.
    pub fn chmod(&mut self, path: &str, cred: &Cred, mode: FileMode) -> Result<(), ClusterError> {
        let path = normal(path);
        let id = self.resolve(&path, cred, "chmod")?;
        let node = &mut self.nodes[id as usize];
        if node.owner != cred.uid {
            return Err(denied(cred, "chmod", path.into_owned()));
        }
        node.mode = mode;
        Ok(())
    }

    /// Total number of filesystem entries (including `/`).
    pub fn entry_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Arena slots on the wrong side of the books: entries no path from `/`
    /// reaches, plus vacant slots one does. 0 on a sound arena.
    pub fn orphans(&self) -> usize {
        let mut reachable = vec![false; self.nodes.len()];
        let mut frontier = vec![ROOT];
        while let Some(id) = frontier.pop() {
            if std::mem::replace(&mut reachable[id as usize], true) {
                continue;
            }
            if let NodeKind::Dir(children) = &self.node(id).kind {
                frontier.extend(children.values());
            }
        }
        let mut vacant = vec![false; self.nodes.len()];
        for &id in &self.free {
            vacant[id as usize] = true;
        }
        (0..self.nodes.len()).filter(|&id| reachable[id] == vacant[id]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alice() -> Cred {
        Cred::new(Uid(1001), &["proj1"])
    }

    fn bob() -> Cred {
        Cred::new(Uid(1002), &["proj2"])
    }

    fn carol_same_group() -> Cred {
        Cred::new(Uid(1003), &["proj1"])
    }

    fn fs_with_home() -> VirtualFs {
        let mut fs = VirtualFs::new();
        // root creates /home and /scratch world-writable-by-convention dirs
        let root = Cred::new(Uid(0), &["root"]);
        fs.mkdir_p("/home", &root, FileMode(0o777)).unwrap();
        fs.mkdir_p("/scratch", &root, FileMode(0o777)).unwrap();
        fs
    }

    #[test]
    fn write_read_roundtrip() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/home/alice", &a, FileMode::PRIVATE_DIR).unwrap();
        fs.write("/home/alice/x.txt", &a, "hello", FileMode::REGULAR)
            .unwrap();
        assert_eq!(fs.read_text("/home/alice/x.txt", &a).unwrap(), "hello");
        assert_eq!(fs.size_of("/home/alice/x.txt").unwrap(), 5);
    }

    #[test]
    fn private_dir_blocks_other_users() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/home/alice", &a, FileMode::PRIVATE_DIR).unwrap();
        fs.write("/home/alice/secret", &a, "s3cret", FileMode::PRIVATE)
            .unwrap();
        // Bob cannot read the private file, nor create in alice's dir.
        assert!(matches!(
            fs.read("/home/alice/secret", &bob()),
            Err(ClusterError::PermissionDenied { .. })
        ));
        assert!(matches!(
            fs.write("/home/alice/evil", &bob(), "x", FileMode::REGULAR),
            Err(ClusterError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn world_readable_file_in_private_dir_is_blocked_by_search_permission() {
        // The file's own mode would let anyone read it, but reaching it means
        // searching a 0700 directory. This is the shape of every CI clone.
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/home/alice", &a, FileMode::PRIVATE_DIR).unwrap();
        fs.write("/home/alice/pub.txt", &a, "hi", FileMode::REGULAR)
            .unwrap();
        assert_eq!(
            fs.read_text("/home/alice/pub.txt", &bob()),
            Err(ClusterError::PermissionDenied {
                uid: Uid(1002),
                op: "read",
                path: "/home/alice/pub.txt".to_string(),
            })
        );
        assert!(fs.list("/home/alice", &bob()).is_err());
        assert_eq!(fs.read_text("/home/alice/pub.txt", &a).unwrap(), "hi");
        // The stat calls take no credentials and are not gated.
        assert!(fs.exists("/home/alice/pub.txt"));
        assert_eq!(fs.size_of("/home/alice/pub.txt").unwrap(), 2);
    }

    #[test]
    fn every_cred_taking_operation_needs_search_on_the_way() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/open", &a, FileMode(0o777)).unwrap();
        fs.write("/scratch/alice/open/f", &a, "x", FileMode(0o666)).unwrap();
        fs.chmod("/scratch/alice", &a, FileMode(0o766)).unwrap();
        let b = bob();
        let denied = |op: &'static str, path: &str| ClusterError::PermissionDenied {
            uid: b.uid,
            op,
            path: path.to_string(),
        };
        assert_eq!(fs.read("/scratch/alice/open/f", &b).unwrap_err(), denied("read", "/scratch/alice/open/f"));
        assert_eq!(fs.list("/scratch/alice/open", &b).unwrap_err(), denied("list", "/scratch/alice/open"));
        assert_eq!(
            fs.write("/scratch/alice/open/./f", &b, "y", FileMode::REGULAR).unwrap_err(),
            denied("write", "/scratch/alice/open/f")
        );
        assert_eq!(
            fs.mkdir_p("/scratch/alice/open/d/e", &b, FileMode::DIR).unwrap_err(),
            denied("mkdir", "/scratch/alice/open/d/e")
        );
        assert_eq!(
            fs.write_tree("/scratch/alice/open", &b, FileMode::DIR, FileMode::REGULAR, [("d/g", Bytes::new())])
                .unwrap_err(),
            denied("mkdir", "/scratch/alice/open/d")
        );
        assert_eq!(
            fs.remove("/scratch/alice/open/f", &b).unwrap_err(),
            denied("remove", "/scratch/alice/open/f")
        );
        assert_eq!(
            fs.chmod("/scratch/alice/open/f", &b, FileMode::REGULAR).unwrap_err(),
            denied("chmod", "/scratch/alice/open/f")
        );
        // The unsearchable directory itself: `r` lists it and `w` adds a name
        // to it, but the new entry is then out of reach like the others.
        assert_eq!(fs.list("/scratch/alice", &b).unwrap(), vec!["open"]);
        fs.write("/scratch/alice/dropbox", &b, "from bob", FileMode::REGULAR).unwrap();
        assert_eq!(
            fs.read("/scratch/alice/dropbox", &b).unwrap_err(),
            denied("read", "/scratch/alice/dropbox")
        );
        assert_eq!(fs.read_text("/scratch/alice/dropbox", &a).unwrap(), "from bob");
    }

    #[test]
    fn group_sharing_works() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/proj1", &a, FileMode(0o770)).unwrap();
        fs.write("/scratch/proj1/data", &a, "d", FileMode::GROUP_SHARED)
            .unwrap();
        // Carol shares proj1.
        assert!(fs.read("/scratch/proj1/data", &carol_same_group()).is_ok());
        // Carol may even write (group-writable).
        assert!(fs
            .write("/scratch/proj1/data", &carol_same_group(), "d2", FileMode::GROUP_SHARED)
            .is_ok());
        // Bob (different group) may not list or write.
        assert!(fs.list("/scratch/proj1", &bob()).is_err());
    }

    #[test]
    fn overwrite_requires_write_on_file() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/home/alice", &a, FileMode(0o777)).unwrap();
        fs.write("/home/alice/ro", &a, "v1", FileMode(0o644)).unwrap();
        // Bob can create siblings (dir is 777) but not overwrite alice's file.
        assert!(fs.write("/home/alice/bobs", &bob(), "x", FileMode::REGULAR).is_ok());
        assert!(matches!(
            fs.write("/home/alice/ro", &bob(), "evil", FileMode::REGULAR),
            Err(ClusterError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn mkdir_p_creates_ancestors_and_is_idempotent() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/a/b/c", &a, FileMode::DIR).unwrap();
        assert!(fs.is_dir("/scratch/alice/a/b"));
        fs.mkdir_p("/scratch/alice/a/b/c", &a, FileMode::DIR).unwrap();
        // Can't mkdir over a file.
        fs.write("/scratch/alice/f", &a, "x", FileMode::REGULAR).unwrap();
        assert!(matches!(
            fs.mkdir_p("/scratch/alice/f", &a, FileMode::DIR),
            Err(ClusterError::WrongKind(_))
        ));
    }

    #[test]
    fn list_returns_immediate_children_sorted() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/sub", &a, FileMode::DIR).unwrap();
        fs.write("/scratch/alice/b.txt", &a, "b", FileMode::REGULAR).unwrap();
        fs.write("/scratch/alice/a.txt", &a, "a", FileMode::REGULAR).unwrap();
        fs.write("/scratch/alice/sub/deep.txt", &a, "d", FileMode::REGULAR)
            .unwrap();
        assert_eq!(
            fs.list("/scratch/alice", &a).unwrap(),
            vec!["a.txt", "b.txt", "sub"]
        );
    }

    #[test]
    fn remove_is_recursive_and_permission_checked() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/tree/deep", &a, FileMode::PRIVATE_DIR)
            .unwrap();
        fs.write("/scratch/alice/tree/deep/f", &a, "x", FileMode::REGULAR)
            .unwrap();
        // Bob can't remove alice's tree (parent /scratch/alice is private... it's
        // PRIVATE_DIR under /scratch which is 0o777; parent of tree is
        // /scratch/alice owned by alice with 0o700).
        assert!(fs.remove("/scratch/alice/tree", &bob()).is_err());
        fs.remove("/scratch/alice/tree", &a).unwrap();
        assert!(!fs.exists("/scratch/alice/tree/deep/f"));
        assert!(!fs.exists("/scratch/alice/tree"));
    }

    #[test]
    fn chmod_owner_only() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice", &a, FileMode::DIR).unwrap();
        fs.write("/scratch/alice/f", &a, "x", FileMode::PRIVATE).unwrap();
        assert!(fs.chmod("/scratch/alice/f", &bob(), FileMode::REGULAR).is_err());
        fs.chmod("/scratch/alice/f", &a, FileMode::REGULAR).unwrap();
        assert_eq!(fs.read_text("/scratch/alice/f", &bob()).unwrap(), "x");
    }

    #[test]
    fn path_normalization() {
        assert_eq!(normalize("/a//b/./c/../d"), "/a/b/d");
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize("/.."), "/");
        for already in ["/", "/a", "/a/b.txt"] {
            assert!(matches!(normal(already), Cow::Borrowed(_)), "{already}");
        }
        for (raw, want) in [("/a/", "/a"), ("//a", "/a"), ("/a/./b", "/a/b"), ("/a/../b", "/b")] {
            assert_eq!(normal(raw), want);
        }
    }

    #[test]
    fn write_tree_creates_directories_and_reports_the_loop_s_errors() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/repo", &a, FileMode::PRIVATE_DIR).unwrap();
        let files = [("README.md", "r"), ("src/lib/mod.rs", "m"), ("src/main.rs", "fn")];
        let tree = || files.iter().map(|&(p, c)| (p, Bytes::from(c)));
        fs.write_tree("/scratch/alice/repo", &a, FileMode::PRIVATE_DIR, FileMode::REGULAR, tree())
            .unwrap();
        assert_eq!(fs.list("/scratch/alice/repo", &a).unwrap(), vec!["README.md", "src"]);
        assert_eq!(fs.read_text("/scratch/alice/repo/src/lib/mod.rs", &a).unwrap(), "m");
        assert_eq!(fs.entry_count(), 10);
        // A second clone over the first overwrites in place.
        fs.write_tree("/scratch/alice/repo", &a, FileMode::PRIVATE_DIR, FileMode::REGULAR, tree())
            .unwrap();
        assert_eq!(fs.entry_count(), 10);
        // A missing destination is created, as the loop's mkdir_p would.
        fs.write_tree("/scratch/alice/new", &a, FileMode::DIR, FileMode::REGULAR, tree())
            .unwrap();
        assert!(fs.is_dir("/scratch/alice/new/src/lib"));
        // A directory where the tree has a file, and the reverse.
        fs.mkdir_p("/scratch/alice/clash/README.md", &a, FileMode::DIR).unwrap();
        assert_eq!(
            fs.write_tree("/scratch/alice/clash", &a, FileMode::DIR, FileMode::REGULAR, tree()),
            Err(ClusterError::WrongKind("/scratch/alice/clash/README.md".to_string()))
        );
        fs.write("/scratch/alice/clash/src", &a, "file", FileMode::REGULAR).unwrap();
        assert_eq!(
            fs.write_tree("/scratch/alice/clash", &a, FileMode::DIR, FileMode::REGULAR, tree().skip(1)),
            Err(ClusterError::WrongKind("/scratch/alice/clash/src".to_string()))
        );
    }

    #[test]
    fn clone_remove_cycles_leave_the_arena_where_it_started() {
        let mut fs = fs_with_home();
        let a = alice();
        fs.mkdir_p("/scratch/alice/gc-action-temp", &a, FileMode::PRIVATE_DIR).unwrap();
        let files = ["README.md", "docs/index.md", "src/a/b.rs", "src/a/c.rs", "src/main.rs", "tests/t.py"];
        let clone = |fs: &mut VirtualFs| {
            fs.mkdir_p("/scratch/alice/gc-action-temp/repo", &a, FileMode::PRIVATE_DIR)
                .unwrap();
            fs.write_tree(
                "/scratch/alice/gc-action-temp/repo",
                &a,
                FileMode::PRIVATE_DIR,
                FileMode::REGULAR,
                files.iter().map(|&p| (p, Bytes::from(p))),
            )
            .unwrap();
        };
        let entries = fs.entry_count();
        clone(&mut fs);
        let (cloned_entries, arena) = (fs.entry_count(), fs.nodes.len());
        assert_eq!(cloned_entries, entries + 1 + 4 + files.len());
        for _ in 0..1000 {
            fs.remove("/scratch/alice/gc-action-temp/repo", &a).unwrap();
            assert_eq!(fs.entry_count(), entries);
            clone(&mut fs);
            assert_eq!(fs.orphans(), 0);
        }
        assert_eq!(fs.entry_count(), cloned_entries);
        assert_eq!(fs.nodes.len(), arena);
        assert!(fs.free.is_empty());
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut fs = VirtualFs::new();
        let root = Cred::new(Uid(0), &["root"]);
        assert!(fs.remove("/", &root).is_err());
    }
}
