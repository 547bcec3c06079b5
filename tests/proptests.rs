//! Property-based tests on the core data structures and invariants.
//!
//! The properties are exercised with an in-tree case generator driven by
//! [`DetRng`] (the workspace builds offline, so no proptest crate): each
//! test runs a fixed number of seeded cases, and a failure message always
//! includes the case number so the input can be regenerated exactly.

use hpcci::cluster::{Cred, FileMode, Uid, VirtualFs};
use hpcci::scheduler::{BatchScheduler, JobPayload, JobSpec, JobState};
use hpcci::sim::{Advance, DetRng, EventQueue, SimDuration, SimTime};
use hpcci::vcs::{ObjectId, WorkTree};

/// Number of generated cases per property.
const CASES: u64 = 48;

/// Deterministic per-case generator stream, decorrelated by property name.
fn case_rng(property: &str, case: u64) -> DetRng {
    DetRng::seed_from_u64(0xdeed_5eed ^ case).fork(property)
}

fn gen_string(rng: &mut DetRng, alphabet: &str, min: usize, max: usize) -> String {
    let len = rng.range_u64(min as u64, max as u64 + 1) as usize;
    let chars: Vec<char> = alphabet.chars().collect();
    (0..len)
        .map(|_| chars[rng.range_u64(0, chars.len() as u64) as usize])
        .collect()
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const PRINTABLE: &str =
    " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Event queues always pop in (time, insertion) order.
#[test]
fn event_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = case_rng("event_queue", case);
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let drained = q.drain_due(SimTime::FAR_FUTURE);
        let mut last = (SimTime::ZERO, 0usize);
        let mut seen = vec![false; times.len()];
        for (at, ix) in drained {
            assert!(at >= last.0, "case {case}: time order violated");
            if at == last.0 {
                assert!(
                    ix > last.1 || last == (SimTime::ZERO, 0),
                    "case {case}: FIFO within timestamp"
                );
            }
            assert!(!seen[ix], "case {case}: duplicate pop");
            seen[ix] = true;
            last = (at, ix);
        }
        assert!(seen.into_iter().all(|s| s), "case {case}: every event popped once");
    }
}

/// Deterministic RNG streams are reproducible and jitter stays bounded.
#[test]
fn rng_reproducible_and_bounded() {
    for case in 0..CASES {
        let mut g = case_rng("rng_repro", case);
        let seed = g.range_u64(0, u64::MAX);
        let sigma = g.range_f64(0.0, 1.0);
        let mut a = DetRng::seed_from_u64(seed);
        let mut b = DetRng::seed_from_u64(seed);
        for _ in 0..20 {
            let ja = a.jitter(sigma);
            let jb = b.jitter(sigma);
            assert_eq!(ja.to_bits(), jb.to_bits(), "case {case}");
            assert!((0.5..=2.0).contains(&ja), "case {case}: jitter {ja}");
        }
    }
}

/// Content hashing: equal trees hash equal; any single-file mutation
/// changes the hash.
#[test]
fn worktree_hash_detects_mutations() {
    for case in 0..CASES {
        let mut rng = case_rng("worktree_hash", case);
        let n = rng.range_u64(1, 12) as usize;
        let files: std::collections::BTreeMap<String, String> = (0..n)
            .map(|_| {
                (
                    gen_string(&mut rng, LOWER, 1, 8),
                    gen_string(&mut rng, PRINTABLE, 0, 64),
                )
            })
            .collect();
        let mut tree = WorkTree::new();
        for (path, content) in &files {
            tree.put(path, content.clone());
        }
        let clone = tree.clone();
        assert_eq!(tree.hash(), clone.hash(), "case {case}");

        let mutate_ix = rng.range_u64(0, files.len() as u64) as usize;
        let target = files.keys().nth(mutate_ix).unwrap().clone();
        let mut mutated = tree.clone();
        let original = files[&target].clone();
        mutated.put(&target, format!("{original}!"));
        assert_ne!(tree.hash(), mutated.hash(), "case {case}");
    }
}

/// Object ids never collide across distinct short strings (sanity, not
/// a cryptographic claim).
#[test]
fn object_ids_distinct() {
    for case in 0..CASES {
        let mut rng = case_rng("object_ids", case);
        let a = gen_string(&mut rng, PRINTABLE, 0, 32);
        let b = gen_string(&mut rng, PRINTABLE, 0, 32);
        if a == b {
            continue;
        }
        assert_ne!(ObjectId::of_str(&a), ObjectId::of_str(&b), "case {case}");
    }
}

/// Filesystem: a private file is never readable by another uid, no
/// matter what sequence of mkdir/write the other user attempts.
#[test]
fn private_files_stay_private() {
    for case in 0..CASES {
        let mut rng = case_rng("private_files", case);
        let secret = gen_string(&mut rng, PRINTABLE, 1, 32);
        let n_attempts = rng.range_u64(0, 8) as usize;
        let attempts: Vec<String> = (0..n_attempts)
            .map(|_| gen_string(&mut rng, LOWER, 1, 6))
            .collect();
        let mut fs = VirtualFs::new();
        let root = Cred::new(Uid(0), &["root"]);
        fs.mkdir_p("/home", &root, FileMode(0o777)).unwrap();
        let alice = Cred::new(Uid(1001), &["a"]);
        let bob = Cred::new(Uid(1002), &["b"]);
        fs.mkdir_p("/home/alice", &alice, FileMode::PRIVATE_DIR).unwrap();
        fs.write("/home/alice/secret", &alice, secret.clone(), FileMode::PRIVATE)
            .unwrap();
        for name in &attempts {
            // Bob can create his own files elsewhere...
            let _ = fs.mkdir_p(&format!("/home/bob-{name}"), &bob, FileMode::DIR);
            let _ = fs.write(&format!("/home/bob-{name}/f"), &bob, "x", FileMode::REGULAR);
        }
        // ...but never read or overwrite alice's secret.
        assert!(fs.read("/home/alice/secret", &bob).is_err(), "case {case}");
        assert!(
            fs.write("/home/alice/secret", &bob, "evil", FileMode::REGULAR)
                .is_err(),
            "case {case}"
        );
        assert_eq!(
            fs.read_text("/home/alice/secret", &alice).unwrap(),
            secret,
            "case {case}"
        );
    }
}

/// The site filesystem as it was before the inode tree: one flat map from
/// normalised path to node, every operation a full-path lookup. Kept here,
/// and only here, as the oracle the tree is checked against. The one rule it
/// gained is the tree's search permission: stepping from a directory into an
/// existing entry needs `x` on the directory.
mod flat_fs {
    use hpcci::cluster::{ClusterError, Cred, FileMode, Uid};
    use std::collections::BTreeMap;

    /// File contents are plain bytes here (`Bytes` in the real thing).
    type Content = Vec<u8>;

    #[derive(Debug, Clone, PartialEq)]
    enum NodeKind {
        File(Content),
        Dir,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct FsNode {
        owner: Uid,
        group: String,
        mode: FileMode,
        kind: NodeKind,
    }

    #[derive(Debug, Clone, Copy)]
    enum Access {
        Read = 0o4,
        Write = 0o2,
        Search = 0o1,
    }

    #[derive(Debug, Clone)]
    pub struct FlatFs {
        nodes: BTreeMap<String, FsNode>,
    }

    fn normalize(path: &str) -> String {
        assert!(path.starts_with('/'), "paths must be absolute: {path}");
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

    fn parent_of(path: &str) -> Option<String> {
        if path == "/" {
            return None;
        }
        match path.rfind('/') {
            Some(0) => Some("/".to_string()),
            Some(i) => Some(path[..i].to_string()),
            None => None,
        }
    }

    fn check(node: &FsNode, cred: &Cred, access: Access) -> bool {
        let class = if cred.uid == node.owner {
            0
        } else if cred.groups.contains(&node.group) {
            1
        } else {
            2
        };
        (node.mode.0 >> (6 - 3 * class)) & access as u16 != 0
    }

    impl FlatFs {
        pub fn new() -> Self {
            let root = FsNode {
                owner: Uid(0),
                group: "root".to_string(),
                mode: FileMode::DIR,
                kind: NodeKind::Dir,
            };
            FlatFs {
                nodes: BTreeMap::from([("/".to_string(), root)]),
            }
        }

        fn get(&self, path: &str) -> Result<&FsNode, ClusterError> {
            self.nodes
                .get(path)
                .ok_or_else(|| ClusterError::NotFound(path.to_string()))
        }

        /// The search rule, for a normalised `path`: every ancestor directory
        /// whose next component towards `path` exists must grant `x`.
        fn searchable(&self, path: &str, cred: &Cred, op: &'static str) -> Result<(), ClusterError> {
            let mut ancestors = Vec::new();
            let mut cursor = path.to_string();
            while let Some(parent) = parent_of(&cursor) {
                ancestors.push((parent.clone(), cursor));
                cursor = parent;
            }
            for (dir, entry) in ancestors.into_iter().rev() {
                match self.nodes.get(&dir) {
                    Some(node) if node.kind == NodeKind::Dir => {
                        if self.nodes.contains_key(&entry) && !check(node, cred, Access::Search) {
                            return Err(ClusterError::PermissionDenied {
                                uid: cred.uid,
                                op,
                                path: path.to_string(),
                            });
                        }
                    }
                    _ => break,
                }
            }
            Ok(())
        }

        pub fn mkdir_p(&mut self, path: &str, cred: &Cred, mode: FileMode) -> Result<(), ClusterError> {
            let path = normalize(path);
            self.searchable(&path, cred, "mkdir")?;
            if let Some(node) = self.nodes.get(&path) {
                return match node.kind {
                    NodeKind::Dir => Ok(()),
                    NodeKind::File(_) => Err(ClusterError::WrongKind(path)),
                };
            }
            let mut missing = vec![path.clone()];
            let mut cursor = path.clone();
            let anchor = loop {
                let parent = parent_of(&cursor).ok_or_else(|| ClusterError::NoParent(cursor.clone()))?;
                if let Some(node) = self.nodes.get(&parent) {
                    match node.kind {
                        NodeKind::Dir => break parent,
                        NodeKind::File(_) => return Err(ClusterError::WrongKind(parent)),
                    }
                }
                missing.push(parent.clone());
                cursor = parent;
            };
            if !check(self.get(&anchor)?, cred, Access::Write) {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "mkdir",
                    path: anchor,
                });
            }
            let group = cred.groups.first().cloned().unwrap_or_else(|| "users".into());
            for dir in missing.into_iter().rev() {
                self.nodes.insert(
                    dir,
                    FsNode {
                        owner: cred.uid,
                        group: group.clone(),
                        mode,
                        kind: NodeKind::Dir,
                    },
                );
            }
            Ok(())
        }

        pub fn write(&mut self, path: &str, cred: &Cred, content: Content, mode: FileMode) -> Result<(), ClusterError> {
            let path = normalize(path);
            self.searchable(&path, cred, "write")?;
            if let Some(existing) = self.nodes.get(&path) {
                match existing.kind {
                    NodeKind::Dir => return Err(ClusterError::WrongKind(path)),
                    NodeKind::File(_) => {
                        if !check(existing, cred, Access::Write) {
                            return Err(ClusterError::PermissionDenied {
                                uid: cred.uid,
                                op: "write",
                                path,
                            });
                        }
                        let node = self.nodes.get_mut(&path).expect("checked above");
                        node.kind = NodeKind::File(content);
                        return Ok(());
                    }
                }
            }
            let parent = parent_of(&path).ok_or_else(|| ClusterError::NoParent(path.clone()))?;
            let parent_node = self.get(&parent)?;
            match parent_node.kind {
                NodeKind::Dir => {}
                NodeKind::File(_) => return Err(ClusterError::WrongKind(parent)),
            }
            if !check(parent_node, cred, Access::Write) {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "create",
                    path,
                });
            }
            let group = cred.groups.first().cloned().unwrap_or_else(|| "users".into());
            self.nodes.insert(
                path,
                FsNode {
                    owner: cred.uid,
                    group,
                    mode,
                    kind: NodeKind::File(content),
                },
            );
            Ok(())
        }

        /// `write_tree` by its definition: per file, `mkdir_p` then `write`.
        pub fn write_tree(
            &mut self,
            dest: &str,
            cred: &Cred,
            dir_mode: FileMode,
            file_mode: FileMode,
            files: &[(String, Content)],
        ) -> Result<(), ClusterError> {
            for (rel, content) in files {
                let target = format!("{dest}/{rel}");
                if let Some((dir, _)) = target.rsplit_once('/') {
                    self.mkdir_p(dir, cred, dir_mode)?;
                }
                self.write(&target, cred, content.clone(), file_mode)?;
            }
            Ok(())
        }

        pub fn read(&self, path: &str, cred: &Cred) -> Result<Content, ClusterError> {
            let path = normalize(path);
            self.searchable(&path, cred, "read")?;
            let node = self.get(&path)?;
            if !check(node, cred, Access::Read) {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "read",
                    path,
                });
            }
            match &node.kind {
                NodeKind::File(b) => Ok(b.clone()),
                NodeKind::Dir => Err(ClusterError::WrongKind(path)),
            }
        }

        pub fn read_text(&self, path: &str, cred: &Cred) -> Result<String, ClusterError> {
            Ok(String::from_utf8_lossy(&self.read(path, cred)?).into_owned())
        }

        pub fn list(&self, path: &str, cred: &Cred) -> Result<Vec<String>, ClusterError> {
            let path = normalize(path);
            self.searchable(&path, cred, "list")?;
            let node = self.get(&path)?;
            if !check(node, cred, Access::Read) {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "list",
                    path,
                });
            }
            match node.kind {
                NodeKind::Dir => {}
                NodeKind::File(_) => return Err(ClusterError::WrongKind(path)),
            }
            let prefix = if path == "/" { "/".to_string() } else { format!("{path}/") };
            let mut out: Vec<String> = self
                .nodes
                .range(prefix.clone()..)
                .take_while(|(p, _)| p.starts_with(&prefix))
                // The one fix to the oracle: the flat map listed `/` as a
                // child of itself with an empty name.
                .filter(|(p, _)| p.len() > prefix.len())
                .filter(|(p, _)| !p[prefix.len()..].contains('/'))
                .map(|(p, _)| p[prefix.len()..].to_string())
                .collect();
            out.sort();
            Ok(out)
        }

        pub fn remove(&mut self, path: &str, cred: &Cred) -> Result<(), ClusterError> {
            let path = normalize(path);
            if path == "/" {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "remove",
                    path,
                });
            }
            self.searchable(&path, cred, "remove")?;
            self.get(&path)?;
            let parent = parent_of(&path).ok_or_else(|| ClusterError::NoParent(path.clone()))?;
            let parent_node = self.get(&parent)?;
            if !check(parent_node, cred, Access::Write) {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "remove",
                    path,
                });
            }
            let subtree_prefix = format!("{path}/");
            let doomed: Vec<String> = self
                .nodes
                .keys()
                .filter(|p| **p == path || p.starts_with(&subtree_prefix))
                .cloned()
                .collect();
            for p in doomed {
                self.nodes.remove(&p);
            }
            Ok(())
        }

        pub fn exists(&self, path: &str) -> bool {
            self.nodes.contains_key(&normalize(path))
        }

        pub fn is_dir(&self, path: &str) -> bool {
            matches!(
                self.nodes.get(&normalize(path)),
                Some(FsNode { kind: NodeKind::Dir, .. })
            )
        }

        pub fn size_of(&self, path: &str) -> Result<u64, ClusterError> {
            match &self.get(&normalize(path))?.kind {
                NodeKind::File(b) => Ok(b.len() as u64),
                NodeKind::Dir => Ok(0),
            }
        }

        pub fn owner_of(&self, path: &str) -> Result<Uid, ClusterError> {
            Ok(self.get(&normalize(path))?.owner)
        }

        pub fn chmod(&mut self, path: &str, cred: &Cred, mode: FileMode) -> Result<(), ClusterError> {
            let path = normalize(path);
            self.searchable(&path, cred, "chmod")?;
            let node = self
                .nodes
                .get_mut(&path)
                .ok_or_else(|| ClusterError::NotFound(path.clone()))?;
            if node.owner != cred.uid {
                return Err(ClusterError::PermissionDenied {
                    uid: cred.uid,
                    op: "chmod",
                    path,
                });
            }
            node.mode = mode;
            Ok(())
        }

        pub fn entry_count(&self) -> usize {
            self.nodes.len()
        }
    }
}

/// What a filesystem lets its users see: every stat call on every path of
/// the generator's universe, and every `read` and `list` under every
/// credential. Two filesystems with equal views are the same to any caller.
macro_rules! fs_view {
    ($fs:expr, $creds:expr) => {{
        let fs = &$fs;
        let mut view = vec![format!("entries={}", fs.entry_count())];
        for path in fs_universe() {
            view.push(format!(
                "{path} exists={} dir={} size={:?} owner={:?}",
                fs.exists(&path),
                fs.is_dir(&path),
                fs.size_of(&path),
                fs.owner_of(&path),
            ));
            for cred in $creds.iter() {
                view.push(format!(
                    "{path} uid={} read={:?} list={:?}",
                    cred.uid.0,
                    fs.read(&path, cred).map(|content| content.to_vec()),
                    fs.list(&path, cred),
                ));
            }
        }
        view
    }};
}

const FS_SEGMENTS: [&str; 3] = ["a", "b", "c"];
/// Deepest path an operation names, a tree's destination included; a tree
/// goes up to `FS_TREE_DEPTH` below its destination.
const FS_DEPTH: usize = 3;
const FS_TREE_DEPTH: usize = 2;
const FS_MODES: [u16; 12] = [
    0o777, 0o755, 0o700, 0o770, 0o711, 0o722, 0o766, 0o666, 0o644, 0o600, 0o444, 0o000,
];

/// `/` and every path the generators can name.
fn fs_universe() -> Vec<String> {
    let mut level = vec![String::new()];
    let mut all = vec!["/".to_string()];
    for _ in 0..FS_DEPTH + FS_TREE_DEPTH {
        level = level
            .iter()
            .flat_map(|dir| FS_SEGMENTS.iter().map(move |seg| format!("{dir}/{seg}")))
            .collect();
        all.extend(level.iter().cloned());
    }
    all
}

fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> T {
    items[rng.range_u64(0, items.len() as u64) as usize]
}

/// A relative path of `min..=max` segments. One time in four it is written
/// in a form that is not normal: a doubled slash, a `.`, a detour through
/// `..`, a `..` that eats the segment before it, or a trailing slash.
fn gen_fs_rel(rng: &mut DetRng, min: usize, max: usize) -> String {
    let depth = rng.range_u64(min as u64, max as u64 + 1) as usize;
    let mut out = String::new();
    for i in 0..depth {
        if i > 0 {
            out.push('/');
        }
        if rng.chance(0.25) {
            out.push_str(pick(rng, &["/", "./", "c/../", "../"]));
        }
        out.push_str(pick(rng, &FS_SEGMENTS));
    }
    if depth > 0 && rng.chance(0.1) {
        out.push('/');
    }
    out
}

/// An absolute path of up to `FS_DEPTH` segments: half the time one an
/// earlier step named, so operations meet the nodes earlier ones made.
fn gen_fs_path(rng: &mut DetRng, seen: &mut Vec<String>) -> String {
    if !seen.is_empty() && rng.chance(0.5) {
        return seen[rng.range_u64(0, seen.len() as u64) as usize].clone();
    }
    let path = format!("/{}", gen_fs_rel(rng, 0, FS_DEPTH));
    seen.push(path.clone());
    path
}

/// Trees that walk `write_tree`'s kept directory through its branches: three
/// files of one directory (two served by the kept one); directories — the
/// destination among them — revisited after a sibling subtree; a file that
/// is the next path's directory, and the reverse.
const FS_TREE_SHAPES: [&[&str]; 4] = [
    &["b/a", "b/b", "b/c"],
    &["a", "b/a", "c/a", "b/b", "c"],
    &["a", "a/b"],
    &["a/b", "a"],
];

/// Up to four random files, or — three times in ten — one of the
/// [`FS_TREE_SHAPES`].
fn gen_fs_tree(rng: &mut DetRng) -> Vec<(String, Vec<u8>)> {
    let content = |i: usize| format!("tree-{i}").into_bytes();
    if rng.chance(0.3) {
        let shape = pick(rng, &FS_TREE_SHAPES);
        return shape.iter().enumerate().map(|(i, rel)| (rel.to_string(), content(i))).collect();
    }
    let n = rng.range_u64(0, 5) as usize;
    (0..n).map(|i| (gen_fs_rel(rng, 1, FS_TREE_DEPTH), content(i))).collect()
}

/// Owner, a member of the owner's group, and a user with no group at all
/// (whose files land in the default group).
fn fs_creds() -> [Cred; 3] {
    [
        Cred::new(Uid(1001), &["proj"]),
        Cred::new(Uid(1002), &["proj"]),
        Cred::new(Uid(1003), &[]),
    ]
}

/// Both filesystems after site provisioning: `/a` and `/b` open to all,
/// `/c` impossible to create (`/` is root's, 0755).
fn provisioned_pair() -> (VirtualFs, flat_fs::FlatFs) {
    let root = Cred::new(Uid(0), &["root"]);
    let (mut tree, mut flat) = (VirtualFs::new(), flat_fs::FlatFs::new());
    for dir in ["/a", "/b"] {
        tree.mkdir_p(dir, &root, FileMode(0o777)).unwrap();
        flat.mkdir_p(dir, &root, FileMode(0o777)).unwrap();
    }
    (tree, flat)
}

/// Filesystem: the inode tree and the flat path map it replaced agree on
/// every result — the error and the path inside it included — of every
/// public operation, under three credentials, over normal and non-normal
/// paths, with files in the way of directories and the reverse; and on
/// everything a caller can see afterwards.
#[test]
fn inode_tree_matches_the_flat_map_model() {
    let creds = fs_creds();
    for case in 0..CASES {
        let mut rng = case_rng("fs_model", case);
        let (mut tree, mut flat) = provisioned_pair();
        let mut seen = Vec::new();
        let n_ops = rng.range_u64(20, 80);
        for step in 0..n_ops {
            let cred = pick(&mut rng, &[&creds[0], &creds[1], &creds[2]]);
            let path = gen_fs_path(&mut rng, &mut seen);
            let mode = FileMode(pick(&mut rng, &FS_MODES));
            let at = format!("case {case} step {step} uid {} {path}", cred.uid.0);
            match rng.range_u64(0, 10) {
                0 | 1 => assert_eq!(tree.mkdir_p(&path, cred, mode), flat.mkdir_p(&path, cred, mode), "mkdir_p {at}"),
                2 | 3 => {
                    let content = format!("w{step}").into_bytes();
                    assert_eq!(
                        tree.write(&path, cred, content.clone(), mode),
                        flat.write(&path, cred, content, mode),
                        "write {at}"
                    );
                }
                4 => {
                    let dest = path;
                    let files = gen_fs_tree(&mut rng);
                    let file_mode = FileMode(pick(&mut rng, &FS_MODES));
                    let borrowed = files.iter().map(|(rel, content)| (rel.as_str(), content.clone().into()));
                    assert_eq!(
                        tree.write_tree(&dest, cred, mode, file_mode, borrowed),
                        flat.write_tree(&dest, cred, mode, file_mode, &files),
                        "write_tree {at} files {files:?}"
                    );
                }
                5 => assert_eq!(tree.remove(&path, cred), flat.remove(&path, cred), "remove {at}"),
                6 => assert_eq!(tree.chmod(&path, cred, mode), flat.chmod(&path, cred, mode), "chmod {at}"),
                7 => assert_eq!(
                    tree.read(&path, cred).map(|content| content.to_vec()),
                    flat.read(&path, cred),
                    "read {at}"
                ),
                8 => {
                    assert_eq!(tree.read_text(&path, cred), flat.read_text(&path, cred), "read_text {at}");
                    assert_eq!(tree.list(&path, cred), flat.list(&path, cred), "list {at}");
                }
                _ => {
                    assert_eq!(tree.exists(&path), flat.exists(&path), "exists {at}");
                    assert_eq!(tree.is_dir(&path), flat.is_dir(&path), "is_dir {at}");
                    assert_eq!(tree.size_of(&path), flat.size_of(&path), "size_of {at}");
                    assert_eq!(tree.owner_of(&path), flat.owner_of(&path), "owner_of {at}");
                }
            }
            assert_eq!(tree.entry_count(), flat.entry_count(), "entry_count after {at}");
        }
        assert_eq!(fs_view!(tree, creds), fs_view!(flat, creds), "case {case}: views differ");
    }
}

/// Filesystem: `write_tree` is the per-file `mkdir_p` + `write` loop — the
/// loop the `git` handler ran before it — with the same first error and the
/// same filesystem afterwards, whatever state it starts from.
#[test]
fn write_tree_is_the_mkdir_p_write_loop() {
    let creds = fs_creds();
    for case in 0..CASES {
        let mut rng = case_rng("fs_write_tree", case);
        let (mut fs, _) = provisioned_pair();
        // A destination every user may search and none may write: what is
        // there can be overwritten or descended into, nothing can be added.
        let root = Cred::new(Uid(0), &["root"]);
        fs.mkdir_p("/c/b", &root, FileMode(0o777)).unwrap();
        fs.write("/c/a", &root, "root's", FileMode(0o666)).unwrap();
        fs.chmod("/c", &root, FileMode::DIR).unwrap();
        let mut seen = Vec::new();
        // A random prior state, so trees land on files, directories,
        // other users' nodes and unsearchable directories.
        for step in 0..rng.range_u64(0, 30) {
            let cred = pick(&mut rng, &[&creds[0], &creds[1], &creds[2]]);
            let path = gen_fs_path(&mut rng, &mut seen);
            let mode = FileMode(pick(&mut rng, &FS_MODES));
            let _ = match rng.range_u64(0, 4) {
                0 | 1 => fs.mkdir_p(&path, cred, mode),
                2 => fs.write(&path, cred, format!("p{step}"), mode),
                _ => fs.chmod(&path, cred, mode),
            };
        }
        for round in 0..4 {
            let cred = pick(&mut rng, &[&creds[0], &creds[1], &creds[2]]);
            let dest = if rng.chance(0.25) { "/c".to_string() } else { gen_fs_path(&mut rng, &mut seen) };
            let files = gen_fs_tree(&mut rng);
            let dir_mode = FileMode(pick(&mut rng, &FS_MODES));
            let file_mode = FileMode(pick(&mut rng, &FS_MODES));
            let mut looped = fs.clone();
            let by_loop = files.iter().try_for_each(|(rel, content)| {
                let target = format!("{dest}/{rel}");
                let dir = target.rsplit_once('/').map(|(dir, _)| dir).expect("joined with a slash");
                looped.mkdir_p(dir, cred, dir_mode)?;
                looped.write(&target, cred, content.clone(), file_mode)
            });
            let by_tree = fs.write_tree(
                &dest,
                cred,
                dir_mode,
                file_mode,
                files.iter().map(|(rel, content)| (rel.as_str(), content.clone().into())),
            );
            let at = format!("case {case} round {round} uid {} dest {dest} files {files:?}", cred.uid.0);
            assert_eq!(by_tree, by_loop, "first error: {at}");
            assert_eq!(fs.entry_count(), looped.entry_count(), "entries: {at}");
            assert_eq!(fs.orphans(), 0, "arena: {at}");
            assert_eq!(fs_view!(fs, creds), fs_view!(looped, creds), "end state: {at}");
        }
    }
}

/// Scheduler: whatever mix of jobs is submitted, core accounting never
/// goes negative or exceeds capacity, and every job reaches a terminal
/// state by the time the machine drains.
#[test]
fn scheduler_never_oversubscribes() {
    for case in 0..CASES {
        let mut rng = case_rng("scheduler_caps", case);
        let n_jobs = rng.range_u64(1, 25) as usize;
        let nodes = 4u32;
        let cores = 8u32;
        let capacity = (nodes * cores) as u64;
        let mut s = BatchScheduler::with_compute_partition(
            (0..nodes).map(hpcci::cluster::NodeId).collect(),
            cores,
        );
        let mut ids = Vec::new();
        for i in 0..n_jobs {
            let spec = JobSpec {
                name: format!("j{i}"),
                user: Uid(1000),
                allocation: "a".into(),
                partition: "compute".into(),
                nodes: rng.range_u64(1, 3) as u32,
                cores_per_node: rng.range_u64(1, 9) as u32,
                walltime: SimDuration::from_mins(rng.range_u64(1, 20)),
                payload: JobPayload::Fixed {
                    duration: SimDuration::from_secs(rng.range_u64(1, 500)),
                    success: true,
                },
            };
            if let Ok(id) = s.submit(spec, SimTime::ZERO) {
                ids.push(id);
            }
            assert!(s.free_cores() <= capacity, "case {case}: free cores exceed capacity");
        }
        // Drain fully.
        while let Some(t) = s.next_event() {
            s.advance_to(t);
            assert!(s.free_cores() <= capacity, "case {case}");
        }
        assert_eq!(s.free_cores(), capacity, "case {case}: all cores released");
        for id in ids {
            let st = s.state(id).unwrap();
            assert!(st.is_terminal(), "case {case}: job {id} not terminal: {st:?}");
            if let JobState::Completed { success, .. } = st {
                assert!(success, "case {case}");
            }
        }
    }
}

/// Version comparison is a total order consistent with numeric segments.
#[test]
fn version_compare_consistent() {
    use hpcci::cluster::software::compare_versions;
    for case in 0..CASES {
        let mut rng = case_rng("version_cmp", case);
        let gen_segs = |rng: &mut DetRng| -> Vec<u64> {
            let n = rng.range_u64(1, 4) as usize;
            (0..n).map(|_| rng.range_u64(0, 50)).collect()
        };
        let a = gen_segs(&mut rng);
        let b = gen_segs(&mut rng);
        let sa = a.iter().map(u64::to_string).collect::<Vec<_>>().join(".");
        let sb = b.iter().map(u64::to_string).collect::<Vec<_>>().join(".");
        let ord = compare_versions(&sa, &sb);
        assert_eq!(compare_versions(&sb, &sa), ord.reverse(), "case {case}");
        assert_eq!(compare_versions(&sa, &sa), std::cmp::Ordering::Equal, "case {case}");
        // Consistency with padded numeric comparison.
        let n = a.len().max(b.len());
        let pad = |v: &[u64]| {
            let mut v = v.to_vec();
            v.resize(n, 0);
            v
        };
        assert_eq!(ord, pad(&a).cmp(&pad(&b)), "case {case}: {sa} vs {sb}");
    }
}

/// minimpi allreduce equals the sequential reduction for arbitrary data.
#[test]
fn allreduce_matches_sequential() {
    for case in 0..16 {
        let mut rng = case_rng("allreduce", case);
        let n = rng.range_u64(1, 5) as usize;
        let per_rank: Vec<i64> = (0..n)
            .map(|_| rng.range_u64(0, 2000) as i64 - 1000)
            .collect();
        let ranks = rng.range_u64(1, 5) as usize;
        let data = per_rank.clone();
        let results = hpcci::minimpi::run_mpi(ranks, move |rank| {
            let local: Vec<i64> = data.iter().map(|v| v + rank.rank as i64).collect();
            rank.allreduce_i64(&local, hpcci::minimpi::ReduceOp::Sum)
        });
        let expected: Vec<i64> = per_rank
            .iter()
            .map(|v| (0..ranks as i64).map(|r| v + r).sum())
            .collect();
        for r in results {
            assert_eq!(r, expected, "case {case}");
        }
    }
}

/// A store holding `values` as repository and environment secrets, spread
/// over a few scopes so store order is not insertion order.
fn secret_store(values: &[String]) -> hpcci::ci::SecretStore {
    use hpcci::ci::{Secret, SecretScope, SecretStore};
    let mut store = SecretStore::new();
    for (i, v) in values.iter().enumerate() {
        let scope = match i % 3 {
            0 => SecretScope::Organization("org".into()),
            1 => SecretScope::Repository(format!("org/repo-{}", i % 5)),
            _ => SecretScope::Environment {
                repo: "org/repo-0".into(),
                environment: format!("site-{}", i % 4),
            },
        };
        store.put(scope, Secret::new(&format!("S{i}"), v));
    }
    store
}

/// The masking contract: replace each stored value in turn, longest first.
fn sequential_mask(text: &str, values: &[String]) -> String {
    let mut out = text.to_string();
    for v in values {
        if !v.is_empty() && out.contains(v.as_str()) {
            out = out.replace(v.as_str(), "***");
        }
    }
    out
}

#[test]
fn masking_is_idempotent_and_total() {
    // Non-generated companion: masking twice equals masking once.
    let store = secret_store(&["gcs-deadbeef".to_string(), "tok-12345".to_string()]);
    let text = "auth gcs-deadbeef then tok-12345 then gcs-deadbeef";
    let once = store.mask(text.to_string());
    let twice = store.mask(once.clone());
    assert_eq!(once, twice);
    assert!(!once.contains("deadbeef"));
}

/// The indexed mask set is byte-for-byte the sequential longest-first
/// `replace` loop, on stores built to make the two disagree if they could:
/// values cut out of the text (so they overlap and nest), equal lengths,
/// values containing `*` / `***`, values shorter than the index's 4-byte
/// key, empty and repeated values, non-ASCII, matches at both text ends.
#[test]
fn mask_set_matches_sequential_replace() {
    let check = |values: &[String], text: &str, case: &str| {
        let store = secret_store(values);
        assert_eq!(
            store.mask(text.to_string()),
            sequential_mask(text, &store.all_values()),
            "case {case}: values {values:?} text {text:?}"
        );
    };
    let hand_picked: &[(&[&str], &str)] = &[
        // nested and overlapping: longest first, residue stays
        (&["abcdef", "cdefgh", "cdef", "ab"], "xabcdefghx abcdefgh cdefgh ab"),
        // a value made visible only by the stars an earlier turn inserted
        (&["secret-token", "x***y", "**", "*"], "xsecret-tokeny * a**b"),
        // the same starred value twice: the second turn masks the first's stars
        (&["*", "*"], "a*b"),
        // shorter than the index key, empty, equal lengths in store order
        (&["abc", "ab", "", "bcd", "é", "日本語の秘密"], "abcd ab é 日本語の秘密 日本語"),
        // the whole text, and a value longer than the text
        (&["whole"], "whole"),
        (&["longer-than-text"], "long"),
    ];
    for (i, (values, text)) in hand_picked.iter().enumerate() {
        let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        check(&values, text, &format!("hand-picked {i}"));
    }

    const ALPHABET: &str = "ab*é-日";
    for case in 0..CASES * 8 {
        let mut rng = case_rng("mask_set", case);
        let mut text = gen_string(&mut rng, ALPHABET, 0, 60);
        let chars: Vec<char> = text.chars().collect();
        let mut values: Vec<String> = Vec::new();
        for _ in 0..rng.range_u64(0, 12) {
            let v = match rng.range_u64(0, 6) {
                // a slice of the text: start, end and interior all come up
                0..=2 if !chars.is_empty() => {
                    let from = rng.range_u64(0, chars.len() as u64) as usize;
                    let len = rng.range_u64(1, 9) as usize;
                    chars[from..(from + len).min(chars.len())].iter().collect()
                }
                3 => gen_string(&mut rng, "*", 1, 4),
                4 => values.first().cloned().unwrap_or_default(),
                _ => gen_string(&mut rng, ALPHABET, 0, 7),
            };
            values.push(v);
        }
        if let Some(v) = values.iter().find(|v| v.len() >= 4) {
            if rng.chance(0.5) {
                text = format!("{v}{text}{v}");
            }
        }
        check(&values, &text, &case.to_string());
    }
}

/// PDBQT round trip preserves geometry and charges for arbitrary
/// generated molecules.
#[test]
fn pdbqt_round_trips() {
    use hpcci::parsldock::{ligand_from_pdbqt, ligand_to_pdbqt, Ligand};
    for case in 0..CASES {
        let mut rng = case_rng("pdbqt", case);
        let name = gen_string(&mut rng, LOWER, 1, 12);
        let prepare = rng.chance(0.5);
        let mut l = Ligand::generate(&name);
        if prepare {
            l = hpcci::parsldock::prep::prepare_ligand(l);
        }
        let parsed = ligand_from_pdbqt(&ligand_to_pdbqt(&l)).unwrap();
        assert_eq!(parsed.name, l.name, "case {case}");
        assert_eq!(parsed.prepared, l.prepared, "case {case}");
        assert_eq!(parsed.atoms.len(), l.atoms.len(), "case {case}");
        for (a, b) in l.atoms.iter().zip(&parsed.atoms) {
            assert!((a.x - b.x).abs() < 1e-3, "case {case}");
            assert!((a.charge - b.charge).abs() < 1e-3, "case {case}");
        }
    }
}

/// minimpi alltoall is a permutation: every sent element arrives exactly
/// once, at the right rank.
#[test]
fn alltoall_is_a_permutation() {
    for case in 0..16 {
        let mut rng = case_rng("alltoall", case);
        let ranks = rng.range_u64(1, 5) as usize;
        let chunk = rng.range_u64(1, 6) as usize;
        let results = hpcci::minimpi::run_mpi(ranks, move |rank| {
            let chunks: Vec<Vec<i64>> = (0..ranks)
                .map(|dst| vec![(rank.rank * ranks + dst) as i64; chunk])
                .collect();
            rank.alltoall(&chunks)
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got.len(), ranks, "case {case}");
            for (s, received) in got.iter().enumerate() {
                assert_eq!(received, &vec![(s * ranks + r) as i64; chunk], "case {case}");
            }
        }
    }
}

/// The badge reviewer is deterministic in its rng stream, and an
/// unarchived artifact never earns any badge.
#[test]
fn badge_review_deterministic_and_gated() {
    use hpcci::provenance::badges::{Artifact, Reviewer};
    for case in 0..CASES {
        let mut rng = case_rng("badge_review", case);
        let seed = rng.range_u64(0, u64::MAX);
        let quality = rng.range_f64(0.05, 0.95);
        let artifact = Artifact {
            publicly_archived: true,
            documented: true,
            ae_quality: quality,
            has_ci: true,
            hardware_gated: false,
            remote_ci_evidence: false,
            experiment_hours: 2.0,
            result_variance: 0.1,
        };
        let a = Reviewer::default().review(&artifact, &mut DetRng::seed_from_u64(seed));
        let b = Reviewer::default().review(&artifact, &mut DetRng::seed_from_u64(seed));
        assert_eq!(a, b, "case {case}");
        assert!(a.hours_spent <= 8.0 + 1e-9, "case {case}");

        let unarchived = Artifact { publicly_archived: false, ..artifact };
        let c = Reviewer::default().review(&unarchived, &mut DetRng::seed_from_u64(seed));
        assert_eq!(c.awarded, None, "case {case}");
    }
}

/// Randomized fault schedules are a pure function of the seed: same seed,
/// byte-identical plan; different seeds, different schedules.
#[test]
fn fault_schedules_are_seed_deterministic() {
    use hpcci::sim::FaultPlan;
    let endpoints = ["ep-a", "ep-b", "ep-c"];
    for case in 0..CASES {
        let mut rng = case_rng("fault_plan_seed", case);
        let seed = rng.range_u64(0, u64::MAX / 2);
        let other = seed + 1 + rng.range_u64(0, 10_000);
        let render =
            |s: u64| FaultPlan::randomized(s, SimDuration::from_hours(2), 8, &endpoints).render();
        assert_eq!(render(seed), render(seed), "case {case}: same seed, same plan");
        assert_ne!(
            render(seed),
            render(other),
            "case {case}: seeds {seed} vs {other} collided"
        );
    }
}

/// Incremental CI, end to end: for arbitrary seeds, a Replay-mode run over
/// the same world as its Record-mode producer serves every step from the
/// cache and is byte-identical — statuses, step records, artifact bytes.
#[test]
fn step_cache_replay_is_byte_identical_to_record() {
    use hpcci::ci::{CacheMode, StepCache};
    use hpcci::correct::Federation;
    for case in 0..4 {
        let mut rng = case_rng("cache_replay", case);
        let seed = rng.range_u64(0, 1 << 32);
        let cache = StepCache::new();
        let observe = |mode: CacheMode| {
            let fed = Federation::builder(seed).step_cache_shared(cache.clone(), mode).build();
            let mut s = hpcci::scenarios::psij_scenario_on(fed, false);
            let runs = s.push_approve_run("vhayot");
            let run = s.fed.engine.run(runs[0]).unwrap().clone();
            let now = s.fed.now();
            let artifact = s
                .fed
                .engine
                .artifacts
                .fetch(runs[0], "pytest-output", now)
                .expect("artifact uploaded")
                .content
                .clone();
            (run.full_log(), artifact)
        };
        let recorded = observe(CacheMode::Record);
        let hits_before = cache.stats().hits;
        let replayed = observe(CacheMode::Replay);
        assert_eq!(recorded, replayed, "case {case} (seed {seed}): replay diverged");
        assert!(
            cache.stats().hits > hits_before,
            "case {case} (seed {seed}): replay pass never hit the cache"
        );
    }
}

/// The action the replay-equivalence property drives: echoes its `token`
/// input (a secret) into stdout, stderr and an output the way CORRECT
/// copies a task's raw streams, takes as long as its `millis` input says,
/// fails when told to, and leaves `artifacts` artifacts behind.
struct Emit;
impl hpcci::ci::Action for Emit {
    fn run(&self, ctx: &mut hpcci::ci::StepContext<'_>) -> hpcci::ci::StepResult {
        let inputs = ctx.inputs.clone();
        let input = |key: &str| inputs.get(key).cloned().unwrap_or_default();
        let (token, text) = (input("token"), input("text"));
        ctx.driver
            .sleep(SimDuration::from_millis(input("millis").parse().unwrap()));
        let stdout = format!("{text}\nauthenticated with {token}");
        let mut result = hpcci::ci::StepResult::ok(stdout.clone())
            .with_output("stdout", &stdout)
            .with_output("exit_code", input("fail"));
        result.success = input("fail") != "1";
        result.stderr = format!("warning: {token} seen by {text}");
        for k in 0..input("artifacts").parse().unwrap() {
            // The first two of a step share their bytes: several artifacts
            // under one CAS address.
            result =
                result.with_artifact(&format!("{text}-{k}"), format!("{text} part {}", k.max(1)));
        }
        result
    }
}

/// A generated workflow over every step kind: `run` (some exiting 1),
/// `uses` (some failing, several artifacts, the secret echoed), and
/// `upload-artifact` (some naming a step that does not exist), with
/// `continue-on-error` sprinkled over all of them and `needs` edges between
/// jobs so a failed job skips its dependants.
fn gen_workflow(rng: &mut DetRng) -> hpcci::ci::WorkflowDef {
    use hpcci::ci::{JobDef, StepDef, TriggerEvent, WorkflowDef};
    let mut wf = WorkflowDef::new("generated").on_event(TriggerEvent::push_any());
    let jobs = rng.range_u64(1, 4);
    let mut serial = 0;
    for j in 0..jobs {
        let mut job = JobDef::new(&format!("job-{j}"));
        if j > 0 && rng.chance(0.5) {
            job = job.with_needs(&[&format!("job-{}", rng.range_u64(0, j))]);
        }
        let mut ids: Vec<String> = Vec::new();
        for _ in 0..rng.range_u64(1, 6) {
            serial += 1;
            let id = format!("step-{serial}");
            let fail = rng.chance(0.2);
            let mut step = match rng.range_u64(0, 3) {
                0 => StepDef::run(
                    &id,
                    if fail {
                        "bash -c 'exit 1'"
                    } else {
                        "make check"
                    },
                ),
                1 => StepDef::uses(
                    &id,
                    "acme/emit@v1",
                    &[
                        ("token", "${{ secrets.TOKEN }}"),
                        ("text", &format!("{id} {}", gen_string(rng, LOWER, 0, 40))),
                        ("millis", &rng.range_u64(0, 5_000).to_string()),
                        ("fail", if fail { "1" } else { "0" }),
                        ("artifacts", &rng.range_u64(0, 4).to_string()),
                    ],
                ),
                _ => {
                    let from = match ids.as_slice() {
                        [] => "no-such-step".to_string(),
                        _ if fail => "no-such-step".to_string(),
                        ids => ids[rng.range_u64(0, ids.len() as u64) as usize].clone(),
                    };
                    StepDef::upload_artifact(&id, &format!("{id}-log"), &from)
                }
            };
            if rng.chance(0.6) {
                step = step.allow_failure();
            }
            ids.push(id);
            job = job.with_step(step);
        }
        wf = wf.with_job(job);
    }
    wf
}

/// Replay equals Record, structurally: over generated workflows the run a
/// Replay-mode engine serves from the cache equals the run the Record-mode
/// engine executed, field by field — statuses, masked logs, outputs,
/// artifact names, digests and bytes, and every virtual timestamp.
#[test]
fn replayed_run_equals_recorded_run_field_by_field() {
    use hpcci::ci::action::NullDriver;
    use hpcci::ci::{CacheMode, CiEngine, Secret, SecretScope, StepCache};
    use std::sync::Arc;
    const REPO: &str = "org/app";
    let (mut hits, mut failures, mut artifacts) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = case_rng("replay_equals_record", case);
        let workflow = gen_workflow(&mut rng);
        let token = format!("tok-{}", gen_string(&mut rng, LOWER, 8, 16));
        let cache = StepCache::new();
        let engine = |mode: CacheMode| {
            let mut e = CiEngine::new();
            e.set_step_cache(cache.clone(), mode);
            e.register_action("acme/emit@v1", Arc::new(Emit));
            e.secrets.put(
                SecretScope::Repository(REPO.into()),
                Secret::new("TOKEN", &token),
            );
            e.add_workflow(REPO, workflow.clone());
            e
        };
        let run_once = |e: &mut CiEngine| {
            let id = e
                .on_push(REPO, "main", "commit-1", SimTime::from_secs(5))
                .unwrap()[0];
            let mut driver = NullDriver::new();
            driver.now = SimTime::from_secs(7);
            e.execute_ready(&mut driver);
            id
        };

        let mut cold = engine(CacheMode::Record);
        let recorded = run_once(&mut cold);
        let after_record = cache.stats();
        assert_eq!(after_record.hits, 0, "case {case}: Record never serves");
        let mut warm = engine(CacheMode::Replay);
        let replayed = run_once(&mut warm);
        let after_replay = cache.stats();

        let (a, b) = (cold.run(recorded).unwrap(), warm.run(replayed).unwrap());
        let keyed = a.steps.iter().filter(|s| s.step != "<runner>").count() as u64;
        assert_eq!(
            after_record.misses, keyed,
            "case {case}: every executed step recorded"
        );
        assert_eq!(
            (after_replay.hits, after_replay.misses),
            (keyed, keyed),
            "case {case}: every step replays"
        );
        assert_eq!(
            (a.id, &a.repo, &a.workflow, &a.branch, &a.commit, a.status),
            (b.id, &b.repo, &b.workflow, &b.branch, &b.commit, b.status),
            "case {case}"
        );
        assert_eq!(
            (a.triggered_at, a.started_at, a.ended_at, &a.approved_by),
            (b.triggered_at, b.started_at, b.ended_at, &b.approved_by),
            "case {case}"
        );
        assert_eq!(a.steps.len(), b.steps.len(), "case {case}");
        for (x, y) in a.steps.iter().zip(&b.steps) {
            let at = format!("case {case}: {}/{}", x.job, x.step);
            assert_eq!((&x.job, &x.step), (&y.job, &y.step), "{at}");
            assert_eq!(x.success, y.success, "{at}");
            assert_eq!(x.stdout, y.stdout, "{at}");
            assert_eq!(x.stderr, y.stderr, "{at}");
            assert_eq!(x.outputs, y.outputs, "{at}");
            assert_eq!((x.started, x.ended), (y.started, y.ended), "{at}");
            assert!(
                Arc::ptr_eq(&x.outcome, &y.outcome),
                "{at}: the replay copied the outcome"
            );
            assert!(!format!("{x:?}").contains(&token), "{at}: secret leaked");
        }
        assert_eq!(a.full_log(), b.full_log(), "case {case}");
        let end = a.ended_at.unwrap();
        let (xs, ys) = (
            cold.artifacts.of_run(recorded, end),
            warm.artifacts.of_run(replayed, end),
        );
        assert_eq!(xs.len(), ys.len(), "case {case}");
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!((&x.name, x.digest), (&y.name, y.digest), "case {case}");
            assert_eq!(x.content, y.content, "case {case}: {}", x.name);
            assert_eq!(
                (x.uploaded_at, x.expires_at),
                (y.uploaded_at, y.expires_at),
                "case {case}: {}",
                x.name
            );
            assert!(!x.digest.is_none(), "case {case}");
        }
        hits += keyed;
        failures += a.steps.iter().filter(|s| !s.success).count();
        artifacts += xs.len();
    }
    // The generator reaches what the property is about.
    assert!(
        hits > 100 && failures > 20 && artifacts > 40,
        "{hits} {failures} {artifacts}"
    );
}

/// A hit copies nothing: the replayed `StepRun`, the run that recorded it
/// and the cache entry hold one allocation of a 1 MiB log. The entry is
/// found with the public key API, so this also pins that `JobKeyPrefix` /
/// `StepKey::derive` compute what the engine computes.
#[test]
fn a_hit_shares_the_recorded_outcome_with_the_cache_entry() {
    use hpcci::cas::Digest;
    use hpcci::ci::action::NullDriver;
    use hpcci::ci::{
        Action, CacheMode, CiEngine, JobDef, JobKeyPrefix, Runner, StepCache, StepContext, StepDef,
        StepKey, StepResult, TriggerEvent, WorkflowDef,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;
    struct Chatty;
    impl Action for Chatty {
        fn run(&self, _: &mut StepContext<'_>) -> StepResult {
            StepResult::ok("0123456789abcdef".repeat(1 << 16))
        }
    }
    let step = StepDef::uses("build", "acme/chatty@v1", &[("level", "debug")]);
    let cache = StepCache::new();
    let mut e = CiEngine::new();
    e.set_step_cache(cache.clone(), CacheMode::Replay);
    e.register_action("acme/chatty@v1", Arc::new(Chatty));
    e.add_workflow(
        "org/app",
        WorkflowDef::new("ci")
            .on_event(TriggerEvent::push_any())
            .with_job(JobDef::new("test").with_step(step.clone())),
    );
    let mut run_once = || {
        let id = e
            .on_push("org/app", "main", "commit-1", SimTime::ZERO)
            .unwrap()[0];
        e.execute_ready(&mut NullDriver::new());
        e.run(id).unwrap().steps[0].outcome.clone()
    };
    let recorded = run_once();
    let replayed = run_once();
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(recorded.stdout.len(), 1 << 20);

    let none = BTreeMap::new();
    let key = StepKey::derive(
        &JobKeyPrefix::new(
            "commit-1",
            "test",
            &none,
            &Runner::hosted(0, "ubuntu-latest"),
        ),
        &step.id,
        &step.action.resolve(&none, &none),
        Digest::NONE,
        Digest::NONE,
    );
    let entry = cache
        .lookup(&key)
        .expect("the public key API derives the engine's key");
    assert!(
        Arc::ptr_eq(&entry.outcome, &recorded),
        "Record copied the log into the cache"
    );
    assert!(
        Arc::ptr_eq(&entry.outcome, &replayed),
        "the hit copied the log out of it"
    );
    drop((recorded, replayed));
    // Two runs in the arena and the entry — `entry` here holds the entry,
    // not the outcome.
    assert_eq!(Arc::strong_count(&entry.outcome), 3);
}

/// Step-key sensitivity: identical inputs derive identical keys, and
/// perturbing any single field — command, env vars, secrets, software
/// stack, repo tree, job, runner, the prior-result chain, a `uses:` step's
/// action name or any `with` key or value, an upload's name or source
/// step — forces a different key (a guaranteed cache miss). The
/// job-invariant fields reach the key through the per-job prefix, so the
/// prefix is rebuilt for every variant here exactly as the engine rebuilds
/// it for every job.
#[test]
fn step_key_perturbations_force_misses() {
    use hpcci::cas::Digest;
    use hpcci::ci::{JobKeyPrefix, Runner, StepDef, StepKey};
    use std::collections::BTreeMap;

    /// Everything a key is derived from, by value so one field can be swapped.
    #[derive(Clone)]
    struct Inputs {
        tree: String,
        job: String,
        step: StepDef,
        secrets: BTreeMap<String, String>,
        env_vars: BTreeMap<String, String>,
        stack: Digest,
        runner: Runner,
        prior: Digest,
    }
    impl Inputs {
        fn key(&self) -> StepKey {
            let prefix = JobKeyPrefix::new(&self.tree, &self.job, &self.secrets, &self.runner);
            StepKey::derive(
                &prefix,
                &self.step.id,
                &self.step.action.resolve(&self.secrets, &self.env_vars),
                self.stack,
                self.prior,
            )
        }
        fn with(&self, change: impl FnOnce(&mut Inputs)) -> StepKey {
            let mut changed = self.clone();
            change(&mut changed);
            changed.key()
        }
    }

    for case in 0..CASES {
        let mut rng = case_rng("step_key", case);
        // References both a secret and an env var so rotating either changes
        // the fully interpolated command (how env reaches the key).
        let command = format!(
            "{} ${{{{ secrets.TOKEN }}}} ${{{{ env.CI }}}}",
            gen_string(&mut rng, PRINTABLE, 1, 24)
        );
        let mut secrets = BTreeMap::new();
        secrets.insert("TOKEN".to_string(), gen_string(&mut rng, LOWER, 4, 10));
        // Reaches the `uses:` step only through a `with` value.
        secrets.insert("CLIENT".to_string(), gen_string(&mut rng, LOWER, 4, 10));
        let mut env_vars = BTreeMap::new();
        env_vars.insert("CI".to_string(), gen_string(&mut rng, LOWER, 1, 6));
        let base = Inputs {
            tree: gen_string(&mut rng, LOWER, 6, 12),
            job: gen_string(&mut rng, LOWER, 1, 8),
            step: StepDef::run("run", &command),
            secrets,
            env_vars,
            stack: Digest::of_str(&gen_string(&mut rng, LOWER, 4, 10)),
            runner: Runner::hosted(0, &gen_string(&mut rng, LOWER, 3, 10)),
            prior: Digest::of_str(&gen_string(&mut rng, LOWER, 4, 10)),
        };
        let action = gen_string(&mut rng, LOWER, 3, 12);
        let with_key = gen_string(&mut rng, LOWER, 2, 8);
        let with_val = gen_string(&mut rng, PRINTABLE, 1, 16);
        let uses = |action: &str, key: &str, val: &str| {
            StepDef::uses(
                "run",
                action,
                &[("client_id", "${{ secrets.CLIENT }}"), (key, val)],
            )
        };
        let artifact = gen_string(&mut rng, LOWER, 2, 10);
        let from_step = gen_string(&mut rng, LOWER, 2, 10);

        // Shared by every step kind: the fields the per-job prefix and the
        // per-step tail absorb whatever the action is.
        let steps = [
            ("run", base.step.clone()),
            ("uses", uses(&action, &with_key, &with_val)),
            (
                "upload",
                StepDef::upload_artifact("run", &artifact, &from_step),
            ),
        ];
        for (kind, step) in steps {
            let base = Inputs {
                step,
                ..base.clone()
            };
            let key = base.key();
            assert_eq!(
                key,
                base.key(),
                "case {case} ({kind}): derivation not deterministic"
            );
            let mut variants = vec![
                ("tree", base.with(|i| i.tree.push('x'))),
                ("job", base.with(|i| i.job.push('x'))),
                ("step id", base.with(|i| i.step.id.push('x'))),
                // Every step kind, whether or not it references the secret.
                (
                    "secrets",
                    base.with(|i| i.secrets.get_mut("TOKEN").unwrap().push('x')),
                ),
                (
                    "new secret",
                    base.with(|i| {
                        i.secrets.insert("EXTRA".into(), "v".into());
                    }),
                ),
                ("stack", base.with(|i| i.stack = Digest::of_str("upgraded"))),
                (
                    "runner label",
                    base.with(|i| {
                        i.runner = Runner::hosted(0, &format!("{}x", i.runner.cache_identity()[1]))
                    }),
                ),
                (
                    "runner class",
                    base.with(|i| i.runner = Runner::self_hosted(0, i.runner.cache_identity()[1])),
                ),
                (
                    "prior",
                    base.with(|i| i.prior = Digest::of_str("other-chain")),
                ),
            ];
            match kind {
                "run" => variants.extend([
                    (
                        "command",
                        base.with(|i| i.step = StepDef::run("run", &format!("{command}!"))),
                    ),
                    (
                        "env",
                        base.with(|i| i.env_vars.get_mut("CI").unwrap().push('x')),
                    ),
                ]),
                "uses" => variants.extend([
                    (
                        "action",
                        base.with(|i| i.step = uses(&format!("{action}x"), &with_key, &with_val)),
                    ),
                    (
                        "with key",
                        base.with(|i| i.step = uses(&action, &format!("{with_key}x"), &with_val)),
                    ),
                    (
                        "with value",
                        base.with(|i| i.step = uses(&action, &with_key, &format!("{with_val}x"))),
                    ),
                    (
                        "secret behind with",
                        base.with(|i| i.secrets.get_mut("CLIENT").unwrap().push('x')),
                    ),
                    // Moving text across the key/value boundary is not a no-op.
                    (
                        "with boundary",
                        base.with(|i| {
                            let (head, last) = with_key.split_at(with_key.len() - 1);
                            i.step = uses(&action, head, &format!("{last}{with_val}"))
                        }),
                    ),
                ]),
                _ => variants.extend([
                    (
                        "artifact name",
                        base.with(|i| {
                            i.step =
                                StepDef::upload_artifact("run", &format!("{artifact}x"), &from_step)
                        }),
                    ),
                    (
                        "from_step",
                        base.with(|i| {
                            i.step =
                                StepDef::upload_artifact("run", &artifact, &format!("{from_step}x"))
                        }),
                    ),
                ]),
            }
            for (field, perturbed) in variants {
                assert_ne!(
                    key, perturbed,
                    "case {case} ({kind}): perturbing {field} must change the step key"
                );
            }
        }
    }
}

/// Plan path ≡ definition. The engine keeps the run-invariant half of every
/// step key between runs; whatever is done to it between two pushes —
/// secrets stored in the job's own scopes or for an unrelated tenant, `env:`
/// vars set, stack fingerprints moved or re-set, another self-hosted runner
/// registered for a site a job selects, another workflow installed — every
/// step it then records or replays is found under the key computed from
/// scratch with the public API from the state at that moment, and the entry
/// found is the very outcome the run holds.
#[test]
fn kept_job_plans_derive_the_keys_the_definition_derives() {
    use hpcci::cas::Digest;
    use hpcci::ci::action::NullDriver;
    use hpcci::ci::cache::chain_digest;
    use hpcci::ci::workflow::RunsOn;
    use hpcci::ci::{
        Action, CacheMode, CiEngine, Environment, JobDef, JobKeyPrefix, ResolvedAction, Secret,
        SecretScope, StepCache, StepContext, StepDef, StepKey, StepResult, TriggerEvent,
        WorkflowDef,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;
    const REPO: &str = "org/app";
    const SITES: [&str; 2] = ["anvil", "faster"];
    /// The inputs in digits and punctuation only: no secret (lowercase
    /// letters here) occurs in it, so masking leaves it as written.
    fn spelled(inputs: &BTreeMap<String, String>) -> String {
        format!("{:?}", format!("{inputs:?}").as_bytes())
    }
    struct Echo;
    impl Action for Echo {
        fn run(&self, ctx: &mut StepContext<'_>) -> StepResult {
            StepResult::ok(spelled(&ctx.inputs))
        }
    }
    let gen_workflow = |rng: &mut DetRng, name: &str| {
        let mut wf = WorkflowDef::new(name).on_event(TriggerEvent::push_any());
        for j in 0..rng.range_u64(1, 4) {
            let site = pick(rng, &SITES);
            let mut job = JobDef::new(&format!("job-{j}"));
            if rng.chance(0.6) {
                job = job.with_environment(&format!("env-{site}"));
            }
            if rng.chance(0.4) {
                job.runs_on = RunsOn::SelfHosted {
                    site: site.to_string(),
                };
            }
            for k in 0..rng.range_u64(1, 4) {
                let id = format!("s{j}{k}");
                // Every step succeeds, so a run records every step in order.
                job = job.with_step(match rng.range_u64(0, 4) {
                    0 => StepDef::run(&id, "make ${{ secrets.TOKEN }} MODE=${{ env.MODE }}"),
                    3 if k > 0 => {
                        StepDef::upload_artifact(&id, &format!("{id}-log"), &format!("s{j}0"))
                    }
                    1 | 3 => StepDef::run(&id, &format!("make target-{k}")),
                    _ => StepDef::uses(
                        &id,
                        "acme/echo@v1",
                        &[
                            ("endpoint_uuid", &format!("ep-{}", pick(rng, &SITES))),
                            ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
                            ("mode", "${{ env.MODE }}"),
                        ],
                    ),
                });
            }
            wf = wf.with_job(job);
        }
        wf
    };

    let (mut hits, mut misses, mut pushes) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = case_rng("job_plans", case);
        let cache = StepCache::new();
        let mut e = CiEngine::new();
        e.set_step_cache(cache.clone(), CacheMode::Replay);
        e.set_cache_salt(Digest::of_str(&gen_string(&mut rng, LOWER, 0, 8)));
        e.register_action("acme/echo@v1", Arc::new(Echo));
        for site in SITES {
            e.add_environment(REPO, Environment::new(&format!("env-{site}")));
            e.runners.add_self_hosted(site);
        }
        let mut workflows = vec![gen_workflow(&mut rng, "wf-0")];
        e.add_workflow(REPO, workflows[0].clone());
        // The test's own copy of the repo's `env:` block: the engine has no
        // getter, and the definition needs it to interpolate.
        let mut env_vars: BTreeMap<String, String> = BTreeMap::new();

        for _ in 0..rng.range_u64(12, 30) {
            let value = gen_string(&mut rng, LOWER, 1, 3);
            match rng.range_u64(0, 16) {
                0 => {
                    let scope = match rng.range_u64(0, 3) {
                        0 => SecretScope::Organization("org".into()),
                        1 => SecretScope::Repository(REPO.into()),
                        _ => SecretScope::Environment {
                            repo: REPO.into(),
                            environment: format!("env-{}", pick(&mut rng, &SITES)),
                        },
                    };
                    let name = pick(&mut rng, &["TOKEN", "GLOBUS_SECRET", "UNUSED"]);
                    e.secrets.put(scope, Secret::new(name, &value));
                }
                1 => e.secrets.put(
                    SecretScope::Repository("tenant/other".into()),
                    Secret::new("TOKEN", &value),
                ),
                2 => {
                    let name = pick(&mut rng, &["MODE", "UNREAD"]);
                    e.set_env_var(REPO, name, &value);
                    env_vars.insert(name.to_string(), value);
                }
                3 => e.set_env_var("tenant/other", "MODE", &value),
                4 => {
                    let endpoint = pick(&mut rng, &["ep-anvil", "ep-faster", "*", "ep-elsewhere"]);
                    e.set_stack_fingerprint(endpoint, Digest::of_str(&value));
                }
                5 => {
                    e.runners.add_self_hosted(pick(&mut rng, &SITES));
                }
                6 if workflows.len() < 3 => {
                    let wf = gen_workflow(&mut rng, &format!("wf-{}", workflows.len()));
                    e.add_workflow(REPO, wf.clone());
                    workflows.push(wf);
                }
                _ => {
                    // Few distinct commits, so most pushes meet a warm cache.
                    let commit = format!("commit-{}", rng.range_u64(0, 3));
                    let before = cache.stats();
                    let runs = e.on_push(REPO, "main", &commit, SimTime::ZERO).unwrap();
                    e.execute_ready(&mut NullDriver::new());
                    let after = cache.stats();
                    hits += after.hits - before.hits;
                    misses += after.misses - before.misses;
                    pushes += 1;
                    assert_eq!(runs.len(), workflows.len());
                    for (id, wf) in runs.iter().zip(&workflows) {
                        let mut recorded = e.run(*id).unwrap().steps.iter();
                        let mut chain = e.cache_salt();
                        for job in wf.job_order().unwrap() {
                            let secrets = e.secrets.resolve("org", REPO, job.environment.as_deref());
                            let runner = e.runners.select(&job.runs_on).unwrap();
                            let prefix = JobKeyPrefix::new(&commit, &job.id, &secrets, runner);
                            for step in &job.steps {
                                let action = step.action.resolve(&secrets, &env_vars);
                                let stack = action
                                    .input("endpoint_uuid")
                                    .and_then(|ep| e.stack_fingerprint(ep))
                                    .or(e.stack_fingerprint("*"))
                                    .unwrap_or(Digest::NONE);
                                let key = StepKey::derive(&prefix, &step.id, &action, stack, chain);
                                let rec = recorded.next().expect("every step ran");
                                assert_eq!((&*rec.job, &*rec.step), (&*job.id, &*step.id));
                                // `Echo` spelled out the `ctx.inputs` the plan lent it.
                                if let ResolvedAction::Uses { with, .. } = &action {
                                    let inputs: BTreeMap<String, String> =
                                        with.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
                                    assert_eq!(
                                        rec.stdout,
                                        spelled(&inputs),
                                        "case {case}: {}/{} of {id} ran with other inputs",
                                        job.id,
                                        step.id
                                    );
                                }
                                let entry = cache.lookup(&key).unwrap_or_else(|| {
                                    panic!(
                                        "case {case}: {}/{} of {id} is not under its from-scratch key",
                                        job.id, step.id
                                    )
                                });
                                assert!(
                                    Arc::ptr_eq(&entry.outcome, &rec.outcome),
                                    "case {case}: {}/{} of {id} holds another key's outcome",
                                    job.id,
                                    step.id
                                );
                                chain = chain_digest(key.0, entry.result);
                            }
                        }
                        assert!(recorded.next().is_none());
                    }
                }
            }
        }
    }
    // The generator reaches both sides: plans reused across pushes (hits)
    // and plans that had to be rebuilt (misses after the first push).
    assert!(
        pushes > 200 && hits > 1_000 && misses > 1_000,
        "{pushes} {hits} {misses}"
    );
}

/// Step outputs: the flat sorted list is the `BTreeMap<String, String>` it
/// replaced — same answers to `insert`, `get` and `contains_key` under
/// repeated keys, same iteration order, and so the same `result_digest` as an
/// outcome built from the map.
#[test]
fn outputs_match_the_btreemap_model() {
    use hpcci::ci::cache::result_digest;
    use hpcci::ci::{Outputs, StepOutcome};
    use std::collections::BTreeMap;
    let outcome = |outputs: Outputs| StepOutcome {
        success: true,
        outputs,
        ..StepOutcome::default()
    };
    for case in 0..CASES {
        let mut rng = case_rng("outputs", case);
        let (mut flat, mut model) = (Outputs::default(), BTreeMap::new());
        for _ in 0..rng.range_u64(0, 24) {
            // Few distinct names, the empty one included, so they repeat.
            let key = gen_string(&mut rng, "abc", 0, 2);
            let value = gen_string(&mut rng, LOWER, 0, 6);
            assert_eq!(flat.insert(key.clone(), value.clone()), model.insert(key, value));
            let probe = gen_string(&mut rng, "abc", 0, 2);
            assert_eq!(flat.get(&probe), model.get(&probe), "case {case}");
            assert_eq!(flat.contains_key(&probe), model.contains_key(&probe), "case {case}");
            assert!(flat == model, "case {case}: {flat:?} {model:?}");
            assert!(flat.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v))), "case {case}");
        }
        let from_map = Outputs::from(model);
        assert_eq!(flat, from_map);
        assert_eq!(result_digest(&outcome(flat)), result_digest(&outcome(from_map)));
    }
}

/// What hoisting the job-invariant key fields out of the step loop could
/// break. Two jobs that differ in nothing but their environment's secrets
/// must miss on every step — also the steps that never mention a secret —
/// and a secret rotated between two runs must reach the next run's keys:
/// a job's absorbed fields are carried from run to run only while its
/// resolved-secrets `Arc` is the same object, and a `put` drops them all.
#[test]
fn job_secrets_reach_every_step_key_and_rotation_rebuilds_the_prefix() {
    use hpcci::ci::action::NullDriver;
    use hpcci::ci::{
        CacheMode, CiEngine, Environment, JobDef, Secret, SecretScope, StepCache, StepDef,
        TriggerEvent, WorkflowDef,
    };
    const REPO: &str = "org/app";
    for case in 0..CASES {
        let mut rng = case_rng("job_prefix", case);
        // Same job id, same steps, same runner; only the environment — and
        // through it the resolved secrets — differs between the repo's two
        // workflows, which share one cache.
        let steps = rng.range_u64(1, 5);
        let job = |env: &str| {
            let mut job = JobDef::new("test").with_environment(env);
            for k in 0..steps {
                job = job.with_step(StepDef::run(&format!("s{k}"), &format!("make target-{k}")));
            }
            job.with_step(StepDef::upload_artifact("save", "log", "s0"))
        };
        let cache = StepCache::new();
        let mut e = CiEngine::new();
        e.set_step_cache(cache.clone(), CacheMode::Replay);
        for env in ["site-a", "site-b"] {
            e.add_environment(REPO, Environment::new(env));
            e.secrets.put(
                SecretScope::Environment {
                    repo: REPO.into(),
                    environment: env.into(),
                },
                Secret::new(
                    "GLOBUS_SECRET",
                    &format!("{env}-{}", gen_string(&mut rng, LOWER, 6, 12)),
                ),
            );
            e.add_workflow(
                REPO,
                WorkflowDef::new(env)
                    .on_event(TriggerEvent::WorkflowDispatch)
                    .with_job(job(env)),
            );
        }
        let per_run = steps + 1;
        let push = |e: &mut CiEngine, workflow: &str| {
            let before = cache.stats();
            e.dispatch(REPO, workflow, "main", "commit-1", SimTime::ZERO)
                .unwrap();
            e.execute_ready(&mut NullDriver::new());
            let after = cache.stats();
            (after.hits - before.hits, after.misses - before.misses)
        };
        assert_eq!(push(&mut e, "site-a"), (0, per_run), "case {case}: cold");
        assert_eq!(
            push(&mut e, "site-b"),
            (0, per_run),
            "case {case}: a job under other secrets replayed site-a's steps"
        );
        assert_eq!(push(&mut e, "site-a"), (per_run, 0), "case {case}: warm");

        e.secrets.put(
            SecretScope::Environment {
                repo: REPO.into(),
                environment: "site-a".into(),
            },
            Secret::new("GLOBUS_SECRET", &gen_string(&mut rng, LOWER, 13, 16)),
        );
        assert_eq!(
            push(&mut e, "site-a"),
            (0, per_run),
            "case {case}: the rotated secret did not reach the next run's keys"
        );
        assert_eq!(
            push(&mut e, "site-a"),
            (per_run, 0),
            "case {case}: warm again"
        );
        assert_eq!(
            push(&mut e, "site-b"),
            (per_run, 0),
            "case {case}: site-b untouched"
        );
    }
}

/// The event queue equals a reference priority-queue model under arbitrary
/// interleavings of pushes and deadline-bounded pops: same-timestamp bursts,
/// pushes behind the deadline or behind the last popped instant (which a
/// pop phase that stops early leaves partly drained), and events days of
/// virtual time ahead all pop in exact (time, insertion) order.
#[test]
fn wheel_matches_reference_model_under_interleaving() {
    const FAR_US: u64 = 1 << 36;
    for case in 0..CASES {
        let mut rng = case_rng("wheel_model", case);
        let mut q = EventQueue::new();
        // Reference model: (at_us, insertion seq, id); pops take the
        // (at, seq)-minimum entry with at <= deadline.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut deadline = 0u64;
        let mut last_popped = 0u64;
        for _ in 0..rng.range_u64(10, 120) {
            if rng.chance(0.6) {
                let at = match rng.range_u64(0, 10) {
                    0 => {
                        let behind = if rng.chance(0.5) { deadline } else { last_popped };
                        behind.saturating_sub(rng.range_u64(0, 50))
                    }
                    1 | 2 => deadline + FAR_US * rng.range_u64(1, 4) + rng.range_u64(0, 1000),
                    _ => deadline + rng.range_u64(0, 5_000),
                };
                for _ in 0..rng.range_u64(1, 5) {
                    q.push(SimTime::from_micros(at), seq);
                    model.push((at, seq, seq));
                    seq += 1;
                }
            } else {
                deadline += rng.range_u64(0, 3_000);
                // Half the pop phases drain everything due; the others stop
                // after a few pops, mid-instant if that is where they land.
                let pops = if rng.chance(0.5) { u64::MAX } else { rng.range_u64(0, 6) };
                for _ in 0..pops {
                    let got = q.pop_due(SimTime::from_micros(deadline));
                    let want_ix = model
                        .iter()
                        .enumerate()
                        .filter(|(_, (at, _, _))| *at <= deadline)
                        .min_by_key(|(_, (at, s, _))| (*at, *s))
                        .map(|(i, _)| i);
                    match (got, want_ix) {
                        (None, None) => break,
                        (Some((at, v)), Some(i)) => {
                            let (wat, _, wid) = model.remove(i);
                            assert_eq!(
                                (at.as_micros(), v),
                                (wat, wid),
                                "case {case}: wrong event at deadline {deadline}"
                            );
                            last_popped = wat;
                        }
                        (got, want) => panic!(
                            "case {case}: queue popped {got:?} but model expected index {want:?}"
                        ),
                    }
                }
                assert_eq!(
                    q.next_time().map(SimTime::as_micros),
                    model.iter().map(|&(at, ..)| at).min(),
                    "case {case}: next_time diverged from model minimum"
                );
            }
        }
        let rest = q.drain_due(SimTime::FAR_FUTURE);
        model.sort_unstable_by_key(|&(at, s, _)| (at, s));
        assert_eq!(rest.len(), model.len(), "case {case}: drain lost events");
        for ((at, v), (wat, _, wid)) in rest.into_iter().zip(model) {
            assert_eq!((at.as_micros(), v), (wat, wid), "case {case}: drain order");
        }
    }
}

/// `push_run(times, v)` is exactly `times.len()` consecutive `push`es of `v`,
/// against the same reference model: runs interleaved with single pushes and
/// with pop phases that stop mid-instant, unsorted instants, duplicates
/// within a run and across runs and singles, empty runs, and runs whose
/// first instant lies behind the last popped one.
#[test]
fn runs_match_reference_model_under_interleaving() {
    for case in 0..CASES {
        let mut rng = case_rng("run_model", case);
        let mut q = EventQueue::new();
        // Reference model: (at_us, insertion seq, value).
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut deadline = 0u64;
        let mut last_popped = 0u64;
        // Coarse instants, so equal ones are common.
        let instant = |rng: &mut DetRng, from: u64| from + 250 * rng.range_u64(0, 12);
        for value in 0..rng.range_u64(10, 120) {
            match rng.range_u64(0, 10) {
                0..=3 => {
                    let n = rng.range_u64(0, 10);
                    let behind = rng.chance(0.25);
                    let mut times: Vec<u64> = (0..n).map(|_| instant(&mut rng, deadline)).collect();
                    if behind && n > 0 {
                        times[0] = last_popped.saturating_sub(rng.range_u64(0, 50));
                    }
                    q.push_run(times.iter().map(|&at| SimTime::from_micros(at)), value);
                    for at in times {
                        model.push((at, seq, value));
                        seq += 1;
                    }
                }
                4 | 5 => {
                    let at = instant(&mut rng, deadline);
                    q.push(SimTime::from_micros(at), value);
                    model.push((at, seq, value));
                    seq += 1;
                }
                _ => {
                    deadline += rng.range_u64(0, 2_000);
                    let pops = if rng.chance(0.5) { u64::MAX } else { rng.range_u64(0, 6) };
                    for _ in 0..pops {
                        let got = q.pop_due(SimTime::from_micros(deadline));
                        let want_ix = model
                            .iter()
                            .enumerate()
                            .filter(|(_, (at, _, _))| *at <= deadline)
                            .min_by_key(|(_, (at, s, _))| (*at, *s))
                            .map(|(i, _)| i);
                        match (got, want_ix) {
                            (None, None) => break,
                            (Some((at, v)), Some(i)) => {
                                let (wat, _, wv) = model.remove(i);
                                assert_eq!(
                                    (at.as_micros(), v),
                                    (wat, wv),
                                    "case {case}: wrong event at deadline {deadline}"
                                );
                                last_popped = wat;
                            }
                            (got, want) => panic!(
                                "case {case}: queue popped {got:?} but model expected index {want:?}"
                            ),
                        }
                    }
                    assert_eq!(
                        q.next_time().map(SimTime::as_micros),
                        model.iter().map(|&(at, ..)| at).min(),
                        "case {case}: next_time diverged from model minimum"
                    );
                }
            }
            assert_eq!(q.len(), model.len(), "case {case}: len counts run elements");
        }
        let rest = q.drain_due(SimTime::FAR_FUTURE);
        model.sort_unstable_by_key(|&(at, s, _)| (at, s));
        assert_eq!(rest.len(), model.len(), "case {case}: drain lost events");
        for ((at, v), (wat, _, wv)) in rest.into_iter().zip(model) {
            assert_eq!((at.as_micros(), v), (wat, wv), "case {case}: drain order");
        }
        assert!(q.is_empty(), "case {case}");
    }
}

/// The rolling fold, which hashes each line's fixed columns through a table
/// per shared (component, kind) pair, lands on FNV-1a over the rendered
/// bytes: more pairs than the trace shares, names wider than their columns
/// and non-ASCII ones, the same text under a `Static`, an interned and a
/// standalone handle, at every cap.
#[test]
fn rolling_fold_is_fnv_over_rendered_bytes_across_pair_tables() {
    use hpcci::sim::{Sym, Trace};
    const NAMES: [&str; 6] = [
        "faas.cloud",
        "",
        "faas.ep.anvil-login-0001",
        "faas.mep.a-site-name-wider-than-the-column",
        "faas.µ-épé",
        "日本語のコンポーネント名は二十四文字より長い",
    ];
    const KINDS: [&str; 4] = ["task.submit", "task.transition-blocked", "種類", "k"];
    let fnv = |bytes: &[u8]| {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    };
    for case in 0..CASES {
        let mut rng = case_rng("rolling_fold", case);
        let cap = rng.range_u64(2, 40) as usize;
        let mut rolling = Trace::new();
        rolling.set_rolling(cap);
        let mut whole = Trace::new();
        let mut at = 0;
        for i in 0..rng.range_u64(0, 600) {
            at += rng.range_u64(0, 2_000_000);
            let name = |rng: &mut DetRng, names: &[&'static str], t: &mut Trace| -> Sym {
                let text = names[rng.range_u64(0, names.len() as u64) as usize];
                match rng.range_u64(0, 4) {
                    0 => Sym::Static(text),
                    1 => Sym::from(text),
                    2 => t.intern(&format!("{text}.{}", rng.range_u64(0, 24))),
                    _ => t.intern(text),
                }
            };
            let component = name(&mut rng, &NAMES, &mut rolling);
            let kind = name(&mut rng, &KINDS, &mut rolling);
            let detail = format!("task-{i:08x} détail");
            whole.record(SimTime::from_micros(at), &component, &kind, detail.as_str());
            rolling.record(SimTime::from_micros(at), component, kind, detail);
        }
        assert_eq!(rolling.recorded(), whole.recorded(), "case {case}");
        assert!(rolling.len() < cap.max(2), "case {case}: window over the cap");
        assert_eq!(
            rolling.rolling_digest(),
            fnv(whole.render().as_bytes()),
            "case {case} cap {cap}"
        );
    }
}

/// Same-timestamp bursts survive interleaved non-due probes and mid-drain
/// tail pushes: equal-time events always pop in exact insertion order.
#[test]
fn wheel_same_timestamp_bursts_stay_fifo() {
    use std::collections::VecDeque;
    for case in 0..CASES {
        let mut rng = case_rng("wheel_fifo", case);
        let mut q = EventQueue::new();
        let t = rng.range_u64(1, 1 << 20);
        let mut expected: VecDeque<u64> = VecDeque::new();
        let mut next_id = 0u64;
        for _ in 0..rng.range_u64(2, 40) {
            q.push(SimTime::from_micros(t), next_id);
            expected.push_back(next_id);
            next_id += 1;
            // A probe before the burst is due must see nothing.
            if rng.chance(0.3) {
                assert!(
                    q.pop_due(SimTime::from_micros(t - 1)).is_none(),
                    "case {case}: premature pop"
                );
            }
        }
        while let Some((at, v)) = q.pop_due(SimTime::from_micros(t)) {
            assert_eq!(at.as_micros(), t, "case {case}");
            assert_eq!(Some(v), expected.pop_front(), "case {case}: FIFO violated");
            // Pushes landing mid-drain at the same timestamp join the tail.
            if !expected.is_empty() && rng.chance(0.2) {
                q.push(SimTime::from_micros(t), next_id);
                expected.push_back(next_id);
                next_id += 1;
            }
        }
        assert!(expected.is_empty(), "case {case}: events left behind");
    }
}

/// Events days of virtual time ahead (multiples of 2^36 µs) come back in
/// exact (time, insertion) order, mixed with near ones and drained in two
/// stages.
#[test]
fn wheel_far_future_overflow_promotes_in_order() {
    const FAR_US: u64 = 1 << 36;
    for case in 0..CASES {
        let mut rng = case_rng("wheel_overflow", case);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..rng.range_u64(1, 30) {
            let at = if rng.chance(0.5) {
                rng.range_u64(0, 10_000)
            } else {
                FAR_US * rng.range_u64(1, 5) + rng.range_u64(0, 10_000)
            };
            // Bursts at one far timestamp must also come back FIFO.
            for _ in 0..rng.range_u64(1, 3) {
                q.push(SimTime::from_micros(at), seq);
                model.push((at, seq));
                seq += 1;
            }
        }
        model.sort_unstable();
        // Drain in stages: first everything near, then the rest.
        let mut drained = q.drain_due(SimTime::from_micros(FAR_US - 1));
        drained.extend(q.drain_due(SimTime::FAR_FUTURE));
        assert_eq!(drained.len(), model.len(), "case {case}: events lost");
        for ((at, v), (wat, wseq)) in drained.into_iter().zip(model) {
            assert_eq!(
                (at.as_micros(), v),
                (wat, wseq),
                "case {case}: broke (time, insertion) order"
            );
        }
        assert!(q.is_empty(), "case {case}");
    }
}

/// Scenario generation is a pure function of `(seed, index)`: the same
/// seed yields byte-identical TOML, out-of-order generation doesn't matter,
/// and distinct seeds yield distinct documents.
#[test]
fn scenario_generation_is_seed_deterministic() {
    use hpcci::scen::ScenarioGen;
    for case in 0..CASES {
        let mut rng = case_rng("scen_gen_seed", case);
        let seed = rng.range_u64(0, u64::MAX / 2);
        let index = rng.range_u64(0, 64);
        let a = ScenarioGen::new(seed).generate(index).to_toml();
        let b = ScenarioGen::new(seed).generate(index).to_toml();
        assert_eq!(a, b, "case {case}: seed {seed} index {index} not byte-stable");
        let other = ScenarioGen::new(seed + 1 + rng.range_u64(0, 10_000))
            .generate(index)
            .to_toml();
        assert_ne!(a, other, "case {case}: distinct generator seeds collided");
    }
}

/// Every generated spec round-trips through the TOML dialect: parse of
/// serialize is the identity, serialization is a fixed point, and the
/// digest survives the trip.
#[test]
fn scenario_specs_round_trip_through_toml() {
    use hpcci::scen::{ScenarioGen, ScenarioSpec};
    for case in 0..CASES {
        let mut rng = case_rng("scen_roundtrip", case);
        let gen = ScenarioGen::new(rng.range_u64(0, u64::MAX / 2));
        let spec = gen.generate(rng.range_u64(0, 32));
        spec.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
        let text = spec.to_toml();
        let parsed = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(parsed, spec, "case {case}: parse ∘ serialize ≠ id");
        assert_eq!(parsed.to_toml(), text, "case {case}: serialization not a fixed point");
        assert_eq!(parsed.digest(), spec.digest(), "case {case}: digest changed");
    }
}

/// Perturbing any single generator knob changes every generated spec's
/// digest — the `[generator]` provenance table guarantees it even when the
/// sampled values happen to coincide.
#[test]
fn scenario_knob_perturbations_change_digests() {
    use hpcci::scen::{GenConfig, ScenarioGen};
    type Mutator = fn(&mut GenConfig);
    // One mutator per knob; +1 keeps every `min <= max` pair valid.
    let mutators: Vec<(&str, Mutator)> = vec![
        ("sites_min", |c| c.sites_min += 1),
        ("sites_max", |c| c.sites_max += 1),
        ("endpoints_per_site_max", |c| c.endpoints_per_site_max += 1),
        ("multi_user_pct", |c| c.multi_user_pct += 1),
        ("steps_per_job_max", |c| c.steps_per_job_max += 1),
        ("tests_min", |c| c.tests_min += 1),
        ("tests_max", |c| c.tests_max += 1),
        ("failing_pct", |c| c.failing_pct += 1),
        ("task_ms_min", |c| c.task_ms_min += 1),
        ("task_ms_max", |c| c.task_ms_max += 1),
        ("pushes_max", |c| c.pushes_max += 1),
        ("gap_secs_min", |c| c.gap_secs_min += 1),
        ("gap_secs_max", |c| c.gap_secs_max += 1),
        ("burstiness_max_pct", |c| c.burstiness_max_pct += 1),
        ("cache_record_pct", |c| c.cache_record_pct += 1),
        ("fault_pct", |c| c.fault_pct += 1),
        ("chaos_count_max", |c| c.chaos_count_max += 1),
        ("repo_files_max", |c| c.repo_files_max += 1),
        ("poisson_pct", |c| c.poisson_pct += 1),
        ("diurnal_pct", |c| c.diurnal_pct += 1),
        ("trace_pct", |c| c.trace_pct += 1),
    ];
    // Count against a config with every knob set nonzero: the process knobs
    // are omitted from provenance at their 0 default, by design.
    let all_set = GenConfig {
        poisson_pct: 1,
        diurnal_pct: 1,
        trace_pct: 1,
        ..Default::default()
    };
    assert_eq!(
        mutators.len(),
        all_set.knobs().len(),
        "a knob is missing its perturbation case"
    );
    for case in 0..CASES {
        let mut rng = case_rng("scen_knobs", case);
        let seed = rng.range_u64(0, u64::MAX / 2);
        let (name, mutate) = &mutators[case as usize % mutators.len()];
        let mut cfg = GenConfig::default();
        mutate(&mut cfg);
        let base = ScenarioGen::new(seed);
        let tweaked = ScenarioGen::with_config(seed, cfg);
        for index in 0..4 {
            assert_ne!(
                base.generate(index).digest(),
                tweaked.generate(index).digest(),
                "case {case}: knob {name} did not reach digest at index {index}"
            );
        }
    }
}

/// Chaos determinism, end to end: the same seed with the same fault plan
/// replays the whole federation bit-identically — run log, functional
/// trace, and chaos trace all byte-equal across replays.
#[test]
fn same_seed_and_fault_plan_replay_bit_identically() {
    use hpcci::scenarios::psij_scenario_with_faults;
    use hpcci::sim::FaultPlan;
    for case in 0..4 {
        let mut rng = case_rng("chaos_replay", case);
        let seed = rng.range_u64(0, 1 << 32);
        let plan = FaultPlan::randomized(seed, SimDuration::from_mins(10), 3, &["ep-anvil"]);
        let observe = |plan: FaultPlan| {
            let mut s = psij_scenario_with_faults(seed, false, plan);
            let runs = s.push_approve_run("vhayot");
            let run = s.fed.engine.run(runs[0]).unwrap().clone();
            let functional = s.fed.cloud.lock().trace.render();
            (run.full_log(), functional, s.fed.fault_trace().render())
        };
        let a = observe(plan.clone());
        let b = observe(plan);
        assert_eq!(a, b, "case {case} (seed {seed}): replay diverged");
    }
}
