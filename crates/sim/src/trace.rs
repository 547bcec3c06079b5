//! Structured simulation trace.
//!
//! Every substrate appends [`TraceEvent`]s to a shared [`Trace`]. The trace
//! serves two purposes: it is the raw material for provenance records
//! (§5 of the paper argues provenance + re-execution substitutes for resource
//! access), and it regenerates the paper's Fig. 2 system-overview as a
//! component/message timeline.
//!
//! ## Allocation discipline
//!
//! Component and kind names repeat millions of times across a long run
//! (`"faas.cloud"`, `"task.submit"`, …), so [`TraceEvent`] stores them as
//! interned [`Sym`]s rather than `String`s: a `&'static str` is wrapped for
//! free, and owned strings are deduplicated through the trace's [`Interner`]
//! so each distinct name is allocated exactly once per trace. Only `detail`
//! — genuinely free-form — stays a `String`.

use crate::time::SimTime;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An interned string: either a `'static` literal (zero-cost) or a shared,
/// deduplicated allocation handed out by an [`Interner`]. Dereferences to
/// `str`; equality, ordering and hashing are by content.
#[derive(Clone)]
pub enum Sym {
    /// Literal fast path: no allocation, no interner consult.
    Static(&'static str),
    /// Interned allocation, shared by every event using the same name.
    Shared(Arc<str>),
}

impl Sym {
    pub fn as_str(&self) -> &str {
        match self {
            Sym::Static(s) => s,
            Sym::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Sym {}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl std::borrow::Borrow<str> for Sym {
    /// Lets `Sym`-keyed maps be probed with a plain `&str` — no temporary
    /// `Sym` (and no allocation) per lookup. Sound because `Eq`/`Ord`/`Hash`
    /// are all by content, exactly like `str`'s.
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Sym {
    /// A standalone shared symbol — one allocation, no interner. For cold
    /// paths and tests; hot paths should intern once and clone the `Sym`.
    fn from(s: &str) -> Sym {
        Sym::Shared(Arc::from(s))
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::Shared(Arc::from(s))
    }
}

impl From<&Sym> for Sym {
    /// Cheap: clones the handle (a pointer bump for `Shared`), never the text.
    fn from(s: &Sym) -> Sym {
        s.clone()
    }
}

/// Deduplicating string cache: each distinct name is allocated once and
/// every subsequent intern of the same text reuses the `Arc`.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: BTreeSet<Arc<str>>,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`: returns a [`Sym`] sharing the single allocation for this
    /// text (allocating it on first sight).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(existing) = self.strings.get(s) {
            return Sym::Shared(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        self.strings.insert(arc.clone());
        Sym::Shared(arc)
    }

    /// Distinct strings held.
    pub fn unique(&self) -> usize {
        self.strings.len()
    }
}

/// Conversion into an interned [`Sym`]. `&'static str` takes the zero-cost
/// literal path; owned strings go through the interner.
pub trait IntoSym {
    fn into_sym(self, interner: &mut Interner) -> Sym;
}

impl IntoSym for &'static str {
    fn into_sym(self, _interner: &mut Interner) -> Sym {
        Sym::Static(self)
    }
}

impl IntoSym for String {
    fn into_sym(self, interner: &mut Interner) -> Sym {
        interner.intern(&self)
    }
}

impl IntoSym for &String {
    fn into_sym(self, interner: &mut Interner) -> Sym {
        interner.intern(self)
    }
}

impl IntoSym for Sym {
    fn into_sym(self, _interner: &mut Interner) -> Sym {
        self
    }
}

impl IntoSym for &Sym {
    fn into_sym(self, _interner: &mut Interner) -> Sym {
        self.clone()
    }
}

/// One traced occurrence in the federation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub at_us: u64,
    /// Emitting component, e.g. `"faas.mep.anvil"` or `"ci.runner.hosted-3"`.
    pub component: Sym,
    /// Short machine-readable kind, e.g. `"task.submit"`.
    pub kind: Sym,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl TraceEvent {
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }

    /// The one definition of a trace line's bytes (no trailing newline):
    /// `[t+S.UUUUUUs] ` · component left-aligned to 24 chars · space · kind
    /// left-aligned to 20 · space · detail. The golden trace hashes pin these
    /// bytes, so every consumer is a sink of this writer: `Display`,
    /// [`Trace::render`] (a `String`) and the rolling digest (FNV-1a, which
    /// hashes the pieces in place — no line is ever materialised to be hashed).
    fn write_line<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("[")?;
        self.at().write_to(out)?;
        out.write_str("] ")?;
        write_padded(out, &self.component, 24)?;
        write_padded(out, &self.kind, 20)?;
        out.write_str(&self.detail)
    }
}

/// `s`, space-padded on the right to `width` *chars* (never truncated), then
/// the column-separating space — what `"{:<width} "` writes.
fn write_padded<W: fmt::Write>(out: &mut W, s: &str, width: usize) -> fmt::Result {
    const SPACES: &str = "                         ";
    out.write_str(s)?;
    let pad = width.saturating_sub(s.chars().count());
    out.write_str(&SPACES[..pad + 1])
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_line(f)
    }
}

/// An append-only event log. Cheap to clone handles are not provided here on
/// purpose: owners thread `&mut Trace` (or wrap it in a lock at the
/// federation layer) so ownership of the log is always explicit.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    interner: Interner,
    /// Opt-in rolling cap: when set, the oldest half of the log is folded
    /// into `fold_hash` and dropped whenever the live window reaches the
    /// cap, so a million-task run holds O(cap) events instead of O(run).
    cap: Option<usize>,
    /// Events folded out of the live window so far.
    folded: u64,
    /// Running FNV-1a digest over the rendered lines of folded events.
    fold_hash: u64,
    /// Detail buffers recycled from folded events (rolling mode only): hot
    /// recorders take one via [`Trace::detail_buf`], build the detail in
    /// place, and hand it back through [`Trace::record`], so steady-state
    /// detail strings stop allocating once the window has filled once.
    detail_pool: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Trace {
    pub fn new() -> Self {
        Trace::default()
    }

    /// Intern a name against this trace's interner without recording an
    /// event — lets hot components pre-compute their [`Sym`] once and pass
    /// it to every subsequent [`Trace::record`] for free.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// An empty `String` for building the next event's detail in: recycled
    /// from a folded-out event when one is available (rolling mode), fresh
    /// otherwise. Passing the built string to [`Trace::record`] moves it
    /// into the event, so the buffer's capacity keeps cycling through the
    /// window instead of being reallocated per event.
    pub fn detail_buf(&mut self) -> String {
        self.detail_pool.pop().unwrap_or_default()
    }

    /// Append an event.
    pub fn record(
        &mut self,
        at: SimTime,
        component: impl IntoSym,
        kind: impl IntoSym,
        detail: impl Into<String>,
    ) {
        let component = component.into_sym(&mut self.interner);
        let kind = kind.into_sym(&mut self.interner);
        self.events.push(TraceEvent {
            at_us: at.as_micros(),
            component,
            kind,
            detail: detail.into(),
        });
        if let Some(cap) = self.cap {
            if self.events.len() >= cap.max(2) {
                self.fold_oldest(cap.max(2) / 2);
            }
        }
    }

    /// Switch this trace into rolling mode with a live window of at most
    /// `cap` events: once the window fills, the oldest half is folded into a
    /// running digest (see [`Trace::rolling_digest`]) and dropped, bounding
    /// memory for million-task runs. Folding is a pure function of the
    /// recorded lines, so two identical runs fold to identical digests.
    ///
    /// Rolling traces are for leaf drivers (benchmarks, soak runs); the
    /// golden-trace paths keep the default unbounded mode.
    pub fn set_rolling(&mut self, cap: usize) {
        self.cap = Some(cap.max(2));
        if self.fold_hash == 0 {
            self.fold_hash = FNV_OFFSET;
        }
    }

    /// Events folded out of the live window so far (0 outside rolling mode).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Total events ever recorded: folded plus still live.
    pub fn recorded(&self) -> u64 {
        self.folded + self.events.len() as u64
    }

    /// FNV-1a digest over the rendered lines of every folded event, then
    /// every live event — a deterministic fingerprint of the whole log that
    /// is insensitive to where the fold boundaries happened to land.
    pub fn rolling_digest(&self) -> u64 {
        let h = if self.fold_hash == 0 { FNV_OFFSET } else { self.fold_hash };
        self.events.iter().fold(h, fold_line)
    }

    fn fold_oldest(&mut self, n: usize) {
        let n = n.min(self.events.len());
        for mut e in self.events.drain(..n) {
            self.fold_hash = fold_line(self.fold_hash, &e);
            // Recycle the detail allocation for a future `detail_buf` call.
            e.detail.clear();
            self.detail_pool.push(e.detail);
        }
        self.folded += n as u64;
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose kind matches `kind` exactly.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind.as_str() == kind)
    }

    /// Events emitted by components whose name starts with `prefix`.
    pub fn of_component<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.component.starts_with(prefix))
    }

    /// Render the whole trace as text, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.write_line(&mut out).expect("String sink cannot fail");
            out.push('\n');
        }
        out
    }
}

/// FNV-1a accumulator as a `fmt::Write` sink: what is written into it is
/// hashed in place, never stored. `default()` starts at the offset basis.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl fmt::Write for Fnv {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Fold one event's line (with trailing newline) into an FNV-1a accumulator
/// — the same bytes [`Trace::render`] would have contributed.
fn fold_line(h: u64, e: &TraceEvent) -> u64 {
    use fmt::Write;
    let mut sink = Fnv(h);
    e.write_line(&mut sink)
        .and_then(|()| sink.write_str("\n"))
        .expect("the hash sink never fails");
    sink.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(SimTime::from_secs(1), "ci.runner", "step.start", "run tox");
        t.record(SimTime::from_secs(2), "faas.cloud", "task.submit", "tid=1");
        t.record(SimTime::from_secs(3), "faas.cloud", "task.done", "tid=1");
        t
    }

    #[test]
    fn records_and_filters() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_kind("task.submit").count(), 1);
        assert_eq!(t.of_component("faas").count(), 2);
        assert_eq!(t.of_component("ci.runner").count(), 1);
    }

    #[test]
    fn render_contains_all_lines() {
        let t = sample();
        let s = t.render();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("task.submit"));
        assert!(s.contains("run tox"));
    }

    #[test]
    fn serde_roundtrip() {
        // Trace participates in provenance records, which serialize.
        let t = sample();
        let e = &t.events()[0];
        let cloned = e.clone();
        assert_eq!(*e, cloned);
        assert_eq!(e.at(), SimTime::from_secs(1));
    }

    #[test]
    fn interner_dedupes_owned_names() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.record(
                SimTime::from_secs(i),
                format!("faas.ep.{}", i % 4),
                "task.deliver",
                format!("tid={i}"),
            );
        }
        assert_eq!(t.len(), 100);
        assert_eq!(
            t.interner.unique(),
            4,
            "four endpoint names interned once each"
        );
        assert!(
            t.events().iter().all(|e| matches!(e.kind, Sym::Static(_))),
            "kind literal takes the static path"
        );
        // Events sharing a name share the allocation.
        let a = &t.events()[0].component;
        let b = &t.events()[4].component;
        match (a, b) {
            (Sym::Shared(x), Sym::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected shared syms, got {other:?}"),
        }
    }

    #[test]
    fn rolling_mode_bounds_memory_and_keeps_a_stable_digest() {
        let fill = |rolling: Option<usize>| {
            let mut t = Trace::new();
            if let Some(cap) = rolling {
                t.set_rolling(cap);
            }
            for i in 0..1_000u64 {
                t.record(SimTime::from_micros(i), "faas.cloud", "task.submit", format!("tid={i}"));
            }
            t
        };
        let bounded = fill(Some(64));
        assert!(bounded.len() < 64, "live window stays under the cap");
        assert_eq!(bounded.recorded(), 1_000);
        assert_eq!(bounded.folded() + bounded.len() as u64, 1_000);
        // The rolling digest covers the whole log and is independent of
        // where the fold boundaries landed.
        let unbounded = fill(None);
        assert_eq!(unbounded.len(), 1_000);
        assert_eq!(unbounded.folded(), 0);
        assert_eq!(bounded.rolling_digest(), unbounded.rolling_digest());
        assert_eq!(bounded.rolling_digest(), fill(Some(16)).rolling_digest());
        // And it actually depends on the contents.
        let mut other = fill(Some(64));
        other.record(SimTime::from_secs(9), "faas.cloud", "task.submit", "tid=x");
        assert_ne!(other.rolling_digest(), bounded.rolling_digest());
    }

    /// The format string the byte-level writer replaced, kept here as the
    /// reference the golden bytes were recorded with.
    fn reference_line(e: &TraceEvent) -> String {
        format!(
            "[t+{:.6}s] {:<24} {:<20} {}",
            e.at_us as f64 / 1e6,
            e.component.as_str(),
            e.kind.as_str(),
            e.detail
        )
    }

    #[test]
    fn line_writer_matches_the_reference_format() {
        let exactly_24 = "faas.ep.anvil-login-0001";
        let exactly_20 = "task.transition-blkd";
        assert_eq!((exactly_24.len(), exactly_20.len()), (24, 20));
        let names: [(&str, &str); 6] = [
            ("faas.cloud", "task.submit"),
            ("", ""),
            (exactly_24, exactly_20),
            (
                "faas.mep.a-site-name-wider-than-the-column",
                "task.transition-blocked",
            ),
            // Padding counts chars, not bytes: 9 and 4 chars, 13 and 8 bytes.
            ("faas.µ-épé", "tâche"),
            (
                "日本語のコンポーネント名は二十四文字より長いこともある",
                "種類",
            ),
        ];
        for (i, (component, kind)) in names.into_iter().enumerate() {
            let e = TraceEvent {
                at_us: 1_234_567 * i as u64,
                component: component.into(),
                kind: kind.into(),
                detail: format!("tid={i} détail"),
            };
            assert_eq!(e.to_string(), reference_line(&e), "{component:?} {kind:?}");
        }
    }

    /// One renderer, three sinks: the digest is FNV-1a over exactly the bytes
    /// `render()` returns, wherever the fold boundaries land.
    #[test]
    fn rolling_digest_is_fnv_over_rendered_bytes() {
        let fnv = |bytes: &[u8]| {
            bytes
                .iter()
                .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
        };
        for case in 0..24u64 {
            let mut rng = crate::DetRng::seed_from_u64(0xf01d ^ case);
            let n = rng.range_u64(0, 300);
            let mut at = 0;
            let events: Vec<(u64, String, String, String)> = (0..n)
                .map(|i| {
                    at += rng.range_u64(0, 3_000_000);
                    let component = "faas.ep.sité-".repeat(rng.range_u64(0, 4) as usize);
                    let kind = "task.k".repeat(rng.range_u64(0, 5) as usize);
                    (at, component, kind, format!("tid={i}"))
                })
                .collect();
            let fill = |cap: Option<usize>| {
                let mut t = Trace::new();
                if let Some(cap) = cap {
                    t.set_rolling(cap);
                }
                for (at, component, kind, detail) in &events {
                    t.record(SimTime::from_micros(*at), component, kind, detail.as_str());
                }
                t
            };
            let unbounded = fill(None);
            let rendered = unbounded.render();
            let reference: String = unbounded
                .events()
                .iter()
                .map(|e| reference_line(e) + "\n")
                .collect();
            assert_eq!(rendered, reference, "case {case}");
            for cap in [None, Some(2), Some(16), Some(64)] {
                assert_eq!(
                    fill(cap).rolling_digest(),
                    fnv(rendered.as_bytes()),
                    "case {case} cap {cap:?}"
                );
            }
        }
    }

    #[test]
    fn sym_compares_and_displays_by_content() {
        let mut interner = Interner::new();
        let a = interner.intern("faas.cloud");
        let b = Sym::Static("faas.cloud");
        assert_eq!(a, b);
        assert_eq!(a, *"faas.cloud");
        assert_eq!(format!("{a:>12}"), format!("{:>12}", "faas.cloud"));
        assert!(a.starts_with("faas"));
        let again = interner.intern("faas.cloud");
        assert_eq!(interner.unique(), 1);
        match (&a, &again) {
            (Sym::Shared(x), Sym::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected shared syms, got {other:?}"),
        }
    }

    #[test]
    fn pre_interned_syms_record_for_free() {
        let mut t = Trace::new();
        let component = t.intern("faas.ep.hot");
        t.record(SimTime::ZERO, &component, "task.deliver", "tid=1");
        t.record(SimTime::from_secs(1), component, "task.deliver", "tid=2");
        assert_eq!(t.interner.unique(), 1);
        assert_eq!(t.of_component("faas.ep.hot").count(), 2);
    }
}
