//! Structured simulation trace.
//!
//! Every substrate appends events to a shared [`Trace`]. The trace serves two
//! purposes: it is the raw material for provenance records (§5 of the paper
//! argues provenance + re-execution substitutes for resource access), and it
//! regenerates the paper's Fig. 2 system-overview as a component/message
//! timeline.
//!
//! ## Allocation discipline
//!
//! Component and kind names repeat millions of times across a long run
//! (`"faas.cloud"`, `"task.submit"`, …), so a record stores them as interned
//! [`Sym`]s rather than `String`s: a `&'static str` is wrapped for free, and
//! owned strings are deduplicated through the trace's [`Interner`] so each
//! distinct name is allocated exactly once per trace; the records naming
//! the same (component, kind) pair share one handle to it. Details —
//! genuinely free-form — are appended back to back to a text arena, and a
//! record keeps only where its detail ends: a 24-byte record and the
//! detail's bytes are all an event costs. [`TraceEvent`] is a borrowed view
//! of one record. A rolling trace keeps no events: it folds each line into
//! its digest as the line is recorded.

use crate::time::SimTime;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
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

    /// The same handle, not merely the same text: a `Static` by address and
    /// length, a `Shared` by allocation.
    pub fn is(&self, other: &Sym) -> bool {
        match (self, other) {
            (Sym::Static(a), Sym::Static(b)) => std::ptr::eq(*a, *b),
            (Sym::Shared(a), Sym::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
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
impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
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

/// A detail [`Trace::record`] stores or folds. A `&str` is read in place; a
/// `String` is read and its buffer kept as the spare [`Trace::detail_buf`]
/// lends, so a recorder that builds its details there stops allocating once
/// the spare has grown to its longest line.
pub trait IntoDetail {
    /// Hand the detail's text to `take`, then give a larger buffer to `spare`.
    fn take_into(self, spare: &mut String, take: impl FnOnce(&str));
}

impl IntoDetail for &str {
    fn take_into(self, _spare: &mut String, take: impl FnOnce(&str)) {
        take(self);
    }
}

impl IntoDetail for String {
    fn take_into(mut self, spare: &mut String, take: impl FnOnce(&str)) {
        take(&self);
        if self.capacity() > spare.capacity() {
            self.clear();
            *spare = self;
        }
    }
}

/// One traced occurrence in the federation: a view of a [`Trace`] record,
/// borrowed from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    /// Virtual timestamp.
    pub at_us: u64,
    /// Emitting component, e.g. `"faas.mep.anvil"` or `"ci.runner.hosted-3"`.
    pub component: &'a Sym,
    /// Short machine-readable kind, e.g. `"task.submit"`.
    pub kind: &'a Sym,
    /// Free-form human-readable detail.
    pub detail: &'a str,
}

impl TraceEvent<'_> {
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }

    /// The one definition of a trace line's bytes (no trailing newline):
    /// `[t+S.UUUUUUs] ` · component left-aligned to 24 chars · space · kind
    /// left-aligned to 20 · space · detail. The golden trace hashes pin these
    /// bytes, so every consumer is a sink of this writer: `Display`,
    /// [`Trace::render`] (a `String`) and the rolling digest (FNV-1a over
    /// the same pieces, which [`Trace::record`] hashes in place — no line is
    /// ever materialised to be hashed).
    fn write_line<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("[")?;
        self.at().write_to(out)?;
        write_columns(out, self.component, self.kind)?;
        out.write_str(self.detail)
    }
}

/// The fixed columns of a line: `] `, then component and kind padded to
/// their widths. A pair of names always writes the same bytes here, which is
/// what lets the fold hash them in one [`Jump`].
fn write_columns<W: fmt::Write>(out: &mut W, component: &str, kind: &str) -> fmt::Result {
    out.write_str("] ")?;
    write_padded(out, component, 24)?;
    write_padded(out, kind, 20)
}

/// `s`, space-padded on the right to `width` *chars* (never truncated), then
/// the column-separating space — what `"{:<width} "` writes.
fn write_padded<W: fmt::Write>(out: &mut W, s: &str, width: usize) -> fmt::Result {
    const SPACES: &str = "                         ";
    out.write_str(s)?;
    let pad = width.saturating_sub(s.chars().count());
    out.write_str(&SPACES[..pad + 1])
}

impl fmt::Display for TraceEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_line(f)
    }
}

/// One stored event: its detail is the arena text between the previous
/// record's `end` (or the start of the arena) and its own.
#[derive(Clone)]
struct Record {
    at_us: u64,
    names: Arc<Names>,
    end: usize,
}

/// A (component, kind) pair, shared by every record that names it.
struct Names {
    component: Sym,
    kind: Sym,
}

/// A pair in the trace's table: its names, shared by the records naming
/// it, and the fold's table for its fixed columns, built on its first fold.
#[derive(Clone)]
struct Pair {
    names: Arc<Names>,
    jump: Option<Jump>,
}

/// Distinct (component, kind) pairs a trace shares between its records, each
/// with a 2 KiB [`Jump`] once folded. A pair beyond them gets [`Names`] of its
/// own per stored record and folds through the byte loop.
const PAIRS: usize = 32;

/// An append-only event log. Cheap to clone handles are not provided here on
/// purpose: owners thread `&mut Trace` (or wrap it in a lock at the
/// federation layer) so ownership of the log is always explicit.
#[derive(Default, Clone)]
pub struct Trace {
    /// Stored records, oldest first, their details back to back in `text`.
    /// Both stay empty in rolling mode.
    records: Vec<Record>,
    text: String,
    /// The buffer [`Trace::detail_buf`] lends and [`Trace::record`] takes
    /// back.
    spare: String,
    interner: Interner,
    /// In rolling mode, the running FNV-1a digest over the rendered lines
    /// of every event so far: each line is folded in as it is recorded and
    /// nothing is stored, so a million-task run holds O(1) events instead
    /// of O(run).
    fold: Option<u64>,
    /// Events folded into `fold` so far.
    folded: u64,
    /// The shared pairs, found by the handles of their `Sym`s — which the
    /// table holds, so no address in it can be reused by another name.
    pairs: Vec<Pair>,
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
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

    /// An empty `String` for building the next event's detail in: the
    /// trace's spare buffer, which [`Trace::record`] takes back after storing
    /// or folding the detail, so its capacity is reused from event to event.
    pub fn detail_buf(&mut self) -> String {
        std::mem::take(&mut self.spare)
    }

    /// Append an event — in rolling mode, fold its line into the digest.
    pub fn record(
        &mut self,
        at: SimTime,
        component: impl IntoSym,
        kind: impl IntoSym,
        detail: impl IntoDetail,
    ) {
        let component = component.into_sym(&mut self.interner);
        let kind = kind.into_sym(&mut self.interner);
        let pair = self.pair(component, kind);
        if let Some(fold) = &mut self.fold {
            let mut digits = [0u8; 24];
            let h = fnv(fnv(*fold, b"["), at.digits(&mut digits));
            let h = match pair {
                Ok(i) => {
                    let Pair { names, jump } = &mut self.pairs[i];
                    let Names { component, kind } = &**names;
                    jump.get_or_insert_with(|| {
                        let columns =
                            infallible(String::new(), |s| write_columns(s, component, kind));
                        Jump::new(columns.as_bytes())
                    })
                    .apply(h)
                }
                Err((component, kind)) => {
                    infallible(Fnv(h), |s| write_columns(s, &component, &kind)).0
                }
            };
            detail.take_into(&mut self.spare, |d| {
                *fold = fnv(fnv(h, d.as_bytes()), b"\n");
            });
            self.folded += 1;
            return;
        }
        let names = match pair {
            Ok(i) => self.pairs[i].names.clone(),
            Err((component, kind)) => Arc::new(Names { component, kind }),
        };
        let text = &mut self.text;
        detail.take_into(&mut self.spare, |d| text.push_str(d));
        self.records.push(Record {
            at_us: at.as_micros(),
            names,
            end: self.text.len(),
        });
    }

    /// The slot of this pair of handles in the shared table, which takes
    /// the pair while it has room; the names back once it is full.
    fn pair(&mut self, component: Sym, kind: Sym) -> Result<usize, (Sym, Sym)> {
        if let Some(i) = self
            .pairs
            .iter()
            .position(|p| p.names.component.is(&component) && p.names.kind.is(&kind))
        {
            return Ok(i);
        }
        if self.pairs.len() == PAIRS {
            return Err((component, kind));
        }
        self.pairs.push(Pair {
            names: Arc::new(Names { component, kind }),
            jump: None,
        });
        Ok(self.pairs.len() - 1)
    }

    /// Switch this trace into rolling mode: what it holds is folded into a
    /// running digest (see [`Trace::rolling_digest`]) and dropped, and each
    /// later event is folded as it is recorded and never stored, bounding
    /// memory for million-task runs. Folding is a pure function of the
    /// recorded lines, so two identical runs fold to identical digests, and
    /// a second call changes nothing. `_cap` is not read: a rolling trace
    /// keeps no window.
    ///
    /// Rolling traces are for leaf drivers (benchmarks, soak runs); the
    /// golden-trace paths keep the default unbounded mode.
    pub fn set_rolling(&mut self, _cap: usize) {
        if self.fold.is_none() {
            self.fold = Some(self.rolling_digest());
            self.folded = self.records.len() as u64;
            self.records = Vec::new();
            self.text = String::new();
        }
    }

    /// Events folded into the rolling digest so far (0 outside rolling
    /// mode).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Total events ever recorded: folded plus stored.
    pub fn recorded(&self) -> u64 {
        self.folded + self.records.len() as u64
    }

    /// FNV-1a digest over the rendered lines of every recorded event — a
    /// deterministic fingerprint of the whole log, the same whether it was
    /// folded as it was recorded or hashed from the stored lines.
    pub fn rolling_digest(&self) -> u64 {
        self.fold.unwrap_or_else(|| {
            self.events().fold(FNV_OFFSET, |h, e| {
                infallible(Fnv(h), |sink| {
                    e.write_line(sink)?;
                    sink.write_str("\n")
                })
                .0
            })
        })
    }

    /// The stored events, oldest first (none in rolling mode).
    pub fn events(&self) -> impl Iterator<Item = TraceEvent<'_>> + '_ {
        let mut start = 0;
        self.records.iter().map(move |r| {
            let detail = &self.text[start..r.end];
            start = r.end;
            TraceEvent {
                at_us: r.at_us,
                component: &r.names.component,
                kind: &r.names.kind,
                detail,
            }
        })
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Events whose kind matches `kind` exactly.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = TraceEvent<'a>> {
        self.events().filter(move |e| e.kind.as_str() == kind)
    }

    /// Events emitted by components whose name starts with `prefix`.
    pub fn of_component<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = TraceEvent<'a>> {
        self.events().filter(move |e| e.component.starts_with(prefix))
    }

    /// Render the whole trace as text, one event per line.
    pub fn render(&self) -> String {
        infallible(String::new(), |out| {
            self.events().try_for_each(|e| {
                e.write_line(out)?;
                out.push('\n');
                Ok(())
            })
        })
    }
}

/// Run `write` into a sink whose `write_str` never fails (`Fnv`, `String`):
/// the line writer only returns the sink's errors, so there are none.
fn infallible<W: fmt::Write>(mut sink: W, write: impl FnOnce(&mut W) -> fmt::Result) -> W {
    let _never = write(&mut sink);
    sink
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
        self.0 = fnv(self.0, s.as_bytes());
        Ok(())
    }
}

/// The FNV-1a byte loop.
#[inline]
pub(crate) fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over one fixed byte string `s` of length `k`, in one step. XOR
/// with a byte touches only the low 8 bits of the state and the low 8 bits
/// evolve on their own, so the loop is affine in the state:
/// `fnv(h, s) = h·Pᵏ + A[h mod 256] (mod 2⁶⁴)` with
/// `A[l] = fnv(l, s) − l·Pᵏ`, which the byte loop itself tabulates.
#[derive(Clone)]
struct Jump {
    mul: u64,
    add: Box<[u64; 256]>,
}

impl Jump {
    fn new(s: &[u8]) -> Jump {
        let mul = s.iter().fold(1u64, |m, _| m.wrapping_mul(FNV_PRIME));
        let mut add = Box::new([0u64; 256]);
        for (l, a) in (0u64..).zip(add.iter_mut()) {
            *a = fnv(l, s).wrapping_sub(l.wrapping_mul(mul));
        }
        Jump { mul, add }
    }

    #[inline]
    fn apply(&self, h: u64) -> u64 {
        h.wrapping_mul(self.mul)
            .wrapping_add(self.add[(h & 0xff) as usize])
    }
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
        let details: Vec<&str> = t.events().map(|e| e.detail).collect();
        assert_eq!(details, ["run tox", "tid=1", "tid=1"]);
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
    fn events_are_copyable_views() {
        let t = sample();
        let e = t.events().next().expect("three events");
        let copied = e;
        assert_eq!(e, copied);
        assert_eq!(e.at(), SimTime::from_secs(1));
        assert_eq!(e.to_string(), t.render().lines().next().unwrap_or_default());
    }

    /// A record is the instant, one handle on its pair of names and the
    /// detail's end.
    #[test]
    fn records_stay_24_bytes() {
        assert!(std::mem::size_of::<Record>() <= 24);
    }

    #[test]
    fn records_share_their_pair_of_names_while_the_table_has_room() {
        let mut t = Trace::new();
        let endpoint = t.intern("faas.ep.a");
        for i in 0..3u64 {
            t.record(SimTime::from_secs(i), "faas.cloud", "task.submit", "x");
            t.record(SimTime::from_secs(i), &endpoint, "task.deliver", "x");
        }
        assert_eq!(t.pairs.len(), 2);
        assert!(Arc::ptr_eq(&t.records[0].names, &t.records[2].names));
        for i in 0..PAIRS as u64 {
            t.record(SimTime::ZERO, format!("c{i}"), "k", "x");
        }
        assert_eq!(t.pairs.len(), PAIRS, "the table is bounded");
        t.record(SimTime::ZERO, "faas.late", "k", "x");
        t.record(SimTime::ZERO, "faas.late", "k", "x");
        let n = t.records.len();
        assert!(!Arc::ptr_eq(
            &t.records[n - 1].names,
            &t.records[n - 2].names
        ));
        assert!(
            t.pairs.iter().all(|p| p.names.component != "faas.late"),
            "beyond the table: names of its own"
        );
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
            t.interner.strings.len(),
            4,
            "four endpoint names interned once each"
        );
        assert!(
            t.events().all(|e| matches!(e.kind, Sym::Static(_))),
            "kind literal takes the static path"
        );
        // Events sharing a name share the allocation.
        let mut events = t.events();
        let a = events.next().map(|e| e.component);
        let b = events.nth(3).map(|e| e.component);
        match (a, b) {
            (Some(Sym::Shared(x)), Some(Sym::Shared(y))) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected shared syms, got {other:?}"),
        }
    }

    #[test]
    fn string_details_recycle_through_the_spare_buffer() {
        let mut t = Trace::new();
        let mut d = t.detail_buf();
        d.push_str("a detail long enough to need a buffer");
        let cap = d.capacity();
        t.record(SimTime::ZERO, "faas.cloud", "task.submit", d);
        let again = t.detail_buf();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "the recorded buffer came back");
        t.record(SimTime::ZERO, "faas.cloud", "task.submit", again);
        t.record(SimTime::ZERO, "faas.cloud", "task.submit", "borrowed");
        assert_eq!(
            t.detail_buf().capacity(),
            cap,
            "a &str detail leaves the spare alone"
        );
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
        assert_eq!(bounded.len(), 0, "a rolling trace keeps no events");
        assert_eq!(bounded.recorded(), 1_000);
        assert_eq!(bounded.text.capacity(), 0, "nor any detail bytes");
        assert_eq!(bounded.folded() + bounded.len() as u64, 1_000);
        // The rolling digest covers the whole log, whatever cap was passed.
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
    fn reference_line(e: &TraceEvent<'_>) -> String {
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
            let (component, kind) = (Sym::from(component), Sym::from(kind));
            let detail = format!("tid={i} détail");
            let e = TraceEvent {
                at_us: 1_234_567 * i as u64,
                component: &component,
                kind: &kind,
                detail: &detail,
            };
            assert_eq!(e.to_string(), reference_line(&e), "{component:?} {kind:?}");
        }
    }

    fn fnv_bytes(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }

    /// One renderer, three sinks: the digest is FNV-1a over exactly the bytes
    /// `render()` returns, rolling or not.
    #[test]
    fn rolling_digest_is_fnv_over_rendered_bytes() {
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
                .map(|e| reference_line(&e) + "\n")
                .collect();
            assert_eq!(rendered, reference, "case {case}");
            for cap in [None, Some(2), Some(16), Some(64)] {
                assert_eq!(
                    fill(cap).rolling_digest(),
                    fnv_bytes(rendered.as_bytes()),
                    "case {case} cap {cap:?}"
                );
            }
        }
    }

    /// The jump is the byte loop: every low byte, random high bits, random
    /// strings — the empty one and non-ASCII ones included.
    #[test]
    fn jump_equals_the_byte_loop() {
        let mut rng = crate::DetRng::seed_from_u64(0x7e57);
        let mut strings: Vec<String> = vec![String::new(), "] ".into(), "é日\u{0}\u{7f}".into()];
        strings.extend((0..13).map(|_| {
            (0..rng.range_u64(1, 80))
                .map(|_| char::from_u32(rng.range_u64(1, 0x3000) as u32).unwrap_or('?'))
                .collect()
        }));
        for s in &strings {
            let jump = Jump::new(s.as_bytes());
            for low in 0..256u64 {
                for _ in 0..4 {
                    let h = (rng.range_u64(0, u64::MAX) & !0xff) | low;
                    assert_eq!(jump.apply(h), fnv(h, s.as_bytes()), "{s:?} from {h:#x}");
                }
            }
        }
    }

    /// The fold through column tables lands where the byte loop does: more
    /// pairs than the cache holds, names wider than their columns or not
    /// ASCII, and the same text as a `Static`, an interned and a standalone
    /// `Sym` (three handles, one set of bytes).
    #[test]
    fn the_jumping_fold_matches_the_rendered_bytes() {
        let wide = "faas.mep.a-site-name-wider-than-the-column";
        let mut t = Trace::new();
        t.set_rolling(4);
        let mut reference = Trace::new();
        for i in 0..400u64 {
            let at = SimTime::from_micros(i * 999_983);
            let detail = format!("task-{i:08x} détail");
            let (component, kind): (Sym, Sym) = match i % 5 {
                0 => (Sym::Static("faas.cloud"), Sym::Static("task.submit")),
                1 => (t.intern("faas.cloud"), t.intern("task.submit")),
                2 => (Sym::from("faas.cloud"), Sym::Static("task.submit")),
                3 => (
                    t.intern(&format!("faas.ep.{}", i % 47)),
                    Sym::Static("task.deliver"),
                ),
                _ => (
                    t.intern(if i % 2 == 0 { wide } else { "faas.µ-épé" }),
                    t.intern("種類"),
                ),
            };
            reference.record(at, &component, &kind, detail.as_str());
            t.record(at, component, kind, detail);
        }
        assert_eq!(t.pairs.len(), PAIRS, "the table filled");
        assert!(t.pairs.iter().all(|p| p.jump.is_some()));
        assert_eq!((t.folded(), t.len()), (400, 0));
        assert_eq!(t.rolling_digest(), fnv_bytes(reference.render().as_bytes()));
    }

    #[test]
    fn sym_compares_and_displays_by_content() {
        let mut interner = Interner::new();
        let a = interner.intern("faas.cloud");
        let b = Sym::Static("faas.cloud");
        assert_eq!(a, b);
        assert!(!a.is(&b) && a.is(&a.clone()));
        assert_eq!(a, *"faas.cloud");
        assert_eq!(format!("{a:>12}"), format!("{:>12}", "faas.cloud"));
        assert!(a.starts_with("faas"));
        let again = interner.intern("faas.cloud");
        assert_eq!(interner.strings.len(), 1);
        match (&a, &again) {
            (Sym::Shared(x), Sym::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected shared syms, got {other:?}"),
        }
        // A prefix of the same literal is a different handle.
        let whole: &'static str = "faas.cloud";
        assert!(!Sym::Static(whole).is(&Sym::Static(&whole[..4])));
    }

    #[test]
    fn pre_interned_syms_record_for_free() {
        let mut t = Trace::new();
        let component = t.intern("faas.ep.hot");
        t.record(SimTime::ZERO, &component, "task.deliver", "tid=1");
        t.record(SimTime::from_secs(1), component, "task.deliver", "tid=2");
        assert_eq!(t.interner.strings.len(), 1);
        assert_eq!(t.of_component("faas.ep.hot").count(), 2);
    }
}
