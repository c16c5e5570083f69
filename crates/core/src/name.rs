//! Names and compound names (§2 of the paper).
//!
//! A [`Name`] is an atomic identifier. The paper deliberately treats memory
//! addresses, network addresses, process identifiers, file names and user
//! names uniformly as "names"; we model a name as an interned string atom.
//!
//! A [`CompoundName`] is a nonempty sequence of names (the paper's `N+`),
//! resolved component-by-component through context objects (see
//! [`crate::resolve`]).
//!
//! Interning gives `Name` copy semantics and O(1) equality, while comparison
//! and display go through the resolved string so that iteration order over
//! [`crate::context::Context`] bindings is lexicographic and therefore
//! deterministic across runs regardless of interning order.
//!
//! The interner has two directions. Symbol → string is a lock-free,
//! append-only table. String → symbol is one open-addressed table of
//! (`u128` key, `u32` symbol) slots under a `RwLock`. A label of at most 15
//! bytes is its own key, so finding it — as a server does for every label
//! of a request frame — costs one multiply and one 16-byte compare per slot
//! probed: no string hash, no pointer chase, no `memcmp`.

use std::fmt;
use std::hash::Hasher;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::OnceLock;

use parking_lot::{RwLock, RwLockReadGuard};
use serde::de::Visitor;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::hash::FxHasher;

/// The conventional binding name for the root context (`/` in Unix paths).
pub const ROOT: &str = "/";
/// The conventional binding name for the current/working context.
pub const SELF: &str = ".";
/// The conventional binding name for the parent context.
pub const PARENT: &str = "..";

/// Atoms the interner's index holds before it first grows: sized so
/// typical experiments (a few hundred distinct atoms) never grow it under
/// the write lock. The index keeps at least twice as many slots as atoms,
/// 20 bytes a slot: 10 KB to start, 40 KB for 1 K atoms.
const INTERNER_CAPACITY: usize = 256;

/// Labels of at most this many bytes are their own key in the index.
const INLINE_KEY: usize = 15;
/// The top byte of a longer label's key: above every inline key's
/// length + 1 (1..=16).
const LONG_KEY: u128 = 0xFF << 120;
/// The multiplier that spreads a key over the index (2^64 / φ).
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The conventional names are interned first, at fixed symbols, so
/// [`Name::root`]/[`Name::self_`]/[`Name::parent`] need no lock at all.
const PREINTERNED: [&str; 3] = [ROOT, SELF, PARENT];
const ROOT_SYM: u32 = 0;
const SELF_SYM: u32 = 1;
const PARENT_SYM: u32 = 2;

/// Symbols per chunk of the lock-free symbol table.
const CHUNK_BITS: u32 = 10;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// Chunk directory size: caps the interner at `MAX_CHUNKS * CHUNK_LEN`
/// (4M) distinct atoms, far beyond any workload here (the million-context
/// scale grid interns ~1M segment atoms).
const MAX_CHUNKS: usize = 1 << 12;

/// The sym → string direction of the interner: an append-only chunked
/// table read without any lock.
///
/// `Name::as_str` is on the hot path of ordering, display and label
/// rendering; guarding it with the interner's `RwLock` made every compare
/// an atomic RMW on the lock word. Instead, symbols resolve through two
/// `Acquire` loads (chunk pointer, then slot) against this static
/// directory. Chunks are allocated and slots published — both with
/// `Release` stores — only by the single writer that holds the interner's
/// write lock, *before* the symbol is handed out; any thread that
/// legitimately holds a `Name` therefore observes its slot as non-null:
/// the name value reached it either via `Name::new` on the same thread or
/// through whatever synchronization transferred the `Name` across threads.
struct SymbolTable {
    chunks: [AtomicPtr<Chunk>; MAX_CHUNKS],
}

type Chunk = [AtomicPtr<&'static str>; CHUNK_LEN];

#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHUNK: AtomicPtr<Chunk> = AtomicPtr::new(ptr::null_mut());
#[allow(clippy::declare_interior_mutable_const)]
const NULL_SLOT: AtomicPtr<&'static str> = AtomicPtr::new(ptr::null_mut());

static SYMBOLS: SymbolTable = SymbolTable {
    chunks: [NULL_CHUNK; MAX_CHUNKS],
};

impl SymbolTable {
    /// Publishes `s` as symbol `sym`. Must only be called while holding
    /// the interner's write lock (or during its `OnceLock` init), which
    /// serializes writers and orders the store before the symbol escapes.
    fn publish(&self, sym: u32, s: &'static str) {
        let chunk_idx = (sym >> CHUNK_BITS) as usize;
        let slot = (sym as usize) & (CHUNK_LEN - 1);
        assert!(chunk_idx < MAX_CHUNKS, "interner overflow");
        let mut chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = Box::into_raw(Box::new([NULL_SLOT; CHUNK_LEN]));
            self.chunks[chunk_idx].store(chunk, Ordering::Release);
        }
        // The slot cell is boxed so the atomic holds a thin pointer; the
        // box is leaked like the string itself (interned atoms live for
        // the program).
        let cell: *mut &'static str = Box::into_raw(Box::new(s));
        unsafe { (*chunk)[slot].store(cell, Ordering::Release) };
    }

    /// Resolves a symbol previously handed out by [`Name::new`] or the
    /// pre-interned constructors. Lock-free.
    #[inline]
    fn resolve(&self, sym: u32) -> &'static str {
        let chunk_idx = (sym >> CHUNK_BITS) as usize;
        let slot = (sym as usize) & (CHUNK_LEN - 1);
        let mut chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        if chunk.is_null() {
            // Only reachable for the pre-interned names before any
            // Name::new call has initialized the interner.
            interner();
            chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        }
        // SAFETY: chunks are leaked boxes, never freed, and a slot holds
        // null or a leaked `&'static str` cell; every symbol handed out was
        // published first, the pre-interned ones by the time `interner()`
        // returns.
        unsafe {
            let mut cell = (*chunk)[slot].load(Ordering::Acquire);
            if cell.is_null() {
                // A pre-interned name read while another thread is still
                // inside the interner's initialisation, which has made the
                // chunk but not yet this slot: wait for it to finish.
                interner();
                cell = (*chunk)[slot].load(Ordering::Acquire);
                assert!(!cell.is_null(), "unpublished symbol {sym}");
            }
            *cell
        }
    }
}

/// A label's key in the interner's index; never 0, which marks an empty
/// slot.
///
/// A label of at most [`INLINE_KEY`] bytes is its own key: its bytes
/// zero-padded, and its length + 1 in the top byte, so `""`, `"a"` and
/// `"a\0"` are three keys. A longer label's key is [`LONG_KEY`], its length
/// and a 64-bit hash of its bytes: equal keys there are confirmed against
/// the symbol's string.
#[inline]
fn key(s: &str) -> u128 {
    let b = s.as_bytes();
    let n = b.len();
    let le8 = |w: Option<&[u8; 8]>| w.map_or(0, |w| u64::from_le_bytes(*w));
    let le4 = |w: Option<&[u8; 4]>| w.map_or(0, |w| u64::from(u32::from_le_bytes(*w)));
    // Overlapping loads place every byte at its own offset; the bytes two
    // loads share are equal, so or-ing them is exact.
    let (lo, hi) = match n {
        0 => (0, 0),
        1..=3 => {
            let (first, mid, last) = (b[0], b[n / 2], b[n - 1]);
            let lo = u64::from(first) | u64::from(mid) << (8 * (n / 2));
            (lo | u64::from(last) << (8 * (n - 1)), 0)
        }
        4..=7 => (
            le4(b.first_chunk()) | le4(b.last_chunk()) << (8 * (n - 4)),
            0,
        ),
        8 => (le8(b.first_chunk()), 0),
        9..=INLINE_KEY => (le8(b.first_chunk()), le8(b.last_chunk()) >> (8 * (16 - n))),
        _ => {
            let mut h = FxHasher::default();
            h.write(b);
            return LONG_KEY | (n as u128) << 64 | u128::from(h.finish());
        }
    };
    ((n as u128 + 1) << 120) | u128::from(hi) << 64 | u128::from(lo)
}

/// The string → sym direction of the interner; the sym → string direction
/// lives in [`SYMBOLS`] so reads skip this lock entirely.
///
/// One open-addressed table: slot `i` holds the [`key`] `keys[i]` (0: empty)
/// and its symbol `syms[i]`, apart so that a probe scans 16-byte keys only.
/// A probe runs linearly from a key's home slot (the top bits of the key's
/// halves xor-ed and multiplied by [`SPREAD`]). The table is a power of two
/// long and at most half full, and it grows only when an atom is interned,
/// under the write lock: a lookup never changes it, so labels nobody
/// interned add no slot and lengthen no probe.
struct Interner {
    keys: Box<[u128]>,
    syms: Box<[u32]>,
    /// `64 - log2(keys.len())`.
    shift: u32,
    len: u32,
}

impl Interner {
    fn new() -> Self {
        let slots = 2 * INTERNER_CAPACITY;
        let mut interner = Interner {
            keys: vec![0; slots].into_boxed_slice(),
            syms: vec![0; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        };
        for s in PREINTERNED {
            interner.insert(s);
        }
        interner
    }

    #[inline]
    fn home(&self, key: u128) -> usize {
        let folded = (key as u64) ^ (key >> 64) as u64;
        (folded.wrapping_mul(SPREAD) >> self.shift) as usize
    }

    /// The symbol `s` was interned as, if it was.
    #[inline]
    fn find(&self, s: &str) -> Option<u32> {
        let key = key(s);
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key && (s.len() <= INLINE_KEY || SYMBOLS.resolve(self.syms[i]) == s) {
                return Some(self.syms[i]);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `s`, which [`Interner::find`] does not hold, as the next
    /// symbol. The symbol is published before its slot is filled.
    fn insert(&mut self, s: &'static str) -> u32 {
        let sym = self.len;
        SYMBOLS.publish(sym, s);
        self.len = sym.checked_add(1).expect("interner overflow");
        if 2 * self.len as usize > self.keys.len() {
            let wider = 2 * self.keys.len();
            let keys = std::mem::replace(&mut self.keys, vec![0; wider].into_boxed_slice());
            let syms = std::mem::replace(&mut self.syms, vec![0; wider].into_boxed_slice());
            self.shift -= 1;
            for (&k, &sym) in keys.iter().zip(syms.iter()).filter(|(&k, _)| k != 0) {
                self.place(k, sym);
            }
        }
        self.place(key(s), sym);
        sym
    }

    fn place(&mut self, key: u128, sym: u32) {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.keys[i] != 0 {
            i = (i + 1) & mask;
        }
        (self.keys[i], self.syms[i]) = (key, sym);
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

/// The interner's index under one read guard: [`Lookups::get`] is
/// [`Name::lookup`] without a lock per label.
///
/// Nothing may intern while the guard is held. On the holding thread,
/// [`Name::new`] — or [`Name::lookup`], or a second guard — can deadlock:
/// once a writer waits behind the guard, new readers wait behind the
/// writer. On another thread, `Name::new` of a new label waits until the
/// guard is dropped. Take one, look the labels up, drop it.
pub struct Lookups(RwLockReadGuard<'static, Interner>);

impl Lookups {
    /// The atom `s` was interned as, if it ever was; never inserts.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Name> {
        self.0.find(s).map(Name)
    }
}

impl fmt::Debug for Lookups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lookups").finish_non_exhaustive()
    }
}

/// An atomic name (identifier).
///
/// Names are interned: two `Name`s constructed from equal strings are equal
/// and share storage. `Name` is `Copy` and cheap to pass around.
///
/// # Examples
///
/// ```
/// use naming_core::name::Name;
///
/// let a = Name::new("passwd");
/// let b = Name::new("passwd");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "passwd");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(u32);

impl Name {
    /// Interns `s` and returns its atom.
    pub fn new(s: &str) -> Name {
        if let Some(sym) = interner().read().find(s) {
            return Name(sym);
        }
        let mut guard = interner().write();
        if let Some(sym) = guard.find(s) {
            return Name(sym);
        }
        Name(guard.insert(Box::leak(s.to_owned().into_boxed_str())))
    }

    /// The atom `s` was interned as, if it ever was: an index probe under
    /// the read lock that never inserts. A label no [`Name::new`] call has
    /// seen cannot be bound in any context, so a reader of labels from a
    /// peer looks them up instead of letting the peer grow the interner.
    /// This takes the lock for one label; a server decoding a request
    /// looks all of its labels up under one guard, [`Name::lookups`].
    pub fn lookup(s: &str) -> Option<Name> {
        Name::lookups().get(s)
    }

    /// The interner's read lock, taken once for many [`Lookups::get`]
    /// probes. See [`Lookups`] for what its holder must not do.
    pub fn lookups() -> Lookups {
        Lookups(interner().read())
    }

    /// Returns the string this name was interned from. Lock-free: resolves
    /// through the append-only symbol table, not the interner lock.
    #[inline]
    pub fn as_str(self) -> &'static str {
        SYMBOLS.resolve(self.0)
    }

    /// The conventional root name `/`. Pre-interned: no locking.
    pub fn root() -> Name {
        Name(ROOT_SYM)
    }

    /// The conventional self name `.`. Pre-interned: no locking.
    pub fn self_() -> Name {
        Name(SELF_SYM)
    }

    /// The conventional parent name `..`. Pre-interned: no locking.
    pub fn parent() -> Name {
        Name(PARENT_SYM)
    }

    /// True if this is the conventional root name `/`.
    pub fn is_root(self) -> bool {
        self.0 == ROOT_SYM
    }

    /// True if this is `.` or `..`.
    pub fn is_dot(self) -> bool {
        self.0 == SELF_SYM || self.0 == PARENT_SYM
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:?})", self.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Serialize for Name {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Name {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Name, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = Name;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a name string")
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<Name, E> {
                Ok(Name::new(v))
            }
        }
        deserializer.deserialize_str(V)
    }
}

/// Error returned when parsing an empty compound name.
///
/// The paper's `N+` is the set of *nonempty* sequences of names; an empty
/// sequence is not a compound name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseNameError;

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("compound name must be a nonempty sequence of names")
    }
}

impl std::error::Error for ParseNameError {}

/// A compound name: a nonempty sequence of [`Name`]s (the paper's `N+`).
///
/// Compound names are resolved left to right through context objects. The
/// Unix path `/etc/passwd` is the compound name `["/", "etc", "passwd"]`:
/// the leading `/` is an *ordinary name* conventionally bound to the root
/// context object in each activity's per-activity context — exactly the
/// paper's description of Unix, where "the context R(p) of a Unix process p
/// has two bindings: one for the root directory, and the other for the
/// working directory".
///
/// # Examples
///
/// ```
/// use naming_core::name::CompoundName;
///
/// let n = CompoundName::parse_path("/etc/passwd").unwrap();
/// assert_eq!(n.len(), 3);
/// assert_eq!(n.to_string(), "/etc/passwd");
///
/// let rel = CompoundName::parse_path("docs/ch1.tex").unwrap();
/// assert_eq!(rel.first().as_str(), ".");
/// assert_eq!(rel.to_string(), "docs/ch1.tex");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompoundName(Vec<Name>);

impl CompoundName {
    /// Creates a compound name from a nonempty sequence of components.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if `components` is empty.
    pub fn new<I>(components: I) -> Result<CompoundName, ParseNameError>
    where
        I: IntoIterator,
        I::Item: Into<Name>,
    {
        let v: Vec<Name> = components.into_iter().map(Into::into).collect();
        if v.is_empty() {
            Err(ParseNameError)
        } else {
            Ok(CompoundName(v))
        }
    }

    /// Creates a compound name of length one.
    pub fn atom(name: impl Into<Name>) -> CompoundName {
        CompoundName(vec![name.into()])
    }

    /// Parses a Unix-style path.
    ///
    /// `/a/b` becomes `["/", "a", "b"]`; a relative path `a/b` becomes
    /// `[".", "a", "b"]` so that resolution starts at the working-context
    /// binding. `.` and `..` components are kept verbatim — they are ordinary
    /// names with conventional bindings, not syntax.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] for the empty string.
    pub fn parse_path(path: &str) -> Result<CompoundName, ParseNameError> {
        if path.is_empty() {
            return Err(ParseNameError);
        }
        let mut v = Vec::new();
        if let Some(rest) = path.strip_prefix('/') {
            v.push(Name::root());
            for comp in rest.split('/').filter(|c| !c.is_empty()) {
                v.push(Name::new(comp));
            }
        } else {
            let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
            if comps.is_empty() {
                return Err(ParseNameError);
            }
            if comps[0] != SELF && comps[0] != PARENT {
                v.push(Name::self_());
            }
            for comp in comps {
                v.push(Name::new(comp));
            }
        }
        Ok(CompoundName(v))
    }

    /// Number of components (always ≥ 1).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false: compound names are nonempty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first component.
    pub fn first(&self) -> Name {
        self.0[0]
    }

    /// The last component.
    pub fn last(&self) -> Name {
        *self.0.last().expect("nonempty by construction")
    }

    /// The components as a slice.
    pub fn components(&self) -> &[Name] {
        &self.0
    }

    /// Iterates over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, Name> {
        self.0.iter()
    }

    /// Splits into the first component and the (possibly empty) rest.
    pub fn split_first(&self) -> (Name, &[Name]) {
        (self.0[0], &self.0[1..])
    }

    /// Returns a new compound name with `suffix` appended.
    pub fn join(&self, suffix: impl Into<Name>) -> CompoundName {
        let mut v = self.0.clone();
        v.push(suffix.into());
        CompoundName(v)
    }

    /// Concatenates two compound names.
    pub fn concat(&self, other: &CompoundName) -> CompoundName {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        CompoundName(v)
    }

    /// Returns the compound name with `prefix` components stripped, if the
    /// prefix matches and at least one component remains.
    pub fn strip_prefix(&self, prefix: &[Name]) -> Option<CompoundName> {
        if self.0.len() > prefix.len() && self.0[..prefix.len()] == *prefix {
            Some(CompoundName(self.0[prefix.len()..].to_vec()))
        } else {
            None
        }
    }

    /// True if the name begins with the given prefix components.
    pub fn has_prefix(&self, prefix: &[Name]) -> bool {
        self.0.len() >= prefix.len() && self.0[..prefix.len()] == *prefix
    }

    /// True if this is an absolute path-style name (first component `/`).
    pub fn is_absolute(&self) -> bool {
        self.first().is_root()
    }

    /// Returns the parent name (all but the last component), if any remains.
    pub fn parent_name(&self) -> Option<CompoundName> {
        if self.0.len() > 1 {
            Some(CompoundName(self.0[..self.0.len() - 1].to_vec()))
        } else {
            None
        }
    }
}

impl fmt::Debug for CompoundName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompoundName({})", self)
    }
}

impl fmt::Display for CompoundName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let comps = &self.0;
        let mut start = 0;
        if comps[0].is_root() {
            // Absolute: print the leading slash without a separator after it.
            f.write_str("/")?;
            start = 1;
        } else if comps[0].as_str() == SELF && comps.len() > 1 {
            // Hide the implicit leading `.` of relative paths.
            start = 1;
        }
        for (i, c) in comps[start..].iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(c.as_str())?;
        }
        Ok(())
    }
}

impl From<Name> for CompoundName {
    fn from(n: Name) -> CompoundName {
        CompoundName(vec![n])
    }
}

impl std::str::FromStr for CompoundName {
    type Err = ParseNameError;
    fn from_str(s: &str) -> Result<CompoundName, ParseNameError> {
        CompoundName::parse_path(s)
    }
}

impl<'a> IntoIterator for &'a CompoundName {
    type Item = &'a Name;
    type IntoIter = std::slice::Iter<'a, Name>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Name::new("alpha");
        let b = Name::new("alpha");
        let c = Name::new("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
    }

    #[test]
    fn lookup_finds_interned_labels_and_never_interns() {
        assert_eq!(Name::lookup("lookup-never-interned"), None);
        assert_eq!(
            Name::lookup("lookup-never-interned"),
            None,
            "probing interned it"
        );
        let n = Name::new("lookup-interned");
        assert_eq!(Name::lookup("lookup-interned"), Some(n));
        assert_eq!(Name::lookup(ROOT), Some(Name::root()));
        // Many labels under one guard, with the same answers.
        let names = Name::lookups();
        assert_eq!(names.get("lookup-interned"), Some(n));
        assert_eq!(names.get("lookup-never-interned"), None);
        assert_eq!(names.get(PARENT), Some(Name::parent()));
        drop(names);
        assert_eq!(Name::lookup("lookup-never-interned"), None);
    }

    /// [`key`] as the plain reading of its doc: copy the bytes, pad, stamp
    /// the length.
    fn padded_key(s: &str) -> u128 {
        let mut bytes = [0u8; 16];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        bytes[15] = s.len() as u8 + 1;
        u128::from_le_bytes(bytes)
    }

    #[test]
    fn a_short_label_is_its_own_key() {
        // Every inline length, with distinct bytes, against the plain copy.
        let all: String = ('a'..='z').collect();
        for n in 0..=INLINE_KEY {
            let s = &all[..n];
            assert_eq!(key(s), padded_key(s), "length {n}");
        }
        // Padding, length and the long marker keep every key apart, and no
        // key is the empty slot's 0.
        let labels = ["", "a", "a\0", "a\0\0", "\0", &"\0".repeat(15)];
        let long = "x".repeat(16);
        let keys: Vec<u128> = labels.iter().copied().chain([&long[..]]).map(key).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(*k, 0);
            assert!(!keys[..i].contains(k), "{:?} shares a key", labels.get(i));
        }
        assert_eq!(key(&long) >> 120, LONG_KEY >> 120);
    }

    #[test]
    fn the_index_agrees_with_a_model_across_growths() {
        // Atoms and the symbol Name::new gave each: the model.
        let mut model: Vec<(String, Name)> = Vec::new();
        let intern = |model: &mut Vec<(String, Name)>, s: String| {
            let n = Name::new(&s);
            model.push((s, n));
        };
        // Labels of 0, 1, 14, 15, 16, 17 and 300 bytes.
        let sized = [
            (0, 'a'),
            (1, 'b'),
            (14, 'c'),
            (15, 'd'),
            (16, 'e'),
            (17, 'f'),
            (300, 'g'),
        ];
        let fixed = sized
            .map(|(n, c)| c.to_string().repeat(n))
            .into_iter()
            .chain([
                "a".into(),
                "a\0".into(),
                "a\0\0".into(),
                // 'é' is two bytes: at 13–14 the label is inline, at 14–15 it
                // straddles the inline limit and is long.
                format!("{}é", "h".repeat(13)),
                format!("{}é", "h".repeat(14)),
                format!("{}€", "h".repeat(13)),
            ]);
        for s in fixed {
            intern(&mut model, s);
        }
        let check = |model: &[(String, Name)]| {
            for (s, n) in model {
                assert_eq!(Name::new(s), *n, "{s:?}");
                assert_eq!(Name::lookup(s), Some(*n), "{s:?}");
                assert_eq!(n.as_str(), s);
            }
        };
        check(&model);
        let distinct: std::collections::HashSet<Name> = model.iter().map(|&(_, n)| n).collect();
        assert_eq!(distinct.len(), model.len(), "two labels share a symbol");
        // Fresh atoms, short and long, until the index has grown twice.
        let slots = || interner().read().keys.len();
        let (start, mut seen) = (slots(), slots());
        let mut growths = 0;
        for i in 0.. {
            let fresh = match i % 3 {
                0 => format!("grow{i}"),
                1 => format!("grow-{i:011}"),
                _ => format!("grow-a-longer-label-{i}"),
            };
            intern(&mut model, fresh);
            if slots() != seen {
                seen = slots();
                growths += 1;
                check(&model);
                if growths == 2 {
                    break;
                }
            }
        }
        assert!(seen >= 4 * start);
        // Lookups intern nothing: the count holds under one guard, and a
        // label found absent stays absent.
        let (short, long) = ("never-interned", "never-interned-and-longer");
        let names = Name::lookups();
        let len = names.0.len;
        assert_eq!(names.get(short), None);
        assert_eq!(names.get(long), None);
        assert_eq!(names.0.len, len);
        drop(names);
        assert_eq!((Name::lookup(short), Name::lookup(long)), (None, None));
    }

    #[test]
    fn conventional_names_are_preinterned() {
        // The lock-free accessors and Name::new must agree on the symbols,
        // whichever runs first.
        assert_eq!(Name::root(), Name::new(ROOT));
        assert_eq!(Name::self_(), Name::new(SELF));
        assert_eq!(Name::parent(), Name::new(PARENT));
        assert_eq!(Name::root().as_str(), "/");
        assert!(Name::root().is_root());
        assert!(Name::self_().is_dot() && Name::parent().is_dot());
        assert!(!Name::root().is_dot() && !Name::new("x").is_root());
    }

    #[test]
    fn symbol_table_spans_chunks() {
        // Intern enough distinct atoms to force the lock-free symbol table
        // past its first chunk; every atom must still resolve.
        let names: Vec<Name> = (0..(CHUNK_LEN + 16))
            .map(|i| Name::new(&format!("chunk-span-{i:05}")))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(n.as_str(), format!("chunk-span-{i:05}"));
        }
    }

    #[test]
    fn name_ordering_is_lexicographic() {
        // Intern in reverse lexicographic order to show ordering does not
        // depend on interning order.
        let z = Name::new("zzz-order-test");
        let a = Name::new("aaa-order-test");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn special_names() {
        assert!(Name::root().is_root());
        assert!(Name::self_().is_dot());
        assert!(Name::parent().is_dot());
        assert!(!Name::new("x").is_dot());
    }

    #[test]
    fn parse_absolute_path() {
        let n = CompoundName::parse_path("/etc/passwd").unwrap();
        assert_eq!(n.len(), 3);
        assert!(n.is_absolute());
        assert_eq!(n.first(), Name::root());
        assert_eq!(n.last(), Name::new("passwd"));
        assert_eq!(n.to_string(), "/etc/passwd");
    }

    #[test]
    fn parse_root_alone() {
        let n = CompoundName::parse_path("/").unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n.to_string(), "/");
    }

    #[test]
    fn parse_relative_path_inserts_self() {
        let n = CompoundName::parse_path("a/b").unwrap();
        assert_eq!(n.first(), Name::self_());
        assert_eq!(n.len(), 3);
        assert_eq!(n.to_string(), "a/b");
    }

    #[test]
    fn parse_dotdot_kept_verbatim() {
        let n = CompoundName::parse_path("../x").unwrap();
        assert_eq!(n.first(), Name::parent());
        assert_eq!(n.to_string(), "../x");
    }

    #[test]
    fn parse_collapses_double_slashes() {
        let n = CompoundName::parse_path("/a//b/").unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(n.to_string(), "/a/b");
    }

    #[test]
    fn parse_empty_is_error() {
        assert!(CompoundName::parse_path("").is_err());
        assert!(CompoundName::new(Vec::<Name>::new()).is_err());
    }

    #[test]
    fn join_and_concat() {
        let n = CompoundName::parse_path("/a").unwrap();
        let m = n.join("b");
        assert_eq!(m.to_string(), "/a/b");
        let r = CompoundName::parse_path("c/d").unwrap();
        let j = m.concat(&r);
        assert_eq!(j.len(), m.len() + r.len());
    }

    #[test]
    fn prefix_ops() {
        let n = CompoundName::parse_path("/vice/usr/alice").unwrap();
        let prefix = [Name::root(), Name::new("vice")];
        assert!(n.has_prefix(&prefix));
        let rest = n.strip_prefix(&prefix).unwrap();
        assert_eq!(rest.to_string(), "usr/alice");
        assert!(n.strip_prefix(&[Name::new("nope")]).is_none());
    }

    #[test]
    fn parent_name() {
        let n = CompoundName::parse_path("/a/b").unwrap();
        assert_eq!(n.parent_name().unwrap().to_string(), "/a");
        let one = CompoundName::atom(Name::new("x"));
        assert!(one.parent_name().is_none());
    }

    #[test]
    fn display_of_leading_self() {
        let n = CompoundName::parse_path("./a").unwrap();
        assert_eq!(n.to_string(), "a");
        let only_self = CompoundName::atom(Name::self_());
        assert_eq!(only_self.to_string(), ".");
    }

    #[test]
    fn from_str_roundtrip() {
        let n: CompoundName = "/usr/bin/cc".parse().unwrap();
        assert_eq!(n.to_string(), "/usr/bin/cc");
    }

    #[test]
    fn serde_roundtrip() {
        // Serialize via serde to a simple in-memory representation.
        let n = CompoundName::parse_path("/a/b").unwrap();
        let json = serde_json_like(&n);
        assert!(json.contains("\"a\""));
    }

    // Minimal check that serde impls exist without a json dependency.
    fn serde_json_like(n: &CompoundName) -> String {
        format!(
            "{:?}",
            n.components()
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>()
        )
    }
}
