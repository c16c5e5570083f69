//! The global state function σ and entity states (§2).
//!
//! Each entity has a state; `σ : E → S` determines the global state of the
//! system. The state of an object may be a [`Context`] — such an object is a
//! *context object* (e.g. a Unix directory). Compound-name resolution
//! consults σ at every step: `c(n1 n2…nk) = σ(c(n1))(n2…nk)` when `σ(c(n1))`
//! is a context.
//!
//! [`SystemState`] is σ made concrete: a table of activities and a table of
//! objects, each with a state. It deliberately knows nothing about machines,
//! networks or messages — those live in the `naming-sim` substrate. The core
//! model only needs "entities with states, some of which are contexts".
//!
//! ## Sharding
//!
//! Internally the object table is split into up to [`MAX_SHARDS`]
//! *shards*, each an independently versioned, `Arc`-shared column of the
//! table. An [`ObjectId`] packs `(shard, local index)` into its 32 bits
//! ([`SHARD_BITS`] high bits select the shard), so a state created with
//! [`SystemState::new`] — one shard — hands out ids identical to the
//! pre-sharding dense indices. Sharding buys two things at scale:
//!
//! * **Per-shard generations.** Every shard carries its own
//!   `naming_version`/`epoch` pair, advanced only when *that* shard is
//!   written. The memo ([`crate::memo::ResolutionMemo`]) validates against
//!   the generations of just the shards a resolution walked, so a write to
//!   one zone leaves every other zone's cached footprints intact.
//! * **Copy-on-publish.** `SystemState::clone` clones a `Vec<Arc<Shard>>` —
//!   O(shards), not O(objects). Mutation goes through `Arc::make_mut`, so
//!   the first write to a shard after a clone copies that shard alone.
//!   [`crate::snapshot::StateSnapshot::capture`] therefore shares every
//!   untouched shard between the published snapshot and the staging state.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::context::Context;
use crate::entity::{ActivityId, Entity, ObjectId};
use crate::lease::ZoneSerial;
use crate::name::{CompoundName, Name};

/// Number of high bits of an [`ObjectId`] that select the shard.
pub const SHARD_BITS: u32 = 10;

/// Maximum number of shards a [`SystemState`] may be created with.
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// Number of low bits of an [`ObjectId`] that index within a shard.
pub const LOCAL_BITS: u32 = 32 - SHARD_BITS;

/// Maximum number of objects a single shard can hold.
pub const MAX_SHARD_OBJECTS: usize = 1 << LOCAL_BITS;

const LOCAL_MASK: usize = (1 << LOCAL_BITS) - 1;

/// A segment of a structured object: literal content or an embedded name.
///
/// The paper (§4, §6 Example 2) models documents, program sources and
/// multi-file executables as objects with *embedded names*: "Names can be
/// embedded in objects to build structured objects."
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Literal content.
    Text(String),
    /// An embedded name referring to another entity (e.g. `\include{ch1}`).
    Embedded(CompoundName),
}

/// The state of a structured object: a sequence of segments.
///
/// "The meaning of a structured object depends on the meanings of the
/// embedded names" — resolving every [`Segment::Embedded`] under a given
/// resolution rule yields the object's meaning.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    segments: Vec<Segment>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Document {
        Document::default()
    }

    /// Creates a document from segments.
    pub fn from_segments(segments: Vec<Segment>) -> Document {
        Document { segments }
    }

    /// Appends a literal text segment.
    pub fn push_text(&mut self, text: impl Into<String>) -> &mut Document {
        self.segments.push(Segment::Text(text.into()));
        self
    }

    /// Appends an embedded name segment.
    pub fn push_embedded(&mut self, name: CompoundName) -> &mut Document {
        self.segments.push(Segment::Embedded(name));
        self
    }

    /// The segments in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterates over just the embedded names.
    pub fn embedded_names(&self) -> impl Iterator<Item = &CompoundName> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Embedded(n) => Some(n),
            Segment::Text(_) => None,
        })
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if the document has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// The state of an object: `S_O`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectState {
    /// The object is a *context object* (e.g. a directory).
    Context(Context),
    /// Opaque byte content (e.g. an ordinary file).
    Data(Vec<u8>),
    /// A structured object containing embedded names (§6 Example 2).
    Document(Document),
    /// No interesting state.
    Empty,
}

impl ObjectState {
    /// The context, if this object is a context object.
    pub fn as_context(&self) -> Option<&Context> {
        match self {
            ObjectState::Context(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable access to the context, if this object is a context object.
    pub fn as_context_mut(&mut self) -> Option<&mut Context> {
        match self {
            ObjectState::Context(c) => Some(c),
            _ => None,
        }
    }

    /// True if this object's state is a context (`σ(o) ∈ C`).
    pub fn is_context(&self) -> bool {
        matches!(self, ObjectState::Context(_))
    }
}

/// The state of an activity: `S_A`.
///
/// The paper leaves activity states abstract; the model only needs them to
/// be disjoint from object states. We record liveness and an opaque tag the
/// substrate may use.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityState {
    /// Whether the activity is still running.
    pub alive: bool,
    /// Substrate-defined tag (e.g. the hosting machine's index).
    pub tag: u64,
}

#[derive(Clone, Debug)]
struct ActivityRecord {
    label: String,
    state: ActivityState,
}

/// Per-shard arena of object labels: one contiguous byte buffer plus
/// `(offset, len)` spans, indexed by the `u32` a record stores instead of
/// a boxed `String`.
///
/// The shard is the natural arena: it is cloned as a unit by
/// `Arc::make_mut` and dropped as a unit, so labels need no individual
/// ownership. At the million-context tier this replaces ~10⁶ separate
/// string allocations per shard column with two, and shrinks each object
/// record by `String`'s 24 bytes (plus allocator overhead per label).
/// Labels are immutable after creation — the arena is append-only, which
/// is also what makes the spans stable across `Arc::make_mut` copies.
#[derive(Clone, Debug, Default)]
struct LabelArena {
    bytes: String,
    spans: Vec<(u32, u32)>,
}

impl LabelArena {
    /// Appends a label, returning its index.
    fn push(&mut self, label: &str) -> u32 {
        let start = u32::try_from(self.bytes.len()).expect("label arena overflow");
        let len = u32::try_from(label.len()).expect("label too long");
        self.bytes.push_str(label);
        let idx = u32::try_from(self.spans.len()).expect("label arena overflow");
        self.spans.push((start, len));
        idx
    }

    #[inline]
    fn get(&self, idx: u32) -> &str {
        let (start, len) = self.spans[idx as usize];
        &self.bytes[start as usize..(start + len) as usize]
    }
}

#[derive(Clone, Debug)]
struct ObjectRecord {
    /// Index into the owning shard's [`LabelArena`].
    label: u32,
    state: ObjectState,
}

/// One `Arc`-shared column of the object table, with its own generation
/// counters. See the module docs for the sharding design.
#[derive(Clone, Debug, Default)]
struct Shard {
    objects: Vec<ObjectRecord>,
    /// Arena holding every object label in this shard; `ObjectRecord.label`
    /// indexes into it.
    labels: LabelArena,
    /// Shard-local mirror of [`SystemState::naming_version`]: advanced only
    /// when *this* shard is written.
    naming_version: u64,
    /// Shard-local mirror of [`SystemState::epoch`].
    epoch: u64,
}

/// The global state function σ: tables of activities and objects with their
/// states.
///
/// # Examples
///
/// ```
/// use naming_core::state::{ObjectState, SystemState};
/// use naming_core::name::Name;
/// use naming_core::entity::Entity;
///
/// let mut sys = SystemState::new();
/// let root = sys.add_context_object("root");
/// let etc = sys.add_context_object("etc");
/// sys.bind(root, Name::new("etc"), etc).unwrap();
/// assert_eq!(sys.context(root).unwrap().lookup(Name::new("etc")), Entity::Object(etc));
/// ```
///
/// A state is created with a fixed shard count ([`SystemState::with_shards`];
/// [`SystemState::new`] is the single-shard case). Object creation routes to
/// the *default shard* ([`SystemState::set_default_shard`]) unless an
/// explicit `*_in` constructor is used; an object's shard is fixed for life
/// and recoverable from its id ([`SystemState::shard_of`]).
#[derive(Clone, Debug)]
pub struct SystemState {
    activities: Vec<ActivityRecord>,
    shards: Vec<Arc<Shard>>,
    /// Shard that [`SystemState::add_object`] and friends allocate into.
    default_shard: usize,
    /// Bumped on every naming-relevant mutation (bind, unbind, and any
    /// handout of mutable state). A [`crate::memo::ResolutionMemo`] entry
    /// validated at naming version `v` is still valid, with no further
    /// checks, while the state's naming version is `v`.
    naming_version: u64,
    /// Bumped when mutable access could have *replaced* state wholesale
    /// ([`SystemState::context_mut`] / [`SystemState::object_state_mut`]):
    /// replacement can rewind a context's own version counter, so
    /// per-context generations are no longer conclusive and memo entries
    /// from an earlier epoch must be discarded.
    epoch: u64,
    /// Bumped on *every* mutation, including object/activity creation and
    /// activity-state handouts (which do not move `naming_version`).
    /// Lets a publisher detect an empty staged delta exactly.
    revision: u64,
}

impl Default for SystemState {
    fn default() -> SystemState {
        SystemState::with_shards(1)
    }
}

/// Error produced by [`SystemState`] operations on non-context objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotAContextError {
    /// The offending object.
    pub object: ObjectId,
}

impl fmt::Display for NotAContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object {} is not a context object", self.object)
    }
}

impl std::error::Error for NotAContextError {}

impl SystemState {
    /// Creates an empty system state: no activities, no objects, one shard.
    ///
    /// With a single shard, object ids are exactly the dense creation-order
    /// indices.
    pub fn new() -> SystemState {
        SystemState::with_shards(1)
    }

    /// Creates an empty system state whose object table is split into
    /// `shards` independently versioned shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn with_shards(shards: usize) -> SystemState {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        SystemState {
            activities: Vec::new(),
            shards: (0..shards).map(|_| Arc::new(Shard::default())).collect(),
            default_shard: 0,
            naming_version: 0,
            epoch: 0,
            revision: 0,
        }
    }

    // --- shards -----------------------------------------------------------

    #[inline]
    fn split(o: ObjectId) -> (usize, usize) {
        let i = o.index();
        (i >> LOCAL_BITS, i & LOCAL_MASK)
    }

    #[inline]
    fn pack(shard: usize, local: usize) -> ObjectId {
        ObjectId::from_index(((shard as u32) << LOCAL_BITS) | local as u32)
    }

    /// Number of shards the object table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that holds object `o` (encoded in the id's high bits).
    pub fn shard_of(&self, o: ObjectId) -> usize {
        Self::split(o).0
    }

    /// The shard an [`ObjectId`] encodes, computed from the id alone — no
    /// state access. This is what lets a *client* stamp cache entries
    /// with zone dependencies without consulting σ: the shard is
    /// configuration (baked into the id at creation), not state.
    pub fn shard_of_id(o: ObjectId) -> usize {
        Self::split(o).0
    }

    /// The shard that [`SystemState::add_object`] currently allocates into.
    pub fn default_shard(&self) -> usize {
        self.default_shard
    }

    /// Routes subsequent [`SystemState::add_object`] /
    /// [`SystemState::add_context_object`] / … calls to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state.
    pub fn set_default_shard(&mut self, shard: usize) {
        assert!(shard < self.shards.len(), "no shard {shard}");
        self.default_shard = shard;
    }

    /// Shard-local naming version: advanced exactly when a naming-relevant
    /// write lands in shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.shards[shard].naming_version
    }

    /// Shard-local epoch: advanced exactly when an escape-hatch handout
    /// ([`SystemState::context_mut`] / [`SystemState::object_state_mut`])
    /// targets shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch
    }

    /// The SOA-style zone serial of shard `shard`: its naming version
    /// ([`SystemState::shard_version`]), read as a [`ZoneSerial`]. Unlike
    /// the generation counters, serials are *published* facts —
    /// anti-entropy ships them to replicas, which validate leased cache
    /// entries against their local copy instead of against σ. See
    /// [`crate::lease`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state.
    pub fn shard_serial(&self, shard: usize) -> ZoneSerial {
        ZoneSerial::new(self.shards[shard].naming_version)
    }

    /// The zone serial of every shard, in shard order.
    pub fn shard_serials(&self) -> Vec<ZoneSerial> {
        let serial = |s: &Arc<Shard>| ZoneSerial::new(s.naming_version);
        self.shards.iter().map(serial).collect()
    }

    /// Number of objects in shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state.
    pub fn shard_object_count(&self, shard: usize) -> usize {
        self.shards[shard].objects.len()
    }

    /// How many shards `self` physically shares (same allocation, untouched
    /// since the fork) with `other` — a clone-lineage diagnostic for the
    /// copy-on-publish machinery.
    pub fn shards_shared_with(&self, other: &SystemState) -> usize {
        self.shards
            .iter()
            .zip(other.shards.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Monotonic counter of *all* mutations, including object/activity
    /// creation. Two observations of equal revision bracket a window with
    /// no mutation at all; see
    /// [`ConcurrentService::publish`](../../naming_resolver/concurrent/struct.ConcurrentService.html)
    /// for the empty-delta fast path built on it.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Records shard write heat: the `state.shard.writes` histogram takes
    /// the *shard index* as its value, so one histogram exposes the whole
    /// write distribution (a hot shard shows up as a heavy bucket).
    /// Observational only.
    #[inline]
    fn note_shard_write(shard: usize) {
        naming_telemetry::histogram!("state.shard.writes").record(shard as u64);
    }

    // --- activities -------------------------------------------------------

    /// Adds a live activity and returns its id.
    pub fn add_activity(&mut self, label: impl Into<String>) -> ActivityId {
        let id = ActivityId::from_index(
            u32::try_from(self.activities.len()).expect("activity table overflow"),
        );
        self.revision += 1;
        self.activities.push(ActivityRecord {
            label: label.into(),
            state: ActivityState {
                alive: true,
                tag: 0,
            },
        });
        id
    }

    /// Number of activities ever created.
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// The label given at creation.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an id from this state.
    pub fn activity_label(&self, a: ActivityId) -> &str {
        &self.activities[a.index()].label
    }

    /// The activity's state.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an id from this state.
    pub fn activity_state(&self, a: ActivityId) -> &ActivityState {
        &self.activities[a.index()].state
    }

    /// Mutable access to the activity's state.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an id from this state.
    pub fn activity_state_mut(&mut self, a: ActivityId) -> &mut ActivityState {
        self.revision += 1;
        &mut self.activities[a.index()].state
    }

    /// Iterates over all activity ids in creation order.
    pub fn activities(&self) -> impl Iterator<Item = ActivityId> + '_ {
        (0..self.activities.len()).map(|i| ActivityId::from_index(i as u32))
    }

    // --- objects ----------------------------------------------------------

    /// Adds an object with the given state to the default shard and returns
    /// its id.
    pub fn add_object(&mut self, label: impl AsRef<str>, state: ObjectState) -> ObjectId {
        self.add_object_in(self.default_shard, label, state)
    }

    /// Adds an object with the given state to shard `shard` and returns its
    /// id. The label is copied into the shard's label arena.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a shard of this state, or if the shard is
    /// full ([`MAX_SHARD_OBJECTS`]).
    pub fn add_object_in(
        &mut self,
        shard: usize,
        label: impl AsRef<str>,
        state: ObjectState,
    ) -> ObjectId {
        assert!(shard < self.shards.len(), "no shard {shard}");
        self.revision += 1;
        Self::note_shard_write(shard);
        let sh = Arc::make_mut(&mut self.shards[shard]);
        let local = sh.objects.len();
        assert!(
            local < MAX_SHARD_OBJECTS,
            "object table overflow in shard {shard}"
        );
        let label = sh.labels.push(label.as_ref());
        sh.objects.push(ObjectRecord { label, state });
        Self::pack(shard, local)
    }

    /// Adds an object whose state is an empty context (a fresh directory).
    pub fn add_context_object(&mut self, label: impl AsRef<str>) -> ObjectId {
        self.add_object(label, ObjectState::Context(Context::new()))
    }

    /// Adds a fresh directory to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics like [`SystemState::add_object_in`].
    pub fn add_context_object_in(&mut self, shard: usize, label: impl AsRef<str>) -> ObjectId {
        self.add_object_in(shard, label, ObjectState::Context(Context::new()))
    }

    /// Adds a plain data object.
    pub fn add_data_object(&mut self, label: impl AsRef<str>, data: Vec<u8>) -> ObjectId {
        self.add_object(label, ObjectState::Data(data))
    }

    /// Adds a plain data object to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics like [`SystemState::add_object_in`].
    pub fn add_data_object_in(
        &mut self,
        shard: usize,
        label: impl AsRef<str>,
        data: Vec<u8>,
    ) -> ObjectId {
        self.add_object_in(shard, label, ObjectState::Data(data))
    }

    /// Adds a structured object with embedded names.
    pub fn add_document_object(&mut self, label: impl AsRef<str>, doc: Document) -> ObjectId {
        self.add_object(label, ObjectState::Document(doc))
    }

    /// Number of objects ever created, across all shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.objects.len()).sum()
    }

    #[inline]
    fn record(&self, o: ObjectId) -> &ObjectRecord {
        let (s, l) = Self::split(o);
        &self.shards[s].objects[l]
    }

    /// The label given at creation (resolved from the owning shard's label
    /// arena).
    ///
    /// # Panics
    ///
    /// Panics if `o` is not an id from this state.
    pub fn object_label(&self, o: ObjectId) -> &str {
        let (s, l) = Self::split(o);
        let sh = &self.shards[s];
        sh.labels.get(sh.objects[l].label)
    }

    /// σ applied to an object: its current state.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not an id from this state.
    pub fn object_state(&self, o: ObjectId) -> &ObjectState {
        &self.record(o).state
    }

    /// Mutable access to an object's state.
    ///
    /// This is a raw escape hatch: the caller may replace the state
    /// entirely (e.g. turn a context object into a data object), so it
    /// advances both the naming version and the epoch — conservatively
    /// invalidating every memoized resolution. Prefer
    /// [`SystemState::bind`] / [`SystemState::unbind`] on the hot path;
    /// they invalidate only the resolutions that traversed the mutated
    /// context.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not an id from this state.
    pub fn object_state_mut(&mut self, o: ObjectId) -> &mut ObjectState {
        let (s, l) = Self::split(o);
        self.naming_version += 1;
        self.epoch += 1;
        self.revision += 1;
        Self::note_shard_write(s);
        let sh = Arc::make_mut(&mut self.shards[s]);
        sh.naming_version += 1;
        sh.epoch += 1;
        &mut sh.objects[l].state
    }

    /// Iterates over all object ids, shard by shard, in creation order
    /// within each shard. For a single-shard state this is exactly global
    /// creation order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(s, sh)| (0..sh.objects.len()).map(move |l| Self::pack(s, l)))
    }

    /// True if `o` is a context object in the current state.
    pub fn is_context_object(&self, o: ObjectId) -> bool {
        self.object_state(o).is_context()
    }

    /// The context of a context object.
    ///
    /// Returns `None` if the object's state is not a context.
    pub fn context(&self, o: ObjectId) -> Option<&Context> {
        self.object_state(o).as_context()
    }

    /// Mutable context of a context object.
    ///
    /// Returns `None` if the object's state is not a context. Like
    /// [`SystemState::object_state_mut`], this is a raw escape hatch
    /// (callers may assign a whole replacement context, rewinding its
    /// version counter), so it advances the epoch. Prefer
    /// [`SystemState::bind`] / [`SystemState::unbind`] for fine-grained
    /// memo invalidation.
    pub fn context_mut(&mut self, o: ObjectId) -> Option<&mut Context> {
        let (s, l) = Self::split(o);
        self.naming_version += 1;
        self.epoch += 1;
        self.revision += 1;
        Self::note_shard_write(s);
        let sh = Arc::make_mut(&mut self.shards[s]);
        sh.naming_version += 1;
        sh.epoch += 1;
        sh.objects[l].state.as_context_mut()
    }

    /// Mutable context access for `bind`/`unbind` and other operations
    /// whose effects are fully visible in the context's own version
    /// counter. Does not touch the state-level counters; callers bump
    /// `naming_version` themselves when they mutate.
    fn context_mut_internal(&mut self, o: ObjectId) -> Option<&mut Context> {
        let (s, l) = Self::split(o);
        Arc::make_mut(&mut self.shards[s]).objects[l]
            .state
            .as_context_mut()
    }

    /// Monotonic counter of naming-relevant mutations; see
    /// [`crate::memo::ResolutionMemo`] for how it enables O(1) memo-entry
    /// validation between writes.
    pub fn naming_version(&self) -> u64 {
        self.naming_version
    }

    /// Monotonic counter of wholesale state replacements (raw
    /// `*_mut` escape-hatch handouts). Memo entries recorded under an
    /// older epoch are unconditionally stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Binds `name` to `entity` in the context object `ctx`.
    ///
    /// Advances the context's generation (its version counter), the
    /// owning shard's naming version, and the state's naming version, so
    /// exactly the memoized resolutions that traversed `ctx` become
    /// invalid.
    ///
    /// # Errors
    ///
    /// Returns [`NotAContextError`] if `ctx` is not a context object.
    pub fn bind(
        &mut self,
        ctx: ObjectId,
        name: Name,
        entity: impl Into<Entity>,
    ) -> Result<Option<Entity>, NotAContextError> {
        if !self.is_context_object(ctx) {
            return Err(NotAContextError { object: ctx });
        }
        let (s, _) = Self::split(ctx);
        self.naming_version += 1;
        self.revision += 1;
        Self::note_shard_write(s);
        {
            let sh = Arc::make_mut(&mut self.shards[s]);
            sh.naming_version += 1;
        }
        let c = self.context_mut_internal(ctx).expect("checked above");
        Ok(c.bind(name, entity))
    }

    /// Removes the binding for `name` in the context object `ctx`.
    ///
    /// Advances the context's generation and the shard/state naming
    /// versions, like [`SystemState::bind`].
    ///
    /// # Errors
    ///
    /// Returns [`NotAContextError`] if `ctx` is not a context object.
    pub fn unbind(
        &mut self,
        ctx: ObjectId,
        name: Name,
    ) -> Result<Option<Entity>, NotAContextError> {
        if !self.is_context_object(ctx) {
            return Err(NotAContextError { object: ctx });
        }
        let (s, _) = Self::split(ctx);
        self.naming_version += 1;
        self.revision += 1;
        Self::note_shard_write(s);
        {
            let sh = Arc::make_mut(&mut self.shards[s]);
            sh.naming_version += 1;
        }
        let c = self.context_mut_internal(ctx).expect("checked above");
        Ok(c.unbind(name))
    }

    /// Looks `name` up in the context object `ctx` (single-step resolution).
    ///
    /// Non-context objects yield [`Entity::Undefined`] for every name, per
    /// the total-function semantics.
    pub fn lookup(&self, ctx: ObjectId, name: Name) -> Entity {
        match self.context(ctx) {
            Some(c) => c.lookup(name),
            None => Entity::Undefined,
        }
    }

    /// Deep-copies the subtree of context objects reachable from `src`,
    /// returning the id of the copy of `src`.
    ///
    /// Every object reachable from `src` along naming-graph edges is
    /// duplicated — context objects *and* the data/document objects bound
    /// inside them — and bindings among copied objects are rewritten to the
    /// copies (including `..`-style back edges). Bindings to activities are
    /// preserved as-is: activities are not part of the subtree. Copies are
    /// allocated in the default shard.
    ///
    /// Used by the embedded-names experiments: "the subtree containing the
    /// structured object can be … relocated or copied without changing the
    /// meaning of the embedded names."
    pub fn deep_copy(&mut self, src: ObjectId) -> ObjectId {
        use std::collections::BTreeMap;
        // First pass: find the reachable object set (contexts traversed).
        let mut reach: Vec<ObjectId> = Vec::new();
        let mut seen: BTreeMap<ObjectId, ()> = BTreeMap::new();
        let mut stack = vec![src];
        while let Some(o) = stack.pop() {
            if seen.insert(o, ()).is_some() {
                continue;
            }
            reach.push(o);
            if let Some(c) = self.context(o) {
                for (_, e) in c.iter() {
                    if let Entity::Object(child) = e {
                        if !seen.contains_key(&child) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        // Second pass: allocate copies.
        let mut map: BTreeMap<ObjectId, ObjectId> = BTreeMap::new();
        for &o in &reach {
            let label = format!("{}~copy", self.object_label(o));
            let state = self.object_state(o).clone();
            let copy = self.add_object(label, state);
            map.insert(o, copy);
        }
        // Third pass: rewrite intra-subtree bindings to the copies.
        for &o in &reach {
            let copy = map[&o];
            if let Some(ctx) = self.context(copy).cloned() {
                let mut rewritten = ctx.clone();
                for (n, e) in ctx.iter() {
                    if let Entity::Object(t) = e {
                        if let Some(&tc) = map.get(&t) {
                            rewritten.bind(n, tc);
                        }
                    }
                }
                // Internal accessor: the copies are fresh objects no memo
                // entry can depend on, so no epoch flush is warranted.
                *self.context_mut_internal(copy).expect("copy is a context") = rewritten;
            }
        }
        map[&src]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_activities() {
        let mut s = SystemState::new();
        let a = s.add_activity("shell");
        let b = s.add_activity("editor");
        assert_eq!(s.activity_count(), 2);
        assert_eq!(s.activity_label(a), "shell");
        assert!(s.activity_state(b).alive);
        s.activity_state_mut(b).alive = false;
        assert!(!s.activity_state(b).alive);
        assert_eq!(s.activities().count(), 2);
    }

    #[test]
    fn add_and_query_objects() {
        let mut s = SystemState::new();
        let dir = s.add_context_object("root");
        let file = s.add_data_object("motd", b"hello".to_vec());
        assert!(s.is_context_object(dir));
        assert!(!s.is_context_object(file));
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.object_label(file), "motd");
    }

    #[test]
    fn bind_and_lookup() {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        s.bind(root, Name::new("etc"), etc).unwrap();
        assert_eq!(s.lookup(root, Name::new("etc")), Entity::Object(etc));
        assert_eq!(s.lookup(root, Name::new("usr")), Entity::Undefined);
        // Lookup in a non-context object is ⊥ for everything.
        let file = s.add_data_object("f", vec![]);
        assert_eq!(s.lookup(file, Name::new("etc")), Entity::Undefined);
    }

    #[test]
    fn bind_on_non_context_errors() {
        let mut s = SystemState::new();
        let file = s.add_data_object("f", vec![]);
        let err = s.bind(file, Name::new("x"), file).unwrap_err();
        assert_eq!(err.object, file);
        assert!(s.unbind(file, Name::new("x")).is_err());
    }

    #[test]
    fn naming_version_tracks_binds_epoch_tracks_escape_hatches() {
        let mut s = SystemState::new();
        let root = s.add_context_object("root");
        let etc = s.add_context_object("etc");
        let (nv0, ep0) = (s.naming_version(), s.epoch());

        // bind/unbind: naming version moves, epoch does not.
        s.bind(root, Name::new("etc"), etc).unwrap();
        assert!(s.naming_version() > nv0);
        assert_eq!(s.epoch(), ep0);
        let nv1 = s.naming_version();
        s.unbind(root, Name::new("etc")).unwrap();
        assert!(s.naming_version() > nv1);
        assert_eq!(s.epoch(), ep0);

        // A failed bind mutates nothing and bumps nothing.
        let file = s.add_data_object("f", vec![]);
        let (nv2, ep2) = (s.naming_version(), s.epoch());
        assert!(s.bind(file, Name::new("x"), file).is_err());
        assert!(s.unbind(file, Name::new("x")).is_err());
        assert_eq!((s.naming_version(), s.epoch()), (nv2, ep2));

        // Raw escape hatches advance the epoch.
        let _ = s.context_mut(root);
        assert!(s.epoch() > ep2);
        let ep3 = s.epoch();
        let _ = s.object_state_mut(file);
        assert!(s.epoch() > ep3);
    }

    #[test]
    fn single_shard_ids_are_dense_indices() {
        let mut s = SystemState::new();
        for i in 0..64 {
            let o = s.add_context_object(format!("c{i}"));
            assert_eq!(o.index(), i);
            assert_eq!(s.shard_of(o), 0);
        }
        assert_eq!(s.shard_count(), 1);
    }

    #[test]
    fn sharded_ids_round_trip_and_route() {
        let mut s = SystemState::with_shards(4);
        let a = s.add_context_object_in(0, "a");
        let b = s.add_context_object_in(3, "b");
        let c = s.add_data_object_in(3, "c", vec![1]);
        assert_eq!(s.shard_of(a), 0);
        assert_eq!(s.shard_of(b), 3);
        assert_eq!(s.shard_of(c), 3);
        assert_ne!(b, c);
        assert_eq!(s.object_label(b), "b");
        assert_eq!(s.object_label(c), "c");
        assert_eq!(s.object_count(), 3);
        assert_eq!(s.shard_object_count(3), 2);
        // Default-shard routing.
        s.set_default_shard(2);
        let d = s.add_context_object("d");
        assert_eq!(s.shard_of(d), 2);
        // objects() visits every id exactly once.
        let all: Vec<_> = s.objects().collect();
        assert_eq!(all.len(), 4);
        for &o in &[a, b, c, d] {
            assert!(all.contains(&o));
        }
    }

    #[test]
    fn writes_bump_only_their_shard() {
        let mut s = SystemState::with_shards(2);
        let a = s.add_context_object_in(0, "a");
        let b = s.add_context_object_in(1, "b");
        let (v0, v1) = (s.shard_version(0), s.shard_version(1));
        s.bind(a, Name::new("b"), b).unwrap();
        assert!(s.shard_version(0) > v0);
        assert_eq!(s.shard_version(1), v1);
        // Escape hatches bump only the owning shard's epoch.
        let e1 = s.shard_epoch(1);
        let _ = s.context_mut(b);
        assert_eq!(s.shard_epoch(0), 0);
        assert!(s.shard_epoch(1) > e1);
    }

    #[test]
    fn zone_serials_track_exactly_the_shard_naming_writes() {
        let mut s = SystemState::with_shards(2);
        let a = s.add_context_object_in(0, "a");
        let b = s.add_context_object_in(1, "b");
        let (s0, s1) = (s.shard_serial(0), s.shard_serial(1));
        // Object creation is not a naming write: serials hold still.
        assert_eq!((s0, s1), (ZoneSerial::ZERO, ZoneSerial::ZERO));
        // A bind in shard 0 advances shard 0's serial only, in lockstep
        // with its naming version.
        s.bind(a, Name::new("b"), b).unwrap();
        assert!(s.shard_serial(0).is_newer_than(s0));
        assert_eq!(s.shard_serial(1), s1);
        assert_eq!(s.shard_serial(0).get(), s.shard_version(0));
        // Unbind and escape hatches advance it too.
        s.unbind(a, Name::new("b")).unwrap();
        let _ = s.context_mut(b);
        assert_eq!(s.shard_serial(0).get(), s.shard_version(0));
        assert_eq!(s.shard_serial(1).get(), s.shard_version(1));
        assert_eq!(
            s.shard_serials(),
            vec![s.shard_serial(0), s.shard_serial(1)]
        );
        // shard_of_id agrees with the stateful accessor, stateless.
        assert_eq!(SystemState::shard_of_id(b), s.shard_of(b));
    }

    #[test]
    fn clone_shares_shards_until_written() {
        let mut s = SystemState::with_shards(4);
        let a = s.add_context_object_in(0, "a");
        let b = s.add_context_object_in(1, "b");
        s.bind(a, Name::new("b"), b).unwrap();
        let snap = s.clone();
        assert_eq!(snap.shards_shared_with(&s), 4);
        // A write to shard 0 unshares only shard 0.
        s.bind(a, Name::new("self"), a).unwrap();
        assert_eq!(snap.shards_shared_with(&s), 3);
        // The clone still sees the pre-write world.
        assert_eq!(snap.lookup(a, Name::new("self")), Entity::Undefined);
        assert_eq!(s.lookup(a, Name::new("self")), Entity::Object(a));
    }

    #[test]
    fn revision_counts_every_mutation() {
        let mut s = SystemState::new();
        let r0 = s.revision();
        let root = s.add_context_object("root");
        assert!(s.revision() > r0);
        let r1 = s.revision();
        let act = s.add_activity("p");
        assert!(s.revision() > r1);
        let r2 = s.revision();
        s.activity_state_mut(act).alive = false;
        assert!(s.revision() > r2);
        let r3 = s.revision();
        s.bind(root, Name::root(), root).unwrap();
        assert!(s.revision() > r3);
        // Reads do not move it.
        let r4 = s.revision();
        let _ = s.lookup(root, Name::root());
        let _ = s.object_state(root);
        assert_eq!(s.revision(), r4);
    }

    #[test]
    fn document_segments() {
        let mut d = Document::new();
        d.push_text("\\documentclass{article}");
        d.push_embedded(CompoundName::parse_path("ch1.tex").unwrap());
        d.push_embedded(CompoundName::parse_path("ch2.tex").unwrap());
        assert_eq!(d.len(), 3);
        assert_eq!(d.embedded_names().count(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn deep_copy_rewrites_internal_edges() {
        let mut s = SystemState::new();
        let top = s.add_context_object("top");
        let sub = s.add_context_object("sub");
        let leaf = s.add_data_object("leaf", b"x".to_vec());
        let shell = s.add_activity("shell");
        s.bind(top, Name::new("sub"), sub).unwrap();
        s.bind(top, Name::new("owner"), shell).unwrap();
        s.bind(sub, Name::new("leaf"), leaf).unwrap();
        s.bind(sub, Name::parent(), top).unwrap();

        let copy = s.deep_copy(top);
        assert_ne!(copy, top);
        let copy_sub = s
            .lookup(copy, Name::new("sub"))
            .as_object()
            .expect("sub copied");
        assert_ne!(copy_sub, sub);
        // Internal edge rewritten: copy's `..` points back at the copy root.
        assert_eq!(s.lookup(copy_sub, Name::parent()), Entity::Object(copy));
        // Activity binding preserved: activities are not part of a subtree.
        assert_eq!(s.lookup(copy, Name::new("owner")), Entity::Activity(shell));
        // Leaf inside was duplicated with the same content.
        let copy_leaf = s.lookup(copy_sub, Name::new("leaf")).as_object().unwrap();
        assert_ne!(copy_leaf, leaf);
        assert_eq!(s.object_state(copy_leaf), s.object_state(leaf));
    }

    #[test]
    fn deep_copy_handles_cycles() {
        let mut s = SystemState::new();
        let a = s.add_context_object("a");
        let b = s.add_context_object("b");
        s.bind(a, Name::new("b"), b).unwrap();
        s.bind(b, Name::new("a"), a).unwrap();
        let copy = s.deep_copy(a);
        let copy_b = s.lookup(copy, Name::new("b")).as_object().unwrap();
        let back = s.lookup(copy_b, Name::new("a")).as_object().unwrap();
        assert_eq!(back, copy);
    }
}
