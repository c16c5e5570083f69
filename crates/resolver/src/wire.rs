//! Wire encoding of the resolution protocol.
//!
//! Every frame is laid out once, over the simulator's one codec
//! ([`naming_sim::codec`]): one function writes a frame and, run dry, sizes
//! it, and one reads it back through bounds-checked reads. Frames travel as
//! [`naming_sim::message::Payload::Bytes`] parts through the simulator's
//! message layer, exactly as a real name-service protocol would travel
//! over UDP/TCP. The resolution path and the anti-entropy pull build and
//! read their frames in reused buffers (`*Frame` layouts, `read_*`,
//! [`KeptDelta`]). A resolution frame also has an owned type, whose
//! `encode` and `decode` are the same code over fresh buffers; a pull frame
//! has no other form.

use bytes::Bytes;
use naming_core::entity::{Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
use naming_sim::codec::{self, Layout, Reader, Sink, Writer};
use naming_sim::topology::MachineId;

/// How the client wants the lookup performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The server resolves as far as it can locally, then answers with a
    /// referral; the *client* contacts the next server.
    Iterative,
    /// The server chases referrals itself and returns the final answer.
    Recursive,
}

/// A name component as the receiver of a *request* reads it: `None` is a
/// label this process has never interned. No context binds it, so it
/// resolves to `⊥` wherever a walk meets it — and reading it interns
/// nothing, so no peer can grow an authority's memory by asking for names
/// that exist nowhere.
pub type Label = Option<Name>;

/// A resolution outcome. It carries no label: a referral says how far
/// the walk got in the name the client already holds (§2), so a server
/// never echoes a client's labels back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Fully resolved.
    Resolved(Entity),
    /// Partially resolved: continue at `next_ctx` (hosted on
    /// `next_machine`) with the last `remaining` components of the name
    /// that was asked.
    Referral {
        /// The machine hosting the next context object.
        next_machine: MachineId,
        /// The next context object.
        next_ctx: ObjectId,
        /// Trailing components still to resolve. An honest server sends
        /// `0 < remaining < asked`; a client follows nothing else.
        remaining: u16,
    },
    /// The name does not denote anything (`⊥`).
    NotFound,
    /// The start context is not hosted by the queried server.
    WrongServer,
    /// Resolution could not reach an authority: messages were lost, the
    /// server is down, nobody is placed for the next zone, or the wire
    /// cannot carry the request. This is a *transport* verdict,
    /// categorically distinct from `NotFound` — a lost message says nothing
    /// about the binding, so `Unreachable` must never be reported (or
    /// cached) as `⊥`.
    Unreachable {
        /// Send attempts made before giving up (0 when no request could
        /// even be addressed, e.g. an unplaced start context).
        attempts: u32,
    },
}

/// A zone-update frame: the primary pushes its zone's current bindings to
/// a secondary, which installs them in its copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneUpdate {
    /// The primary zone object the update describes.
    pub zone: ObjectId,
    /// The zone's bindings at send time.
    pub bindings: Vec<(Name, Entity)>,
}

impl Layout for ZoneUpdate {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        w.u8(TAG_ZONE_UPDATE);
        w.object(self.zone);
        w.list32(&self.bindings, |w, &(n, e)| {
            w.label(n.as_str());
            w.entity(e);
        });
    }
}

impl ZoneUpdate {
    /// Encodes the update into an exactly sized frame. Panics when the
    /// wire cannot carry it ([`codec::encode`]).
    pub fn encode(&self) -> Bytes {
        codec::encode(self)
    }

    /// Decodes an update frame. Returns `None` on malformed input.
    pub fn decode(frame: Bytes) -> Option<ZoneUpdate> {
        let mut r = Reader::new(&frame);
        r.tag(TAG_ZONE_UPDATE)?;
        let zone = r.object()?;
        let bindings = r.list32(2 + 1, |r| Some((Name::new(r.label()?), r.entity()?)))?;
        Some(ZoneUpdate { zone, bindings })
    }
}

/// A diff-since-serial pull (tag 6) as it goes out: its id, and per zone
/// (shard) the last serial the puller has heard — [`ZoneSerial::ZERO`]:
/// never synced, which in practice forces a full transfer. The authority
/// answers with everything newer (tag 7, read by [`KeptDelta`]): the IXFR
/// analogue.
pub(crate) struct PullFrame<'a>(pub u64, pub &'a [(usize, ZoneSerial)]);

impl Layout for PullFrame<'_> {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        let PullFrame(id, since) = *self;
        w.u8(TAG_ZONE_DELTA_REQUEST);
        w.u64(id);
        w.list16(since, |w, &(shard, serial)| {
            w.usize16(shard);
            w.u64(serial.get());
        });
    }
}

/// Reads a request frame's serials into `since` and returns its id; `None`
/// on a malformed frame, whatever `since` then holds.
pub(crate) fn read_pull(frame: &[u8], since: &mut Vec<(usize, ZoneSerial)>) -> Option<u64> {
    let mut r = Reader::new(frame);
    r.tag(TAG_ZONE_DELTA_REQUEST)?;
    let (id, count) = (r.u64()?, r.u16()?);
    since.clear();
    since.reserve(r.capacity(usize::from(count), 2 + 8));
    for _ in 0..count {
        since.push((usize::from(r.u16()?), ZoneSerial::new(r.u64()?)));
    }
    Some(id)
}

/// One binding change in a slice of a pull's answer: `entity` is the new
/// value of `name` in context `ctx`; [`Entity::Undefined`] encodes an
/// unbind. `was` is the binding the change replaced, journaled so a puller
/// can tell which of its cached answers the change could have altered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneChange {
    /// The context object the change landed in.
    pub ctx: ObjectId,
    /// The name whose binding changed.
    pub name: Name,
    /// The new binding (⊥ = the name was unbound).
    pub entity: Entity,
    /// The binding before the change (⊥ = the name was unbound). A full
    /// transfer's dump says ⊥: it replays no history.
    pub was: Entity,
}

/// What a slice of a pull's answer (tag 7) states before its changes: one
/// per requested zone, in request order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceHead {
    /// The zone (shard) the slice describes.
    pub shard: usize,
    /// The authority's serial as of the frame; the puller adopts it.
    pub serial: ZoneSerial,
    /// `true` — the requested serial fell outside the retained delta
    /// window (or had regressed) and the changes are a complete dump of the
    /// zone's bindings (AXFR fallback). `false` — they are the exact
    /// incremental diff since the requested serial (IXFR), in commit order.
    pub full: bool,
    /// How many changes the slice carries.
    pub changes: usize,
}

/// What a pull's answer is handed to, slice by slice: the [`Writer`] of its
/// frame (`ZoneJournal::answer_frame`), or the [`KeptDelta`] it is read
/// into by the one reader, [`read_delta`].
pub(crate) trait DeltaSink {
    /// Reply `id` begins; `slices` follow (for a frame being read, no more
    /// than the rest of the frame can hold).
    fn start(&mut self, id: u64, slices: usize);
    /// The next slice begins.
    fn slice(&mut self, head: SliceHead);
    /// The current slice's next change.
    fn change(&mut self, ctx: ObjectId, label: &str, entity: Entity, was: Entity);
}

/// The frame's layout.
impl<S: Sink> DeltaSink for Writer<S> {
    fn start(&mut self, id: u64, slices: usize) {
        self.u8(TAG_ZONE_DELTA);
        self.u64(id);
        self.usize16(slices);
    }

    fn slice(&mut self, head: SliceHead) {
        self.usize16(head.shard);
        self.u64(head.serial.get());
        self.u8(u8::from(head.full));
        self.usize32(head.changes);
    }

    fn change(&mut self, ctx: ObjectId, label: &str, entity: Entity, was: Entity) {
        self.object(ctx);
        self.label(label);
        self.entity(entity);
        self.entity(was);
    }
}

/// Reads a pull's answer frame into `into` and returns its id; `None` on a
/// malformed frame, whatever `into` was handed by then: half a reply is no
/// reply.
pub(crate) fn read_delta(frame: &[u8], into: &mut impl DeltaSink) -> Option<u64> {
    let mut r = Reader::new(frame);
    r.tag(TAG_ZONE_DELTA)?;
    let (id, slices) = (r.u64()?, r.u16()?);
    into.start(id, r.capacity(usize::from(slices), 2 + 8 + 1 + 4));
    for _ in 0..slices {
        let (shard, serial) = (usize::from(r.u16()?), ZoneSerial::new(r.u64()?));
        let (full, changes) = (r.flag()?, r.u32()? as usize);
        let head = SliceHead {
            shard,
            serial,
            full,
            changes,
        };
        into.slice(head);
        for _ in 0..changes {
            let (ctx, label) = (r.object()?, r.label()?);
            into.change(ctx, label, r.entity()?, r.entity()?);
        }
    }
    Some(id)
}

/// The id a pull's answer frame states, read from its head alone.
pub(crate) fn delta_id(frame: &[u8]) -> Option<u64> {
    let mut r = Reader::new(frame);
    r.tag(TAG_ZONE_DELTA)?;
    r.u64()
}

/// A pull's answer as a replica reads it, into buffers it keeps from one
/// frame to the next: every slice's head, and an incremental slice's
/// changes. It is the one form of that answer. A full transfer's changes are checked and counted, never kept —
/// a replica judges a full slice zone-wide — so a bootstrap leaves nothing
/// behind, and a warm read allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct KeptDelta {
    /// Each slice's head, and where its changes start in `diffs`.
    slices: Vec<(SliceHead, usize)>,
    diffs: Vec<ZoneChange>,
}

impl KeptDelta {
    /// Reads a pull's answer frame in place of the last one and returns its
    /// id; `None` on a malformed frame, whatever is then kept.
    pub fn read(&mut self, frame: &[u8]) -> Option<u64> {
        read_delta(frame, self)
    }

    /// The slices' heads, in reply order.
    pub fn slices(&self) -> impl ExactSizeIterator<Item = SliceHead> + '_ {
        self.slices.iter().map(|&(head, _)| head)
    }

    /// The changes of slice `at` when it is incremental; `None` for a full
    /// slice, whose changes are not kept, or past the last slice.
    pub fn diff(&self, at: usize) -> Option<&[ZoneChange]> {
        let &(head, from) = self.slices.get(at)?;
        let to = self
            .slices
            .get(at + 1)
            .map_or(self.diffs.len(), |&(_, to)| to);
        (!head.full).then(|| &self.diffs[from..to])
    }
}

impl DeltaSink for KeptDelta {
    fn start(&mut self, _: u64, slices: usize) {
        self.slices.clear();
        self.diffs.clear();
        self.slices.reserve(slices);
    }

    fn slice(&mut self, head: SliceHead) {
        self.slices.push((head, self.diffs.len()));
    }

    fn change(&mut self, ctx: ObjectId, label: &str, entity: Entity, was: Entity) {
        if self.slices.last().is_some_and(|(head, _)| !head.full) {
            let name = Name::new(label);
            self.diffs.push(ZoneChange {
                ctx,
                name,
                entity,
                was,
            });
        }
    }
}

// A frame's first byte is its tag: each receiver dispatches on it, then
// reads the frame with that type's decoder. Tag 2, the scalar reply, is
// retired: both requests are answered by tag 5.
pub(crate) const TAG_RECURSIVE: u8 = 1;
pub(crate) const TAG_ZONE_UPDATE: u8 = 3;
pub(crate) const TAG_BATCH_REQUEST: u8 = 4;
pub(crate) const TAG_BATCH_REPLY: u8 = 5;
pub(crate) const TAG_ZONE_DELTA_REQUEST: u8 = 6;
pub(crate) const TAG_ZONE_DELTA: u8 = 7;

const OUT_RESOLVED: u8 = 1;
const OUT_REFERRAL: u8 = 2;
const OUT_NOT_FOUND: u8 = 3;
const OUT_WRONG_SERVER: u8 = 4;
const OUT_UNREACHABLE: u8 = 5;

fn put_outcome<S: Sink>(w: &mut Writer<S>, o: &Outcome) {
    match *o {
        Outcome::Resolved(e) => {
            w.u8(OUT_RESOLVED);
            w.entity(e);
        }
        Outcome::Referral {
            next_machine,
            next_ctx,
            remaining,
        } => {
            w.u8(OUT_REFERRAL);
            w.usize32(next_machine.0);
            w.object(next_ctx);
            w.u16(remaining);
        }
        Outcome::NotFound => w.u8(OUT_NOT_FOUND),
        Outcome::WrongServer => w.u8(OUT_WRONG_SERVER),
        Outcome::Unreachable { attempts } => {
            w.u8(OUT_UNREACHABLE);
            w.u32(attempts);
        }
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Option<Outcome> {
    Some(match r.u8()? {
        OUT_RESOLVED => Outcome::Resolved(r.entity()?),
        OUT_REFERRAL => Outcome::Referral {
            next_machine: MachineId(r.u32()? as usize),
            next_ctx: r.object()?,
            remaining: r.u16()?,
        },
        OUT_NOT_FOUND => Outcome::NotFound,
        OUT_WRONG_SERVER => Outcome::WrongServer,
        OUT_UNREACHABLE => Outcome::Unreachable { attempts: r.u32()? },
        _ => return None,
    })
}

/// One node of a [`NameTrie`]: a name component, an optional query id
/// (set when some batched name *ends* here), and its children as a range
/// of the trie's shared child table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrieNode {
    /// The name component this edge carries.
    pub component: Label,
    /// `Some(q)` when batched query `q`'s name ends at this node.
    pub query: Option<u32>,
    /// `kids[lo..hi]` of the owning trie.
    kids: (u32, u32),
}

/// A set of compound names, shared-prefix compressed: each distinct
/// prefix appears exactly once, so a server resolving the trie performs
/// one lookup per *distinct* component run instead of one per name.
///
/// Duplicate names coalesce to the same query id (single-flight within
/// the batch); [`NameTrie::build`] returns the input-position → query-id
/// mapping so callers can fan results back out.
///
/// Invariants (maintained by [`NameTrie::build`], enforced by
/// [`BatchRequest::decode`], relied on by [`NameTrie::walk`]): the nodes
/// form a forest — each is a root or the child of exactly one node of
/// strictly smaller index, so `kids` lists every node exactly once — and
/// the query ids `0..query_count` each end at exactly one node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTrie {
    nodes: Vec<TrieNode>,
    /// Every node's children, concatenated in node order, then the
    /// top-level nodes from `kids[roots_at]` on; lists are first-seen order.
    kids: Vec<u32>,
    roots_at: u32,
    query_count: u32,
}

/// The buffers of one [`NameTrie::walk`], reusable from walk to walk: the
/// pending `(node, depth, state)` and the path.
pub type WalkScratch<S> = (Vec<(u32, u32, S)>, Vec<Label>);

impl NameTrie {
    /// Builds a trie from `names`, coalescing duplicates. Returns the
    /// trie and, for each input position, the query id its answer will
    /// be filed under.
    pub fn build(names: &[CompoundName]) -> (NameTrie, Vec<u32>) {
        // Worst case (no shared prefixes): one node per component.
        let total: usize = names.iter().map(CompoundName::len).sum();
        let mut trie = NameTrie::default();
        trie.nodes.reserve_exact(total);
        trie.kids.reserve_exact(total);
        let mut cells = Vec::with_capacity(2 + 3 * total);
        let mut mapping = Vec::with_capacity(names.len());
        let runs = names.iter().map(CompoundName::components);
        trie.rebuild(runs, false, &mut cells, &mut mapping);
        (trie, mapping)
    }

    /// Makes `self` the trie of `names` — as a client holds them, or as
    /// they came off the wire —, reusing its storage and `cells` (builder
    /// scratch), and appends each name's query id to `mapping`. `sorted`
    /// promises the names come in order, so that a component is the last
    /// one seen under its parent or new there: the build is then linear,
    /// however many children a node has.
    pub(crate) fn rebuild<'a, L: Copy + Into<Label> + 'a>(
        &mut self,
        names: impl Iterator<Item = &'a [L]>,
        sorted: bool,
        cells: &mut Vec<u32>,
        mapping: &mut Vec<u32>,
    ) {
        const NIL: u32 = u32::MAX;
        let NameTrie { nodes, kids, .. } = self;
        nodes.clear();
        kids.clear();
        // While they still grow, child lists are linked in first-seen
        // order: cells 0 and 1 hold the root list's first and last node,
        // cells `2 + 3k`, `3 + 3k` and `4 + 3k` node `k`'s first child,
        // next sibling and last child.
        cells.clear();
        cells.extend([NIL, NIL]);
        let mut query_count = 0u32;
        for name in names {
            let (mut cur, mut slot, mut last) = (NIL, 0, 1);
            for &c in name {
                let c = c.into();
                // Follow the list to `c`, or to the empty cell at its end
                // that a new node for `c` is linked into — from its last
                // node when the names are sorted.
                if sorted && cells[last] != NIL {
                    let tail = cells[last] as usize;
                    slot = if nodes[tail].component == c {
                        last
                    } else {
                        3 + 3 * tail
                    };
                }
                while cells[slot] != NIL && nodes[cells[slot] as usize].component != c {
                    slot = 3 + 3 * cells[slot] as usize;
                }
                if cells[slot] == NIL {
                    // 2³² nodes would be 96 GiB of them: the allocator fails first.
                    cells[slot] = u32::try_from(nodes.len()).expect("fewer than 2³² nodes");
                    cells[last] = cells[slot];
                    nodes.push(TrieNode {
                        component: c,
                        query: None,
                        kids: (0, 0),
                    });
                    cells.extend([NIL, NIL, NIL]);
                }
                cur = cells[slot];
                (slot, last) = (2 + 3 * cur as usize, 4 + 3 * cur as usize);
            }
            // The run is nonempty, so `cur` is a node by now.
            let q = *nodes[cur as usize].query.get_or_insert_with(|| {
                query_count += 1;
                query_count - 1
            });
            mapping.push(q);
        }
        // Lay the finished lists out as ranges of one table.
        let mut list = |head: usize| {
            let (lo, mut k) = (kids.len() as u32, cells[head]);
            while k != NIL {
                kids.push(k);
                k = cells[3 + 3 * k as usize];
            }
            (lo, kids.len() as u32)
        };
        for (k, node) in nodes.iter_mut().enumerate() {
            node.kids = list(2 + 3 * k);
        }
        (self.roots_at, _) = list(0);
        self.query_count = query_count;
    }

    /// Number of distinct queries (terminal nodes with a query id).
    pub fn query_count(&self) -> u32 {
        self.query_count
    }

    /// The node at `index`.
    pub(crate) fn node(&self, index: u32) -> &TrieNode {
        &self.nodes[index as usize]
    }

    pub(crate) fn kids_of(&self, node: &TrieNode) -> &[u32] {
        &self.kids[node.kids.0 as usize..node.kids.1 as usize]
    }

    pub(crate) fn roots(&self) -> &[u32] {
        &self.kids[self.roots_at as usize..]
    }

    /// The one depth-first walk over the trie: `visit` sees every node
    /// once, parents before children and siblings in stored order, as
    /// `(index, node, path, state)` — the path runs from a root down to the
    /// node's own component in one shared buffer, and the state is what its
    /// parent's visit returned (`start` at the roots).
    pub fn walk<S: Copy>(
        &self,
        scratch: &mut WalkScratch<S>,
        start: S,
        mut visit: impl FnMut(usize, &TrieNode, &[Label], S) -> S,
    ) {
        let (stack, path) = scratch;
        stack.clear();
        stack.extend(self.roots().iter().rev().map(|&r| (r, 0, start)));
        while let Some((ni, depth, state)) = stack.pop() {
            let node = &self.nodes[ni as usize];
            path.truncate(depth as usize);
            path.push(node.component);
            let below = visit(ni as usize, node, path, state);
            let kids = self.kids_of(node).iter().rev();
            stack.extend(kids.map(|&c| (c, depth + 1, below)));
        }
    }

    /// Reconstructs the name of every query, indexed by query id. Panics
    /// on a decoded trie with a label this process never interned, which no
    /// [`CompoundName`] can hold.
    pub fn names(&self) -> Vec<CompoundName> {
        let mut out: Vec<Option<CompoundName>> = vec![None; self.query_count as usize];
        self.walk(&mut WalkScratch::default(), (), |_, node, path, ()| {
            if let Some(q) = node.query {
                let path = path.iter().map(|c| c.expect("a label never interned"));
                out[q as usize] = CompoundName::new(path).ok();
            }
        });
        out.into_iter()
            .map(|n| n.expect("every query id ends at exactly one node"))
            .collect()
    }

    /// Per-node count of queries in the subtree rooted there — the number
    /// of lookups a naive (per-name) resolution would spend on that
    /// node's component — into `sub`. Children have strictly greater
    /// indices, so one reverse pass suffices.
    pub fn subtree_query_counts(&self, sub: &mut Vec<u32>) {
        sub.clear();
        sub.resize(self.nodes.len(), 0);
        for (i, node) in self.nodes.iter().enumerate().rev() {
            let below: u32 = self.kids_of(node).iter().map(|&c| sub[c as usize]).sum();
            sub[i] = u32::from(node.query.is_some()) + below;
        }
    }

    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        w.u32(self.query_count);
        w.usize32(self.nodes.len());
        for node in &self.nodes {
            // A label never interned has no text: it goes out empty (only
            // when a decoded request is re-encoded — replies carry no
            // labels at all).
            w.label(node.component.map_or("", Name::as_str));
            match node.query {
                Some(q) => {
                    w.u8(1);
                    w.u32(q);
                }
                None => w.u8(0),
            }
            w.list16(self.kids_of(node), |w, &c| w.u32(c));
        }
        w.list32(self.roots(), |w, &r| w.u32(r));
    }

    /// Reads a trie into `self`'s storage (`seen`: scratch for the forest
    /// check). A refused frame leaves nothing to walk here until `self` is
    /// next built or read.
    fn read(&mut self, r: &mut Reader<'_>, seen: &mut Vec<u64>) -> Option<()> {
        let NameTrie { nodes, kids, .. } = self;
        nodes.clear();
        kids.clear();
        let (query_count, node_count) = (r.u32()?, r.u32()? as usize);
        // Both counts size allocations here and in every server that walks
        // the trie, so bound them by what the frame can hold: a node takes
        // at least five bytes (two lengths and a flag) and ends at most one
        // query.
        if node_count > r.remaining() / 5 || query_count as usize > node_count {
            return None;
        }
        nodes.reserve(node_count);
        kids.reserve(node_count);
        // One bit per node ("has a parent or is a root"), then one per query id.
        seen.clear();
        seen.resize((node_count + query_count as usize).div_ceil(64), 0);
        let mut first_sight = |bit: usize| {
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            let fresh = seen[word] & mask == 0;
            seen[word] |= mask;
            fresh
        };
        let mut queries = 0u32;
        // Every label under one interner guard; nothing here interns.
        let names = Name::lookups();
        for i in 0..node_count {
            let component = names.get(r.label()?);
            let query = match r.u8()? {
                0 => None,
                1 => {
                    let q = r.u32()?;
                    if q >= query_count || !first_sight(node_count + q as usize) {
                        return None;
                    }
                    queries += 1;
                    Some(q)
                }
                _ => return None,
            };
            let lo = kids.len() as u32;
            for _ in 0..r.u16()? {
                let c = r.u32()? as usize;
                // Strict descent and a single parent: a malicious frame can
                // send the server neither into a cycle nor down one subtree
                // once per path that reaches it.
                if c <= i || c >= node_count || !first_sight(c) {
                    return None;
                }
                kids.push(c as u32);
            }
            nodes.push(TrieNode {
                component,
                query,
                kids: (lo, kids.len() as u32),
            });
        }
        // Distinct ids below `query_count`, `query_count` of them: none missing.
        if queries != query_count {
            return None;
        }
        // Every node that is nobody's child must be a root, and only those.
        let (roots_at, root_count) = (kids.len() as u32, r.u32()? as usize);
        if root_count != node_count - kids.len() {
            return None;
        }
        for _ in 0..root_count {
            let root = r.u32()?;
            if root as usize >= node_count || !first_sight(root as usize) {
                return None;
            }
            kids.push(root);
        }
        (self.roots_at, self.query_count) = (roots_at, query_count);
        Some(())
    }
}

/// A resolution request: many names (as a shared-prefix trie) resolved
/// from one start context in a single wire exchange; the reply carries one
/// outcome per query id. Its own frame is iterative (the client follows
/// referrals). The same body under the recursive tag (tag 1) holds exactly
/// one name, and the server chases its referrals itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// Correlation id chosen by the requester.
    pub id: u64,
    /// The context object every trie root resolves from.
    pub start: ObjectId,
    /// The batched names, shared-prefix compressed.
    pub trie: NameTrie,
}

/// A request frame as it goes out: under `mode`'s tag, its id, its start
/// context and its trie.
pub(crate) struct RequestFrame<'a>(pub Mode, pub u64, pub ObjectId, pub &'a NameTrie);

impl Layout for RequestFrame<'_> {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        let RequestFrame(mode, id, start, trie) = *self;
        w.u8(match mode {
            Mode::Iterative => TAG_BATCH_REQUEST,
            Mode::Recursive => TAG_RECURSIVE,
        });
        w.u64(id);
        w.object(start);
        trie.write(w);
    }
}

/// Reads a request frame into `trie` (`seen` is scratch): its mode, id and
/// start context, `None` when malformed — and a recursive request chases
/// exactly one name, so one with another number of queries is malformed.
pub(crate) fn read_request(
    frame: &[u8],
    trie: &mut NameTrie,
    seen: &mut Vec<u64>,
) -> Option<(Mode, u64, ObjectId)> {
    let mut r = Reader::new(frame);
    let mode = match r.u8()? {
        TAG_BATCH_REQUEST => Mode::Iterative,
        TAG_RECURSIVE => Mode::Recursive,
        _ => return None,
    };
    let (id, start) = (r.u64()?, r.object()?);
    trie.read(&mut r, seen)?;
    (mode == Mode::Iterative || trie.query_count == 1).then_some((mode, id, start))
}

impl BatchRequest {
    /// Encodes the batch request into an iterative wire frame. Panics when
    /// the wire cannot carry it ([`codec::encode`]).
    pub fn encode(&self) -> Bytes {
        codec::encode(&RequestFrame(
            Mode::Iterative,
            self.id,
            self.start,
            &self.trie,
        ))
    }

    /// Decodes an iterative request frame. Returns `None` on malformed
    /// input.
    pub fn decode(buf: Bytes) -> Option<BatchRequest> {
        let mut trie = NameTrie::default();
        let (mode, id, start) = read_request(&buf, &mut trie, &mut Vec::new())?;
        (mode == Mode::Iterative).then_some(BatchRequest { id, start, trie })
    }
}

/// A zone a walk read, and the serial it read it at: a primary context's
/// zone at σ's current serial, a replica copy's zone at the primary's
/// serial when the copy was last refreshed.
pub type ZoneRead = (usize, ZoneSerial);

/// The reply to a [`BatchRequest`]: one outcome per query id, plus hop
/// accounting for how much work prefix sharing saved.
///
/// On the wire the outcomes are followed by the zones the answering walks
/// read ([`ZoneRead`]s, one per zone, at the oldest serial read there) —
/// what a lease cache needs to renew what it records. The resolution path
/// reads them into the engine's scratch; this typed view states none and
/// drops what it reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReply {
    /// Echoes [`BatchRequest::id`].
    pub id: u64,
    /// One outcome per query, indexed by query id.
    pub outcomes: Vec<Outcome>,
    /// Servers that did authoritative work for this answer.
    pub servers_touched: u32,
    /// Lookups the server *didn't* do thanks to shared-prefix
    /// compression (naive per-name lookups minus actual trie lookups).
    pub lookups_saved: u32,
}

/// A batch-reply frame as it goes out: its id, the servers touched, the
/// lookups saved, the outcomes and the zones read.
pub(crate) struct ReplyFrame<'a>(
    pub u64,
    pub u32,
    pub u32,
    pub &'a [Outcome],
    pub &'a [ZoneRead],
);

impl Layout for ReplyFrame<'_> {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        let ReplyFrame(id, servers_touched, lookups_saved, outcomes, reads) = *self;
        w.u8(TAG_BATCH_REPLY);
        w.u64(id);
        w.u32(servers_touched);
        w.u32(lookups_saved);
        w.list32(outcomes, put_outcome);
        w.list16(reads, |w, &(shard, serial)| {
            w.usize16(shard);
            w.u64(serial.get());
        });
    }
}

/// Reads a reply frame: the outcomes by query id into `outcomes`, the zones
/// read into `reads`, and the request id, the servers touched and the
/// lookups saved. `None` on a malformed frame, whatever the buffers then
/// hold: half a reply is no reply.
pub(crate) fn read_reply(
    frame: &[u8],
    outcomes: &mut Vec<Outcome>,
    reads: &mut Vec<ZoneRead>,
) -> Option<(u64, u32, u32)> {
    let mut r = Reader::new(frame);
    r.tag(TAG_BATCH_REPLY)?;
    let (id, touched, saved, count) = (r.u64()?, r.u32()?, r.u32()?, r.u32()?);
    outcomes.clear();
    outcomes.reserve(r.capacity(count as usize, 1));
    for _ in 0..count {
        outcomes.push(get_outcome(&mut r)?);
    }
    let count = r.u16()?;
    reads.clear();
    reads.reserve(r.capacity(usize::from(count), 2 + 8));
    for _ in 0..count {
        reads.push((usize::from(r.u16()?), ZoneSerial::new(r.u64()?)));
    }
    Some((id, touched, saved))
}

impl BatchReply {
    /// Encodes the batch reply into a wire frame, stating no zones read.
    /// Panics when the wire cannot carry it ([`codec::encode`]).
    pub fn encode(&self) -> Bytes {
        let (touched, saved) = (self.servers_touched, self.lookups_saved);
        codec::encode(&ReplyFrame(self.id, touched, saved, &self.outcomes, &[]))
    }

    /// Decodes a batch-reply frame. Returns `None` on malformed input.
    pub fn decode(buf: Bytes) -> Option<BatchReply> {
        let mut outcomes = Vec::new();
        let read = read_reply(&buf, &mut outcomes, &mut Vec::new());
        let (id, servers_touched, lookups_saved) = read?;
        Some(BatchReply {
            id,
            outcomes,
            servers_touched,
            lookups_saved,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::BytesMut;
    use naming_core::entity::ActivityId;

    /// A pull's answer with every change, a full dump's too: what a test
    /// reads an answer frame into to check all it carries, and writes one
    /// from.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub(crate) struct Dump {
        pub(crate) id: u64,
        pub(crate) slices: Vec<(SliceHead, Vec<ZoneChange>)>,
    }

    impl Dump {
        /// Reads an answer frame; `None` when it is malformed.
        pub(crate) fn read(frame: &[u8]) -> Option<Dump> {
            let mut dump = Dump::default();
            read_delta(frame, &mut dump)?;
            Some(dump)
        }
    }

    impl DeltaSink for Dump {
        fn start(&mut self, id: u64, _: usize) {
            self.id = id;
        }

        fn slice(&mut self, head: SliceHead) {
            self.slices.push((head, Vec::new()));
        }

        fn change(&mut self, ctx: ObjectId, label: &str, entity: Entity, was: Entity) {
            if let Some((_, changes)) = self.slices.last_mut() {
                let name = Name::new(label);
                changes.push(ZoneChange {
                    ctx,
                    name,
                    entity,
                    was,
                });
            }
        }
    }

    impl Layout for Dump {
        fn write<S: Sink>(&self, w: &mut Writer<S>) {
            w.start(self.id, self.slices.len());
            for (head, changes) in &self.slices {
                w.slice(*head);
                for c in changes {
                    w.change(c.ctx, c.name.as_str(), c.entity, c.was);
                }
            }
        }
    }

    /// A slice of zone `shard` at `serial`, its head counting `changes`.
    pub(crate) fn slice(
        shard: usize,
        serial: ZoneSerial,
        full: bool,
        changes: Vec<ZoneChange>,
    ) -> (SliceHead, Vec<ZoneChange>) {
        let head = SliceHead {
            shard,
            serial,
            full,
            changes: changes.len(),
        };
        (head, changes)
    }

    /// Whether `kept` holds what `dump` holds: every slice's head, an
    /// incremental slice's changes, none of a full slice's.
    fn kept_holds(kept: &KeptDelta, dump: &Dump) -> bool {
        let mut diffs = dump.slices.iter().enumerate();
        kept.slices().eq(dump.slices.iter().map(|&(head, _)| head))
            && diffs
                .all(|(at, (head, changes))| kept.diff(at) == (!head.full).then_some(&changes[..]))
            && kept.diff(dump.slices.len()).is_none()
    }

    fn name(p: &str) -> CompoundName {
        CompoundName::parse_path(p).unwrap()
    }

    /// A request for the one name `n`.
    fn one(id: u64, start: u32, n: CompoundName) -> BatchRequest {
        let (trie, _) = NameTrie::build(&[n]);
        let start = ObjectId::from_index(start);
        BatchRequest { id, start, trie }
    }

    /// `req` under the recursive tag.
    fn recursive(req: &BatchRequest) -> Bytes {
        codec::encode(&RequestFrame(Mode::Recursive, req.id, req.start, &req.trie))
    }

    /// A recursive request frame as a name server reads it.
    fn read_recursive(frame: &[u8]) -> Option<BatchRequest> {
        let mut trie = NameTrie::default();
        let (mode, id, start) = read_request(frame, &mut trie, &mut Vec::new())?;
        (mode == Mode::Recursive).then_some(BatchRequest { id, start, trie })
    }

    #[test]
    fn request_roundtrip() {
        let r = one(42, 7, name("/usr/bin/cc"));
        let (rec, it) = (recursive(&r), r.encode());
        assert_eq!(read_recursive(&rec), Some(r.clone()));
        assert_eq!(BatchRequest::decode(it.clone()), Some(r));
        // One body, two tags: each decoder refuses the other one.
        assert_eq!((rec[0], it[0]), (TAG_RECURSIVE, TAG_BATCH_REQUEST));
        assert_eq!(rec[1..], it[1..]);
        assert!(BatchRequest::decode(rec).is_none());
        assert!(read_recursive(&it).is_none());
    }

    #[test]
    fn reply_roundtrips() {
        for outcome in [
            Outcome::Resolved(Entity::Object(ObjectId::from_index(3))),
            Outcome::Resolved(Entity::Activity(ActivityId::from_index(9))),
            Outcome::Resolved(Entity::Undefined),
            Outcome::Referral {
                next_machine: MachineId(2),
                next_ctx: ObjectId::from_index(11),
                remaining: 2,
            },
            Outcome::NotFound,
            Outcome::WrongServer,
            Outcome::Unreachable { attempts: 0 },
            Outcome::Unreachable { attempts: 17 },
        ] {
            let r = BatchReply {
                id: 5,
                outcomes: vec![outcome],
                servers_touched: 3,
                lookups_saved: 0,
            };
            assert_eq!(BatchReply::decode(r.encode()), Some(r));
        }
    }

    #[test]
    fn batch_frame_capacity_estimates_are_exact() {
        // The encoders size their frames first: each is written into a
        // buffer of exactly its length (no realloc, no waste).
        let (trie, _) = NameTrie::build(&[
            name("/usr/bin/cc"),
            name("/usr/bin/ld"),
            name("/etc/passwd"),
        ]);
        let req = BatchRequest {
            id: 1,
            start: ObjectId::from_index(0),
            trie,
        };
        let reply = BatchReply {
            id: 1,
            outcomes: vec![
                Outcome::Resolved(Entity::Object(ObjectId::from_index(3))),
                Outcome::Referral {
                    next_machine: MachineId(2),
                    next_ctx: ObjectId::from_index(11),
                    remaining: 2,
                },
                Outcome::NotFound,
                Outcome::WrongServer,
                Outcome::Unreachable { attempts: 3 },
            ],
            servers_touched: 2,
            lookups_saved: 5,
        };
        for frame in [req.encode(), reply.encode()] {
            let len = frame.len();
            assert_eq!(frame.try_into_mut().unwrap().capacity(), len);
        }
        assert_eq!(
            reply.encode().len(),
            1 + 8 + 4 + 4 + 4 + 6 + 11 + 1 + 1 + 5 + 2
        );
    }

    #[test]
    fn a_reply_frame_carries_the_zones_read() {
        let outcomes = [Outcome::NotFound];
        let reads = [(0, ZoneSerial::new(7)), (513, ZoneSerial::new(u64::MAX))];
        let frame = codec::encode(&ReplyFrame(9, 1, 0, &outcomes, &reads));
        // The read list: its 16-bit count, then 10 bytes a zone.
        assert_eq!(frame.len(), 1 + 8 + 4 + 4 + 4 + 1 + 2 + 2 * (2 + 8));
        let (mut got, mut read) = (Vec::new(), Vec::new());
        assert_eq!(read_reply(&frame, &mut got, &mut read), Some((9, 1, 0)));
        assert_eq!((&got[..], &read[..]), (&outcomes[..], &reads[..]));
        // The typed view drops them; a cut list is no reply.
        assert_eq!(
            BatchReply::decode(frame.clone()).map(|r| r.outcomes),
            Some(vec![Outcome::NotFound])
        );
        assert!(read_reply(&frame[..frame.len() - 1], &mut got, &mut read).is_none());
    }

    #[test]
    fn zone_update_roundtrip() {
        let up = ZoneUpdate {
            zone: ObjectId::from_index(12),
            bindings: vec![
                (Name::new("a"), Entity::Object(ObjectId::from_index(1))),
                (Name::new("b"), Entity::Activity(ActivityId::from_index(2))),
                (Name::new("c"), Entity::Undefined),
            ],
        };
        assert_eq!(ZoneUpdate::decode(up.encode()), Some(up.clone()));
        // Empty zone.
        let empty = ZoneUpdate {
            zone: ObjectId::from_index(0),
            bindings: vec![],
        };
        assert_eq!(ZoneUpdate::decode(empty.encode()), Some(empty));
        // A request frame is not an update.
        assert!(ZoneUpdate::decode(one(1, 0, name("/x")).encode()).is_none());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(BatchRequest::decode(Bytes::from_static(&[])).is_none());
        assert!(BatchRequest::decode(Bytes::from_static(&[9, 0, 0])).is_none());
        assert!(BatchReply::decode(Bytes::from_static(&[1, 2, 3])).is_none());
        // A request frame is not a reply.
        let req = one(1, 0, name("/x"));
        assert!(BatchReply::decode(recursive(&req)).is_none());
        // A decoder reads its own tags only: unknown tags, the retired
        // scalar reply tag and empty frames are no request and no reply.
        assert_eq!(read_recursive(&recursive(&req)), Some(req.clone()));
        let scalar_reply = [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, OUT_NOT_FOUND];
        let (mut trie, mut seen) = (NameTrie::default(), Vec::new());
        for junk in [&[][..], &[9, 0, 0], &scalar_reply] {
            assert!(read_request(junk, &mut trie, &mut seen).is_none());
            assert!(read_reply(junk, &mut Vec::new(), &mut Vec::new()).is_none());
        }
        // Truncated compound name.
        let mut good = BytesMut::from(&recursive(&req)[..]);
        good.truncate(good.len() - 1);
        assert!(read_recursive(&good).is_none());
        // A recursive request chases exactly one name: none or two are
        // refused, where the iterative tag takes any number.
        for paths in [&[][..], &["/x", "/y"][..]] {
            let names: Vec<CompoundName> = paths.iter().map(|p| name(p)).collect();
            let (trie, _) = NameTrie::build(&names);
            let many = BatchRequest {
                trie,
                ..req.clone()
            };
            assert!(read_recursive(&recursive(&many)).is_none(), "{paths:?}");
            assert!(BatchRequest::decode(many.encode()).is_some());
        }
    }

    #[test]
    fn trie_shares_prefixes_and_coalesces_duplicates() {
        let names = [
            name("/usr/bin/cc"),
            name("/usr/bin/ld"),
            name("/usr/lib/libc"),
            name("/usr/bin/cc"), // duplicate: coalesces
            name("/tmp"),
        ];
        let (trie, mapping) = NameTrie::build(&names);
        // /, usr, bin, cc, ld, lib, libc, tmp — shared prefixes (the
        // root component and /usr/bin) stored once.
        assert_eq!(trie.nodes.len(), 8);
        assert_eq!(trie.query_count, 4);
        assert_eq!(mapping.len(), 5);
        assert_eq!(mapping[0], mapping[3], "duplicate names share a query id");
        // Every query's name reconstructs to the right input.
        let qnames = trie.names();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(&qnames[mapping[i] as usize], n);
        }
        // Naive per-name resolution of the four distinct queries would
        // spend 4+4+4+2 = 14 lookups; the trie needs one per node (8).
        let mut naive = 0;
        trie.walk(&mut WalkScratch::default(), (), |_, n, path, ()| {
            naive += n.query.map_or(0, |_| path.len())
        });
        let mut sub = Vec::new();
        trie.subtree_query_counts(&mut sub);
        assert_eq!(naive, 14); // cc:4 + ld:4 + libc:4 + tmp:2
        assert_eq!(sub[0], 4, "the root subtree holds all four queries");
        assert_eq!(sub.iter().sum::<u32>(), 14, "fan-in sums to the same count");
    }

    #[test]
    fn batch_frames_roundtrip() {
        let (trie, _) = NameTrie::build(&[name("/a/b"), name("/a/c"), name("/d")]);
        let req = BatchRequest {
            id: 77,
            start: ObjectId::from_index(3),
            trie,
        };
        assert_eq!(BatchRequest::decode(req.encode()), Some(req.clone()));
        let rep = BatchReply {
            id: 77,
            outcomes: vec![
                Outcome::Resolved(Entity::Object(ObjectId::from_index(9))),
                Outcome::NotFound,
                Outcome::Referral {
                    next_machine: MachineId(1),
                    next_ctx: ObjectId::from_index(4),
                    remaining: 2,
                },
            ],
            servers_touched: 2,
            lookups_saved: 5,
        };
        assert_eq!(BatchReply::decode(rep.encode()), Some(rep.clone()));
        // Cross-frame confusion is rejected.
        assert!(BatchReply::decode(req.encode()).is_none());
        assert!(BatchRequest::decode(rep.encode()).is_none());
        // Truncation is detected, not panicked on.
        let full = req.encode();
        for cut in 0..full.len() {
            assert!(BatchRequest::decode(full.slice(..cut)).is_none());
        }
    }

    #[test]
    fn trie_decode_rejects_cycles_and_bad_indices() {
        let decodes = |trie: &NameTrie| {
            let (id, start, trie) = (1, ObjectId::from_index(0), trie.clone());
            BatchRequest::decode(BatchRequest { id, start, trie }.encode()).is_some()
        };
        // "/", "a" and under it "b" (query 0) and "c" (query 1).
        let (trie, _) = NameTrie::build(&[name("/a/b"), name("/a/c")]);
        assert_eq!((&trie.kids[..3], trie.roots()), (&[1, 2, 3][..], &[0][..]));
        assert!(decodes(&trie));
        type Edit = fn(&mut NameTrie);
        let edits: [(&str, Edit); 9] = [
            ("node 1 its own child (cycle)", |t| t.kids[1] = 1),
            ("child index out of range", |t| t.kids[0] = 99),
            ("one node under two parents", |t| t.kids[2] = 2),
            ("a child listed as a root too", |t| t.kids.push(3)),
            ("a node nobody reaches", |t| t.kids.truncate(3)),
            ("query id out of range", |t| t.nodes[2].query = Some(9)),
            ("query id assigned twice", |t| t.nodes[3].query = Some(0)),
            ("query id never assigned", |t| t.nodes[3].query = None),
            ("more queries than nodes", |t| t.query_count = 5),
        ];
        for (what, edit) in edits {
            let mut evil = trie.clone();
            edit(&mut evil);
            assert!(!decodes(&evil), "{what}");
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Whether the kept readers read `frame` into buffers that held
        /// another frame before as fresh ones read it: the same frames
        /// accepted, with the same content.
        fn kept_agrees(frame: &[u8]) -> bool {
            let (mut since, mut kept) = (vec![(7, ZoneSerial::new(7))], KeptDelta::default());
            let stale = ZoneChange {
                ctx: ObjectId::from_index(1),
                name: Name::new("stale"),
                entity: Entity::Undefined,
                was: Entity::Undefined,
            };
            let stale = Dump {
                id: 1,
                slices: vec![slice(5, ZoneSerial::new(3), false, vec![stale])],
            };
            assert_eq!(kept.read(&codec::encode(&stale)), Some(1));
            let (pulled, mut fresh) = (read_pull(frame, &mut since), Vec::new());
            let request =
                pulled == read_pull(frame, &mut fresh) && (pulled.is_none() || since == fresh);
            let read = kept.read(frame);
            let delta = match Dump::read(frame) {
                Some(dump) => read == Some(dump.id) && kept_holds(&kept, &dump),
                None => read.is_none(),
            };
            request && delta
        }

        /// A drawn slice: its shard, serial and flag, and per change its
        /// context, label and new binding.
        type Drawn = (usize, u64, bool, Vec<(u32, String, u32)>);

        /// A reply from drawn slices, and the serials of the request its
        /// shards answer.
        fn pull_of(id: u64, slices: &[Drawn]) -> (Vec<(usize, ZoneSerial)>, Dump) {
            let slices: Vec<_> = slices
                .iter()
                .map(|(shard, serial, full, raw)| {
                    let changes = raw.iter().map(|(ctx, n, idx)| ZoneChange {
                        ctx: ObjectId::from_index(*ctx),
                        name: Name::new(n),
                        entity: Entity::Object(ObjectId::from_index(*idx)),
                        was: Entity::Undefined,
                    });
                    slice(*shard, ZoneSerial::new(*serial), *full, changes.collect())
                })
                .collect();
            let since = slices.iter().map(|(h, _)| (h.shard, h.serial)).collect();
            (since, Dump { id, slices })
        }

        proptest! {
            /// Arbitrary bytes under either pull frame's tag: the kept
            /// readers and fresh ones accept the same, alike.
            #[test]
            fn kept_pull_readers_agree_on_garbage(
                tag in 6u8..8,
                tail in proptest::collection::vec(any::<u8>(), 0..96),
            ) {
                let frame: Vec<u8> = std::iter::once(tag).chain(tail).collect();
                prop_assert!(kept_agrees(&frame));
            }

            /// Well-formed pull frames, cut short or with one byte
            /// overwritten: the kept readers refuse every proper prefix, and
            /// accept and refuse what fresh ones do, alike.
            #[test]
            fn kept_pull_readers_agree_on_cuts_and_overwrites(
                id in any::<u64>(),
                slices in proptest::collection::vec(
                    (
                        0usize..1024,
                        any::<u64>(),
                        any::<bool>(),
                        proptest::collection::vec((0u32..100_000, "[a-z]{1,6}", 0u32..100), 0..4),
                    ),
                    0..4,
                ),
                cut in any::<usize>(),
                at in any::<usize>(),
                byte in any::<u8>(),
            ) {
                let (since, reply) = pull_of(id, &slices);
                for frame in [codec::encode(&PullFrame(id, &since)), codec::encode(&reply)] {
                    prop_assert!(kept_agrees(&frame));
                    let cut = cut % frame.len();
                    prop_assert!(kept_agrees(&frame[..cut]));
                    prop_assert!(read_pull(&frame[..cut], &mut Vec::new()).is_none());
                    prop_assert!(KeptDelta::default().read(&frame[..cut]).is_none());
                    let mut bad = frame.to_vec();
                    bad[at % frame.len()] = byte;
                    prop_assert!(kept_agrees(&bad));
                }
            }

            /// Decoding arbitrary bytes never panics; it either fails or
            /// yields a frame that re-encodes decodably.
            #[test]
            fn decode_tolerates_garbage(data in proptest::collection::vec(any::<u8>(), 0..200)) {
                let b = Bytes::from(data);
                // A request's labels are looked up, not interned: one never
                // interned is re-encoded empty, and that is a fixed point.
                if let Some(req) = read_recursive(&b) {
                    let again = read_recursive(&recursive(&req));
                    let again = again.expect("a recursive frame re-encodes recursive");
                    prop_assert_eq!(recursive(&again), recursive(&req));
                }
                if let Some(breq) = BatchRequest::decode(b.clone()) {
                    let again = BatchRequest::decode(breq.encode()).unwrap();
                    prop_assert_eq!(again.encode(), breq.encode());
                }
                if let Some(brep) = BatchReply::decode(b.clone()) {
                    prop_assert_eq!(BatchReply::decode(brep.encode()), Some(brep));
                }
                if let Some(up) = ZoneUpdate::decode(b.clone()) {
                    prop_assert_eq!(ZoneUpdate::decode(up.encode()), Some(up));
                }
                let (mut since, mut again) = (Vec::new(), Vec::new());
                if let Some(id) = read_pull(&b, &mut since) {
                    let frame = codec::encode(&PullFrame(id, &since));
                    prop_assert_eq!(read_pull(&frame, &mut again), Some(id));
                    prop_assert_eq!(again, since);
                }
                if let Some(dump) = Dump::read(&b) {
                    prop_assert_eq!(Dump::read(&codec::encode(&dump)), Some(dump));
                }
            }

            /// A pull's answer round-trips for arbitrary well-formed content
            /// — incremental and full slices, binds, unbinds and rebinds —
            /// and a kept delta holds its heads and diffs.
            #[test]
            fn zone_delta_roundtrip_general(
                id in any::<u64>(),
                slices in proptest::collection::vec(
                    (
                        0usize..1024,
                        any::<u64>(),
                        any::<bool>(),
                        proptest::collection::vec(
                            (0u32..100_000, "[a-z]{1,6}", 0u32..9, 0u32..100),
                            0..8,
                        ),
                    ),
                    0..5,
                ),
            ) {
                let slices = slices
                    .iter()
                    .map(|(shard, serial, full, raw)| {
                        let changes = raw.iter().map(|(ctx, n, kinds, idx)| {
                            // The new binding's kind, and the old one's.
                            let entity = |kind| match kind {
                                0 => Entity::Object(ObjectId::from_index(*idx)),
                                1 => Entity::Activity(ActivityId::from_index(*idx)),
                                _ => Entity::Undefined,
                            };
                            ZoneChange {
                                ctx: ObjectId::from_index(*ctx),
                                name: Name::new(n),
                                entity: entity(kinds % 3),
                                was: entity(kinds / 3),
                            }
                        });
                        slice(*shard, ZoneSerial::new(*serial), *full, changes.collect())
                    })
                    .collect();
                let delta = Dump { id, slices };
                let frame = codec::encode(&delta);
                let mut kept = KeptDelta::default();
                prop_assert_eq!(kept.read(&frame), Some(id));
                prop_assert!(kept_holds(&kept, &delta));
                prop_assert_eq!(Dump::read(&frame), Some(delta));
            }

            /// Batch frames round-trip for arbitrary well-formed name sets,
            /// and the trie reconstructs every input name.
            #[test]
            fn batch_roundtrip_general(
                id in any::<u64>(),
                start in 0u32..1_000_000,
                raw in proptest::collection::vec(
                    proptest::collection::vec("[a-z]{1,4}", 1..5),
                    1..12,
                ),
                lie in 0u32..64,
            ) {
                let names: Vec<CompoundName> = raw
                    .iter()
                    .map(|segs| CompoundName::new(segs.iter().map(|s| Name::new(s))).unwrap())
                    .collect();
                let (trie, mapping) = NameTrie::build(&names);
                prop_assert!(trie.query_count as usize <= names.len());
                let qnames = trie.names();
                for (i, n) in names.iter().enumerate() {
                    prop_assert_eq!(&qnames[mapping[i] as usize], n);
                }
                let req = BatchRequest { id, start: ObjectId::from_index(start), trie };
                prop_assert_eq!(BatchRequest::decode(req.encode()), Some(req.clone()));
                // Truncating the frame anywhere short of the end fails
                // cleanly.
                let full = req.encode();
                let cut = full.len() / 2;
                prop_assert!(BatchRequest::decode(full.slice(..cut)).is_none());
                // A valid frame whose query or node count was overwritten
                // (u32::MAX included) no longer describes its own body.
                for (at, lie) in [(13, u32::MAX), (13, lie), (17, u32::MAX), (17, lie)] {
                    let mut bad = full.to_vec();
                    bad[at..at + 4].copy_from_slice(&lie.to_be_bytes());
                    prop_assert!(bad == full[..] || BatchRequest::decode(bad.into()).is_none());
                }
            }

            /// Batch replies round-trip for arbitrary outcome vectors.
            #[test]
            fn batch_reply_roundtrip_general(
                id in any::<u64>(),
                touched in 0u32..64,
                saved in 0u32..1024,
                kinds in proptest::collection::vec(0u8..5, 0..16),
            ) {
                let outcomes: Vec<Outcome> = kinds
                    .iter()
                    .map(|k| match k {
                        0 => Outcome::Resolved(Entity::Object(ObjectId::from_index(7))),
                        1 => Outcome::Referral {
                            next_machine: MachineId(3),
                            next_ctx: ObjectId::from_index(5),
                            remaining: u16::from(*k) + 2,
                        },
                        2 => Outcome::NotFound,
                        3 => Outcome::WrongServer,
                        _ => Outcome::Unreachable { attempts: u32::from(*k) },
                    })
                    .collect();
                let rep = BatchReply { id, outcomes, servers_touched: touched, lookups_saved: saved };
                prop_assert_eq!(BatchReply::decode(rep.encode()), Some(rep));
            }

            /// ZoneUpdate round-trip for arbitrary well-formed content
            /// (batch of bindings).
            #[test]
            fn zone_update_roundtrip_general(
                zone in 0u32..1_000_000,
                binds in proptest::collection::vec(("[a-z]{1,6}", 0u32..3, 0u32..100), 0..10),
            ) {
                let bindings: Vec<(Name, Entity)> = binds
                    .iter()
                    .map(|(s, kind, idx)| {
                        let e = match kind {
                            0 => Entity::Object(ObjectId::from_index(*idx)),
                            1 => Entity::Activity(ActivityId::from_index(*idx)),
                            _ => Entity::Undefined,
                        };
                        (Name::new(s), e)
                    })
                    .collect();
                let up = ZoneUpdate { zone: ObjectId::from_index(zone), bindings };
                prop_assert_eq!(ZoneUpdate::decode(up.encode()), Some(up));
            }

            /// Truncating a valid frame at any point never panics and never
            /// produces a *different* valid frame of the same kind.
            #[test]
            fn truncation_is_detected(cut in 0usize..96) {
                let req = one(9, 4, name("/a/b/c"));
                let full = recursive(&req);
                if cut < full.len() {
                    let truncated = full.slice(..cut);
                    if let Some(got) = read_recursive(&truncated) {
                        // Only acceptable if truncation removed nothing
                        // semantically (never the case here since every
                        // byte matters) — so this must be the full frame.
                        prop_assert_eq!(got, req);
                    }
                }
            }

            /// One-name requests round-trip under either tag for arbitrary
            /// well-formed content.
            #[test]
            fn request_roundtrip_general(
                id in any::<u64>(),
                start in 0u32..1_000_000,
                segs in proptest::collection::vec("[a-zA-Z0-9_.-]{1,12}", 1..8),
                chase in any::<bool>(),
            ) {
                let n = CompoundName::new(segs.iter().map(|s| Name::new(s))).unwrap();
                let req = one(id, start, n);
                let got = if chase {
                    read_recursive(&recursive(&req))
                } else {
                    BatchRequest::decode(req.encode())
                };
                prop_assert_eq!(got, Some(req));
            }
        }
    }

    #[test]
    fn zone_delta_frames_round_trip() {
        let since = [
            (0, ZoneSerial::ZERO),
            (3, ZoneSerial::new(17)),
            (1023, ZoneSerial::new(u64::MAX)),
        ];
        let req = codec::encode(&PullFrame(42, &since));
        let mut read = Vec::new();
        assert_eq!(read_pull(&req, &mut read), Some(42));
        assert_eq!(read, since);
        let diff = vec![
            ZoneChange {
                ctx: ObjectId::from_index(4),
                name: Name::new("data"),
                entity: Entity::Object(ObjectId::from_index(9)),
                was: Entity::Undefined,
            },
            ZoneChange {
                ctx: ObjectId::from_index(4),
                name: Name::new("gone"),
                entity: Entity::Undefined,
                was: Entity::Object(ObjectId::from_index(5)),
            },
        ];
        let delta = Dump {
            id: 42,
            slices: vec![
                slice(0, ZoneSerial::new(19), false, diff),
                slice(3, ZoneSerial::new(2), true, vec![]),
            ],
        };
        let full = codec::encode(&delta);
        let mut kept = KeptDelta::default();
        assert_eq!(kept.read(&full), Some(42));
        assert!(kept_holds(&kept, &delta));
        assert_eq!(Dump::read(&full), Some(delta));
        // Cross-decoding and truncation fail cleanly.
        assert!(kept.read(&req).is_none());
        assert!(read_pull(&full, &mut read).is_none());
        assert!(kept.read(&full[..full.len() - 1]).is_none());
        // A corrupt `full` flag byte (neither 0 nor 1) is rejected.
        let mut bad = full.to_vec();
        let flag_at = 1 + 8 + 2 + 2 + 8;
        assert_eq!(bad[flag_at], 0, "expected the first slice's full flag");
        bad[flag_at] = 7;
        assert!(kept.read(&bad).is_none());
    }

    #[test]
    fn request_labels_are_looked_up_and_never_interned() {
        // Valid frames whose second label is then overwritten, in place,
        // with text nothing has ever interned.
        let known = Name::new("wire-label-known");
        let (unknown, at) = ("wire-label-never", |f: &[u8]| {
            let at = f.windows(16).position(|w| w == known.as_str().as_bytes());
            at.expect("the label is in the frame")
        });
        let patched = |frame: Bytes| {
            let mut f = frame.to_vec();
            let at = at(&f);
            f[at..at + 16].copy_from_slice(unknown.as_bytes());
            Bytes::from(f)
        };
        let labels = |req: &BatchRequest| -> Vec<Label> {
            req.trie.nodes.iter().map(|n| n.component).collect()
        };
        let (root, x) = (Name::root(), Name::new("x"));
        let chased = one(1, 0, CompoundName::new([root, known, x]).unwrap());
        let got = read_recursive(&patched(recursive(&chased)));
        let got = got.expect("the patched frame is still a recursive request");
        assert_eq!(labels(&got), [Some(root), None, Some(x)]);
        let batch = one(2, 0, CompoundName::new([Name::root(), known]).unwrap());
        let got = BatchRequest::decode(patched(batch.encode())).unwrap();
        assert_eq!(labels(&got), [Some(Name::root()), None]);
        let interned = Name::lookups().get(unknown);
        assert_eq!(interned, None, "decoding a request interned");
        // A reply's receiver may learn what it is told: zone frames intern.
        let update = ZoneUpdate {
            zone: ObjectId::from_index(0),
            bindings: vec![(known, Entity::Undefined)],
        };
        let learnt = ZoneUpdate::decode(patched(update.encode())).unwrap();
        assert_eq!(learnt.bindings[0].0.as_str(), unknown);
    }

    #[test]
    fn request_labels_are_found_by_their_bytes() {
        // An interned label of 16 bytes and one of 40 (both past the
        // interner's 15-byte inline keys), then one of 16 bytes nothing
        // interned, written over an interned placeholder.
        let (l16, l40) = (
            "wire-label-16-in",
            "wire-label-of-forty-bytes-in-one-request",
        );
        let (placeholder, unknown) = ("wire-label-16-pl", "wire-label-16-no");
        assert_eq!(
            [l16, l40, placeholder, unknown].map(str::len),
            [16, 40, 16, 16]
        );
        let (a, b, p) = (Name::new(l16), Name::new(l40), Name::new(placeholder));
        let mut frame = one(3, 0, CompoundName::new([a, b, p]).unwrap())
            .encode()
            .to_vec();
        let at = frame.windows(16).position(|w| w == placeholder.as_bytes());
        let at = at.expect("the placeholder is in the frame");
        frame[at..at + 16].copy_from_slice(unknown.as_bytes());
        let mut trie = NameTrie::default();
        read_request(&frame, &mut trie, &mut Vec::new()).expect("a request frame");
        let labels: Vec<Label> = trie.nodes.iter().map(|n| n.component).collect();
        assert_eq!(labels, [Some(a), Some(b), None]);
    }

    /// The symbol `n` was interned as: the one integer its `Hash` writes.
    fn symbol(n: Name) -> u64 {
        use std::hash::{Hash, Hasher};
        struct Symbol(u64);
        impl Hasher for Symbol {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, _: &[u8]) {
                unreachable!("a name hashes its symbol")
            }
            fn write_u32(&mut self, sym: u32) {
                self.0 = sym.into();
            }
        }
        let mut h = Symbol(0);
        n.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_request_reads_alike_while_the_interner_grows() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        // Symbols fixed before the writer starts: short and long labels.
        let labels = ["wire-grow", "wire-grow-label-past-inline", "é"];
        let name = CompoundName::new(labels.map(Name::new)).unwrap();
        let want: Vec<Label> = name.iter().map(|&n| Some(n)).collect();
        let frame = one(4, 0, name).encode();
        let (started, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                // The interner's index is at most half full and starts with
                // room for 256 atoms. When the first fresh atom took symbol
                // `a`, it had fewer than max(257, 2a + 2) slots' worth of
                // room, so a fresh atom at symbol 2a + 257 crossed a growth.
                let first = symbol(Name::new("wire-grow-0"));
                let mut i = 1u64;
                while symbol(Name::new(&format!("wire-grow-{i}"))) < 2 * first + 257 {
                    i += 1;
                }
                done.store(true, Ordering::Release);
            });
            let (mut trie, mut seen) = (NameTrie::default(), Vec::new());
            let mut read = |round: usize| {
                read_request(&frame, &mut trie, &mut seen).expect("a request frame");
                let got = trie.nodes.iter().map(|n| n.component);
                assert!(got.eq(want.iter().copied()), "read {round}");
            };
            // One read before the writer starts, reads while it interns, and
            // one after it has crossed the growth.
            read(0);
            started.wait();
            let mut rounds = 1;
            while !done.load(Ordering::Acquire) {
                read(rounds);
                rounds += 1;
            }
            read(rounds);
        });
    }

    #[test]
    fn unicode_names_survive_the_wire() {
        let n = CompoundName::new([Name::new("café"), Name::new("naïve")]).unwrap();
        let r = one(1, 0, n);
        assert_eq!(read_recursive(&recursive(&r)), Some(r));
    }
}
