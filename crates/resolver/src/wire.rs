//! Wire encoding of the resolution protocol.
//!
//! Hand-rolled binary framing over [`bytes`]: requests and replies travel
//! as [`naming_sim::message::Payload::Bytes`] parts through the simulator's
//! message layer, exactly as a real name-service protocol would travel
//! over UDP/TCP. The resolution path builds and reads its frames in
//! reused buffers (`put_*`, `read_*`); the frame types' `encode` and
//! `decode` are the same code over fresh ones.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::lease::ZoneSerial;
use naming_core::name::{CompoundName, Name};
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

/// A resolution request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Correlation id chosen by the requester.
    pub id: u64,
    /// The context object to start in (must be hosted by the receiving
    /// server, or the server answers `WrongServer`).
    pub start: ObjectId,
    /// The remaining components to resolve; never empty.
    pub name: Vec<Label>,
    /// Iterative or recursive.
    pub mode: Mode,
}

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
    /// server is down, or nobody is placed for the next zone. This is a
    /// *transport* verdict, categorically distinct from `NotFound` — a
    /// lost message says nothing about the binding, so `Unreachable` must
    /// never be reported (or cached) as `⊥`.
    Unreachable {
        /// Send attempts made before giving up (0 when no request could
        /// even be addressed, e.g. an unplaced start context).
        attempts: u32,
    },
}

/// A reply, correlated to its request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Echoes [`Request::id`].
    pub id: u64,
    /// The outcome.
    pub outcome: Outcome,
    /// Servers that did authoritative work for this answer (for hop
    /// accounting).
    pub servers_touched: u32,
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

impl ZoneUpdate {
    /// Exact encoded size of the frame, for pre-sizing buffers.
    pub fn wire_len(&self) -> usize {
        let bindings: usize = self
            .bindings
            .iter()
            .map(|(n, e)| 2 + n.as_str().len() + entity_wire_len(*e))
            .sum();
        1 + 4 + 4 + bindings
    }

    /// Encodes the update into an exactly pre-sized wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(TAG_ZONE_UPDATE);
        buf.put_u32(self.zone.index() as u32);
        buf.put_u32(u32::try_from(self.bindings.len()).expect("zone too large for wire"));
        for (n, e) in &self.bindings {
            put_label(&mut buf, Some(*n));
            put_entity(&mut buf, *e);
        }
        debug_assert_eq!(buf.len(), self.wire_len());
        buf.freeze()
    }

    /// Decodes an update frame. Returns `None` on malformed input.
    pub fn decode(frame: Bytes) -> Option<ZoneUpdate> {
        let mut buf = &frame[..];
        if buf.remaining() < 1 + 4 + 4 || buf.get_u8() != TAG_ZONE_UPDATE {
            return None;
        }
        let zone = ObjectId::from_index(buf.get_u32());
        let len = buf.get_u32() as usize;
        // A length field sizes no allocation beyond what the bytes that came
        // with it can hold, here and in every decoder below.
        let mut bindings = Vec::with_capacity(len.min(buf.len() / (2 + 1)));
        for _ in 0..len {
            let n = get_str(&mut buf).map(Name::new)?;
            let e = get_entity(&mut buf)?;
            bindings.push((n, e));
        }
        Some(ZoneUpdate { zone, bindings })
    }
}

/// A diff-since-serial pull: the client reports, per zone (shard), the
/// last serial it has heard, and asks the authority for everything newer.
/// The IXFR analogue — [`ZoneDelta`] is the answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneDeltaRequest {
    /// Correlation id.
    pub id: u64,
    /// `(shard, serial already held)` per zone of interest.
    /// [`ZoneSerial::ZERO`] means "never synced" and in practice forces a
    /// full transfer.
    pub since: Vec<(usize, ZoneSerial)>,
}

impl ZoneDeltaRequest {
    /// Exact encoded size of the frame, for pre-sizing buffers.
    pub fn wire_len(&self) -> usize {
        1 + 8 + 2 + self.since.len() * (2 + 8)
    }

    /// Encodes the request into an exactly pre-sized frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(TAG_ZONE_DELTA_REQUEST);
        buf.put_u64(self.id);
        buf.put_u16(u16::try_from(self.since.len()).expect("too many shards for wire"));
        for &(shard, serial) in &self.since {
            buf.put_u16(u16::try_from(shard).expect("shard index exceeds wire width"));
            buf.put_u64(serial.get());
        }
        debug_assert_eq!(buf.len(), self.wire_len());
        buf.freeze()
    }

    /// Decodes a request frame. Returns `None` on malformed input.
    pub fn decode(frame: Bytes) -> Option<ZoneDeltaRequest> {
        let mut buf = &frame[..];
        if buf.remaining() < 1 + 8 + 2 || buf.get_u8() != TAG_ZONE_DELTA_REQUEST {
            return None;
        }
        let id = buf.get_u64();
        let count = buf.get_u16() as usize;
        let mut since = Vec::with_capacity(count.min(buf.len() / (2 + 8)));
        for _ in 0..count {
            if buf.remaining() < 2 + 8 {
                return None;
            }
            let shard = buf.get_u16() as usize;
            since.push((shard, ZoneSerial::new(buf.get_u64())));
        }
        Some(ZoneDeltaRequest { id, since })
    }
}

/// One binding change inside a [`ShardDelta`]: `entity` is the new value
/// of `name` in context `ctx`; [`Entity::Undefined`] encodes an unbind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneChange {
    /// The context object the change landed in.
    pub ctx: ObjectId,
    /// The name whose binding changed.
    pub name: Name,
    /// The new binding (⊥ = the name was unbound).
    pub entity: Entity,
}

/// One zone's slice of a [`ZoneDelta`] reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardDelta {
    /// The zone (shard) this slice describes.
    pub shard: usize,
    /// The authority's serial as of this frame; the puller adopts it.
    pub serial: ZoneSerial,
    /// `true` — the requested serial fell outside the retained delta
    /// window (or had regressed) and `changes` is a complete dump of the
    /// zone's bindings (AXFR fallback). `false` — `changes` is the exact
    /// incremental diff since the requested serial (IXFR).
    pub full: bool,
    /// The changes, in commit order for incremental transfers.
    pub changes: Vec<ZoneChange>,
}

/// The authority's answer to a [`ZoneDeltaRequest`]: per requested zone,
/// either an incremental diff or a full transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneDelta {
    /// Echoes [`ZoneDeltaRequest::id`].
    pub id: u64,
    /// One slice per requested shard, in request order.
    pub shards: Vec<ShardDelta>,
}

impl ZoneDelta {
    /// Exact encoded size of the frame, for pre-sizing buffers.
    pub fn wire_len(&self) -> usize {
        let shards: usize = self
            .shards
            .iter()
            .map(|s| {
                2 + 8
                    + 1
                    + 4
                    + s.changes
                        .iter()
                        .map(|c| 4 + 2 + c.name.as_str().len() + entity_wire_len(c.entity))
                        .sum::<usize>()
            })
            .sum();
        1 + 8 + 2 + shards
    }

    /// Encodes the reply into an exactly pre-sized frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(TAG_ZONE_DELTA);
        buf.put_u64(self.id);
        buf.put_u16(u16::try_from(self.shards.len()).expect("too many shards for wire"));
        for s in &self.shards {
            buf.put_u16(u16::try_from(s.shard).expect("shard index exceeds wire width"));
            buf.put_u64(s.serial.get());
            buf.put_u8(u8::from(s.full));
            buf.put_u32(u32::try_from(s.changes.len()).expect("delta too large for wire"));
            for c in &s.changes {
                buf.put_u32(c.ctx.index() as u32);
                put_label(&mut buf, Some(c.name));
                put_entity(&mut buf, c.entity);
            }
        }
        debug_assert_eq!(buf.len(), self.wire_len());
        buf.freeze()
    }

    /// Decodes a reply frame. Returns `None` on malformed input.
    pub fn decode(frame: Bytes) -> Option<ZoneDelta> {
        let mut buf = &frame[..];
        if buf.remaining() < 1 + 8 + 2 || buf.get_u8() != TAG_ZONE_DELTA {
            return None;
        }
        let id = buf.get_u64();
        let count = buf.get_u16() as usize;
        let mut shards = Vec::with_capacity(count.min(buf.len() / (2 + 8 + 1 + 4)));
        for _ in 0..count {
            if buf.remaining() < 2 + 8 + 1 + 4 {
                return None;
            }
            let shard = buf.get_u16() as usize;
            let serial = ZoneSerial::new(buf.get_u64());
            let full = match buf.get_u8() {
                0 => false,
                1 => true,
                _ => return None,
            };
            let n = buf.get_u32() as usize;
            let mut changes = Vec::with_capacity(n.min(buf.len() / (4 + 2 + 1)));
            for _ in 0..n {
                if buf.remaining() < 4 {
                    return None;
                }
                let ctx = ObjectId::from_index(buf.get_u32());
                let name = get_str(&mut buf).map(Name::new)?;
                let entity = get_entity(&mut buf)?;
                changes.push(ZoneChange { ctx, name, entity });
            }
            shards.push(ShardDelta {
                shard,
                serial,
                full,
                changes,
            });
        }
        Some(ZoneDelta { id, shards })
    }
}

/// Any protocol frame, decoded once by its tag byte — what a receiver
/// that cannot know the frame type in advance (a server mailbox, a client
/// awaiting either reply format) uses instead of trial-decoding each type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A scalar resolution request.
    Request(Request),
    /// A scalar resolution reply.
    Reply(Reply),
    /// A replica zone push.
    ZoneUpdate(ZoneUpdate),
    /// A batched resolution request.
    BatchRequest(BatchRequest),
    /// A batched resolution reply.
    BatchReply(BatchReply),
    /// An anti-entropy pull.
    ZoneDeltaRequest(ZoneDeltaRequest),
    /// An anti-entropy answer.
    ZoneDelta(ZoneDelta),
}

impl Frame {
    /// Decodes whichever frame `buf` holds; `None` for an unknown tag or a
    /// malformed body.
    pub fn decode(buf: Bytes) -> Option<Frame> {
        match *buf.first()? {
            TAG_REQUEST => Request::decode(buf).map(Frame::Request),
            TAG_REPLY => Reply::decode(buf).map(Frame::Reply),
            TAG_ZONE_UPDATE => ZoneUpdate::decode(buf).map(Frame::ZoneUpdate),
            TAG_BATCH_REQUEST => BatchRequest::decode(buf).map(Frame::BatchRequest),
            TAG_BATCH_REPLY => BatchReply::decode(buf).map(Frame::BatchReply),
            TAG_ZONE_DELTA_REQUEST => ZoneDeltaRequest::decode(buf).map(Frame::ZoneDeltaRequest),
            TAG_ZONE_DELTA => ZoneDelta::decode(buf).map(Frame::ZoneDelta),
            _ => None,
        }
    }
}

const TAG_REQUEST: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_ZONE_UPDATE: u8 = 3;
pub(crate) const TAG_BATCH_REQUEST: u8 = 4;
const TAG_BATCH_REPLY: u8 = 5;
const TAG_ZONE_DELTA_REQUEST: u8 = 6;
const TAG_ZONE_DELTA: u8 = 7;

/// Tag, id and start context: the bytes both request frames open with.
const REQUEST_HEADER: usize = 1 + 8 + 4;

const OUT_RESOLVED: u8 = 1;
const OUT_REFERRAL: u8 = 2;
const OUT_NOT_FOUND: u8 = 3;
const OUT_WRONG_SERVER: u8 = 4;
const OUT_UNREACHABLE: u8 = 5;

const ENT_ACTIVITY: u8 = 1;
const ENT_OBJECT: u8 = 2;
const ENT_UNDEFINED: u8 = 3;

/// A label never interned has no text: it goes out empty (only when a
/// decoded request is re-encoded — replies carry no labels at all).
fn put_label(buf: &mut BytesMut, label: Label) {
    let s = label.map_or("", Name::as_str).as_bytes();
    buf.put_u16(u16::try_from(s.len()).expect("name too long for wire"));
    buf.put_slice(s);
}

/// A length-prefixed UTF-8 label, validated in place over the borrowed
/// frame. What it becomes is the reader's rule: a request's labels are
/// looked up ([`Name::lookup`], never interned), those of a reply or a zone
/// transfer — which the receiver may learn — interned ([`Name::new`]).
fn get_str<'a>(buf: &mut &'a [u8]) -> Option<&'a str> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return None;
    }
    let (s, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(s).ok()
}

fn put_entity(buf: &mut BytesMut, e: Entity) {
    match e {
        Entity::Activity(a) => {
            buf.put_u8(ENT_ACTIVITY);
            buf.put_u32(a.index() as u32);
        }
        Entity::Object(o) => {
            buf.put_u8(ENT_OBJECT);
            buf.put_u32(o.index() as u32);
        }
        Entity::Undefined => buf.put_u8(ENT_UNDEFINED),
    }
}

fn get_entity(buf: &mut &[u8]) -> Option<Entity> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        ENT_ACTIVITY => {
            if buf.remaining() < 4 {
                return None;
            }
            Some(Entity::Activity(ActivityId::from_index(buf.get_u32())))
        }
        ENT_OBJECT => {
            if buf.remaining() < 4 {
                return None;
            }
            Some(Entity::Object(ObjectId::from_index(buf.get_u32())))
        }
        ENT_UNDEFINED => Some(Entity::Undefined),
        _ => None,
    }
}

/// Exact encoded size of an entity under [`put_entity`]'s layout.
fn entity_wire_len(e: Entity) -> usize {
    match e {
        Entity::Undefined => 1,
        _ => 5,
    }
}

/// Exact encoded size of an outcome under [`put_outcome`]'s layout.
fn outcome_wire_len(o: &Outcome) -> usize {
    match o {
        Outcome::Resolved(e) => 1 + entity_wire_len(*e),
        Outcome::Referral { .. } => 1 + 4 + 4 + 2,
        Outcome::NotFound | Outcome::WrongServer => 1,
        Outcome::Unreachable { .. } => 1 + 4,
    }
}

fn put_outcome(buf: &mut BytesMut, o: &Outcome) {
    match *o {
        Outcome::Resolved(e) => {
            buf.put_u8(OUT_RESOLVED);
            put_entity(buf, e);
        }
        Outcome::Referral {
            next_machine,
            next_ctx,
            remaining,
        } => {
            buf.put_u8(OUT_REFERRAL);
            buf.put_u32(next_machine.0 as u32);
            buf.put_u32(next_ctx.index() as u32);
            buf.put_u16(remaining);
        }
        Outcome::NotFound => buf.put_u8(OUT_NOT_FOUND),
        Outcome::WrongServer => buf.put_u8(OUT_WRONG_SERVER),
        Outcome::Unreachable { attempts } => {
            buf.put_u8(OUT_UNREACHABLE);
            buf.put_u32(attempts);
        }
    }
}

fn get_outcome(buf: &mut &[u8]) -> Option<Outcome> {
    if buf.remaining() < 1 {
        return None;
    }
    Some(match buf.get_u8() {
        OUT_RESOLVED => Outcome::Resolved(get_entity(buf)?),
        OUT_REFERRAL => {
            if buf.remaining() < 4 + 4 + 2 {
                return None;
            }
            Outcome::Referral {
                next_machine: MachineId(buf.get_u32() as usize),
                next_ctx: ObjectId::from_index(buf.get_u32()),
                remaining: buf.get_u16(),
            }
        }
        OUT_NOT_FOUND => Outcome::NotFound,
        OUT_WRONG_SERVER => Outcome::WrongServer,
        OUT_UNREACHABLE => {
            if buf.remaining() < 4 {
                return None;
            }
            Outcome::Unreachable {
                attempts: buf.get_u32(),
            }
        }
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

impl TrieNode {
    /// Whether no batched name continues below this node.
    pub fn is_leaf(&self) -> bool {
        self.kids.0 == self.kids.1
    }
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
        NameTrie::build_from(names.iter().map(CompoundName::components))
    }

    /// [`NameTrie::build`] over borrowed component runs, for callers whose
    /// names are suffixes of names they already hold. Every run must be
    /// nonempty.
    pub fn build_from<'a, I>(names: I) -> (NameTrie, Vec<u32>)
    where
        I: ExactSizeIterator<Item = &'a [Name]> + Clone,
    {
        // Worst case (no shared prefixes): one node per component.
        let total: usize = names.clone().map(<[Name]>::len).sum();
        let mut trie = NameTrie::default();
        trie.nodes.reserve_exact(total);
        trie.kids.reserve_exact(total);
        let mut cells = Vec::with_capacity(1 + 2 * total);
        let mut mapping = Vec::with_capacity(names.len());
        trie.rebuild(names, &mut cells, &mut mapping);
        (trie, mapping)
    }

    /// Makes `self` the trie of `names`, reusing its storage and `cells`
    /// (builder scratch), and appends each name's query id to `mapping`.
    pub(crate) fn rebuild<'a>(
        &mut self,
        names: impl Iterator<Item = &'a [Name]>,
        cells: &mut Vec<u32>,
        mapping: &mut Vec<u32>,
    ) {
        const NIL: u32 = u32::MAX;
        let NameTrie { nodes, kids, .. } = self;
        nodes.clear();
        kids.clear();
        // While they still grow, child lists are linked in first-seen
        // order: cell 0 heads the root list, cells `1 + 2k` and `2 + 2k`
        // hold node `k`'s first child and next sibling.
        cells.clear();
        cells.push(NIL);
        let mut query_count = 0u32;
        for name in names {
            let (mut cur, mut slot) = (NIL, 0);
            for &c in name {
                // Follow the list to `c`, or to the empty cell at its end
                // that a new node for `c` is linked into.
                while cells[slot] != NIL && nodes[cells[slot] as usize].component != Some(c) {
                    slot = 2 + 2 * cells[slot] as usize;
                }
                if cells[slot] == NIL {
                    cells[slot] = u32::try_from(nodes.len()).expect("batch too large for wire");
                    nodes.push(TrieNode {
                        component: Some(c),
                        query: None,
                        kids: (0, 0),
                    });
                    cells.extend([NIL, NIL]);
                }
                cur = cells[slot];
                slot = 1 + 2 * cur as usize;
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
                k = cells[2 + 2 * k as usize];
            }
            (lo, kids.len() as u32)
        };
        for (k, node) in nodes.iter_mut().enumerate() {
            node.kids = list(1 + 2 * k);
        }
        (self.roots_at, _) = list(0);
        self.query_count = query_count;
    }

    /// Number of distinct queries (terminal nodes with a query id).
    pub fn query_count(&self) -> u32 {
        self.query_count
    }

    fn kids_of(&self, node: &TrieNode) -> &[u32] {
        &self.kids[node.kids.0 as usize..node.kids.1 as usize]
    }

    fn roots(&self) -> &[u32] {
        &self.kids[self.roots_at as usize..]
    }

    /// The one depth-first walk over the trie: `visit` sees every node
    /// once, parents before children and siblings in stored order, as
    /// `(index, node, path, state)` — the path runs from a root down to the
    /// node's own component in one shared buffer, and the state is what its
    /// parent's visit returned (`start` at the roots). Everything that
    /// resolves or renders a trie is a visitor of this function.
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

    /// Exact size of the frame [`put_batch_request`] makes of this trie, so
    /// that encoders allocate once.
    pub(crate) fn request_len(&self) -> usize {
        let label = |n: &TrieNode| n.component.map_or(0, |c| c.as_str().len());
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| 2 + label(n) + 1 + 4 * usize::from(n.query.is_some()) + 2)
            .sum();
        REQUEST_HEADER + 4 + 4 + node_bytes + 4 + 4 * self.kids.len()
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
}

fn put_trie(buf: &mut BytesMut, trie: &NameTrie) {
    buf.put_u32(trie.query_count);
    buf.put_u32(u32::try_from(trie.nodes.len()).expect("batch too large for wire"));
    for node in &trie.nodes {
        put_label(buf, node.component);
        match node.query {
            Some(q) => {
                buf.put_u8(1);
                buf.put_u32(q);
            }
            None => buf.put_u8(0),
        }
        let kids = trie.kids_of(node);
        buf.put_u16(u16::try_from(kids.len()).expect("trie node too wide for wire"));
        for &c in kids {
            buf.put_u32(c);
        }
    }
    buf.put_u32(trie.roots().len() as u32);
    for &r in trie.roots() {
        buf.put_u32(r);
    }
}

/// Reads a trie into `trie`'s storage (`seen`: scratch for the forest
/// check). A refused frame leaves nothing to walk there until `trie` is
/// next built or read.
fn get_trie(buf: &mut &[u8], trie: &mut NameTrie, seen: &mut Vec<u64>) -> Option<()> {
    let NameTrie { nodes, kids, .. } = trie;
    nodes.clear();
    kids.clear();
    if buf.remaining() < 8 {
        return None;
    }
    let query_count = buf.get_u32();
    let node_count = buf.get_u32() as usize;
    // Both counts size allocations here and in every server that walks the
    // trie, so bound them by what the frame can hold: a node takes at least
    // five bytes (two lengths and a flag) and ends at most one query.
    if node_count > buf.remaining() / 5 || query_count as usize > node_count {
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
    for i in 0..node_count {
        let component = get_str(buf).map(Name::lookup)?;
        // The query flag and the child count, with a query id between.
        if buf.remaining() < 1 + 2 {
            return None;
        }
        let query = match buf.get_u8() {
            0 => None,
            1 if buf.remaining() >= 4 + 2 => {
                let q = buf.get_u32();
                if q >= query_count || !first_sight(node_count + q as usize) {
                    return None;
                }
                queries += 1;
                Some(q)
            }
            _ => return None,
        };
        let kid_count = buf.get_u16() as usize;
        if buf.remaining() < 4 * kid_count {
            return None;
        }
        let lo = kids.len() as u32;
        for _ in 0..kid_count {
            let c = buf.get_u32() as usize;
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
    if queries != query_count || buf.remaining() < 4 {
        return None;
    }
    // Every node that is nobody's child must be a root, and only those.
    let (roots_at, root_count) = (kids.len() as u32, buf.get_u32() as usize);
    if root_count != node_count - kids.len() || buf.remaining() < 4 * root_count {
        return None;
    }
    for _ in 0..root_count {
        let r = buf.get_u32();
        if r as usize >= node_count || !first_sight(r as usize) {
            return None;
        }
        kids.push(r);
    }
    (trie.roots_at, trie.query_count) = (roots_at, query_count);
    Some(())
}

/// A batched resolution request: many names (as a shared-prefix trie)
/// resolved from one start context in a single wire exchange. Batches
/// are always client-driven (iterative); the reply carries one outcome
/// per query id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// Correlation id chosen by the requester.
    pub id: u64,
    /// The context object every trie root resolves from.
    pub start: ObjectId,
    /// The batched names, shared-prefix compressed.
    pub trie: NameTrie,
}

/// Appends a batch-request frame to `buf`.
pub(crate) fn put_batch_request(buf: &mut BytesMut, id: u64, start: ObjectId, trie: &NameTrie) {
    buf.put_u8(TAG_BATCH_REQUEST);
    buf.put_u64(id);
    buf.put_u32(start.index() as u32);
    put_trie(buf, trie);
}

/// Reads a batch-request frame into `trie` (`seen` is scratch): its id and
/// start context, `None` when malformed.
pub(crate) fn read_batch_request(
    mut frame: &[u8],
    trie: &mut NameTrie,
    seen: &mut Vec<u64>,
) -> Option<(u64, ObjectId)> {
    if frame.remaining() < REQUEST_HEADER || frame.get_u8() != TAG_BATCH_REQUEST {
        return None;
    }
    let (id, start) = (frame.get_u64(), ObjectId::from_index(frame.get_u32()));
    get_trie(&mut frame, trie, seen)?;
    Some((id, start))
}

impl BatchRequest {
    /// Encodes the batch request into a wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.trie.request_len());
        put_batch_request(&mut buf, self.id, self.start, &self.trie);
        debug_assert_eq!(buf.len(), self.trie.request_len());
        buf.freeze()
    }

    /// Decodes a batch-request frame. Returns `None` on malformed input.
    pub fn decode(buf: Bytes) -> Option<BatchRequest> {
        let mut trie = NameTrie::default();
        let (id, start) = read_batch_request(&buf, &mut trie, &mut Vec::new())?;
        Some(BatchRequest { id, start, trie })
    }
}

/// The reply to a [`BatchRequest`]: one outcome per query id, plus hop
/// accounting for how much work prefix sharing saved.
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

/// Exact size of the frame [`put_batch_reply`] appends.
pub(crate) fn batch_reply_len(outcomes: &[Outcome]) -> usize {
    1 + 8 + 4 + 4 + 4 + outcomes.iter().map(outcome_wire_len).sum::<usize>()
}

/// Appends a batch-reply frame to `buf`.
pub(crate) fn put_batch_reply(
    buf: &mut BytesMut,
    id: u64,
    servers_touched: u32,
    lookups_saved: u32,
    outcomes: &[Outcome],
) {
    buf.put_u8(TAG_BATCH_REPLY);
    buf.put_u64(id);
    buf.put_u32(servers_touched);
    buf.put_u32(lookups_saved);
    buf.put_u32(u32::try_from(outcomes.len()).expect("batch too large for wire"));
    for o in outcomes {
        put_outcome(buf, o);
    }
}

/// Reads either reply frame — a scalar reply is a batch reply of one
/// outcome: the outcomes by query id into `outcomes`, and the request id,
/// the servers touched and the lookups saved. `None` on a malformed frame,
/// whatever `outcomes` then holds: half a reply is no reply.
pub(crate) fn read_reply(mut frame: &[u8], outcomes: &mut Vec<Outcome>) -> Option<(u64, u32, u32)> {
    if frame.remaining() < 1 + 8 + 4 {
        return None;
    }
    let (tag, id, touched) = (frame.get_u8(), frame.get_u64(), frame.get_u32());
    let (saved, count) = match tag {
        TAG_REPLY => (0, 1),
        TAG_BATCH_REPLY if frame.remaining() >= 4 + 4 => (frame.get_u32(), frame.get_u32()),
        _ => return None,
    };
    outcomes.clear();
    outcomes.reserve((count as usize).min(frame.len()));
    for _ in 0..count {
        outcomes.push(get_outcome(&mut frame)?);
    }
    Some((id, touched, saved))
}

impl BatchReply {
    /// Encodes the batch reply into a wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(batch_reply_len(&self.outcomes));
        let (touched, saved) = (self.servers_touched, self.lookups_saved);
        put_batch_reply(&mut buf, self.id, touched, saved, &self.outcomes);
        buf.freeze()
    }

    /// Decodes a batch-reply frame. Returns `None` on malformed input.
    pub fn decode(buf: Bytes) -> Option<BatchReply> {
        let mut outcomes = Vec::new();
        let head = read_reply(&buf, &mut outcomes).filter(|_| buf[0] == TAG_BATCH_REPLY)?;
        let (id, servers_touched, lookups_saved) = head;
        Some(BatchReply {
            id,
            outcomes,
            servers_touched,
            lookups_saved,
        })
    }
}

impl Request {
    /// Encodes the request into a wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_REQUEST);
        buf.put_u64(self.id);
        buf.put_u32(self.start.index() as u32);
        buf.put_u8(match self.mode {
            Mode::Iterative => 0,
            Mode::Recursive => 1,
        });
        buf.put_u16(u16::try_from(self.name.len()).expect("name too deep for wire"));
        for &label in &self.name {
            put_label(&mut buf, label);
        }
        buf.freeze()
    }

    /// Decodes a request frame. Returns `None` on malformed input.
    pub fn decode(frame: Bytes) -> Option<Request> {
        let mut buf = &frame[..];
        if buf.remaining() < REQUEST_HEADER + 1 + 2 || buf.get_u8() != TAG_REQUEST {
            return None;
        }
        let id = buf.get_u64();
        let start = ObjectId::from_index(buf.get_u32());
        let mode = match buf.get_u8() {
            0 => Mode::Iterative,
            1 => Mode::Recursive,
            _ => return None,
        };
        let len = buf.get_u16() as usize;
        let mut name = Vec::with_capacity(len.min(buf.len() / 2));
        for _ in 0..len {
            name.push(get_str(&mut buf).map(Name::lookup)?);
        }
        (!name.is_empty()).then_some(Request {
            id,
            start,
            name,
            mode,
        })
    }
}

impl Reply {
    /// Encodes the reply into an exactly pre-sized wire frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + 8 + 4 + outcome_wire_len(&self.outcome));
        buf.put_u8(TAG_REPLY);
        buf.put_u64(self.id);
        buf.put_u32(self.servers_touched);
        put_outcome(&mut buf, &self.outcome);
        buf.freeze()
    }

    /// Decodes a reply frame. Returns `None` on malformed input.
    pub fn decode(buf: Bytes) -> Option<Reply> {
        let mut outcomes = Vec::new();
        let head = read_reply(&buf, &mut outcomes).filter(|_| buf[0] == TAG_REPLY)?;
        Some(Reply {
            id: head.0,
            outcome: *outcomes.first()?,
            servers_touched: head.1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(p: &str) -> CompoundName {
        CompoundName::parse_path(p).unwrap()
    }

    /// A name as a scalar request carries it.
    fn labels(p: &str) -> Vec<Label> {
        name(p).iter().map(|&c| Some(c)).collect()
    }

    #[test]
    fn request_roundtrip() {
        let r = Request {
            id: 42,
            start: ObjectId::from_index(7),
            name: labels("/usr/bin/cc"),
            mode: Mode::Recursive,
        };
        let decoded = Request::decode(r.encode()).unwrap();
        assert_eq!(decoded, r);
        let r2 = Request {
            mode: Mode::Iterative,
            ..r
        };
        assert_eq!(Request::decode(r2.encode()).unwrap().mode, Mode::Iterative);
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
            let r = Reply {
                id: 5,
                outcome,
                servers_touched: 3,
            };
            let d = Reply::decode(r.encode()).unwrap();
            assert_eq!(d.outcome, outcome);
            assert_eq!(d.id, 5);
            assert_eq!(d.servers_touched, 3);
        }
    }

    #[test]
    fn batch_frame_capacity_estimates_are_exact() {
        // The batch wire path pre-sizes its buffers; the estimates must
        // match what the encoders actually emit (no realloc, no waste).
        let (trie, _) = NameTrie::build(&[
            name("/usr/bin/cc"),
            name("/usr/bin/ld"),
            name("/etc/passwd"),
        ]);
        let req = BatchRequest {
            id: 1,
            start: ObjectId::from_index(0),
            trie: trie.clone(),
        };
        assert_eq!(req.encode().len(), trie.request_len());

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
        let outcomes: usize = reply.outcomes.iter().map(outcome_wire_len).sum();
        assert_eq!(reply.encode().len(), batch_reply_len(&reply.outcomes));
        assert_eq!(
            batch_reply_len(&reply.outcomes),
            1 + 8 + 4 + 4 + 4 + outcomes
        );
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
        assert!(ZoneUpdate::decode(
            Request {
                id: 1,
                start: ObjectId::from_index(0),
                name: labels("/x"),
                mode: Mode::Iterative,
            }
            .encode()
        )
        .is_none());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Request::decode(Bytes::from_static(&[])).is_none());
        assert!(Request::decode(Bytes::from_static(&[9, 0, 0])).is_none());
        assert!(Reply::decode(Bytes::from_static(&[1, 2, 3])).is_none());
        // A request frame is not a reply.
        let req = Request {
            id: 1,
            start: ObjectId::from_index(0),
            name: labels("/x"),
            mode: Mode::Iterative,
        };
        assert!(Reply::decode(req.encode()).is_none());
        // The tag picks the decoder; unknown tags and empty frames are none.
        assert_eq!(
            Frame::decode(req.encode()),
            Some(Frame::Request(req.clone()))
        );
        assert!(Frame::decode(Bytes::from_static(&[])).is_none());
        assert!(Frame::decode(Bytes::from_static(&[9, 0, 0])).is_none());
        // Truncated compound name.
        let mut good = BytesMut::from(&req.encode()[..]);
        good.truncate(good.len() - 1);
        assert!(Request::decode(good.freeze()).is_none());
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

        proptest! {
            /// Decoding arbitrary bytes never panics; it either fails or
            /// yields a frame that re-encodes decodably.
            #[test]
            fn decode_tolerates_garbage(data in proptest::collection::vec(any::<u8>(), 0..200)) {
                let b = Bytes::from(data);
                // A request's labels are looked up, not interned: one never
                // interned is re-encoded empty, and that is a fixed point.
                if let Some(req) = Request::decode(b.clone()) {
                    let again = Request::decode(req.encode()).unwrap();
                    prop_assert_eq!(again.encode(), req.encode());
                }
                if let Some(rep) = Reply::decode(b.clone()) {
                    let rt = Reply::decode(rep.encode()).unwrap();
                    prop_assert_eq!(rt, rep);
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
                if let Some(dreq) = ZoneDeltaRequest::decode(b.clone()) {
                    prop_assert_eq!(ZoneDeltaRequest::decode(dreq.encode()), Some(dreq));
                }
                if let Some(delta) = ZoneDelta::decode(b) {
                    prop_assert_eq!(ZoneDelta::decode(delta.encode()), Some(delta));
                }
            }

            /// ZoneDelta round-trip for arbitrary well-formed content:
            /// incremental and full slices, binds and unbinds.
            #[test]
            fn zone_delta_roundtrip_general(
                id in any::<u64>(),
                slices in proptest::collection::vec(
                    (
                        0usize..1024,
                        any::<u64>(),
                        any::<bool>(),
                        proptest::collection::vec(
                            (0u32..100_000, "[a-z]{1,6}", 0u32..3, 0u32..100),
                            0..8,
                        ),
                    ),
                    0..5,
                ),
            ) {
                let shards: Vec<ShardDelta> = slices
                    .iter()
                    .map(|(shard, serial, full, raw)| ShardDelta {
                        shard: *shard,
                        serial: ZoneSerial::new(*serial),
                        full: *full,
                        changes: raw
                            .iter()
                            .map(|(ctx, n, kind, idx)| ZoneChange {
                                ctx: ObjectId::from_index(*ctx),
                                name: Name::new(n),
                                entity: match kind {
                                    0 => Entity::Object(ObjectId::from_index(*idx)),
                                    1 => Entity::Activity(ActivityId::from_index(*idx)),
                                    _ => Entity::Undefined,
                                },
                            })
                            .collect(),
                    })
                    .collect();
                let delta = ZoneDelta { id, shards };
                prop_assert_eq!(delta.encode().len(), delta.wire_len());
                prop_assert_eq!(ZoneDelta::decode(delta.encode()), Some(delta));
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
            fn truncation_is_detected(cut in 0usize..64) {
                let req = Request {
                    id: 9,
                    start: ObjectId::from_index(4),
                    name: labels("/a/b/c"),
                    mode: Mode::Recursive,
                };
                let full = req.encode();
                if cut < full.len() {
                    let truncated = full.slice(..cut);
                    if let Some(got) = Request::decode(truncated) {
                        // Only acceptable if truncation removed nothing
                        // semantically (never the case here since every
                        // byte matters) — so this must be the full frame.
                        prop_assert_eq!(got, req);
                    }
                }
            }

            /// Request round-trip for arbitrary well-formed content.
            #[test]
            fn request_roundtrip_general(
                id in any::<u64>(),
                start in 0u32..1_000_000,
                segs in proptest::collection::vec("[a-zA-Z0-9_.-]{1,12}", 1..8),
                recursive in any::<bool>(),
            ) {
                let name = segs.iter().map(|s| Some(Name::new(s))).collect();
                let req = Request {
                    id,
                    start: ObjectId::from_index(start),
                    name,
                    mode: if recursive { Mode::Recursive } else { Mode::Iterative },
                };
                prop_assert_eq!(Request::decode(req.encode()), Some(req));
            }
        }
    }

    #[test]
    fn zone_delta_frames_round_trip() {
        let req = ZoneDeltaRequest {
            id: 42,
            since: vec![
                (0, ZoneSerial::ZERO),
                (3, ZoneSerial::new(17)),
                (1023, ZoneSerial::new(u64::MAX)),
            ],
        };
        assert_eq!(req.encode().len(), req.wire_len());
        assert_eq!(ZoneDeltaRequest::decode(req.encode()), Some(req.clone()));
        let delta = ZoneDelta {
            id: 42,
            shards: vec![
                ShardDelta {
                    shard: 0,
                    serial: ZoneSerial::new(19),
                    full: false,
                    changes: vec![
                        ZoneChange {
                            ctx: ObjectId::from_index(4),
                            name: Name::new("data"),
                            entity: Entity::Object(ObjectId::from_index(9)),
                        },
                        ZoneChange {
                            ctx: ObjectId::from_index(4),
                            name: Name::new("gone"),
                            entity: Entity::Undefined,
                        },
                    ],
                },
                ShardDelta {
                    shard: 3,
                    serial: ZoneSerial::new(2),
                    full: true,
                    changes: vec![],
                },
            ],
        };
        assert_eq!(delta.encode().len(), delta.wire_len());
        assert_eq!(ZoneDelta::decode(delta.encode()), Some(delta.clone()));
        // Cross-decoding and truncation fail cleanly.
        assert!(ZoneDelta::decode(req.encode()).is_none());
        assert!(ZoneDeltaRequest::decode(delta.encode()).is_none());
        let full = delta.encode();
        assert!(ZoneDelta::decode(full.slice(..full.len() - 1)).is_none());
        // A corrupt `full` flag byte (neither 0 nor 1) is rejected.
        let mut bad = full.to_vec();
        let flag_at = 1 + 8 + 2 + 2 + 8;
        assert_eq!(bad[flag_at], 0, "expected the first slice's full flag");
        bad[flag_at] = 7;
        assert!(ZoneDelta::decode(Bytes::from(bad)).is_none());
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
        let scalar = Request {
            id: 1,
            start: ObjectId::from_index(0),
            name: vec![Some(Name::root()), Some(known), Some(Name::new("x"))],
            mode: Mode::Recursive,
        };
        let got = Request::decode(patched(scalar.encode())).unwrap();
        assert_eq!(got.name, [Some(Name::root()), None, Some(Name::new("x"))]);
        let (trie, _) = NameTrie::build(&[CompoundName::new([Name::root(), known]).unwrap()]);
        let batch = BatchRequest {
            id: 2,
            start: ObjectId::from_index(0),
            trie,
        };
        let got = BatchRequest::decode(patched(batch.encode())).unwrap();
        let labels: Vec<Label> = got.trie.nodes.iter().map(|n| n.component).collect();
        assert_eq!(labels, [Some(Name::root()), None]);
        assert_eq!(Name::lookup(unknown), None, "decoding a request interned");
        // A reply's receiver may learn what it is told: zone frames intern.
        let update = ZoneUpdate {
            zone: ObjectId::from_index(0),
            bindings: vec![(known, Entity::Undefined)],
        };
        let learnt = ZoneUpdate::decode(patched(update.encode())).unwrap();
        assert_eq!(learnt.bindings[0].0.as_str(), unknown);
    }

    #[test]
    fn unicode_names_survive_the_wire() {
        let r = Request {
            id: 1,
            start: ObjectId::from_index(0),
            name: vec![Some(Name::new("café")), Some(Name::new("naïve"))],
            mode: Mode::Iterative,
        };
        assert_eq!(Request::decode(r.encode()).unwrap().name, r.name);
    }
}
