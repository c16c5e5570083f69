//! The wire's primitives, written once for every frame of every protocol.
//!
//! A frame's layout is one [`Layout::write`] over a [`Writer`], whose
//! [`Sink`] is a buffer or a count: run into a count, the layout sizes its
//! own frame. A [`Reader`] checks the bounds of every read. Entities,
//! labels and length-prefixed lists are laid out here, and so is the width
//! rule: a length, count or index that does not fit its field makes the
//! frame one the wire cannot carry. Such a frame encodes to `None`, and its
//! sender sends nothing.

use bytes::{BufMut, Bytes, BytesMut};
use naming_core::entity::{ActivityId, Entity, ObjectId};

const ENT_ACTIVITY: u8 = 1;
const ENT_OBJECT: u8 = 2;
const ENT_UNDEFINED: u8 = 3;

/// Where a frame's bytes go: into a buffer, or only into their count.
pub trait Sink {
    /// Takes the next bytes of the frame.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for BytesMut {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.put_slice(bytes);
    }
}

impl Sink for usize {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// A frame's layout: the one function that writes it and, run into a
/// count, sizes it.
pub trait Layout {
    /// Writes the frame's fields, in order.
    fn write<S: Sink>(&self, w: &mut Writer<S>);
}

/// Writes a frame's fields to a [`Sink`], noting any that does not fit.
#[derive(Debug)]
pub struct Writer<S> {
    sink: S,
    fits: bool,
}

impl<S: Sink> Writer<S> {
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.sink.put(&[v]);
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.sink.put(&v.to_be_bytes());
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.sink.put(&v.to_be_bytes());
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.sink.put(&v.to_be_bytes());
    }

    /// A length, count or index in a 16-bit field; one it cannot hold
    /// leaves a frame the wire cannot carry.
    pub fn usize16(&mut self, n: usize) {
        match u16::try_from(n) {
            Ok(v) => self.u16(v),
            Err(_) => self.fits = false,
        }
    }

    /// A length, count or index in a 32-bit field, as [`Writer::usize16`].
    pub fn usize32(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => self.fits = false,
        }
    }

    /// A list: its length in a 16-bit field, then each item.
    pub fn list16<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize16(items.len());
        items.iter().for_each(|x| item(self, x));
    }

    /// A list under a 32-bit length, as [`Writer::list16`].
    pub fn list32<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize32(items.len());
        items.iter().for_each(|x| item(self, x));
    }

    /// A label: its UTF-8 bytes after their 16-bit length.
    pub fn label(&mut self, s: &str) {
        self.usize16(s.len());
        self.sink.put(s.as_bytes());
    }

    /// An object id. Ids are `u32`s inside, so the cast loses nothing.
    pub fn object(&mut self, o: ObjectId) {
        self.u32(o.index() as u32);
    }

    /// An activity id, as [`Writer::object`].
    pub fn activity(&mut self, a: ActivityId) {
        self.u32(a.index() as u32);
    }

    /// An entity: its kind, then its id unless it is ⊥.
    pub fn entity(&mut self, e: Entity) {
        match e {
            Entity::Activity(a) => {
                self.u8(ENT_ACTIVITY);
                self.activity(a);
            }
            Entity::Object(o) => {
                self.u8(ENT_OBJECT);
                self.object(o);
            }
            Entity::Undefined => self.u8(ENT_UNDEFINED),
        }
    }
}

fn counter() -> Writer<usize> {
    Writer {
        sink: 0,
        fits: true,
    }
}

/// Whether the wire can carry `label` at all.
#[inline]
pub fn carries_label(label: &str) -> bool {
    let mut w = counter();
    w.label(label);
    w.fits
}

/// Sizes `frame`, then writes it into the empty buffer `buffer` returns for
/// that size; `None`, and no buffer asked for, when the wire cannot carry
/// the frame.
pub fn encode_with(frame: &impl Layout, buffer: impl FnOnce(usize) -> BytesMut) -> Option<Bytes> {
    let mut count = counter();
    frame.write(&mut count);
    let sink = buffer(count.fits.then_some(count.sink)?);
    let mut w = Writer { sink, fits: true };
    frame.write(&mut w);
    Some(w.sink.freeze())
}

/// `frame` in a buffer of exactly its size; `None` when the wire cannot
/// carry it.
pub fn try_encode(frame: &impl Layout) -> Option<Bytes> {
    encode_with(frame, BytesMut::with_capacity)
}

/// [`try_encode`] for a frame the wire can carry. Panics on one it cannot:
/// a sender that may be handed such a frame calls `try_encode` instead.
pub fn encode(frame: &impl Layout) -> Bytes {
    try_encode(frame).unwrap_or_else(|| panic!("a length, count or index overflows its field"))
}

/// Reads a frame from the front: every read is bounds-checked, `None` past
/// the end.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `frame`.
    pub fn new(frame: &'a [u8]) -> Reader<'a> {
        Reader { rest: frame }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The capacity to reserve for `count` items of at least `min` bytes
    /// each: what the rest of the frame can hold at most, so a length field
    /// sizes no allocation beyond its frame.
    #[inline]
    pub fn capacity(&self, count: usize, min: usize) -> usize {
        count.min(self.rest.len() / min)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// A list of items, each at least `min` bytes long, after its 16-bit
    /// length.
    pub fn list16<T>(
        &mut self,
        min: usize,
        item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let len = usize::from(self.u16()?);
        self.items(len, min, item)
    }

    /// A list under a 32-bit length, as [`Reader::list16`].
    pub fn list32<T>(
        &mut self,
        min: usize,
        item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let len = self.u32()? as usize;
        self.items(len, min, item)
    }

    fn items<T>(
        &mut self,
        len: usize,
        min: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::with_capacity(self.capacity(len, min));
        for _ in 0..len {
            items.push(item(self)?);
        }
        Some(items)
    }

    /// A tag byte, which must be `tag`.
    #[inline]
    pub fn tag(&mut self, tag: u8) -> Option<()> {
        (self.u8()? == tag).then_some(())
    }

    /// A flag byte: 0 or 1, nothing else.
    #[inline]
    pub fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A label, checked as UTF-8 in place. What it becomes — interned,
    /// looked up, copied — is the caller's rule.
    #[inline]
    pub fn label(&mut self) -> Option<&'a str> {
        let len = usize::from(self.u16()?);
        let (label, rest) = self.rest.split_at_checked(len)?;
        self.rest = rest;
        std::str::from_utf8(label).ok()
    }

    /// An object id.
    #[inline]
    pub fn object(&mut self) -> Option<ObjectId> {
        self.u32().map(ObjectId::from_index)
    }

    /// An activity id.
    #[inline]
    pub fn activity(&mut self) -> Option<ActivityId> {
        self.u32().map(ActivityId::from_index)
    }

    /// An entity.
    #[inline]
    pub fn entity(&mut self) -> Option<Entity> {
        match self.u8()? {
            ENT_ACTIVITY => self.activity().map(Entity::Activity),
            ENT_OBJECT => self.object().map(Entity::Object),
            ENT_UNDEFINED => Some(Entity::Undefined),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One field of every kind the writer has.
    #[derive(Clone, Debug, PartialEq)]
    enum Field {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        Usize16(usize),
        Usize32(usize),
        Label(String),
        Entity(Entity),
    }

    /// Field `kind` of a draw: `v` its number, `s` its text.
    fn field((kind, v, s): (u8, u64, String)) -> Field {
        let id = (v >> 8) as u32;
        match kind {
            0 => Field::U8(v as u8),
            1 => Field::U16(v as u16),
            2 => Field::U32(v as u32),
            3 => Field::U64(v),
            4 => Field::Usize16((v % 70_000) as usize),
            5 => Field::Usize32(id as usize),
            6 => Field::Label(s),
            _ => Field::Entity(match v % 3 {
                0 => Entity::Activity(ActivityId::from_index(id)),
                1 => Entity::Object(ObjectId::from_index(id)),
                _ => Entity::Undefined,
            }),
        }
    }

    struct Fields(Vec<Field>);

    impl Layout for Fields {
        fn write<S: Sink>(&self, w: &mut Writer<S>) {
            self.0.iter().for_each(|f| write(w, f));
        }
    }

    fn write<S: Sink>(w: &mut Writer<S>, f: &Field) {
        match f {
            Field::U8(v) => w.u8(*v),
            Field::U16(v) => w.u16(*v),
            Field::U32(v) => w.u32(*v),
            Field::U64(v) => w.u64(*v),
            Field::Usize16(n) => w.usize16(*n),
            Field::Usize32(n) => w.usize32(*n),
            Field::Label(s) => w.label(s),
            Field::Entity(e) => w.entity(*e),
        }
    }

    fn read(r: &mut Reader<'_>, like: &Field) -> Option<Field> {
        Some(match like {
            Field::U8(_) => Field::U8(r.u8()?),
            Field::U16(_) => Field::U16(r.u16()?),
            Field::U32(_) => Field::U32(r.u32()?),
            Field::U64(_) => Field::U64(r.u64()?),
            Field::Usize16(_) => Field::Usize16(usize::from(r.u16()?)),
            Field::Usize32(_) => Field::Usize32(r.u32()? as usize),
            Field::Label(_) => Field::Label(r.label()?.to_owned()),
            Field::Entity(_) => Field::Entity(r.entity()?),
        })
    }

    proptest! {
        /// For random frames of every field kind, the counted size is the
        /// bytes written, into a buffer that is never grown, and the reader
        /// gives back every field — and nothing from any proper prefix. A
        /// frame with a field too wide for it is not encoded at all.
        #[test]
        fn counted_size_is_the_written_size(
            draws in proptest::collection::vec((0u8..8, any::<u64>(), "[a-zé/.]{0,12}"), 0..24),
        ) {
            let fields = Fields(draws.into_iter().map(field).collect());
            let wide = fields.0.iter().any(|f| matches!(f, Field::Usize16(n) if *n > usize::from(u16::MAX)));
            let mut sized = None;
            let frame = encode_with(&fields, |len| {
                let buf = BytesMut::with_capacity(len);
                sized = Some((len, buf.capacity()));
                buf
            });
            let Some(frame) = frame else {
                prop_assert!(wide && sized.is_none(), "refused a frame the wire carries");
                continue;
            };
            prop_assert!(!wide, "encoded a field wider than the wire");
            let (len, capacity) = sized.unwrap();
            prop_assert_eq!(frame.len(), len);
            let mut r = Reader::new(&frame);
            for f in &fields.0 {
                prop_assert_eq!(read(&mut r, f).as_ref(), Some(f));
            }
            prop_assert_eq!(r.remaining(), 0);
            for cut in 0..frame.len() {
                let mut r = Reader::new(&frame[..cut]);
                prop_assert!(fields.0.iter().map(|f| read(&mut r, f)).any(|f| f.is_none()));
            }
            prop_assert_eq!(frame.try_into_mut().unwrap().capacity(), capacity);
        }
    }

    #[test]
    fn labels_past_sixteen_bits_are_not_carried() {
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        assert!(carries_label(&long[1..]));
        assert!(!carries_label(&long));
        let label = |s: &str| Fields(vec![Field::Label(s.to_owned())]);
        assert!(try_encode(&label(&long)).is_none());
        let ab = try_encode(&label("ab"));
        assert_eq!(ab.as_deref(), Some(&[0, 2, b'a', b'b'][..]));
    }

    #[test]
    fn reads_past_the_end_are_none() {
        let mut r = Reader::new(&[1, 0]);
        assert_eq!(r.u16(), Some(256));
        assert_eq!((r.u8(), r.label(), r.entity()), (None, None, None));
        let mut r = Reader::new(&[0, 3, b'a']);
        assert_eq!(r.label(), None);
        assert_eq!(Reader::new(&[2]).flag(), None);
        assert_eq!(Reader::new(&[ENT_OBJECT, 0, 0, 0]).entity(), None);
        assert_eq!(Reader::new(&[9]).entity(), None);
    }
}
