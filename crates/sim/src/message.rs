//! Messages exchanged between activities.
//!
//! Names are "frequently exchanged between activities in computer systems:
//! between parent and child activities, and between client and server
//! activities" (§4). A [`Message`] carries a mix of opaque bytes and
//! *names*; the naming scheme in force decides what happens to the names at
//! the send/receive boundary (identity for `R(receiver)` schemes, mapping
//! for `R(sender)` schemes such as PQIDs).

use std::ops::Deref;

use bytes::Bytes;
use naming_core::entity::ActivityId;
use naming_core::name::CompoundName;

use crate::time::VirtualTime;

/// One part of a message payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Opaque bytes; naming schemes never touch these.
    Bytes(Bytes),
    /// A name, exchanged across the context boundary.
    Name(CompoundName),
}

impl Payload {
    /// Creates an opaque payload from bytes.
    pub fn bytes(data: impl Into<Bytes>) -> Payload {
        Payload::Bytes(data.into())
    }

    /// Creates a name payload.
    pub fn name(name: CompoundName) -> Payload {
        Payload::Name(name)
    }

    /// The name, if this part is a name.
    pub fn as_name(&self) -> Option<&CompoundName> {
        match self {
            Payload::Name(n) => Some(n),
            Payload::Bytes(_) => None,
        }
    }
}

/// A message's payload parts in order, read as a slice: one part — all a
/// protocol frame is — is held inline, any other number in a vector.
#[derive(Clone, Debug)]
pub enum Parts {
    /// Exactly one part; no allocation.
    One(Payload),
    /// Any number of parts.
    Many(Vec<Payload>),
}

impl Deref for Parts {
    type Target = [Payload];
    fn deref(&self) -> &[Payload] {
        match self {
            Parts::One(part) => std::slice::from_ref(part),
            Parts::Many(parts) => parts,
        }
    }
}

/// Parts are equal when they read the same, however they are held.
impl PartialEq for Parts {
    fn eq(&self, other: &Parts) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Parts {}

impl From<Payload> for Parts {
    fn from(part: Payload) -> Parts {
        Parts::One(part)
    }
}

impl From<Vec<Payload>> for Parts {
    fn from(parts: Vec<Payload>) -> Parts {
        Parts::Many(parts)
    }
}

impl IntoIterator for Parts {
    type Item = Payload;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Payload>, std::vec::IntoIter<Payload>>;
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Parts::One(part) => (Some(part), Vec::new()),
            Parts::Many(parts) => (None, parts),
        };
        one.into_iter().chain(many)
    }
}

impl<'a> IntoIterator for &'a Parts {
    type Item = &'a Payload;
    type IntoIter = std::slice::Iter<'a, Payload>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A message in flight or delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The sending activity.
    pub from: ActivityId,
    /// The receiving activity.
    pub to: ActivityId,
    /// Payload parts in order.
    pub parts: Parts,
    /// When the message was sent.
    pub sent_at: VirtualTime,
}

impl Message {
    /// Creates a message; `sent_at` is stamped by the world on send.
    pub fn new(from: ActivityId, to: ActivityId, parts: impl Into<Parts>) -> Message {
        Message {
            from,
            to,
            parts: parts.into(),
            sent_at: VirtualTime::ZERO,
        }
    }

    /// Iterates over the names carried by the message.
    pub fn names(&self) -> impl Iterator<Item = &CompoundName> {
        self.parts.iter().filter_map(Payload::as_name)
    }

    /// Number of name parts.
    pub fn name_count(&self) -> usize {
        self.names().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(i: u32) -> ActivityId {
        ActivityId::from_index(i)
    }

    #[test]
    fn payload_kinds() {
        let b = Payload::bytes(&b"hello"[..]);
        assert!(b.as_name().is_none());
        let n = Payload::name(CompoundName::parse_path("/etc/passwd").unwrap());
        assert_eq!(n.as_name().unwrap().to_string(), "/etc/passwd");
    }

    #[test]
    fn parts_read_the_same_however_they_are_held() {
        let frame = || Payload::bytes(&b"frame"[..]);
        let (one, many) = (Parts::from(frame()), Parts::from(vec![frame()]));
        assert!(matches!((&one, &many), (Parts::One(_), Parts::Many(_))));
        assert_eq!(one, many);
        assert_eq!(one[..], [frame()]);
        assert_eq!(
            Message::new(aid(0), aid(1), frame()),
            Message::new(aid(0), aid(1), vec![frame()])
        );
        assert_ne!(one, Parts::from(vec![]));
        assert_ne!(one, Parts::from(vec![frame(), frame()]));
        // Borrowed and owned iteration, in order, for either.
        let name = Payload::name(CompoundName::parse_path("/a").unwrap());
        let two = Parts::from(vec![frame(), name.clone()]);
        assert_eq!((&two).into_iter().collect::<Vec<_>>(), [&frame(), &name]);
        assert_eq!(two.into_iter().collect::<Vec<_>>(), [frame(), name]);
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [frame()]);
        assert_eq!(Parts::from(vec![]).into_iter().count(), 0);
    }

    #[test]
    fn a_cloned_world_shares_an_in_flight_frame() {
        // A frame nobody else holds goes back to its sender's pool when it
        // has been read; a what-if branch holds it too, so neither branch
        // may take it for writing while the other lives.
        let mut w = crate::world::World::new(1);
        let net = w.add_network("n");
        let m = w.add_machine("m", net);
        let (a, b) = (w.spawn(m, "a", None), w.spawn(m, "b", None));
        let mut buf = bytes::BytesMut::with_capacity(64);
        bytes::BufMut::put_slice(&mut buf, b"frame");
        w.send(a, b, Payload::Bytes(buf.freeze()));
        let mut fork = w.clone();
        w.run();
        fork.run();
        let (got, forked) = (w.receive(b).unwrap(), fork.receive(b).unwrap());
        assert_eq!(got, forked);
        let [Payload::Bytes(frame)] = &got.parts[..] else {
            panic!("one frame was sent");
        };
        let frame = frame.clone().try_into_mut().expect_err("three views");
        drop((got, forked));
        assert_eq!(&frame.try_into_mut().expect("the last view")[..], b"frame");
    }

    #[test]
    fn message_names() {
        let m = Message::new(
            aid(0),
            aid(1),
            vec![
                Payload::bytes(&b"run"[..]),
                Payload::name(CompoundName::parse_path("/bin/cc").unwrap()),
                Payload::name(CompoundName::parse_path("main.c").unwrap()),
            ],
        );
        assert_eq!(m.name_count(), 2);
        let names: Vec<String> = m.names().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["/bin/cc", "main.c"]);
    }
}
