//! Wire frames of the remote-execution protocol.
//!
//! An [`ExecRequest`] carries everything the §6 II solution needs:
//!
//! * the program label and its *name arguments* — names the child will
//!   resolve and that must mean what the parent meant;
//! * the parent's **namespace table**: the attachments of its private root
//!   (name → object). Shipping the table is what "associate appropriate
//!   contexts with activities that exchange names" looks like on the wire —
//!   the child's context is *constructed* to agree with the parent's.
//!
//! Both frames are laid out once over the simulator's codec
//! ([`naming_sim::codec`]), which sizes them, writes them and decides what
//! the wire can carry.

use bytes::Bytes;
use naming_core::entity::{ActivityId, Entity, ObjectId};
use naming_core::name::{CompoundName, Name};
use naming_sim::codec::{self, Layout, Reader, Sink, Writer};

const TAG_EXEC_REQUEST: u8 = 11;
const TAG_EXEC_REPLY: u8 = 12;

/// A request to execute a program on the receiving machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecRequest {
    /// Correlation id.
    pub id: u64,
    /// Label for the new process.
    pub label: String,
    /// Name arguments the child will resolve.
    pub args: Vec<CompoundName>,
    /// The parent's namespace table: `(attachment name, subtree root)`.
    pub namespace: Vec<(Name, ObjectId)>,
}

/// The exec server's answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecReply {
    /// Echoes [`ExecRequest::id`].
    pub id: u64,
    /// The spawned child, if successful.
    pub child: Option<ActivityId>,
    /// The child's resolution of each argument, in order — the coherence
    /// receipt the parent can check.
    pub resolved_args: Vec<Entity>,
}

impl Layout for ExecRequest {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        w.u8(TAG_EXEC_REQUEST);
        w.u64(self.id);
        w.label(&self.label);
        w.list16(&self.args, |w, a| {
            w.list16(a.components(), |w, c| w.label(c.as_str()));
        });
        w.list16(&self.namespace, |w, &(n, o)| {
            w.label(n.as_str());
            w.object(o);
        });
    }
}

impl ExecRequest {
    /// Encodes the request into an exactly sized frame. Panics when the
    /// wire cannot carry it ([`codec::encode`]).
    pub fn encode(&self) -> Bytes {
        codec::encode(self)
    }

    /// Decodes a request frame.
    pub fn decode(frame: Bytes) -> Option<ExecRequest> {
        let mut r = Reader::new(&frame);
        r.tag(TAG_EXEC_REQUEST)?;
        let (id, label) = (r.u64()?, r.label()?.to_owned());
        let args = r.list16(2, |r| {
            let comps = r.list16(2, |r| r.label().map(Name::new))?;
            CompoundName::new(comps).ok()
        })?;
        let namespace = r.list16(2 + 4, |r| Some((Name::new(r.label()?), r.object()?)))?;
        Some(ExecRequest {
            id,
            label,
            args,
            namespace,
        })
    }
}

impl Layout for ExecReply {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        w.u8(TAG_EXEC_REPLY);
        w.u64(self.id);
        match self.child {
            Some(c) => {
                w.u8(1);
                w.activity(c);
            }
            None => w.u8(0),
        }
        w.list16(&self.resolved_args, |w, &e| w.entity(e));
    }
}

impl ExecReply {
    /// Encodes the reply into an exactly sized frame. Panics when the wire
    /// cannot carry it ([`codec::encode`]).
    pub fn encode(&self) -> Bytes {
        codec::encode(self)
    }

    /// Decodes a reply frame.
    pub fn decode(frame: Bytes) -> Option<ExecReply> {
        let mut r = Reader::new(&frame);
        r.tag(TAG_EXEC_REPLY)?;
        let id = r.u64()?;
        let child = match r.u8()? {
            0 => None,
            1 => Some(r.activity()?),
            _ => return None,
        };
        let resolved_args = r.list16(1, Reader::entity)?;
        Some(ExecReply {
            id,
            child,
            resolved_args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    fn req() -> ExecRequest {
        ExecRequest {
            id: 7,
            label: "builder".into(),
            args: vec![
                CompoundName::parse_path("/home/work/Makefile").unwrap(),
                CompoundName::parse_path("/home/lib/util").unwrap(),
            ],
            namespace: vec![
                (Name::new("home"), ObjectId::from_index(3)),
                (Name::new("/"), ObjectId::from_index(9)),
            ],
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = req();
        assert_eq!(ExecRequest::decode(r.encode()), Some(r));
    }

    #[test]
    fn reply_roundtrip() {
        for child in [Some(ActivityId::from_index(5)), None] {
            let r = ExecReply {
                id: 9,
                child,
                resolved_args: vec![
                    Entity::Object(ObjectId::from_index(1)),
                    Entity::Undefined,
                    Entity::Activity(ActivityId::from_index(2)),
                ],
            };
            assert_eq!(ExecReply::decode(r.encode()), Some(r));
        }
    }

    #[test]
    fn cross_decoding_fails() {
        assert!(ExecReply::decode(req().encode()).is_none());
        assert!(ExecRequest::decode(Bytes::from_static(&[0, 1, 2])).is_none());
        // Every proper prefix of a valid frame is refused.
        let reply = ExecReply {
            id: 9,
            child: Some(ActivityId::from_index(5)),
            resolved_args: vec![Entity::Undefined, Entity::Object(ObjectId::from_index(1))],
        };
        let (request, reply) = (req().encode(), reply.encode());
        for cut in 0..request.len() {
            assert!(ExecRequest::decode(request.slice(..cut)).is_none(), "{cut}");
        }
        for cut in 0..reply.len() {
            assert!(ExecReply::decode(reply.slice(..cut)).is_none(), "{cut}");
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn decode_tolerates_garbage(data in proptest::collection::vec(any::<u8>(), 0..160)) {
                let b = Bytes::from(data);
                if let Some(r) = ExecRequest::decode(b.clone()) {
                    prop_assert_eq!(ExecRequest::decode(r.encode()), Some(r));
                }
                if let Some(r) = ExecReply::decode(b) {
                    prop_assert_eq!(ExecReply::decode(r.encode()), Some(r));
                }
            }

            /// In-place validation must still reject non-UTF-8 labels: a
            /// frame that is well-formed except for its label bytes
            /// decodes to `None`, never to a mangled string.
            #[test]
            fn invalid_utf8_label_decodes_to_none(
                tail in proptest::collection::vec(any::<u8>(), 0..32),
            ) {
                // 0xFF can never occur in UTF-8, so the label is always
                // invalid regardless of the generated suffix.
                let mut raw = vec![0xffu8];
                raw.extend_from_slice(&tail);
                let mut buf = BytesMut::new();
                buf.put_u8(TAG_EXEC_REQUEST);
                buf.put_u64(1);
                buf.put_u16(raw.len() as u16);
                buf.put_slice(&raw);
                buf.put_u16(0); // no args
                buf.put_u16(0); // empty namespace
                prop_assert_eq!(ExecRequest::decode(buf.freeze()), None);
            }
        }
    }
}
