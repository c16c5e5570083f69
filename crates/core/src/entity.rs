//! Entities: activities, objects, and the undefined entity ⊥ (§2).
//!
//! The paper distinguishes *activities* (active entities performing
//! computation — processes) from *objects* (passive entities — files,
//! directories). The set of entities is `E = A ∪ O ∪ {⊥E}` where `⊥E` is the
//! undefined entity returned by failed resolutions.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of an activity (an active entity, e.g. a process).
///
/// `ActivityId`s index into a [`crate::state::SystemState`]'s activity table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActivityId(u32);

impl ActivityId {
    /// Creates an activity id from a raw index.
    ///
    /// Normally ids are produced by [`crate::state::SystemState::add_activity`];
    /// this constructor exists for tests and deserialization tooling.
    pub fn from_index(index: u32) -> ActivityId {
        ActivityId(index)
    }

    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of an object (a passive entity, e.g. a file or directory).
///
/// `ObjectId`s index into a [`crate::state::SystemState`]'s object table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object id from a raw index.
    ///
    /// Normally ids are produced by [`crate::state::SystemState::add_object`];
    /// this constructor exists for tests and deserialization tooling.
    pub fn from_index(index: u32) -> ObjectId {
        ObjectId(index)
    }

    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// An entity: an activity, an object, or the undefined entity `⊥E`.
///
/// Resolution is a *total* function in the paper's model: a name that is not
/// bound resolves to [`Entity::Undefined`] rather than failing.
///
/// # Examples
///
/// ```
/// use naming_core::entity::{Entity, ObjectId};
///
/// let e = Entity::Object(ObjectId::from_index(3));
/// assert!(e.is_defined());
/// assert_eq!(e.as_object(), Some(ObjectId::from_index(3)));
/// assert!(!Entity::Undefined.is_defined());
/// ```
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub enum Entity {
    /// An active entity.
    Activity(ActivityId),
    /// A passive entity.
    Object(ObjectId),
    /// The undefined entity `⊥E`: the result of resolving an unbound name.
    #[default]
    Undefined,
}

impl Entity {
    /// True unless this is `⊥E`.
    pub fn is_defined(self) -> bool {
        !matches!(self, Entity::Undefined)
    }

    /// The object id, if this entity is an object.
    pub fn as_object(self) -> Option<ObjectId> {
        match self {
            Entity::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The activity id, if this entity is an activity.
    pub fn as_activity(self) -> Option<ActivityId> {
        match self {
            Entity::Activity(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::Activity(a) => write!(f, "{a}"),
            Entity::Object(o) => write!(f, "{o}"),
            Entity::Undefined => f.write_str("⊥"),
        }
    }
}

impl From<ActivityId> for Entity {
    fn from(a: ActivityId) -> Entity {
        Entity::Activity(a)
    }
}

impl From<ObjectId> for Entity {
    fn from(o: ObjectId) -> Entity {
        Entity::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_kinds() {
        let a = Entity::from(ActivityId::from_index(1));
        let o = Entity::from(ObjectId::from_index(2));
        assert_eq!(a.as_activity(), Some(ActivityId::from_index(1)));
        assert_eq!(a.as_object(), None);
        assert_eq!(o.as_object(), Some(ObjectId::from_index(2)));
        assert_eq!(o.as_activity(), None);
        assert!(a.is_defined() && o.is_defined());
        assert!(!Entity::Undefined.is_defined());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Entity::from(ActivityId::from_index(7)).to_string(), "a7");
        assert_eq!(Entity::from(ObjectId::from_index(9)).to_string(), "o9");
        assert_eq!(Entity::Undefined.to_string(), "⊥");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(ObjectId::from_index(1) < ObjectId::from_index(2));
        assert!(ActivityId::from_index(0) < ActivityId::from_index(10));
    }
}
