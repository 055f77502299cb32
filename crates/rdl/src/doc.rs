//! Yorkie-style replicated JSON document.
//!
//! [Yorkie](https://github.com/yorkie-team/yorkie) represents each document
//! as a JSON tree whose nodes are CRDTs: object keys resolve by
//! last-write-wins, arrays are RGAs. This substrate mirrors that model:
//!
//! * object keys → LWW by Lamport timestamp,
//! * arrays → [`Rga`] with both the correct `MoveAfter` and the naive
//!   delete+insert move (the Yorkie-1 bug surface, issue #676),
//! * whole-subtree `set` → the operation whose misuse over nested objects is
//!   the Yorkie-2 bug (issue #663).

use std::collections::BTreeMap;
use std::sync::Arc;

use er_pi_model::{
    CanonicalEncode, Dot, DotContext, LamportClock, LamportTimestamp, ReplicaId, Value,
    VersionVector,
};
use serde::{Content, DeError, Deserialize, Serialize};

use crate::copy::{clone_arc_from, clone_map_with};
use crate::{DeltaSync, Log, Rga, RgaOp, StateCrdt};

/// One segment of a document path (an object key): a handle to the key
/// the document holds, where it holds one.
pub type PathSegment = Arc<str>;

/// Errors returned by the document's local mutation API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The path does not resolve to a node.
    NotFound(Vec<PathSegment>),
    /// The path resolves to a node of the wrong shape.
    WrongShape {
        /// The offending path.
        path: Vec<PathSegment>,
        /// What the operation expected ("object", "array", ...).
        expected: &'static str,
    },
    /// An array index was out of bounds.
    IndexOutOfBounds {
        /// Requested index.
        index: usize,
        /// Current array length.
        len: usize,
    },
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::NotFound(p) => write!(f, "path {} not found", p.join(".")),
            DocError::WrongShape { path, expected } => {
                write!(f, "path {} is not an {expected}", path.join("."))
            }
            DocError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
        }
    }
}

impl std::error::Error for DocError {}

/// A read-side snapshot of (part of) the document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JsonValue {
    /// A primitive leaf.
    Prim(Value),
    /// An object of nested values.
    Object(BTreeMap<String, JsonValue>),
    /// An array of primitive values.
    Array(Vec<Value>),
}

impl JsonValue {
    /// Returns the primitive payload, if this is a leaf.
    pub fn as_prim(&self) -> Option<&Value> {
        match self {
            JsonValue::Prim(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// One visible node of a [`JsonDoc`], read in place: what
/// [`JsonDoc::get`] would snapshot, with no key or value copied. Two views
/// are equal exactly when their snapshots ([`JsonView::to_json`]) are.
#[derive(Debug, Clone, Copy)]
pub struct JsonView<'a>(ViewNode<'a>);

#[derive(Debug, Clone, Copy)]
enum ViewNode<'a> {
    Prim(&'a Value),
    Object(&'a Obj),
    Array(&'a Rga<Value>),
}

impl<'a> JsonView<'a> {
    /// A view of `node`; `None` for a tombstone, which no read shows.
    fn of(node: &'a Node) -> Option<Self> {
        Some(JsonView(match node {
            Node::Prim(v) => ViewNode::Prim(v),
            Node::Obj(map) => ViewNode::Object(map),
            Node::Arr(rga) => ViewNode::Array(rga),
            Node::Removed => return None,
        }))
    }

    /// The primitive payload, if this is a leaf.
    pub fn as_prim(self) -> Option<&'a Value> {
        match self.0 {
            ViewNode::Prim(v) => Some(v),
            _ => None,
        }
    }

    /// The visible keys in order, if this is an object.
    pub fn keys(self) -> Option<impl Iterator<Item = &'a str> + Clone> {
        Some(self.entries()?.map(|(key, _)| &**key))
    }

    /// The visible entries in key order, each key with a view of its
    /// subtree, if this is an object. A key is the document's own handle:
    /// a write that reuses it (say, [`JsonDoc::set_object`] over what was
    /// read) clones the handle, not its text.
    pub fn entries(self) -> Option<impl Iterator<Item = (&'a Arc<str>, JsonView<'a>)> + Clone> {
        match self.0 {
            ViewNode::Object(map) => Some(visible_entries(map)),
            _ => None,
        }
    }

    /// The visible items in order, if this is an array.
    pub fn items(self) -> Option<impl Iterator<Item = &'a Value> + Clone> {
        match self.0 {
            ViewNode::Array(rga) => Some(rga.visible()),
            _ => None,
        }
    }

    /// The snapshot of this node: [`JsonDoc::get`]'s value.
    pub fn to_json(self) -> JsonValue {
        match self.0 {
            ViewNode::Prim(v) => JsonValue::Prim(v.clone()),
            ViewNode::Object(map) => JsonValue::Object(
                visible_entries(map)
                    .map(|(key, view)| ((**key).to_owned(), view.to_json()))
                    .collect(),
            ),
            ViewNode::Array(rga) => JsonValue::Array(rga.visible().cloned().collect()),
        }
    }
}

impl PartialEq for JsonView<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (ViewNode::Prim(a), ViewNode::Prim(b)) => a == b,
            (ViewNode::Object(a), ViewNode::Object(b)) => visible_entries(a).eq(visible_entries(b)),
            (ViewNode::Array(a), ViewNode::Array(b)) => a.visible().eq(b.visible()),
            _ => false,
        }
    }
}

/// One replicated operation of a [`JsonDoc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DocOp {
    /// LWW-sets the key at `path` to a primitive.
    SetPrim {
        /// Full path, last segment is the written key.
        path: Vec<PathSegment>,
        /// Written value.
        value: Value,
        /// Write timestamp (LWW).
        ts: LamportTimestamp,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// LWW-replaces the subtree at `path` with an object of primitives.
    ///
    /// This is the whole-subtree `set` whose application to nested objects
    /// silently drops concurrent sibling writes (the Yorkie-2 defect).
    SetObject {
        /// Full path, last segment is the replaced key.
        path: Vec<PathSegment>,
        /// New object content, each key a handle the document's object
        /// shares.
        entries: BTreeMap<Arc<str>, Value>,
        /// Write timestamp (LWW).
        ts: LamportTimestamp,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// LWW-removes the key at `path`.
    Remove {
        /// Full path, last segment is the removed key.
        path: Vec<PathSegment>,
        /// Write timestamp (LWW).
        ts: LamportTimestamp,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// LWW-creates an empty array at `path`.
    NewArray {
        /// Full path, last segment is the created key.
        path: Vec<PathSegment>,
        /// Write timestamp (LWW).
        ts: LamportTimestamp,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// Applies an RGA operation to the array at `path`.
    Arr {
        /// Path of the array.
        path: Vec<PathSegment>,
        /// The inner RGA operation.
        op: RgaOp<Value>,
        /// Delivery-tracking tag (document level).
        dot: Dot,
    },
}

impl DocOp {
    /// The document-level delivery tag.
    pub fn dot(&self) -> Dot {
        match self {
            DocOp::SetPrim { dot, .. }
            | DocOp::SetObject { dot, .. }
            | DocOp::Remove { dot, .. }
            | DocOp::NewArray { dot, .. }
            | DocOp::Arr { dot, .. } => *dot,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Node {
    Prim(Value),
    Obj(Obj),
    Arr(Rga<Value>),
    /// LWW tombstone left behind by `Remove`.
    Removed,
}

/// The keys of one object, each with its subtree behind a reference count.
///
/// Cloning an object — which cloning the document does to its root — copies
/// one map of handles and none of the subtrees. A write then un-shares the
/// entries on the path from the root to the key it touches
/// ([`Arc::make_mut`], one level at a time) and leaves every sibling
/// subtree shared with the snapshots that hold it. Copied over another
/// object, it keeps the handles the two hold in common.
#[derive(Debug, Default, PartialEq, Eq)]
struct Obj(BTreeMap<Arc<str>, Arc<Entry>>);

impl Clone for Obj {
    fn clone(&self) -> Self {
        Obj(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        clone_map_with(&mut self.0, &source.0, clone_arc_from);
    }
}

// The vendored serde stand-in serializes an `Arc` but deserializes only an
// `Arc<str>`: the map of keys to entries it is, by hand.
impl Serialize for Obj {
    fn to_content(&self) -> Content {
        self.0.to_content()
    }
}

impl Deserialize for Obj {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = BTreeMap::<Arc<str>, Entry>::from_content(content)?;
        let shared = |(key, entry): (Arc<str>, Entry)| (key, Arc::new(entry));
        Ok(Obj(entries.into_iter().map(shared).collect()))
    }
}

impl CanonicalEncode for Obj {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.0.encode_canonical(out);
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    /// LWW timestamp of the last value assignment at this key.
    ts: LamportTimestamp,
    /// Timestamp of the last *wholesale replacement* (SetObject/Remove) of
    /// this key; deeper writes older than this are discarded, which is what
    /// makes "set over a nested object" drop concurrent sibling writes
    /// (the Yorkie-2 defect surface).
    replaced_at: Option<LamportTimestamp>,
    node: Node,
}

/// A replicated JSON document.
///
/// ```
/// use er_pi_model::{ReplicaId, Value};
/// use er_pi_rdl::{DeltaSync, JsonDoc};
///
/// let mut a = JsonDoc::new(ReplicaId::new(0));
/// let mut b = JsonDoc::new(ReplicaId::new(1));
/// a.set(&["profile", "name"], Value::from("ada"))?;
/// b.sync_from(&a);
/// assert_eq!(
///     b.get(&["profile", "name"]).unwrap().as_prim(),
///     Some(&Value::from("ada"))
/// );
/// # Ok::<(), er_pi_rdl::DocError>(())
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonDoc {
    replica: ReplicaId,
    clock: LamportClock,
    root: Obj,
    ctx: DotContext,
    log: Log<DocOp>,
    /// Array operations whose array has not arrived yet.
    pending: Log<DocOp>,
}

impl Clone for JsonDoc {
    fn clone(&self) -> Self {
        let JsonDoc {
            replica,
            clock,
            root,
            ctx,
            log,
            pending,
        } = self;
        JsonDoc {
            replica: *replica,
            clock: clock.clone(),
            root: root.clone(),
            ctx: ctx.clone(),
            log: log.clone(),
            pending: pending.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let JsonDoc {
            replica,
            clock,
            root,
            ctx,
            log,
            pending,
        } = source;
        self.replica = *replica;
        self.clock.clone_from(clock);
        self.root.clone_from(root);
        self.ctx.clone_from(ctx);
        self.log.clone_from(log);
        self.pending.clone_from(pending);
    }
}

impl JsonDoc {
    /// Creates an empty document owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        JsonDoc {
            replica,
            clock: LamportClock::new(replica),
            root: Obj::default(),
            ctx: DotContext::new(),
            log: Log::new(),
            pending: Log::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// `path` as segments: the handle of each key the document already
    /// holds along it, a new string only past where it ends.
    fn path_vec(&self, path: &[&str]) -> Vec<PathSegment> {
        let mut current = Some(&self.root);
        path.iter()
            .map(|segment| {
                let held = current.and_then(|obj| obj.0.get_key_value(*segment));
                current = held.and_then(|(_, entry)| match &entry.node {
                    Node::Obj(map) => Some(map),
                    _ => None,
                });
                held.map_or_else(|| Arc::from(*segment), |(key, _)| Arc::clone(key))
            })
            .collect()
    }

    fn record(&mut self, op: DocOp) -> Arc<DocOp> {
        self.apply_resolved(&op);
        Arc::clone(self.log.push(op))
    }

    /// LWW-sets `path` to a primitive `value`.
    ///
    /// # Errors
    ///
    /// Returns [`DocError::WrongShape`] if an intermediate segment resolves
    /// to a primitive or array owned by a *newer* write (the set would lose).
    pub fn set(&mut self, path: &[&str], value: Value) -> Result<Arc<DocOp>, DocError> {
        assert!(!path.is_empty(), "path must be non-empty");
        let ts = self.clock.tick();
        let dot = self.ctx.next_dot(self.replica);
        Ok(self.record(DocOp::SetPrim {
            path: self.path_vec(path),
            value,
            ts,
            dot,
        }))
    }

    /// LWW-replaces the subtree at `path` with an object of primitives.
    ///
    /// The keys are taken by handle: the operation and the object it
    /// builds (here and at every replica that applies it) share each
    /// `Arc<str>` passed in, so no key's text is copied.
    pub fn set_object(
        &mut self,
        path: &[&str],
        entries: BTreeMap<Arc<str>, Value>,
    ) -> Result<Arc<DocOp>, DocError> {
        assert!(!path.is_empty(), "path must be non-empty");
        let ts = self.clock.tick();
        let dot = self.ctx.next_dot(self.replica);
        Ok(self.record(DocOp::SetObject {
            path: self.path_vec(path),
            entries,
            ts,
            dot,
        }))
    }

    /// LWW-removes the key at `path`.
    pub fn remove(&mut self, path: &[&str]) -> Result<Arc<DocOp>, DocError> {
        assert!(!path.is_empty(), "path must be non-empty");
        let ts = self.clock.tick();
        let dot = self.ctx.next_dot(self.replica);
        Ok(self.record(DocOp::Remove {
            path: self.path_vec(path),
            ts,
            dot,
        }))
    }

    /// LWW-creates an empty array at `path`.
    pub fn new_array(&mut self, path: &[&str]) -> Result<Arc<DocOp>, DocError> {
        assert!(!path.is_empty(), "path must be non-empty");
        let ts = self.clock.tick();
        let dot = self.ctx.next_dot(self.replica);
        Ok(self.record(DocOp::NewArray {
            path: self.path_vec(path),
            ts,
            dot,
        }))
    }

    fn with_array<R>(
        &mut self,
        path: &[&str],
        f: impl FnOnce(&mut Rga<Value>) -> Result<R, DocError>,
    ) -> Result<R, DocError> {
        match array_mut(&mut self.root, path) {
            Some(rga) => f(rga),
            None => Err(match resolve(&self.root, path) {
                Some(_) => DocError::WrongShape {
                    path: self.path_vec(path),
                    expected: "array",
                },
                None => DocError::NotFound(self.path_vec(path)),
            }),
        }
    }

    fn record_arr(&mut self, path: &[&str], op: Arc<RgaOp<Value>>) -> Arc<DocOp> {
        let dot = self.ctx.next_dot(self.replica);
        Arc::clone(self.log.push(DocOp::Arr {
            path: self.path_vec(path),
            op: RgaOp::clone(&op),
            dot,
        }))
    }

    /// Appends `value` to the array at `path`.
    pub fn arr_push(&mut self, path: &[&str], value: Value) -> Result<Arc<DocOp>, DocError> {
        let op = self.with_array(path, |rga| Ok(rga.push(value)))?;
        Ok(self.record_arr(path, op))
    }

    /// Inserts `value` at `idx` in the array at `path`.
    pub fn arr_insert(
        &mut self,
        path: &[&str],
        idx: usize,
        value: Value,
    ) -> Result<Arc<DocOp>, DocError> {
        let op = self.with_array(path, |rga| {
            if idx > rga.len() {
                return Err(DocError::IndexOutOfBounds {
                    index: idx,
                    len: rga.len(),
                });
            }
            Ok(rga.insert(idx, value))
        })?;
        Ok(self.record_arr(path, op))
    }

    /// Deletes index `idx` of the array at `path`.
    pub fn arr_delete(&mut self, path: &[&str], idx: usize) -> Result<Arc<DocOp>, DocError> {
        let op = self.with_array(path, |rga| {
            rga.delete(idx).ok_or(DocError::IndexOutOfBounds {
                index: idx,
                len: rga.len(),
            })
        })?;
        Ok(self.record_arr(path, op))
    }

    /// Moves array element `from` to position `to` using the *correct*
    /// stable-identity move (Yorkie's fixed `MoveAfter`).
    pub fn arr_move(
        &mut self,
        path: &[&str],
        from: usize,
        to: usize,
    ) -> Result<Arc<DocOp>, DocError> {
        let op = self.with_array(path, |rga| {
            rga.move_item(from, to).ok_or(DocError::IndexOutOfBounds {
                index: from.max(to),
                len: rga.len(),
            })
        })?;
        Ok(self.record_arr(path, op))
    }

    /// Moves array element `from` to position `to` using the *naive*
    /// delete+insert — the application-level move that duplicates under
    /// concurrency (misconception #3 / bug Yorkie-1). Returns the delete
    /// and the insert, in that order.
    pub fn arr_move_naive(
        &mut self,
        path: &[&str],
        from: usize,
        to: usize,
    ) -> Result<[Arc<DocOp>; 2], DocError> {
        let [del, ins] = self.with_array(path, |rga| {
            rga.move_naive(from, to).ok_or(DocError::IndexOutOfBounds {
                index: from.max(to),
                len: rga.len(),
            })
        })?;
        Ok([self.record_arr(path, del), self.record_arr(path, ins)])
    }

    /// Reads the node at `path` in place (`&[]` reads the whole document
    /// root): what [`JsonDoc::get`] snapshots, with nothing copied.
    pub fn view(&self, path: &[&str]) -> Option<JsonView<'_>> {
        if path.is_empty() {
            return Some(self.root_view());
        }
        resolve(&self.root, path).and_then(JsonView::of)
    }

    /// The whole document, read in place. Two documents' root views are
    /// equal exactly when their [`root`](JsonDoc::root) snapshots are.
    pub fn root_view(&self) -> JsonView<'_> {
        JsonView(ViewNode::Object(&self.root))
    }

    /// Reads the snapshot at `path` (`&[]` reads the whole document root).
    pub fn get(&self, path: &[&str]) -> Option<JsonValue> {
        self.view(path).map(JsonView::to_json)
    }

    /// Snapshot of the whole document.
    pub fn root(&self) -> JsonValue {
        self.root_view().to_json()
    }

    /// The operations this document holds, read in place: those applied,
    /// then those still pending, in the order
    /// [`missing_since`](DeltaSync::missing_since) of an empty version
    /// vector ships them.
    pub fn ops(&self) -> impl Iterator<Item = &DocOp> {
        self.held().map(|op| &**op)
    }

    /// The handles of [`JsonDoc::ops`].
    fn held(&self) -> impl Iterator<Item = &Arc<DocOp>> {
        self.log.shared().chain(self.pending.shared())
    }

    /// Applies `op` to the tree, creating intermediate objects as needed.
    /// Returns `false` if the op cannot be applied yet (dangling array path).
    fn apply_resolved(&mut self, op: &DocOp) -> bool {
        match op {
            DocOp::SetPrim {
                path, value, ts, ..
            } => {
                self.clock.observe(*ts);
                set_at(&mut self.root, path, Node::Prim(value.clone()), *ts, false);
                true
            }
            DocOp::SetObject {
                path, entries, ts, ..
            } => {
                self.clock.observe(*ts);
                let obj = entries
                    .iter()
                    .map(|(k, v)| {
                        (
                            Arc::clone(k),
                            Arc::new(Entry {
                                ts: *ts,
                                replaced_at: None,
                                node: Node::Prim(v.clone()),
                            }),
                        )
                    })
                    .collect();
                set_at(&mut self.root, path, Node::Obj(Obj(obj)), *ts, true);
                true
            }
            DocOp::Remove { path, ts, .. } => {
                self.clock.observe(*ts);
                set_at(&mut self.root, path, Node::Removed, *ts, true);
                true
            }
            DocOp::NewArray { path, ts, .. } => {
                self.clock.observe(*ts);
                let arr = Rga::new(self.replica);
                set_at(&mut self.root, path, Node::Arr(arr), *ts, false);
                true
            }
            DocOp::Arr { path, op, .. } => match array_mut(&mut self.root, path) {
                Some(rga) => {
                    rga.apply_op(&Arc::new(op.clone()));
                    true
                }
                None => false,
            },
        }
    }

    fn flush_pending(&mut self) {
        loop {
            let mut progressed = false;
            let pending = std::mem::take(&mut self.pending);
            for op in pending.shared() {
                if self.apply_resolved(op) {
                    progressed = true;
                    self.log.push_shared(Arc::clone(op));
                } else {
                    self.pending.push_shared(Arc::clone(op));
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

impl DeltaSync for JsonDoc {
    type Op = DocOp;

    fn missing_since(&self, since: &VersionVector) -> Vec<Arc<DocOp>> {
        self.held()
            .filter(|op| !since.contains(op.dot()))
            .cloned()
            .collect()
    }

    fn apply_op(&mut self, op: &Arc<DocOp>) {
        if self.ctx.contains(op.dot()) {
            return;
        }
        self.ctx.add(op.dot());
        if self.apply_resolved(op) {
            self.log.push_shared(Arc::clone(op));
            self.flush_pending();
        } else {
            self.pending.push_shared(Arc::clone(op));
        }
    }

    fn version(&self) -> &VersionVector {
        self.ctx.vector()
    }
}

impl StateCrdt for JsonDoc {
    fn merge(&mut self, other: &Self) {
        self.sync_from(other);
    }
}

impl CanonicalEncode for DocOp {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            DocOp::SetPrim {
                path,
                value,
                ts,
                dot,
            } => {
                out.push(0);
                path.encode_canonical(out);
                value.encode_canonical(out);
                ts.encode_canonical(out);
                dot.encode_canonical(out);
            }
            DocOp::SetObject {
                path,
                entries,
                ts,
                dot,
            } => {
                out.push(1);
                path.encode_canonical(out);
                entries.encode_canonical(out);
                ts.encode_canonical(out);
                dot.encode_canonical(out);
            }
            DocOp::Remove { path, ts, dot } => {
                out.push(2);
                path.encode_canonical(out);
                ts.encode_canonical(out);
                dot.encode_canonical(out);
            }
            DocOp::NewArray { path, ts, dot } => {
                out.push(3);
                path.encode_canonical(out);
                ts.encode_canonical(out);
                dot.encode_canonical(out);
            }
            DocOp::Arr { path, op, dot } => {
                out.push(4);
                path.encode_canonical(out);
                op.encode_canonical(out);
                dot.encode_canonical(out);
            }
        }
    }
}

impl CanonicalEncode for Node {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            Node::Prim(v) => {
                out.push(0);
                v.encode_canonical(out);
            }
            Node::Obj(entries) => {
                out.push(1);
                entries.encode_canonical(out);
            }
            Node::Arr(rga) => {
                out.push(2);
                rga.encode_canonical(out);
            }
            Node::Removed => out.push(3),
        }
    }
}

impl CanonicalEncode for Entry {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.ts.encode_canonical(out);
        self.replaced_at.encode_canonical(out);
        self.node.encode_canonical(out);
    }
}

impl CanonicalEncode for JsonDoc {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // The LWW timestamps inside each entry steer conflict resolution of
        // future writes, so they are part of behavioral state — as are the
        // pending buffer and the dot context's delivery filter.
        self.replica.encode_canonical(out);
        self.clock.encode_canonical(out);
        self.root.encode_canonical(out);
        self.ctx.encode_canonical(out);
        self.log.encode_canonical(out);
        self.pending.encode_canonical(out);
    }
}

/// LWW-writes `node` at `path` under `ts`, creating intermediate objects.
/// `replaces` marks wholesale replacements (SetObject/Remove), which also
/// shadow *older deeper* writes arriving later.
///
/// Entries on the way down are un-shared only once the write is known to
/// pass through them, so a write that loses to an ancestor copies nothing.
fn set_at(root: &mut Obj, path: &[PathSegment], node: Node, ts: LamportTimestamp, replaces: bool) {
    let (key, parents) = path.split_last().expect("paths are non-empty");
    let mut current = root;
    for seg in parents {
        if !current.0.contains_key(&**seg) {
            let object = Entry {
                ts,
                replaced_at: None,
                node: Node::Obj(Obj::default()),
            };
            current.0.insert(Arc::clone(seg), Arc::new(object));
        }
        let slot = current.0.get_mut(&**seg).expect("present or just put");
        if slot.replaced_at.is_some_and(|r| r > ts) {
            return; // an ancestor was replaced after this write: it loses
        }
        let is_object = matches!(slot.node, Node::Obj(_));
        if !is_object && ts <= slot.ts {
            return; // older write loses silently (LWW)
        }
        let entry = Arc::make_mut(slot);
        if !is_object {
            // Traversing through a non-object: a deeper write implies the
            // object exists, and this one is newer.
            entry.ts = ts;
            entry.node = Node::Obj(Obj::default());
        }
        match &mut entry.node {
            Node::Obj(map) => current = map,
            _ => unreachable!("just normalized to an object"),
        }
    }
    match current.0.get_mut(&**key) {
        Some(slot) => {
            if ts > slot.ts {
                let entry = Arc::make_mut(slot);
                entry.ts = ts;
                entry.node = node;
                if replaces {
                    entry.replaced_at = Some(ts);
                }
            }
        }
        None => {
            let entry = Entry {
                ts,
                replaced_at: replaces.then_some(ts),
                node,
            };
            current.0.insert(Arc::clone(key), Arc::new(entry));
        }
    }
}

fn resolve<'a, S: AsRef<str>>(root: &'a Obj, path: &[S]) -> Option<&'a Node> {
    let (key, parents) = path.split_last()?;
    let mut current = root;
    for seg in parents {
        match &current.0.get(seg.as_ref())?.node {
            Node::Obj(map) => current = map,
            _ => return None,
        }
    }
    match &current.0.get(key.as_ref())?.node {
        Node::Removed => None,
        node => Some(node),
    }
}

/// The array at `path`, for writing: un-shares the entries down to it.
/// `None` — and nothing copied — unless `path` resolves to an array.
fn array_mut<'a, S: AsRef<str>>(root: &'a mut Obj, path: &[S]) -> Option<&'a mut Rga<Value>> {
    if !matches!(resolve(root, path), Some(Node::Arr(_))) {
        return None;
    }
    let (key, parents) = path.split_last()?;
    let mut current = root;
    for seg in parents {
        match &mut Arc::make_mut(current.0.get_mut(seg.as_ref())?).node {
            Node::Obj(map) => current = map,
            _ => return None,
        }
    }
    match &mut Arc::make_mut(current.0.get_mut(key.as_ref())?).node {
        Node::Arr(rga) => Some(rga),
        _ => None,
    }
}

/// An object's visible entries in key order: each key with a view of its
/// subtree, tombstones skipped.
fn visible_entries(map: &Obj) -> impl Iterator<Item = (&Arc<str>, JsonView<'_>)> + Clone {
    map.0
        .iter()
        .filter_map(|(key, entry)| Some((key, JsonView::of(&entry.node)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn set_and_get_nested() {
        let mut d = JsonDoc::new(r(0));
        d.set(&["a", "b", "c"], Value::from(1)).unwrap();
        assert_eq!(
            d.get(&["a", "b", "c"]).unwrap().as_prim(),
            Some(&Value::from(1))
        );
        assert!(d.get(&["a", "b"]).unwrap().as_object().is_some());
        assert!(d.get(&["missing"]).is_none());
    }

    #[test]
    fn remove_hides_key() {
        let mut d = JsonDoc::new(r(0));
        d.set(&["k"], Value::from(1)).unwrap();
        d.remove(&["k"]).unwrap();
        assert!(d.get(&["k"]).is_none());
        let root = d.root();
        assert!(root.as_object().unwrap().is_empty());
    }

    #[test]
    fn lww_newer_write_wins_across_replicas() {
        let mut a = JsonDoc::new(r(0));
        let mut b = JsonDoc::new(r(1));
        a.set(&["k"], Value::from("old")).unwrap();
        b.sync_from(&a);
        b.set(&["k"], Value::from("new")).unwrap();
        a.sync_from(&b);
        assert_eq!(a.get(&["k"]).unwrap().as_prim(), Some(&Value::from("new")));
    }

    #[test]
    fn concurrent_sibling_sets_both_survive() {
        let mut a = JsonDoc::new(r(0));
        let mut b = JsonDoc::new(r(1));
        a.set(&["obj", "x"], Value::from(1)).unwrap();
        b.set(&["obj", "y"], Value::from(2)).unwrap();
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.root(), b.root());
        let obj = a.get(&["obj"]).unwrap();
        assert_eq!(obj.as_object().unwrap().len(), 2);
    }

    #[test]
    fn whole_object_set_drops_concurrent_sibling() {
        // The Yorkie-2 defect: replacing a nested object wholesale loses a
        // concurrent sibling write.
        let mut a = JsonDoc::new(r(0));
        let mut b = JsonDoc::new(r(1));
        a.set(&["obj", "x"], Value::from(1)).unwrap();
        b.sync_from(&a);
        // Concurrently: b sets a sibling, a replaces the whole object.
        b.set(&["obj", "y"], Value::from(2)).unwrap();
        let mut replacement = BTreeMap::new();
        replacement.insert("x".into(), Value::from(10));
        // Ensure a's replacement is the LWW winner (two warm-up ticks push
        // a's clock strictly past b's concurrent write).
        a.set(&["warmup1"], Value::from(0)).unwrap();
        a.set(&["warmup2"], Value::from(0)).unwrap();
        a.set_object(&["obj"], replacement).unwrap();
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.root(), b.root(), "replicas converge");
        let obj = a.get(&["obj"]).unwrap();
        assert!(
            obj.as_object().unwrap().get("y").is_none(),
            "sibling write was silently dropped: {obj:?}"
        );
    }

    #[test]
    fn arrays_push_insert_delete() {
        let mut d = JsonDoc::new(r(0));
        d.new_array(&["list"]).unwrap();
        d.arr_push(&["list"], Value::from(1)).unwrap();
        d.arr_push(&["list"], Value::from(3)).unwrap();
        d.arr_insert(&["list"], 1, Value::from(2)).unwrap();
        assert_eq!(
            d.get(&["list"]).unwrap().as_array().unwrap(),
            &[Value::from(1), Value::from(2), Value::from(3)]
        );
        d.arr_delete(&["list"], 0).unwrap();
        assert_eq!(d.get(&["list"]).unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn array_ops_error_cases() {
        let mut d = JsonDoc::new(r(0));
        assert!(matches!(
            d.arr_push(&["nope"], Value::from(1)),
            Err(DocError::NotFound(_))
        ));
        d.set(&["notarr"], Value::from(1)).unwrap();
        assert!(matches!(
            d.arr_push(&["notarr"], Value::from(1)),
            Err(DocError::WrongShape { .. })
        ));
        d.new_array(&["list"]).unwrap();
        assert!(matches!(
            d.arr_delete(&["list"], 0),
            Err(DocError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            d.arr_insert(&["list"], 5, Value::from(1)),
            Err(DocError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn correct_array_move_converges_without_duplication() {
        let mut a = JsonDoc::new(r(0));
        a.new_array(&["l"]).unwrap();
        for v in ["x", "y", "z"] {
            a.arr_push(&["l"], Value::from(v)).unwrap();
        }
        let mut b = JsonDoc::new(r(1));
        b.sync_from(&a);
        a.arr_move(&["l"], 0, 2).unwrap();
        b.arr_move(&["l"], 0, 1).unwrap();
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.root(), b.root());
        let arr = a.get(&["l"]).unwrap().as_array().unwrap().to_vec();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr.iter().filter(|v| **v == Value::from("x")).count(), 1);
    }

    #[test]
    fn naive_array_move_duplicates_under_concurrency() {
        let mut a = JsonDoc::new(r(0));
        a.new_array(&["l"]).unwrap();
        for v in ["x", "y", "z"] {
            a.arr_push(&["l"], Value::from(v)).unwrap();
        }
        let mut b = JsonDoc::new(r(1));
        b.sync_from(&a);
        a.arr_move_naive(&["l"], 0, 2).unwrap();
        b.arr_move_naive(&["l"], 0, 1).unwrap();
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.root(), b.root());
        let arr = a.get(&["l"]).unwrap().as_array().unwrap().to_vec();
        assert_eq!(
            arr.iter().filter(|v| **v == Value::from("x")).count(),
            2,
            "naive move duplicated the element"
        );
    }

    #[test]
    fn out_of_order_array_op_is_buffered() {
        let mut a = JsonDoc::new(r(0));
        let mk_arr = a.new_array(&["l"]).unwrap();
        let push = a.arr_push(&["l"], Value::from(7)).unwrap();
        let mut b = JsonDoc::new(r(1));
        // Array op before the array exists: buffered.
        b.apply_op(&push);
        assert!(b.get(&["l"]).is_none());
        b.apply_op(&mk_arr);
        assert_eq!(
            b.get(&["l"]).unwrap().as_array().unwrap(),
            &[Value::from(7)]
        );
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut a = JsonDoc::new(r(0));
        let op = a.set(&["k"], Value::from(5)).unwrap();
        let mut b = JsonDoc::new(r(1));
        b.apply_op(&op);
        b.apply_op(&op);
        assert_eq!(b.get(&["k"]).unwrap().as_prim(), Some(&Value::from(5)));
        assert_eq!(b.version().total(), 1);
    }

    #[test]
    fn doc_error_display() {
        let e = DocError::NotFound(vec!["a".into(), "b".into()]);
        assert_eq!(e.to_string(), "path a.b not found");
        let e = DocError::IndexOutOfBounds { index: 3, len: 1 };
        assert!(e.to_string().contains("out of bounds"));
    }
}
