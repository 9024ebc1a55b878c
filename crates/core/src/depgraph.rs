//! The dependency graph and topological timestamps for multi-stream programs
//! (Sec. 5.3, Fig. 4).
//!
//! Vertices are GPU API invocations. Edges are:
//!
//! * intra-stream program order (GPU APIs execute in order within a stream);
//! * read-after-write (RAW), write-after-write (WAW), and write-after-read
//!   (WAR) data dependencies on data objects, where allocation counts as a
//!   write-like *def* and deallocation as a write-like final use
//!   (Def. 5.1);
//! * cross-stream ordering established by `cudaEventRecord` /
//!   `cudaStreamWaitEvent` (an extension beyond Def. 5.1, which only tracks
//!   data and program order; without it, event-synchronized APIs with no
//!   shared data would appear falsely concurrent).
//!
//! Kahn's algorithm annotates every vertex with a *topological timestamp*:
//! all vertices removed in the same wave share a timestamp, and the
//! timestamp increases by one per wave. For a single-stream program this
//! degenerates to the invocation order. The difference between two
//! dependent vertices' timestamps is the paper's *inefficiency distance*.
//!
//! Every edge points forward in invocation order, so a vertex's Kahn wave
//! is its longest-path depth: `ts[v] = 1 + max ts over its predecessors`
//! (0 without any). [`DependencyGraph::build`] computes that in one pass in
//! invocation order, keeping per object the timestamp of its last writer
//! and the largest timestamp among its readers since that write, and per
//! stream the timestamp of its last API. It never materializes the edges.

use crate::object::{IdMap, ObjectId};
use gpu_sim::StreamId;
use std::fmt;
use std::ops::Deref;

/// A def/use list of object ids: up to two held in place, more on the
/// heap. Most GPU APIs touch one or two objects (a copy its destination,
/// an allocation its object), so recording them allocates nothing.
/// Readers see a slice.
///
/// # Examples
///
/// ```
/// use drgpum_core::depgraph::ObjectList;
/// use drgpum_core::object::ObjectId;
///
/// let mut list: ObjectList = [ObjectId(1), ObjectId(2)].into_iter().collect();
/// list.push(ObjectId(3)); // spills to the heap
/// list.retain(|o| o.0 != 2);
/// assert_eq!(&list[..], &[ObjectId(1), ObjectId(3)]);
/// ```
#[derive(Clone)]
pub struct ObjectList(ListRepr);

#[derive(Clone)]
enum ListRepr {
    /// `len` ids (at most two) in place.
    Inline { len: u8, ids: [ObjectId; 2] },
    /// Spilled past two.
    Heap(Vec<ObjectId>),
}

impl ObjectList {
    /// An empty list.
    pub const fn new() -> Self {
        ObjectList(ListRepr::Inline {
            len: 0,
            ids: [ObjectId(0); 2],
        })
    }

    /// Appends `id`, moving the list to the heap when a third id arrives.
    pub fn push(&mut self, id: ObjectId) {
        match &mut self.0 {
            ListRepr::Inline { len, ids } if usize::from(*len) < ids.len() => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            ListRepr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * ids.len());
                spilled.extend_from_slice(ids);
                spilled.push(id);
                self.0 = ListRepr::Heap(spilled);
            }
            ListRepr::Heap(v) => v.push(id),
        }
    }

    /// Keeps the ids `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&ObjectId) -> bool) {
        match &mut self.0 {
            ListRepr::Inline { len, ids } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&ids[i]) {
                        ids[kept] = ids[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            ListRepr::Heap(v) => v.retain(keep),
        }
    }
}

impl Default for ObjectList {
    fn default() -> Self {
        ObjectList::new()
    }
}

impl Deref for ObjectList {
    type Target = [ObjectId];

    fn deref(&self) -> &[ObjectId] {
        match &self.0 {
            ListRepr::Inline { len, ids } => &ids[..usize::from(*len)],
            ListRepr::Heap(v) => v,
        }
    }
}

impl PartialEq for ObjectList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ObjectList {}

impl fmt::Debug for ObjectList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<ObjectId> for ObjectList {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        let mut list = ObjectList::new();
        for id in iter {
            list.push(id);
        }
        list
    }
}

impl<'a> IntoIterator for &'a ObjectList {
    type Item = &'a ObjectId;
    type IntoIter = std::slice::Iter<'a, ObjectId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// How one GPU API touches data objects, for dependency construction.
#[derive(Debug, Clone, Default)]
pub struct VertexAccess {
    /// Stream of the invocation.
    pub stream: StreamId,
    /// Objects read (kernel loads, memcpy sources).
    pub reads: ObjectList,
    /// Objects written or allocated (kernel stores, memcpy destinations,
    /// memsets, `cudaMalloc` defs).
    pub writes: ObjectList,
    /// Objects freed (`cudaFree`), treated as write-like final uses.
    pub frees: ObjectList,
    /// Explicit predecessor vertices (event-synchronization ordering);
    /// empty unless the program uses events.
    pub after: Vec<usize>,
}

/// Per-object dependency state: what a later access of the object must
/// come after.
#[derive(Debug, Default, Clone, Copy)]
struct ObjState {
    /// Timestamp of the last writer (RAW and WAW predecessor).
    writer: Option<u64>,
    /// Largest timestamp among the readers since that write (WAR
    /// predecessors); `None` when no read followed the write.
    readers: Option<u64>,
}

/// The dependency graph over one program's GPU API invocations.
///
/// # Examples
///
/// ```
/// use drgpum_core::depgraph::{DependencyGraph, VertexAccess};
/// use drgpum_core::object::ObjectId;
/// use gpu_sim::StreamId;
///
/// let o = ObjectId(0);
/// // Two APIs on one stream: an alloc-write then a read.
/// let vertices = vec![
///     VertexAccess { stream: StreamId(0), writes: [o].into_iter().collect(), ..Default::default() },
///     VertexAccess { stream: StreamId(0), reads: [o].into_iter().collect(), ..Default::default() },
/// ];
/// let g = DependencyGraph::build(&vertices);
/// assert_eq!(g.timestamps(), &[0, 1]);
/// ```
#[derive(Debug)]
pub struct DependencyGraph {
    timestamps: Vec<u64>,
}

impl DependencyGraph {
    /// Computes the topological timestamps of the vertices, given in
    /// invocation order.
    pub fn build<'a>(vertices: impl IntoIterator<Item = &'a VertexAccess>) -> Self {
        let mut ts: Vec<u64> = Vec::new();
        let mut objects: IdMap<ObjectId, ObjState> = IdMap::default();
        let mut streams: Vec<(StreamId, u64)> = Vec::new();
        for va in vertices {
            let v = ts.len();
            // The largest predecessor timestamp, from the state before `v`:
            // an object `v` both reads and writes contributes its last
            // writer (RAW) and its earlier readers (WAR), never `v` itself.
            let mut pred: Option<u64> = streams
                .iter()
                .find(|(s, _)| *s == va.stream)
                .map(|&(_, t)| t);
            let mut depend_on = |t: Option<u64>| pred = pred.max(t);
            for &p in &va.after {
                depend_on((p < v).then(|| ts[p]));
            }
            for o in &va.reads {
                depend_on(objects.get(o).and_then(|st| st.writer));
            }
            for o in va.writes.iter().chain(&va.frees) {
                if let Some(st) = objects.get(o) {
                    depend_on(st.readers.or(st.writer));
                }
            }
            let t = pred.map_or(0, |p| p + 1);
            ts.push(t);
            match streams.iter_mut().find(|(s, _)| *s == va.stream) {
                Some(slot) => slot.1 = t,
                None => streams.push((va.stream, t)),
            }
            for &o in &va.reads {
                let st = objects.entry(o).or_default();
                st.readers = st.readers.max(Some(t));
            }
            for &o in va.writes.iter().chain(&va.frees) {
                objects.insert(
                    o,
                    ObjState {
                        writer: Some(t),
                        readers: None,
                    },
                );
            }
        }
        DependencyGraph { timestamps: ts }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Returns `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Topological timestamp of every vertex, indexed by invocation order.
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// The timestamps, by value.
    pub(crate) fn into_timestamps(self) -> Vec<u64> {
        self.timestamps
    }

    /// Timestamp of one vertex.
    pub fn timestamp(&self, vertex: usize) -> u64 {
        self.timestamps[vertex]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(stream: u32) -> VertexAccess {
        VertexAccess {
            stream: StreamId(stream),
            ..Default::default()
        }
    }

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn single_stream_is_invocation_order() {
        let vertices: Vec<VertexAccess> = (0..5).map(|_| v(0)).collect();
        let g = DependencyGraph::build(&vertices);
        assert_eq!(g.timestamps(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn independent_streams_share_timestamps() {
        // Two streams, two APIs each, no shared data.
        let vertices = vec![v(0), v(1), v(0), v(1)];
        let g = DependencyGraph::build(&vertices);
        assert_eq!(g.timestamps(), &[0, 0, 1, 1]);
    }

    #[test]
    fn raw_dependency_orders_across_streams() {
        // Stream 0 writes O, stream 1 reads O.
        let mut w = v(0);
        w.writes.push(o(1));
        let mut r = v(1);
        r.reads.push(o(1));
        let g = DependencyGraph::build(&[w, r]);
        assert_eq!(g.timestamps(), &[0, 1]);
    }

    #[test]
    fn war_blocks_premature_free() {
        // v0 writes O; v1 reads O (other stream); v2 frees O (third stream).
        let mut v0 = v(0);
        v0.writes.push(o(7));
        let mut v1 = v(1);
        v1.reads.push(o(7));
        let mut v2 = v(2);
        v2.frees.push(o(7));
        // The free depends on the reader (WAR), not only the writer.
        let g = DependencyGraph::build(&[v0, v1, v2]);
        assert_eq!(g.timestamps(), &[0, 1, 2]);
    }

    #[test]
    fn waw_between_consecutive_writes() {
        let mut a = v(0);
        a.writes.push(o(3));
        let mut b = v(1);
        b.writes.push(o(3));
        let g = DependencyGraph::build(&[a, b]);
        assert_eq!(g.timestamps(), &[0, 1]);
    }

    #[test]
    fn independent_readers_share_a_wave() {
        let mut w = v(0);
        w.writes.push(o(1));
        let mut r1 = v(1);
        r1.reads.push(o(1));
        let mut r2 = v(2);
        r2.reads.push(o(1));
        let g = DependencyGraph::build(&[w, r1, r2]);
        assert_eq!(g.timestamps(), &[0, 1, 1], "independent reads share a wave");
    }

    #[test]
    fn figure4_style_inefficiency_distance() {
        // O1 allocated first on stream 1; three unrelated APIs execute on
        // stream 2 before a copy on stream 1 first touches O1 — the early
        // allocation has inefficiency distance T[CPY] - T[ALLOC].
        let mut alloc = v(1);
        alloc.writes.push(o(1)); // allocation defs O1
        let u1 = v(2);
        let u2 = v(2);
        let u3 = v(2);
        let mut cpy = v(1);
        cpy.writes.push(o(1));
        let g = DependencyGraph::build(&[alloc, u1, u2, u3, cpy]);
        let distance = g.timestamp(4) - g.timestamp(0);
        // ALLOC is wave 0; stream-2 APIs occupy waves 0,1,2; CPY waits only
        // on its own stream (wave 1)… program order puts it after ALLOC.
        assert_eq!(g.timestamp(0), 0);
        assert!(distance >= 1);
    }

    #[test]
    fn repeated_ids_in_one_set() {
        // Repeated ids add no dependency: a later reader on another stream
        // is one wave after the writer.
        let mut a = v(0);
        a.writes.push(o(1));
        a.writes.push(o(1));
        let mut b = v(1);
        b.reads.push(o(1));
        b.reads.push(o(1));
        let g = DependencyGraph::build(&[a, b]);
        assert_eq!(g.timestamps(), &[0, 1]);
    }

    #[test]
    fn event_sync_orders_streams_without_shared_data() {
        // Two APIs on different streams touching different objects, but the
        // second waits on an event recorded after the first.
        let mut a = v(0);
        a.writes.push(o(1));
        let mut b = v(1);
        b.writes.push(o(2));
        b.after.push(0);
        let g = DependencyGraph::build(&[a, b]);
        assert_eq!(g.timestamps(), &[0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = DependencyGraph::build(&[]);
        assert!(g.is_empty());
        assert!(g.timestamps().is_empty());
    }

    #[test]
    fn self_access_does_not_create_self_edge() {
        // An API that both reads and writes the same object (e.g. an
        // in-place kernel) depends only on earlier APIs. On separate
        // streams the second in-place update still follows the first.
        let mut a = v(0);
        a.reads.push(o(1));
        a.writes.push(o(1));
        let mut b = a.clone();
        b.stream = StreamId(1);
        let g = DependencyGraph::build(&[a, b]);
        assert_eq!(g.timestamps(), &[0, 1]);
    }
}
