//! Arena-allocated traversers and interned locals: the hot-path memory
//! layout (ROADMAP item 5).
//!
//! The wire `Traverser` is a heap object — its `locals: Vec<Value>`
//! register file would be `clone()`d on every neighbor expansion and loop
//! continuation, leaving the interpreter's inner loop allocator-bound
//! (the oracle's reference in `graphdance-sim` still runs that way). This
//! module is the layout every engine executes on:
//!
//! * [`TraverserArena`] — a generation-indexed slab. Live traversers are
//!   addressed by a copyable 8-byte [`TraverserHandle`] (`u32` slot +
//!   `u32` generation); freed slots are recycled through a free list, so
//!   steady-state execution performs no traverser-sized allocations at
//!   all. Debug builds detect stale handles (ABA) by checking the slot's
//!   generation on every access and panicking on mismatch; the
//!   `WeightLedger` re-reads every spawned child through these checked
//!   accessors, wiring the ABA guard into the existing conservation
//!   invariant.
//! * [`LocalsTable`] — a per-query ref-counted store for the locals
//!   register file (`π`). Children spawned by `Expand` share the parent's
//!   record by bumping a refcount; the first mutation through
//!   [`LocalsTable::make_mut`] copies-on-write. Records freed at refcount
//!   zero donate their `Vec` back to a small pool, so even CoW copies
//!   reuse capacity instead of allocating.
//!
//! A traverser leaves a worker in one form, on every lane: it is
//! [exported](TraverserArena::export) into a [`HandOff`] run, which
//! carries each register file its siblings share once, and
//! [imported](TraverserArena::import) into the receiver's arena and table
//! — a co-located peer's straight from memory, a remote one's after the
//! run crossed the wire — so nothing is flattened or re-interned one
//! traverser at a time. The flat [`Traverser`] remains the form sources
//! and driver seeds are built in ([`TraverserArena::admit`],
//! [`HandOff::push`]) and the one the non-partitioned baseline queues
//! ([`HandOff::into_traversers`]).

use std::mem::take;

use graphdance_common::{QueryId, Value, VertexId};

use crate::traverser::Traverser;
use crate::weight::Weight;

/// Generation-indexed handle to a live traverser in a [`TraverserArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraverserHandle {
    slot: u32,
    gen: u32,
}

impl TraverserHandle {
    /// The slot index (diagnostics only; the arena validates the
    /// generation on access).
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The generation this handle was issued under.
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

/// Id of an interned locals record in a [`LocalsTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalsId(u32);

impl LocalsId {
    /// Sentinel for vacant arena slots (never a valid table index).
    pub const INVALID: LocalsId = LocalsId(u32::MAX);

    /// The index behind the id: a table slot, or — in a [`HandOff`] — the
    /// traverser's record.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arena-resident traverser state: the wire [`Traverser`] with its
/// `Vec<Value>` locals replaced by an interned [`LocalsId`].
#[derive(Debug)]
pub struct ArenaTraverser {
    /// The query this traverser belongs to.
    pub query: QueryId,
    /// Which pipeline of the current stage.
    pub pipeline: u16,
    /// Program counter (see [`Traverser::pc`]).
    pub pc: u16,
    /// Current vertex `v`.
    pub vertex: VertexId,
    /// Interned local variable slots `π`.
    pub locals: LocalsId,
    /// Progression weight `w`.
    pub weight: Weight,
    /// Hops travelled (scheduling depth).
    pub depth: u32,
    /// Pre-evaluated join routing key (see [`Traverser::aux_key`]).
    pub aux_key: Option<Value>,
}

impl ArenaTraverser {
    /// Placeholder stored in vacant slots so the slab never holds stale
    /// `Value` allocations (strings/lists are dropped on `remove`). Also
    /// used by the interpreter when a cursor's state is transferred into
    /// the arena (join route-away, remote `MoveTo`).
    pub(crate) fn vacant() -> Self {
        ArenaTraverser {
            query: QueryId(u64::MAX),
            pipeline: 0,
            pc: 0,
            vertex: VertexId(u64::MAX),
            locals: LocalsId::INVALID,
            weight: Weight::ZERO,
            depth: 0,
            aux_key: None,
        }
    }

    /// A flat traverser's fixed fields (no register file yet), and its
    /// register file.
    pub(crate) fn split(t: Traverser) -> (Self, Vec<Value>) {
        let at = ArenaTraverser {
            query: t.query,
            pipeline: t.pipeline,
            pc: t.pc,
            vertex: t.vertex,
            locals: LocalsId::INVALID,
            weight: t.weight,
            depth: t.depth,
            aux_key: t.aux_key,
        };
        (at, t.locals)
    }

    /// The flat traverser with register file `locals`.
    pub fn with_locals(self, locals: Vec<Value>) -> Traverser {
        Traverser {
            query: self.query,
            pipeline: self.pipeline,
            pc: self.pc,
            vertex: self.vertex,
            locals,
            weight: self.weight,
            depth: self.depth,
            aux_key: self.aux_key,
        }
    }

    /// The child one hop on, at `vertex`: next step, one hop deeper, with
    /// register file `locals` and weight `weight`.
    pub(crate) fn hop(&self, vertex: VertexId, locals: LocalsId, weight: Weight) -> Self {
        ArenaTraverser {
            query: self.query,
            pipeline: self.pipeline,
            pc: self.pc + 1,
            vertex,
            locals,
            weight,
            depth: self.depth.saturating_add(1),
            aux_key: self.aux_key.clone(),
        }
    }
}

/// Generation-indexed slab of live traversers with free-list recycling.
#[derive(Debug, Default)]
pub struct TraverserArena {
    slots: Vec<ArenaTraverser>,
    /// Per-slot generation, bumped on every free; a handle whose
    /// generation disagrees is stale (ABA) and panics in debug builds.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TraverserArena {
    /// Whether stale-handle (ABA) checks are compiled in (debug builds).
    pub const ABA_CHECKS: bool = cfg!(debug_assertions);

    /// Fresh empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live traversers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (high-water mark; recycled slots are
    /// counted once).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn check(&self, h: TraverserHandle) {
        if Self::ABA_CHECKS && self.gens[h.slot as usize] != h.gen {
            // Stale handle: the slot was freed (and possibly reused) since
            // this handle was issued. Debug-only guard; release builds
            // trade the check for speed, like the WeightLedger.
            // lint: allow(hot-path-panics) debug-only ABA guard
            panic!(
                "stale traverser handle: slot {} is at generation {}, handle was issued at {}",
                h.slot, self.gens[h.slot as usize], h.gen
            );
        }
    }

    /// Insert a traverser, recycling a freed slot when one is available.
    #[inline]
    pub fn insert(&mut self, t: ArenaTraverser) -> TraverserHandle {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = t;
            TraverserHandle {
                slot,
                gen: self.gens[slot as usize],
            }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(t);
            self.gens.push(0);
            TraverserHandle { slot, gen: 0 }
        }
    }

    /// Read a live traverser (debug builds panic on a stale handle).
    #[inline]
    pub fn get(&self, h: TraverserHandle) -> &ArenaTraverser {
        self.check(h);
        &self.slots[h.slot as usize]
    }

    /// Mutate a live traverser (debug builds panic on a stale handle).
    #[inline]
    pub fn get_mut(&mut self, h: TraverserHandle) -> &mut ArenaTraverser {
        self.check(h);
        &mut self.slots[h.slot as usize]
    }

    /// Remove a traverser, bumping the slot's generation so every
    /// outstanding handle to it becomes stale, and recycle the slot.
    #[inline]
    pub fn remove(&mut self, h: TraverserHandle) -> ArenaTraverser {
        self.check(h);
        let i = h.slot as usize;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(h.slot);
        self.live -= 1;
        std::mem::replace(&mut self.slots[i], ArenaTraverser::vacant())
    }

    /// Intern a flat traverser (a source's child): its locals go into
    /// `locals`, the fixed fields into the slab.
    pub fn admit(&mut self, t: Traverser, locals: &mut LocalsTable) -> TraverserHandle {
        let (mut at, vals) = ArenaTraverser::split(t);
        at.locals = locals.alloc(vals);
        self.insert(at)
    }

    /// Flatten an arena traverser back to a flat [`Traverser`]. The locals
    /// record is moved out when this was its last reference, cloned
    /// otherwise.
    pub fn extract(&mut self, h: TraverserHandle, locals: &mut LocalsTable) -> Traverser {
        let at = self.remove(h);
        let vals = locals.take(at.locals);
        at.with_locals(vals)
    }

    /// Remove a traverser and release its locals without materializing a
    /// wire traverser (dead-query purge).
    pub fn discard(&mut self, h: TraverserHandle, locals: &mut LocalsTable) {
        let at = self.remove(h);
        locals.unref(at.locals);
    }

    /// Remove a traverser bound for a co-located worker into `run`. The
    /// first traverser of the current outcome to carry a register file
    /// takes it out of `locals` (moved when it was the last owner, cloned
    /// otherwise); a sibling sharing it only releases its reference and
    /// points at the same record.
    pub fn export(&mut self, h: TraverserHandle, locals: &mut LocalsTable, run: &mut HandOff) {
        let mut at = self.remove(h);
        let sent = at.locals;
        let record = match run.open.iter().find(|(id, _)| *id == sent) {
            Some(&(_, record)) => {
                locals.unref(sent);
                record
            }
            None => {
                let record = run.records.len() as u32;
                // Only a shared record can have a sibling still to come.
                if locals.refcount(sent) > 1 {
                    run.open.push((sent, record));
                }
                run.records.push(locals.take(sent));
                record
            }
        };
        at.locals = LocalsId(record);
        run.traversers.push(at);
    }

    /// Insert a traverser of a [`HandOff`] run, interning its record into
    /// `locals` on first use and sharing it after that.
    pub fn import(
        &mut self,
        mut at: ArenaTraverser,
        from: &mut Importer,
        locals: &mut LocalsTable,
    ) -> TraverserHandle {
        let i = at.locals.index();
        let id = &mut from.ids[i];
        if *id == LocalsId::INVALID {
            *id = locals.alloc(take(&mut from.records[i]));
        } else {
            locals.retain(*id);
        }
        at.locals = *id;
        self.insert(at)
    }
}

/// A run of traversers one worker hands another as arena records, on
/// any lane: each traverser's `locals` indexes `records`, and a register
/// file its siblings share is carried once. Records are shared within one
/// interpreter outcome only — [`HandOff::seal`] ends it — because the
/// sender may free a [`LocalsId`] and reuse it for another file between
/// outcomes; so a record is one query's, and is interned into its table.
#[derive(Debug, Default)]
pub struct HandOff {
    /// The traversers, in send order; `locals` is a record index.
    pub traversers: Vec<ArenaTraverser>,
    /// The register files the traversers index.
    pub records: Vec<Vec<Value>>,
    /// The current outcome's shared records: the sender's id, and the
    /// record it was carried as.
    open: Vec<(LocalsId, u32)>,
}

impl HandOff {
    /// Number of traversers in the run.
    pub fn len(&self) -> usize {
        self.traversers.len()
    }

    /// Does the run carry no traverser?
    pub fn is_empty(&self) -> bool {
        self.traversers.is_empty()
    }

    /// End the current outcome: no later traverser shares a record carried
    /// so far.
    pub fn seal(&mut self) {
        self.open.clear();
    }

    /// Append a flat traverser, its register file a record of its own.
    pub fn push(&mut self, t: Traverser) {
        let (mut at, vals) = ArenaTraverser::split(t);
        at.locals = LocalsId(self.records.len() as u32);
        self.records.push(vals);
        self.traversers.push(at);
    }

    /// Append `at` with record `record` of this run as its register file —
    /// how a decoded run is rebuilt, once the decoder checked the index.
    pub fn push_indexed(&mut self, mut at: ArenaTraverser, record: u32) {
        at.locals = LocalsId(record);
        self.traversers.push(at);
    }

    /// The flat traversers the run stands for, in send order: a record is
    /// moved into the last traverser using it, cloned for the ones before.
    pub fn into_traversers(self) -> Vec<Traverser> {
        let mut uses = vec![0u32; self.records.len()];
        for at in &self.traversers {
            uses[at.locals.index()] += 1;
        }
        let mut records = self.records;
        (self.traversers.into_iter())
            .map(|at| {
                let i = at.locals.index();
                let r = &mut records[i];
                uses[i] -= 1;
                at.with_locals(if uses[i] == 0 { take(r) } else { r.clone() })
            })
            .collect()
    }

    /// The traversers, and the importer their records are interned through.
    pub fn into_parts(self) -> (Vec<ArenaTraverser>, Importer) {
        let ids = vec![LocalsId::INVALID; self.records.len()];
        let importer = Importer {
            records: self.records,
            ids,
        };
        (self.traversers, importer)
    }
}

/// A [`HandOff`]'s records on the receiving side: each is interned on
/// first use ([`TraverserArena::import`]) and shared after that. Records
/// never used — their query ended or is draining — drop with it.
#[derive(Debug)]
pub struct Importer {
    records: Vec<Vec<Value>>,
    /// Each record's id in the receiver's table, once interned.
    ids: Vec<LocalsId>,
}

/// Freed `Vec<Value>` backings kept for reuse; beyond this the extras are
/// dropped (bounds worst-case idle memory).
const LOCALS_POOL_CAP: usize = 256;

#[derive(Debug)]
struct LocalsEntry {
    vals: Vec<Value>,
    rc: u32,
}

/// Per-query ref-counted store of locals register files with copy-on-write
/// sharing (see the module docs).
#[derive(Debug, Default)]
pub struct LocalsTable {
    entries: Vec<LocalsEntry>,
    free: Vec<u32>,
    /// Emptied `Vec` backings recycled by [`LocalsTable::alloc_from`].
    pool: Vec<Vec<Value>>,
}

impl LocalsTable {
    /// Fresh empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live records.
    pub fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Current refcount of a record (tests/diagnostics).
    pub fn refcount(&self, id: LocalsId) -> u32 {
        self.entries[id.0 as usize].rc
    }

    fn alloc_entry(&mut self, vals: Vec<Value>) -> LocalsId {
        if let Some(slot) = self.free.pop() {
            let e = &mut self.entries[slot as usize];
            e.vals = vals;
            e.rc = 1;
            LocalsId(slot)
        } else {
            let slot = self.entries.len() as u32;
            self.entries.push(LocalsEntry { vals, rc: 1 });
            LocalsId(slot)
        }
    }

    /// Intern an owned register file (refcount 1).
    pub fn alloc(&mut self, vals: Vec<Value>) -> LocalsId {
        self.alloc_entry(vals)
    }

    /// Intern a copy of `vals`, reusing a pooled backing `Vec` when one is
    /// available (the element clones remain; the `Vec` allocation goes).
    pub fn alloc_from(&mut self, vals: &[Value]) -> LocalsId {
        let mut v = self.pool.pop().unwrap_or_default();
        v.extend_from_slice(vals);
        self.alloc_entry(v)
    }

    /// Intern a copy of an existing record (pooled backing), leaving the
    /// original's refcount untouched.
    pub fn clone_entry(&mut self, id: LocalsId) -> LocalsId {
        let mut v = self.pool.pop().unwrap_or_default();
        v.extend_from_slice(&self.entries[id.0 as usize].vals);
        self.alloc_entry(v)
    }

    /// Share a record with one more owner.
    #[inline]
    pub fn retain(&mut self, id: LocalsId) {
        self.entries[id.0 as usize].rc += 1;
    }

    /// Drop one owner; at refcount zero the record is freed and its `Vec`
    /// backing pooled for reuse.
    #[inline]
    pub fn unref(&mut self, id: LocalsId) {
        if id == LocalsId::INVALID {
            return;
        }
        let e = &mut self.entries[id.0 as usize];
        e.rc -= 1;
        if e.rc == 0 {
            let mut v = take(&mut e.vals);
            v.clear();
            if self.pool.len() < LOCALS_POOL_CAP {
                self.pool.push(v);
            }
            self.free.push(id.0);
        }
    }

    /// Read a record.
    #[inline]
    pub fn get(&self, id: LocalsId) -> &[Value] {
        &self.entries[id.0 as usize].vals
    }

    /// Mutable access with copy-on-write: a uniquely-owned record is
    /// returned directly; a shared one is first copied into a fresh record
    /// (pooled backing) and `id` is re-pointed at the copy.
    pub fn make_mut(&mut self, id: &mut LocalsId) -> &mut Vec<Value> {
        let i = id.0 as usize;
        if self.entries[i].rc > 1 {
            self.entries[i].rc -= 1;
            let mut v = self.pool.pop().unwrap_or_default();
            v.extend_from_slice(&self.entries[i].vals);
            *id = self.alloc_entry(v);
        }
        &mut self.entries[id.0 as usize].vals
    }

    /// Clone a record out (join rows parked in the memo own their values).
    pub fn clone_out(&self, id: LocalsId) -> Vec<Value> {
        self.entries[id.0 as usize].vals.clone()
    }

    /// Take a record out, releasing this owner: moved when uniquely owned,
    /// cloned when shared.
    pub fn take(&mut self, id: LocalsId) -> Vec<Value> {
        let i = id.0 as usize;
        if self.entries[i].rc == 1 {
            let vals = take(&mut self.entries[i].vals);
            self.unref(id);
            vals
        } else {
            self.entries[i].rc -= 1;
            self.entries[i].vals.clone()
        }
    }
}

/// Write `v` into slot `s` of a raw register file, growing it like
/// [`Traverser::set_slot`] does.
#[inline]
pub fn set_slot_vec(vals: &mut Vec<Value>, s: u8, v: Value) {
    let i = s as usize;
    if i >= vals.len() {
        vals.resize(i + 1, Value::Null);
    }
    vals[i] = v;
}

/// Read slot `s` of a raw register file (missing slots read as `Null`),
/// mirroring [`Traverser::slot`].
#[inline]
pub fn slot_of(vals: &[Value], s: u8) -> &Value {
    vals.get(s as usize).unwrap_or(&Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(query: u64, vertex: u64, w: u64, locals: LocalsId) -> ArenaTraverser {
        ArenaTraverser {
            query: QueryId(query),
            pipeline: 0,
            pc: 0,
            vertex: VertexId(vertex),
            locals,
            weight: Weight(w),
            depth: 0,
            aux_key: None,
        }
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut a = TraverserArena::new();
        let h1 = a.insert(at(1, 1, 1, LocalsId::INVALID));
        let h2 = a.insert(at(1, 2, 2, LocalsId::INVALID));
        assert_eq!(a.live(), 2);
        assert_eq!(a.capacity(), 2);
        a.remove(h1);
        // The freed slot is reused — no slab growth.
        let h3 = a.insert(at(1, 3, 3, LocalsId::INVALID));
        assert_eq!(h3.slot(), h1.slot());
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(h3).vertex, VertexId(3));
        assert_eq!(a.get(h2).vertex, VertexId(2));
    }

    #[test]
    fn generation_bumps_on_free() {
        let mut a = TraverserArena::new();
        let h1 = a.insert(at(1, 1, 1, LocalsId::INVALID));
        a.remove(h1);
        let h2 = a.insert(at(1, 2, 2, LocalsId::INVALID));
        assert_eq!(h2.slot(), h1.slot(), "slot recycled");
        assert_eq!(
            h2.generation(),
            h1.generation() + 1,
            "generation advanced on free"
        );
    }

    #[test]
    #[should_panic(expected = "stale traverser handle")]
    fn stale_handle_access_panics_in_debug() {
        if !TraverserArena::ABA_CHECKS {
            // Release builds compile the guard out; satisfy should_panic.
            panic!("stale traverser handle (check disabled)");
        }
        let mut a = TraverserArena::new();
        let h1 = a.insert(at(1, 1, 1, LocalsId::INVALID));
        a.remove(h1);
        // The slot is reused by a different traverser…
        let _h2 = a.insert(at(1, 2, 2, LocalsId::INVALID));
        // …so the stale handle must NOT silently read the new occupant.
        let _ = a.get(h1);
    }

    #[test]
    #[should_panic(expected = "stale traverser handle")]
    fn double_remove_panics_in_debug() {
        if !TraverserArena::ABA_CHECKS {
            panic!("stale traverser handle (check disabled)");
        }
        let mut a = TraverserArena::new();
        let h = a.insert(at(1, 1, 1, LocalsId::INVALID));
        a.remove(h);
        a.remove(h);
    }

    #[test]
    fn admit_extract_roundtrips_the_wire_format() {
        let mut a = TraverserArena::new();
        let mut l = LocalsTable::new();
        let mut t = Traverser::root(QueryId(7), 1, VertexId(42), 3, Weight(9));
        t.set_slot(0, Value::str("hello"));
        t.aux_key = Some(Value::Int(5));
        t.depth = 4;
        t.pc = 2;
        let h = a.admit(t.clone(), &mut l);
        assert_eq!(a.live(), 1);
        assert_eq!(l.live(), 1);
        let back = a.extract(h, &mut l);
        assert_eq!(back, t);
        assert_eq!(a.live(), 0);
        assert_eq!(l.live(), 0);
    }

    #[test]
    fn locals_cow_shares_until_written() {
        let mut l = LocalsTable::new();
        let mut parent = l.alloc(vec![Value::Int(1), Value::Int(2)]);
        l.retain(parent); // child shares
        let mut child = parent;
        assert_eq!(l.refcount(parent), 2);
        assert_eq!(l.live(), 1);
        // Child writes: copy-on-write splits the record.
        set_slot_vec(l.make_mut(&mut child), 0, Value::Int(99));
        assert_ne!(child, parent);
        assert_eq!(l.live(), 2);
        assert_eq!(l.get(parent), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(l.get(child), &[Value::Int(99), Value::Int(2)]);
        // Unique owner mutates in place — same id.
        let before = parent;
        set_slot_vec(l.make_mut(&mut parent), 1, Value::Int(7));
        assert_eq!(parent, before);
        l.unref(parent);
        l.unref(child);
        assert_eq!(l.live(), 0);
    }

    #[test]
    fn released_locals_backings_are_pooled_and_reused() {
        let mut l = LocalsTable::new();
        let id = l.alloc(Vec::with_capacity(64));
        l.unref(id);
        // A fresh record from a slice reuses the pooled 64-cap backing.
        let id2 = l.alloc_from(&[Value::Int(1)]);
        assert!(l.get(id2).len() == 1);
        assert_eq!(id2, id, "slot recycled through the free list");
    }

    /// Export `hs` (one outcome) into `run`, then seal it.
    fn export_outcome(
        a: &mut TraverserArena,
        l: &mut LocalsTable,
        hs: &[TraverserHandle],
        run: &mut HandOff,
    ) {
        for h in hs {
            a.export(*h, l, run);
        }
        run.seal();
    }

    /// Import every traverser of `run` into a fresh arena and table.
    fn import_all(run: HandOff) -> (TraverserArena, LocalsTable, Vec<TraverserHandle>) {
        let (mut a, mut l) = (TraverserArena::new(), LocalsTable::new());
        let (ts, mut from) = run.into_parts();
        let hs = ts
            .into_iter()
            .map(|t| a.import(t, &mut from, &mut l))
            .collect();
        (a, l, hs)
    }

    #[test]
    fn siblings_share_one_record_across_a_hand_off() {
        let (mut a, mut l) = (TraverserArena::new(), LocalsTable::new());
        let shared = l.alloc(vec![Value::Int(1), Value::str("s")]);
        l.retain(shared);
        l.retain(shared);
        let own = l.alloc(vec![Value::Int(2)]);
        let hs = [
            a.insert(at(1, 10, 1, shared)),
            a.insert(at(1, 11, 2, own)),
            a.insert(at(1, 12, 3, shared)),
            a.insert(at(1, 13, 4, shared)),
        ];
        let mut run = HandOff::default();
        export_outcome(&mut a, &mut l, &hs, &mut run);
        assert_eq!((a.live(), l.live()), (0, 0), "the sender keeps nothing");
        assert_eq!(run.len(), 4);
        assert_eq!(run.records.len(), 2, "the shared file crosses once");
        let (b, m, got) = import_all(run);
        assert_eq!((b.live(), m.live()), (4, 2));
        let ids: Vec<LocalsId> = got.iter().map(|h| b.get(*h).locals).collect();
        assert_eq!((ids[0], ids[2], ids[3]), (ids[0], ids[0], ids[0]));
        assert_eq!(m.refcount(ids[0]), 3, "one owner per sibling");
        assert_eq!(m.refcount(ids[1]), 1);
        assert_eq!(m.get(ids[0]), &[Value::Int(1), Value::str("s")]);
        assert_eq!(m.get(ids[1]), &[Value::Int(2)]);
        let vertices: Vec<u64> = got.iter().map(|h| b.get(*h).vertex.0).collect();
        assert_eq!(vertices, [10, 11, 12, 13], "send order kept");
        let (mut b, mut m) = (b, m);
        for h in got {
            b.discard(h, &mut m);
        }
        assert_eq!((b.live(), m.live()), (0, 0));
    }

    #[test]
    fn a_record_at_refcount_one_is_moved_not_cloned() {
        let (mut a, mut l) = (TraverserArena::new(), LocalsTable::new());
        let vals = vec![Value::Int(7); 4];
        let backing = vals.as_ptr();
        let h = a.insert(at(1, 1, 1, l.alloc(vals)));
        let mut run = HandOff::default();
        export_outcome(&mut a, &mut l, &[h], &mut run);
        assert_eq!(run.records[0].as_ptr(), backing, "moved into the run");
        let (b, m, got) = import_all(run);
        assert_eq!(
            m.get(b.get(got[0]).locals).as_ptr(),
            backing,
            "and into the peer's table"
        );
    }

    /// The sender frees a shared record with its last sibling and reuses the
    /// id for another register file in the next outcome: that file must
    /// cross as a record of its own. Without the seal the later traverser
    /// would be pointed at the earlier outcome's record.
    #[test]
    fn an_id_reused_after_a_seal_is_not_shared() {
        let (mut a, mut l) = (TraverserArena::new(), LocalsTable::new());
        let first = l.alloc(vec![Value::Int(1)]);
        l.retain(first);
        let hs = [a.insert(at(1, 1, 1, first)), a.insert(at(1, 2, 1, first))];
        let mut run = HandOff::default();
        export_outcome(&mut a, &mut l, &hs, &mut run);
        let second = l.alloc(vec![Value::Int(2)]);
        assert_eq!(second, first, "the id was recycled");
        l.retain(second);
        let hs = [a.insert(at(1, 3, 1, second)), a.insert(at(1, 4, 1, second))];
        export_outcome(&mut a, &mut l, &hs, &mut run);
        assert_eq!(run.records.len(), 2);
        assert_eq!(l.live(), 0);
        let (b, m, got) = import_all(run);
        let files: Vec<&[Value]> = got.iter().map(|h| m.get(b.get(*h).locals)).collect();
        assert_eq!(
            files,
            [
                [Value::Int(1)],
                [Value::Int(1)],
                [Value::Int(2)],
                [Value::Int(2)]
            ]
        );
    }

    #[test]
    fn take_moves_when_unique_and_clones_when_shared() {
        let mut l = LocalsTable::new();
        let id = l.alloc(vec![Value::Int(3)]);
        l.retain(id);
        let first = l.take(id);
        assert_eq!(first, vec![Value::Int(3)]);
        assert_eq!(l.live(), 1, "still one owner left");
        let second = l.take(id);
        assert_eq!(second, vec![Value::Int(3)]);
        assert_eq!(l.live(), 0);
    }
}
