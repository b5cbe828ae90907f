//! The determinized weak-visible layer both decision procedures walk.
//!
//! Both engines read an explored [`Lts`] the same way: as the subset
//! construction over its weak transitions, where a *configuration* holds
//! every run reachable under one canonical observation sequence.  This
//! module is that construction, once, for the trace engine
//! ([`crate::weak_traces`], [`crate::trace_preorder`],
//! [`crate::find_realization`]) and the bisimulation engine
//! ([`crate::bisim_preorder`], [`crate::bisim_traces`]).  The engines
//! differ only in how they render an observation — the trace renamer or
//! the environment's hedge — which they pass in as a [`Render`].
//!
//! **State-local members.**  On a reduced LTS, a stored state stands for
//! every run whose state is isomorphic to it, and its edges carry events
//! in the state's own coordinates.  A configuration member is
//! `(state, path permutation, observed-name map)`: the permutation maps
//! the state's positions to the run's, and the map sends the state's raw
//! name ids to the canonical indices the prefix already gave them — a
//! hedge kept in the state's coordinates.  Crossing an edge iso chains
//! its path half with [`PathPerm::then`] and moves the map to the target
//! through [`Iso::preimages`]; isos are never composed, so names the run
//! allocates later never enter a member.  Rendering needs nothing else:
//! a name in the map renders as its index, any other name is new to the
//! trace and takes the next free index.
//!
//! **Automorphisms.**  The explorer records, per state, the copy
//! permutations that map it onto itself ([`Lts::automorphisms`]).  Two
//! members of one state that differ by one have the same future, so each
//! member (and each τ-closure entry) is replaced by the least of its
//! images, and a run is visited once rather than once per symmetry.
//!
//! **Sharing.**  τ-closures are computed once per state a walk reaches,
//! as `(state, permutation, name relation)` entries relative to the
//! closure root, and instantiated per start member; a start that already
//! lies in another start's closure is not instantiated at all.  Every
//! permutation, map and relation is interned, and every derived one
//! memoized.  Nothing here depends on the renderer, so a layer built once
//! per side serves both engines.  An LTS without isos is the identity
//! case of the same walk: permutation `0`, maps carried unchanged, every
//! closure entry `(state, 0, 0)`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use spi_semantics::PathPerm;

use crate::{Iso, Label, Lts, ObsEvent, TraceSet};

/// Renders an observation made in a member's local coordinates.
pub(crate) trait Render {
    /// Renders `ev` with positions mapped through `perm` and fresh names
    /// through `seen` (local id → canonical index, sorted by id); names
    /// outside `seen` take indices from `next` on, in first-occurrence
    /// order, and are appended to `named` with the index they took.
    fn render(
        &self,
        ev: &ObsEvent,
        perm: &PathPerm,
        seen: &[(u32, u32)],
        next: u32,
        named: &mut Vec<(u32, u32)>,
    ) -> String;
}

/// A configuration member: a state, the id of the permutation mapping
/// its positions to the run's, and the id of its observed-name map.
pub(crate) type Member = (u32, u32, u32);

/// A τ-closure entry relative to its root: a state, the id of the
/// permutation mapping its positions into the root's, and the id of the
/// relation carrying the root's names to it.
type Entry = (u32, u32, u32);

/// A visible edge: the interned event, the target state and the edge iso.
type Visible = (u32, u32, u32);

/// The members reachable under one canonical observation sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Cfg {
    /// The first canonical index the sequence has not used.
    next: u32,
    /// Sorted and deduplicated, so equal configurations compare equal.
    members: Vec<Member>,
}

/// The multiply-rotate hash rustc uses for its own tables: the layer's
/// keys are small tuples of ids, where SipHash's DoS resistance buys
/// nothing and costs most of a lookup.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// An append-only interning table.
#[derive(Debug)]
struct Interner<T> {
    items: Vec<T>,
    index: FxMap<T, u32>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    fn new() -> Interner<T> {
        Interner {
            items: Vec::new(),
            index: FxMap::default(),
        }
    }

    /// A table whose id `0` is `first`.
    fn with(first: T) -> Interner<T> {
        let mut t = Interner::new();
        t.intern(first);
        t
    }

    fn intern(&mut self, item: T) -> u32 {
        if let Some(&id) = self.index.get(&item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).unwrap_or(u32::MAX);
        self.index.insert(item.clone(), id);
        self.items.push(item);
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }
}

/// The weak-visible layer over one explored [`Lts`]; build it with
/// [`WeakLayer::new`] and hand it to [`crate::trace_preorder_sound_in`]
/// and [`crate::bisim_preorder_sound_in`] to let both engines share its
/// closures and tables.
#[derive(Debug)]
pub(crate) struct WeakLayer<'l> {
    lts: &'l Lts,
    /// Path permutations; id `0` is the identity.
    perms: Interner<PathPerm>,
    /// `(first, then)` → the id of "`first`, then `then`".
    then: FxMap<(u32, u32), u32>,
    /// The permutation id of each iso's path half, by iso id.
    iso_perm: Vec<u32>,
    /// Where each state's edges start in `edge_isos` (empty when the
    /// LTS records no edge iso).
    edge_base: Vec<usize>,
    /// Every edge's iso, state by state in edge order.
    edge_isos: Vec<u32>,
    /// Observed-name maps, sorted by local id; id `0` is the empty map.
    maps: Interner<Vec<(u32, u32)>>,
    /// `(iso, map)` → the map pulled back through the iso.
    pulled: FxMap<(u32, u32), u32>,
    /// Closure relations `(root id, local id)`, sorted; id `0` (`None`)
    /// is the identity.
    rels: Interner<Option<Vec<(u32, u32)>>>,
    /// `(rel, map)` → the map carried along the relation.
    related: FxMap<(u32, u32), u32>,
    /// `(iso, rel, root)` → the relation extended across the iso.
    extended: FxMap<(u32, u32, u32), u32>,
    /// Memoized τ-closures, by root.
    closures: Vec<Option<Arc<[Entry]>>>,
    /// `(state, permutation)` → the automorphism canonicalizing it.
    best: FxMap<(u32, u32), u32>,
    /// Visible events, interned by value.
    events: Interner<&'l ObsEvent>,
    /// Each state's visible edges as `(event, target, iso)`, once asked
    /// for.
    visible: Vec<Option<Arc<[Visible]>>>,
}

impl<'l> WeakLayer<'l> {
    /// The layer over `lts`.  Construction only interns the path halves
    /// of the recorded isos; closures and everything else are computed
    /// on demand and kept for later walks.
    #[must_use]
    pub(crate) fn new(lts: &'l Lts) -> WeakLayer<'l> {
        let mut perms = Interner::with(PathPerm::identity());
        // Iso id `0` is the identity even when no table was shipped.
        let mut iso_perm: Vec<u32> = lts
            .isos
            .iter()
            .map(|iso| perms.intern(iso.perm().clone()))
            .collect();
        if iso_perm.is_empty() {
            iso_perm.push(0);
        }
        let (mut edge_base, mut edge_isos) = (Vec::new(), Vec::new());
        if !lts.edge_isos.is_empty() {
            let mut total = 0;
            edge_base = lts
                .states
                .iter()
                .map(|s| {
                    total += s.edges.len();
                    total - s.edges.len()
                })
                .collect();
            edge_isos = vec![0; total];
            for (&(s, e), &iso) in &lts.edge_isos {
                edge_isos[edge_base[s] + e] = iso;
            }
        }
        let n = lts.states.len();
        WeakLayer {
            lts,
            perms,
            then: FxMap::default(),
            iso_perm,
            edge_base,
            edge_isos,
            maps: Interner::with(Vec::new()),
            pulled: FxMap::default(),
            rels: Interner::with(None),
            related: FxMap::default(),
            extended: FxMap::default(),
            closures: vec![None; n],
            best: FxMap::default(),
            events: Interner::new(),
            visible: vec![None; n],
        }
    }

    /// The layer's transition system.
    #[must_use]
    pub(crate) fn lts(&self) -> &'l Lts {
        self.lts
    }

    fn iso(&self, id: u32) -> &'l Iso {
        &self.lts.isos[id as usize]
    }

    fn edge_iso(&self, state: usize, edge: usize) -> u32 {
        self.edge_base
            .get(state)
            .map_or(0, |&base| self.edge_isos[base + edge])
    }

    /// "`first`, then `then`" on permutation ids.
    fn then(&mut self, first: u32, then: u32) -> u32 {
        if first == 0 {
            return then;
        }
        if then == 0 {
            return first;
        }
        if let Some(&id) = self.then.get(&(first, then)) {
            return id;
        }
        let composed = self.perms.get(first).then(self.perms.get(then));
        let id = self.perms.intern(composed);
        self.then.insert((first, then), id);
        id
    }

    /// The map `map` (over an iso's target coordinates) pulled back to
    /// its source coordinates: every preimage of an observed name is
    /// observed with the same index.
    fn pull(&mut self, iso: u32, map: u32) -> u32 {
        if iso == 0 || map == 0 {
            return map;
        }
        if let Some(&id) = self.pulled.get(&(iso, map)) {
            return id;
        }
        let h = self.iso(iso);
        let mut pre = Vec::new();
        let mut pairs = Vec::new();
        for &(r, idx) in self.maps.get(map) {
            pre.clear();
            h.preimages(r, &mut pre);
            pairs.extend(pre.iter().map(|&x| (x, idx)));
        }
        pairs.sort_unstable();
        let id = self.maps.intern(pairs);
        self.pulled.insert((iso, map), id);
        id
    }

    /// `map` with the freshly `named` pairs added.
    fn extend(&mut self, map: u32, named: &[(u32, u32)]) -> u32 {
        if named.is_empty() {
            return map;
        }
        let mut pairs = self.maps.get(map).clone();
        pairs.extend_from_slice(named);
        pairs.sort_unstable();
        self.maps.intern(pairs)
    }

    /// `map` over a closure root's names carried to the entry the
    /// relation `rel` belongs to.
    fn relate(&mut self, rel: u32, map: u32) -> u32 {
        if rel == 0 || map == 0 {
            return map;
        }
        if let Some(&id) = self.related.get(&(rel, map)) {
            return id;
        }
        let pairs = {
            let r = self.rels.get(rel).as_deref().unwrap_or_default();
            let mut pairs = Vec::new();
            for &(y, idx) in self.maps.get(map) {
                let from = r.partition_point(|&(a, _)| a < y);
                pairs.extend(
                    r[from..]
                        .iter()
                        .take_while(|&&(a, _)| a == y)
                        .map(|&(_, x)| (x, idx)),
                );
            }
            pairs.sort_unstable();
            pairs
        };
        let id = self.maps.intern(pairs);
        self.related.insert((rel, map), id);
        id
    }

    /// The relation `rel` (from `root`'s names) extended across `iso`
    /// into its source's names.  The identity relation stands for every
    /// fresh name of `root`, the only names a map at `root` can hold.
    fn extend_rel(&mut self, iso: u32, rel: u32, root: u32) -> u32 {
        if iso == 0 {
            return rel;
        }
        let key = (iso, rel, if rel == 0 { root } else { u32::MAX });
        if let Some(&id) = self.extended.get(&key) {
            return id;
        }
        let h = self.iso(iso);
        let mut pre = Vec::new();
        let mut pairs = Vec::new();
        let mut carry = |pairs: &mut Vec<(u32, u32)>, y: u32, z: u32| {
            pre.clear();
            h.preimages(z, &mut pre);
            pairs.extend(pre.iter().map(|&x| (y, x)));
        };
        match self.rels.get(rel) {
            Some(r) => {
                for &(y, z) in r {
                    carry(&mut pairs, y, z);
                }
            }
            None => {
                for (id, entry) in self.lts.states[root as usize].config.names().iter() {
                    if entry.restricted {
                        let y = u32::try_from(id.index()).unwrap_or(u32::MAX);
                        carry(&mut pairs, y, y);
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let id = self.rels.intern(Some(pairs));
        self.extended.insert(key, id);
        id
    }

    /// The automorphism of `state` that maps `perm` to the least
    /// permutation id (`0` when no automorphism beats the identity).
    /// Automorphisms of one state have distinct path halves, so the
    /// least id picks exactly one image of a member's orbit — its
    /// canonical form — and only that image's map has to be computed.
    fn best_aut(&mut self, state: u32, perm: u32) -> u32 {
        let Some(auts) = self.lts.automorphisms.get(&(state as usize)) else {
            return 0;
        };
        if let Some(&a) = self.best.get(&(state, perm)) {
            return a;
        }
        let mut best = (perm, 0);
        for &a in auts {
            let image = self.then(self.iso_perm[a as usize], perm);
            if image < best.0 {
                best = (image, a);
            }
        }
        self.best.insert((state, perm), best.1);
        best.1
    }

    /// The canonical form of `member` under its state's automorphisms.
    fn canonical(&mut self, member: Member) -> Member {
        let (u, q, n) = member;
        match self.best_aut(u, q) {
            0 => member,
            a => (u, self.then(self.iso_perm[a as usize], q), self.pull(a, n)),
        }
    }

    /// The canonical form of a closure entry of `root` under the entry
    /// state's automorphisms.
    fn canonical_entry(&mut self, entry: Entry, root: u32) -> Entry {
        let (u, k, rel) = entry;
        match self.best_aut(u, k) {
            0 => entry,
            a => (
                u,
                self.then(self.iso_perm[a as usize], k),
                self.extend_rel(a, rel, root),
            ),
        }
    }

    /// The τ-closure of `root`, relative to the root.
    fn closure(&mut self, root: u32) -> Arc<[Entry]> {
        if let Some(c) = &self.closures[root as usize] {
            return Arc::clone(c);
        }
        let lts = self.lts;
        let mut seen: FxSet<Entry> = FxSet::default();
        seen.insert((root, 0, 0));
        let mut entries = vec![(root, 0, 0)];
        let mut done = 0;
        while let Some(&(v, k, rel)) = entries.get(done) {
            done += 1;
            for (e, (label, w)) in lts.states[v as usize].edges.iter().enumerate() {
                if !matches!(label, Label::Tau(_)) {
                    continue;
                }
                let h = self.edge_iso(v as usize, e);
                let entry = (
                    *w as u32,
                    self.then(self.iso_perm[h as usize], k),
                    self.extend_rel(h, rel, root),
                );
                let entry = self.canonical_entry(entry, root);
                if seen.insert(entry) {
                    entries.push(entry);
                }
            }
        }
        let arc: Arc<[Entry]> = entries.into();
        self.closures[root as usize] = Some(Arc::clone(&arc));
        arc
    }

    /// Appends the τ-closure of `start` to `out`, canonicalized.
    fn instantiate(&mut self, (t, q, n): Member, out: &mut Vec<Member>) {
        for &(u, k, rel) in self.closure(t).iter() {
            let member = (u, self.then(k, q), self.relate(rel, n));
            out.push(self.canonical(member));
        }
    }

    /// The visible edges of `state` as `(event, target, iso)`.
    fn visible(&mut self, state: u32) -> Arc<[Visible]> {
        if let Some(v) = &self.visible[state as usize] {
            return Arc::clone(v);
        }
        let lts = self.lts;
        let mut edges = Vec::new();
        for (e, (label, tgt)) in lts.states[state as usize].edges.iter().enumerate() {
            if let Label::Obs(ev, _) = label {
                let iso = self.edge_iso(state as usize, e);
                edges.push((self.events.intern(ev), *tgt as u32, iso));
            }
        }
        let arc: Arc<[Visible]> = edges.into();
        self.visible[state as usize] = Some(Arc::clone(&arc));
        arc
    }

    /// The union of the τ-closures of `starts`, sorted.  A start already
    /// inside an earlier start's closure adds nothing (its run is a
    /// τ-successor of that start's), so starts go in state order — the
    /// explorer numbers states breadth-first, ancestors first — and
    /// covered ones are skipped.
    fn close(&mut self, mut starts: Vec<Member>) -> Vec<Member> {
        starts.sort_unstable();
        starts.dedup();
        let mut members: FxSet<Member> = FxSet::default();
        let mut closure = Vec::new();
        for start in starts {
            if members.contains(&start) {
                continue;
            }
            self.instantiate(start, &mut closure);
            members.extend(closure.drain(..));
        }
        let mut members: Vec<Member> = members.into_iter().collect();
        members.sort_unstable();
        members
    }

    /// The configuration before any observation.
    pub(crate) fn initial(&mut self) -> Cfg {
        let start = self.canonical((0, 0, 0));
        Cfg {
            next: 0,
            members: self.close(vec![start]),
        }
    }

    /// Every canonical observation enabled from `cfg`, with the
    /// configuration it leads to.  Members whose events render alike
    /// pool their futures: the environment cannot tell them apart.
    pub(crate) fn successors<R: Render>(&mut self, cfg: &Cfg, render: &R) -> BTreeMap<String, Cfg> {
        // Group the visible edges by everything a rendering depends on,
        // so each distinct rendering is computed once.
        type Targets = Vec<(u32, u32)>;
        let mut groups: Vec<((u32, u32, u32), Targets)> = Vec::new();
        let mut slot_of: FxMap<(u32, u32, u32), usize> = FxMap::default();
        for &(s, p, m) in &cfg.members {
            for &(ev, tgt, iso) in self.visible(s).iter() {
                let key = (p, m, ev);
                let slot = *slot_of.entry(key).or_insert_with(|| {
                    groups.push((key, Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push((tgt, iso));
            }
        }
        let mut out: BTreeMap<String, Cfg> = BTreeMap::new();
        let mut named = Vec::new();
        for ((p, m, ev), targets) in groups {
            named.clear();
            let event = *self.events.get(ev);
            let canon = render.render(
                event,
                self.perms.get(p),
                self.maps.get(m),
                cfg.next,
                &mut named,
            );
            let next = cfg.next + u32::try_from(named.len()).unwrap_or(u32::MAX);
            let m = self.extend(m, &named);
            let slot = out.entry(canon).or_insert_with(|| Cfg {
                next,
                members: Vec::new(),
            });
            debug_assert_eq!(slot.next, next, "one rendering, one index count");
            for (tgt, iso) in targets {
                let start = (
                    tgt,
                    self.then(self.iso_perm[iso as usize], p),
                    self.pull(iso, m),
                );
                slot.members.push(self.canonical(start));
            }
        }
        for cfg in out.values_mut() {
            let starts = std::mem::take(&mut cfg.members);
            cfg.members = self.close(starts);
        }
        out
    }

    /// Every canonical observation sequence of at most `max_visible`
    /// events (the empty one included), rendered by `render`.
    pub(crate) fn traces<R: Render>(&mut self, render: &R, max_visible: usize) -> TraceSet {
        let mut out = TraceSet::new();
        let start = self.initial();
        let mut prefix = Vec::new();
        self.collect(render, &start, max_visible, &mut prefix, &mut out);
        out
    }

    fn collect<R: Render>(
        &mut self,
        render: &R,
        cfg: &Cfg,
        budget: usize,
        prefix: &mut Vec<String>,
        out: &mut TraceSet,
    ) {
        out.insert(prefix.clone());
        if budget == 0 {
            return;
        }
        for (canon, next) in self.successors(cfg, render) {
            prefix.push(canon);
            self.collect(render, &next, budget - 1, prefix, out);
            prefix.pop();
        }
    }

    /// The first run, in edge order, whose observations render as
    /// `trace`: the full edge sequence, silent steps included.  Members
    /// here are exact (no automorphism is applied), so every edge
    /// renders as it does on the run itself.
    pub(crate) fn realize<R: Render>(
        &mut self,
        render: &R,
        trace: &[String],
    ) -> Option<Vec<(usize, &'l Label, usize)>> {
        let mut path = Vec::new();
        let mut visited = FxSet::default();
        self.dfs(render, (0, 0, 0), 0, trace, &mut path, &mut visited)
            .then_some(path)
    }

    fn dfs<R: Render>(
        &mut self,
        render: &R,
        (state, p, m): Member,
        next: u32,
        trace: &[String],
        path: &mut Vec<(usize, &'l Label, usize)>,
        visited: &mut FxSet<Member>,
    ) -> bool {
        let Some((want, rest)) = trace.split_first() else {
            return true;
        };
        if !visited.insert((state, p, m)) {
            return false;
        }
        let lts = self.lts;
        let mut named = Vec::new();
        for (e, (label, tgt)) in lts.states[state as usize].edges.iter().enumerate() {
            let iso = self.edge_iso(state as usize, e);
            let perm = self.then(self.iso_perm[iso as usize], p);
            let (map, next, trace, mut fresh_visited) = match label {
                Label::Tau(_) => (m, next, trace, None),
                Label::Obs(ev, _) => {
                    named.clear();
                    let canon =
                        render.render(ev, self.perms.get(p), self.maps.get(m), next, &mut named);
                    if canon != *want {
                        continue;
                    }
                    let next = next + u32::try_from(named.len()).unwrap_or(u32::MAX);
                    // Deeper positions may revisit states: the guard
                    // restarts with the next segment.
                    (self.extend(m, &named), next, rest, Some(FxSet::default()))
                }
            };
            let target = (*tgt as u32, perm, self.pull(iso, map));
            path.push((state as usize, label, *tgt));
            let guard = match fresh_visited.as_mut() {
                Some(fresh) => fresh,
                None => &mut *visited,
            };
            if self.dfs(render, target, next, trace, path, guard) {
                return true;
            }
            path.pop();
        }
        false
    }
}
