//! State isomorphisms for quotient-aware trace extraction.
//!
//! When the explorer merges a freshly computed successor `S` into an
//! already-stored representative `R` (because their canonical keys agree),
//! the two states are isomorphic but not identical: their copy subtrees
//! may sit at permuted positions and their raw [`spi_semantics::NameId`]s
//! may differ.  Redirecting the edge to `R` and exploring on from there is
//! sound for *reachability*, but the observations recorded in `R`'s
//! future are in `R`'s coordinate system — creator positions and nonce
//! identities of `R`'s lineage, not of the run that actually reached the
//! merge point.  An [`Iso`] records the coordinate change `R → S`, so
//! trace extraction can map every future observation back into the true
//! lineage and reconstruct exactly the trace set of the unquotiented
//! semantics.
//!
//! An iso has two halves:
//!
//! * a **path permutation** ([`PathPerm`]): prefix-rewrite pairs over
//!   session-copy roots, covering creator stamps and localization
//!   positions;
//! * an **id map**: finitely many explicit pairs below `floor`, then a
//!   uniform tail `r ↦ r + shift` for `r ≥ floor`.  The explicit pairs
//!   come from zipping the canonicalization journals of the two merge
//!   sides (equal canonical strings assign their names in the same
//!   order); the tail covers names the representative allocates *after*
//!   the merge point, which the true lineage would have allocated in
//!   lockstep at an offset of `shift = |S names| − |R names|`.
//!
//! Isos are kept in a *normal form* (identity pairs dropped, pairs sorted,
//! the floor lowered past any tail-consistent suffix, `floor = 0` when the
//! tail is the identity), so extensional equality coincides with
//! structural equality, and [`IsoTable`] interns normal forms.
//!
//! Trace extraction never composes isos: the weak-visible layer
//! (`weak.rs`) chains path halves with [`PathPerm::then`] and carries
//! observed names across an iso through [`Iso::preimages`].

use std::collections::HashMap;

use spi_semantics::PathPerm;

/// A state isomorphism in flattened normal form: a path permutation plus
/// an id map (explicit pairs below `floor`, shifted tail above).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Iso {
    /// The path half: copy-root prefix rewrites.
    perm: PathPerm,
    /// Explicit id pairs `(src, dst)`, sorted by `src`; all `src < floor`.
    ids: Vec<(u32, u32)>,
    /// Ids at or above this behave uniformly as `r ↦ r + shift`.
    floor: u32,
    /// The tail offset (`0` when `floor` is `0`).
    shift: i64,
}

impl Iso {
    /// The identity isomorphism.
    #[must_use]
    pub fn identity() -> Iso {
        Iso::default()
    }

    /// Builds an iso and normalizes it: identity pairs are dropped, pairs
    /// are sorted, the floor is lowered past any tail-consistent suffix,
    /// and a zero shift zeroes the floor.  Extensionally equal inputs
    /// produce structurally equal normal forms.
    #[must_use]
    pub fn new(perm: PathPerm, ids: Vec<(u32, u32)>, floor: u32, shift: i64) -> Iso {
        let mut ids: Vec<(u32, u32)> = ids.into_iter().filter(|(a, b)| a != b).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut floor = floor;
        let mut shift = shift;
        // Lower the floor past every id that already behaves like the
        // tail; the pairs that encoded it become redundant.
        loop {
            if floor == 0 {
                break;
            }
            let r = floor - 1;
            let mapped = match ids.binary_search_by_key(&r, |(a, _)| *a) {
                Ok(i) => i64::from(ids[i].1),
                Err(_) => i64::from(r),
            };
            if mapped == i64::from(r) + shift {
                if let Ok(i) = ids.binary_search_by_key(&r, |(a, _)| *a) {
                    ids.remove(i);
                }
                floor = r;
            } else {
                break;
            }
        }
        if shift == 0 {
            // An identity tail starts wherever the pairs end.
            floor = ids.last().map_or(0, |(a, _)| a + 1);
            shift = 0;
        }
        debug_assert!(ids.iter().all(|(a, _)| *a < floor || shift == 0));
        Iso {
            perm,
            ids,
            floor,
            shift,
        }
    }

    /// Returns `true` for the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.perm.is_identity() && self.ids.is_empty() && self.shift == 0
    }

    /// Returns `true` when the iso moves tree positions (a genuine
    /// session-symmetry merge, not just a name renumbering).
    #[must_use]
    pub fn permutes_paths(&self) -> bool {
        !self.perm.is_identity()
    }

    /// The path half.
    #[must_use]
    pub(crate) fn perm(&self) -> &PathPerm {
        &self.perm
    }

    /// Maps one raw name id.
    #[must_use]
    pub fn apply_id(&self, r: u32) -> u32 {
        match self.ids.binary_search_by_key(&r, |(a, _)| *a) {
            Ok(i) => self.ids[i].1,
            Err(_) if r >= self.floor => {
                u32::try_from(i64::from(r) + self.shift).unwrap_or(u32::MAX)
            }
            Err(_) => r,
        }
    }

    /// Every id [`Iso::apply_id`] maps onto `r`, appended to `out`: the
    /// sources of explicit pairs landing on `r`, `r` itself when it lies
    /// below the floor and no pair moves it, and `r − shift` when that
    /// lies at or above the floor.  This is how trace extraction carries
    /// observed names across an iso without ever composing one: a name
    /// observed as `r` in the target system is known in the source as
    /// each of its preimages.
    pub(crate) fn preimages(&self, r: u32, out: &mut Vec<u32>) {
        out.extend(self.ids.iter().filter(|&&(_, b)| b == r).map(|&(a, _)| a));
        let moved = self.ids.binary_search_by_key(&r, |&(a, _)| a).is_ok();
        if r < self.floor && !moved {
            out.push(r);
        }
        if let Ok(t) = u32::try_from(i64::from(r) - self.shift) {
            if t >= self.floor {
                out.push(t);
            }
        }
    }
}

/// An interning table of isomorphisms.  Index `0` is always the identity.
#[derive(Debug, Clone, Default)]
pub struct IsoTable {
    isos: Vec<Iso>,
    index: HashMap<Iso, u32>,
}

impl IsoTable {
    /// A table holding only the identity (id `0`).
    #[must_use]
    pub fn new() -> IsoTable {
        let mut t = IsoTable::default();
        t.isos.push(Iso::identity());
        t.index.insert(Iso::identity(), 0);
        t
    }

    /// The interned isos, identity first.
    #[must_use]
    pub fn into_isos(self) -> Vec<Iso> {
        self.isos
    }

    /// Interns a (normalized) iso, returning its id.
    pub fn intern(&mut self, iso: Iso) -> u32 {
        if let Some(&id) = self.index.get(&iso) {
            return id;
        }
        let id = u32::try_from(self.isos.len()).unwrap_or(u32::MAX);
        self.index.insert(iso.clone(), id);
        self.isos.push(iso);
        id
    }

    /// The iso with id `id`.
    #[must_use]
    pub fn get(&self, id: u32) -> &Iso {
        &self.isos[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_addr::Path;

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn normalization_gives_extensional_identity() {
        // Pairs that spell out a uniform shift collapse into the tail.
        let a = Iso::new(PathPerm::identity(), vec![(3, 5), (4, 6)], 5, 2);
        let b = Iso::new(PathPerm::identity(), vec![], 3, 2);
        assert_eq!(a, b);
        // An identity-tail iso with no pairs is the identity.
        let c = Iso::new(PathPerm::identity(), vec![(7, 7)], 9, 0);
        assert!(c.is_identity());
    }

    #[test]
    fn apply_id_uses_pairs_then_tail() {
        let iso = Iso::new(PathPerm::identity(), vec![(1, 4), (4, 1)], 6, 3);
        assert_eq!(iso.apply_id(1), 4);
        assert_eq!(iso.apply_id(4), 1);
        assert_eq!(iso.apply_id(2), 2, "below floor, no pair: fixed");
        assert_eq!(iso.apply_id(6), 9, "tail shifts");
        assert_eq!(iso.apply_id(100), 103);
    }

    #[test]
    fn preimages_invert_apply_id_pointwise() {
        let isos = [
            Iso::new(PathPerm::identity(), vec![(0, 2), (2, 0)], 4, 1),
            Iso::new(PathPerm::identity(), vec![(2, 3), (3, 2)], 5, -1),
            Iso::new(PathPerm::identity(), vec![(1, 4), (4, 1)], 6, 3),
            Iso::new(PathPerm::identity(), vec![(0, 1), (1, 2), (2, 0)], 3, 0),
        ];
        for iso in &isos {
            for r in 0..40 {
                let mut pre = Vec::new();
                iso.preimages(r, &mut pre);
                pre.sort_unstable();
                let want: Vec<u32> = (0..60).filter(|&x| iso.apply_id(x) == r).collect();
                assert_eq!(pre, want, "{iso:?} at {r}");
            }
        }
    }

    #[test]
    fn the_path_half_moves_copy_roots() {
        let swap = PathPerm::from_pairs([(p("00"), p("010")), (p("010"), p("00"))]);
        let iso = Iso::new(swap, vec![(1, 2), (2, 1)], 3, 0);
        assert!(iso.permutes_paths());
        assert_eq!(iso.perm().apply(&p("001")), p("0101"));
        assert_eq!(iso.apply_id(1), 2);
    }

    #[test]
    fn table_interns_extensionally() {
        let mut t = IsoTable::new();
        let a = t.intern(Iso::new(PathPerm::identity(), vec![(3, 5), (4, 6)], 5, 2));
        let b = t.intern(Iso::new(PathPerm::identity(), vec![], 3, 2));
        assert_eq!(a, b);
        assert_eq!(t.intern(Iso::identity()), 0);
        assert_eq!(t.get(a), &Iso::new(PathPerm::identity(), vec![], 3, 2));
    }
}
