//! Dynamic group membership — the practical extension the paper's
//! conclusion asks for ("in practice, there is interest in a decentralized
//! version of the algorithm").
//!
//! [`DynamicOverlay`] maintains a degree-constrained multicast tree under
//! host joins and leaves:
//!
//! * **join** — the new host is placed in its polar-grid cell and attached
//!   to the best open host of that cell (falling back outward along the
//!   cell's ancestor chain, then to any open host), mirroring how a real
//!   rendezvous service would route a join request down the grid;
//! * **leave** — leaves detach directly; interior departures promote the
//!   closest orphan into the vacated attachment point and re-home the
//!   remaining orphans (their subtrees ride along intact);
//! * **amortized rebuild** — after enough churn the structure rebuilds
//!   itself with the full [`PolarGridBuilder`] (the grid parameters are
//!   only asymptotically right for the membership they were chosen for),
//!   so steady-state quality tracks the static algorithm's.
//!
//! The structure is a faithful *simulation* of the decentralized protocol:
//! all decisions use only cell-local information plus the ancestor chain,
//! which is exactly the state a distributed implementation would replicate.
//!
//! # Incremental maintenance
//!
//! Every quantity a membership event consults is cached and updated in
//! place, so the churn path never rescans the whole membership. No event
//! allocates per host or per orphan: buffers are reused, and a list only
//! reallocates when it outgrows its capacity:
//!
//! * `delay` — the source-to-host delay is stored per host and refreshed
//!   along the affected subtree when a host is attached or re-parented
//!   (`delay(child) = delay(parent) + edge`), so candidate scoring is O(1)
//!   per candidate instead of an O(depth) parent walk;
//! * child links — each host stores its first and last child, its next
//!   sibling and its child count in the flat host array, instead of a heap
//!   list of its own. Children stay in attach order, and unlinking one
//!   keeps the order of the rest: orphan re-homing visits orphans in that
//!   order and the promotion tie-break picks the first closest one;
//! * subtree marks — while an orphan is re-homed, its subtree is banned
//!   as a parent. Each host carries a `u32` mark, and banning a subtree
//!   stamps it with a fresh epoch, so the ban is one compare per
//!   candidate; when the epoch counter wraps, every mark is cleared;
//! * `cell_open` — each grid cell keeps the list of its *open* hosts
//!   (alive, out-degree below budget), so parent searches walk candidate
//!   sets instead of filtering all cell members. It is the only per-cell
//!   index: nothing reads a list of all of a cell's members;
//! * `source_children` — the live source out-degree is a counter, not an
//!   O(n) scan; it counts **attached** hosts only, so an orphan that is
//!   mid-re-homing no longer inflates the count;
//! * `slot_by_id` — host lookup is a hash-map hit, not a linear search.
//!   Ids are sequential, so an id is its own bucket index and one
//!   multiply supplies the tag bits the map compares;
//! * departed hosts have their links cleared and their slot recycled
//!   through a free list, so no search or delay walk can ever traverse a
//!   dead slot and memory is bounded by the peak membership between
//!   rebuilds.
//!
//! A rebuild fills the host array and the open lists straight from the
//! built tree in one pass, reusing the host array's allocation.
//!
//! [`DynamicOverlay::assert_invariants`] re-verifies all of this — plus
//! spanning, acyclicity, and the degree budget *including the source* —
//! from scratch; the churn fuzz suite runs it after every membership event.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use omt_geom::{Point2, PolarPoint};
use omt_tree::{validate_parent_forest, MulticastTree, NodeId, ParentRef, TreeBuilder};

use crate::error::BuildError;
use crate::grid2::PolarGrid2;
use crate::polar_grid::{PolarGridBuilder, RHO_PAD};

/// Identifier of a live host inside a [`DynamicOverlay`]. Stable across
/// joins/leaves of other hosts; invalidated when the host itself leaves.
/// Ids are never reused, so a stale id can never alias a newer host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u64);

/// The null link: no parent (the source, or detached), child or sibling.
const NIL: NodeId = NodeId::MAX;

#[derive(Clone, Debug)]
struct Host {
    position: Point2,
    /// Cached source-to-host delay; refreshed along the subtree whenever
    /// the host is (re-)attached.
    delay: f64,
    /// Generation counter for id reuse protection.
    id: HostId,
    /// Parent slot: [`NIL`] = the source (or detached, transiently inside
    /// `leave` while an orphan awaits re-homing). Slots share the arena's
    /// compact [`NodeId`] width, so the overlay's per-host footprint tracks
    /// the static builders'.
    parent: NodeId,
    /// First and last child in attach order ([`NIL`] when childless).
    first_child: NodeId,
    last_child: NodeId,
    /// The next child of the same parent in attach order; [`NIL`] for the
    /// last child and for hosts attached to the source.
    next_sibling: NodeId,
    /// Out-degree: the length of the child list.
    children: u32,
    /// Flat index of the host's current grid cell.
    cell: u32,
    /// Subtree-exclusion mark: equal to the overlay's `epoch` exactly when
    /// the host lies in the subtree the current re-homing search bans.
    mark: u32,
    alive: bool,
}

// The host array is most of the overlay's heap (64 of about 112 B per
// host at 1M hosts), so a field that pads a host past 64 B costs RSS.
const _: () = assert!(std::mem::size_of::<Host>() <= 64);

/// Hasher of the id map, at a fraction of SipHash's cost. Ids are
/// sequential `u64`s and the map is never iterated, so the id itself
/// serves as the bucket index (the map takes it from the low bits), and
/// one multiply by the 64-bit golden ratio fills the top seven bits the
/// map compares as a tag. Consecutive ids then land in consecutive
/// buckets: a rebuild fills the map front to back and joins append.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        const TAG: u64 = 0x7f << 57;
        self.0 = (x & !TAG) | (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) & TAG);
    }
}

type IdMap = HashMap<u64, NodeId, BuildHasherDefault<IdHasher>>;

/// A multicast tree that supports joins and leaves.
///
/// # Examples
///
/// ```
/// use omt_core::DynamicOverlay;
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6)?;
/// let a = overlay.join(Point2::new([1.0, 0.0]));
/// let b = overlay.join(Point2::new([0.5, 0.5]));
/// assert_eq!(overlay.len(), 2);
/// overlay.leave(a)?;
/// assert_eq!(overlay.len(), 1);
/// let tree = overlay.snapshot()?;
/// tree.validate(Some(6))?;
/// # let _ = b;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DynamicOverlay {
    source: Point2,
    max_out_degree: u32,
    hosts: Vec<Host>,
    /// Raw id -> slot of each live host.
    slot_by_id: IdMap,
    /// Recycled slots of departed hosts.
    free_slots: Vec<NodeId>,
    /// Slots of *open* live hosts (out-degree below budget), per cell.
    cell_open: Vec<Vec<NodeId>>,
    /// The grid the members are bucketed against (rebuilt on churn).
    grid: Option<PolarGrid2>,
    live: usize,
    /// Number of live hosts attached directly to the source.
    source_children: u32,
    churn_since_rebuild: usize,
    next_id: u64,
    /// The mark of the currently banned subtree; bumped per re-homed
    /// orphan, with every mark cleared when it wraps.
    epoch: u32,
    /// Scratch stack of subtree walks, kept to reuse its allocation.
    stack: Vec<NodeId>,
    /// Scratch list of a departing host's orphans, in attach order.
    orphans: Vec<NodeId>,
}

impl DynamicOverlay {
    /// Creates an empty overlay rooted at `source`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DegreeTooSmall`] for budgets below 2 and
    /// [`BuildError::NonFiniteSource`] for bad coordinates.
    pub fn new(source: Point2, max_out_degree: u32) -> Result<Self, BuildError> {
        if max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: max_out_degree,
                min: 2,
            });
        }
        if !source.is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        Ok(Self {
            source,
            max_out_degree,
            hosts: Vec::new(),
            slot_by_id: IdMap::default(),
            free_slots: Vec::new(),
            cell_open: vec![Vec::new()],
            grid: None,
            live: 0,
            source_children: 0,
            churn_since_rebuild: 0,
            next_id: 0,
            epoch: 0,
            stack: Vec::new(),
            orphans: Vec::new(),
        })
    }

    /// Number of live hosts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no hosts are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The source position.
    pub fn source(&self) -> Point2 {
        self.source
    }

    /// The out-degree budget.
    pub fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Position of a live host.
    pub fn position(&self, id: HostId) -> Option<Point2> {
        self.slot_of(id).map(|s| self.hosts[s].position)
    }

    fn slot_of(&self, id: HostId) -> Option<usize> {
        self.slot_by_id.get(&id.0).map(|&s| s as usize)
    }

    /// The current worst source-to-host delay.
    pub fn radius(&self) -> f64 {
        self.hosts
            .iter()
            .filter(|h| h.alive)
            .map(|h| h.delay)
            .fold(0.0, f64::max)
    }

    /// The polar coordinates of a position relative to the source.
    fn polar(&self, p: &Point2) -> PolarPoint {
        PolarPoint::from_cartesian(&(*p - self.source))
    }

    /// The grid cell of a polar position under the current grid (flat
    /// index).
    fn cell_of(&self, polar: &PolarPoint) -> u32 {
        match &self.grid {
            None => 0,
            Some(grid) => {
                let (ring, seg) = grid.cell_of(polar);
                ((1u64 << ring) - 1 + seg) as u32
            }
        }
    }

    /// Cost of attaching a joiner at `position` under open host `s`.
    fn attach_cost(&self, s: u32, position: &Point2) -> f64 {
        let h = &self.hosts[s as usize];
        h.delay + h.position.distance(position)
    }

    /// Removes `slot` from its cell's open list (order-preserving, so tie
    /// handling stays deterministic).
    fn open_remove(&mut self, slot: u32) {
        let cell = self.hosts[slot as usize].cell;
        self.cell_open[cell as usize].retain(|&s| s != slot);
    }

    /// Adds `slot` back to its cell's open list.
    fn open_push(&mut self, slot: u32) {
        let cell = self.hosts[slot as usize].cell;
        debug_assert!(!self.cell_open[cell as usize].contains(&slot));
        self.cell_open[cell as usize].push(slot);
    }

    /// Recomputes the cached delay of `root` from its parent and propagates
    /// through the whole subtree below it.
    fn refresh_subtree_delays(&mut self, root: u32) {
        let r = root as usize;
        let p = self.hosts[r].parent;
        self.hosts[r].delay = if p == NIL {
            self.hosts[r].position.distance(&self.source)
        } else {
            let p = p as usize;
            self.hosts[p].delay + self.hosts[r].position.distance(&self.hosts[p].position)
        };
        let mut refreshed = 1u64;
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(root);
        while let Some(u) = stack.pop() {
            let (delay, position) = (
                self.hosts[u as usize].delay,
                self.hosts[u as usize].position,
            );
            let mut c = self.hosts[u as usize].first_child;
            while c != NIL {
                let ch = &mut self.hosts[c as usize];
                ch.delay = delay + position.distance(&ch.position);
                refreshed += 1;
                stack.push(c);
                c = ch.next_sibling;
            }
        }
        self.stack = stack;
        omt_obs::obs_observe!("dynamic/refresh_size", refreshed);
    }

    /// Attaches a currently-detached host under `parent` (`None` = the
    /// source) as its last child, maintaining the child links, the source
    /// out-degree counter, the open-host index, and the subtree's cached
    /// delays.
    fn attach(&mut self, child: u32, parent: Option<u32>) {
        debug_assert!(self.hosts[child as usize].parent == NIL);
        debug_assert!(self.hosts[child as usize].next_sibling == NIL);
        match parent {
            None => {
                self.source_children += 1;
                debug_assert!(
                    self.source_children <= self.max_out_degree,
                    "source out-degree budget exceeded"
                );
            }
            Some(p) => {
                let pu = p as usize;
                debug_assert!(self.hosts[pu].alive, "attaching under a dead host");
                debug_assert!(
                    self.hosts[pu].children < self.max_out_degree,
                    "attaching under a full host"
                );
                self.hosts[child as usize].parent = p;
                match self.hosts[pu].last_child {
                    NIL => self.hosts[pu].first_child = child,
                    last => self.hosts[last as usize].next_sibling = child,
                }
                self.hosts[pu].last_child = child;
                self.hosts[pu].children += 1;
                if self.hosts[pu].children == self.max_out_degree {
                    self.open_remove(p);
                }
            }
        }
        self.refresh_subtree_delays(child);
    }

    /// Detaches a host from its parent, clearing its parent and sibling
    /// links and reversing everything [`attach`](Self::attach) maintains.
    /// The parent's remaining children keep their attach order.
    fn detach(&mut self, slot: u32) {
        let h = &mut self.hosts[slot as usize];
        let p = std::mem::replace(&mut h.parent, NIL);
        let next = std::mem::replace(&mut h.next_sibling, NIL);
        if p == NIL {
            self.source_children -= 1;
            return;
        }
        let pu = p as usize;
        let was_full = self.hosts[pu].children == self.max_out_degree;
        let mut prev = NIL;
        let mut c = self.hosts[pu].first_child;
        while c != slot {
            prev = c;
            c = self.hosts[c as usize].next_sibling;
        }
        match prev {
            NIL => self.hosts[pu].first_child = next,
            prev => self.hosts[prev as usize].next_sibling = next,
        }
        if self.hosts[pu].last_child == slot {
            self.hosts[pu].last_child = prev;
        }
        self.hosts[pu].children -= 1;
        if was_full {
            self.open_push(p);
        }
    }

    /// Adds a host and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the position is not finite, or if its distance from the
    /// source, or the covering radius a rebuild pads above that distance,
    /// overflows `f64` (the rule behind the batch builders'
    /// [`BuildError::CoordinateOverflow`]). Such a host would report an
    /// infinite radius and break the next amortized rebuild, so it is
    /// refused here, at the door. Joins are a hot path; callers own input
    /// hygiene, unlike the batch builders which return errors.
    pub fn join(&mut self, position: Point2) -> HostId {
        assert!(position.is_finite(), "host position must be finite");
        let polar = self.polar(&position);
        assert!(
            polar.radius.is_finite() && (polar.radius * RHO_PAD).is_finite(),
            "host distance from the source overflows f64"
        );
        let _join_span = omt_obs::obs_span!("dynamic/join");
        omt_obs::obs_count!("dynamic/joins");
        // Choose a parent: best open host in the cell, walking up the
        // ancestor-cell chain, else the source if open, else the best open
        // host globally (exists whenever the tree is nonempty and the
        // budget is ≥ 2: leaves are open).
        let cell = self.cell_of(&polar);
        let parent = self.find_parent_for(&position, cell);
        let id = HostId(self.next_id);
        self.next_id += 1;
        let host = Host {
            position,
            delay: 0.0,
            id,
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            children: 0,
            cell,
            mark: 0,
            alive: true,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.hosts[s as usize] = host;
                s
            }
            None => {
                self.hosts.push(host);
                (self.hosts.len() - 1) as u32
            }
        };
        self.slot_by_id.insert(id.0, slot);
        self.cell_open[cell as usize].push(slot);
        self.attach(slot, parent);
        self.live += 1;
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        id
    }

    /// Chooses the parent slot for a joining position in grid cell `cell`
    /// (`None` = source).
    fn find_parent_for(&self, position: &Point2, cell: u32) -> Option<u32> {
        let source_open = self.source_children < self.max_out_degree;
        if let Some(p) = self.chain_candidate(cell, position, false) {
            return Some(p);
        }
        if source_open {
            return None;
        }
        // Global fallback: any open host, preferring small delay.
        let best = self.best_open_excluding(position, false);
        assert!(best.is_some(), "a degree >= 2 tree always has an open host");
        best
    }

    /// The cheapest eligible open host for `position` along the
    /// ancestor-cell chain of its grid cell `cell`: that cell's open hosts
    /// first, then each ancestor cell's, stopping at the first cell that
    /// yields a candidate. This is the cell-local state a decentralized
    /// implementation replicates. With `exclude_marked`, hosts of the
    /// subtree marked by [`mark_subtree`](Self::mark_subtree) are not
    /// eligible.
    fn chain_candidate(&self, cell: u32, position: &Point2, exclude_marked: bool) -> Option<u32> {
        let mut cell = cell as usize;
        let mut hops = 0u64;
        loop {
            if let Some((_, s)) = self.scan_cell_for(cell, position, exclude_marked) {
                omt_obs::obs_observe!("dynamic/chain_len", hops);
                return Some(s);
            }
            if cell == 0 {
                omt_obs::obs_observe!("dynamic/chain_len", hops);
                return None;
            }
            hops += 1;
            // Parent cell: flat index arithmetic of the binary layout.
            let (ring, seg) = unflatten(cell);
            cell = if ring <= 1 {
                0
            } else {
                ((1u64 << (ring - 1)) - 1 + seg / 2) as usize
            };
        }
    }

    /// The cheapest open host for `position` over the whole open index,
    /// skipping the marked subtree (the one being re-homed) when
    /// `exclude_marked` is set. Deterministic: first minimum wins — i.e.
    /// the winner is the lexicographic minimum of `(cost, cell, list
    /// position)`. Each call counts one `dynamic/global_scans`.
    fn best_open_excluding(&self, position: &Point2, exclude_marked: bool) -> Option<u32> {
        omt_obs::obs_count!("dynamic/global_scans");
        let mut best: Option<(f64, u32)> = None;
        for cell in 0..self.cell_open.len() {
            if let Some((cost, s)) = self.scan_cell_for(cell, position, exclude_marked) {
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, s));
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Scans one cell's open list for the cheapest eligible host
    /// (earliest strict minimum), counting the work: one
    /// `dynamic/cells_scanned` per call and one `dynamic/cost_probes` per
    /// attach-cost evaluation.
    fn scan_cell_for(
        &self,
        cell: usize,
        position: &Point2,
        exclude_marked: bool,
    ) -> Option<(f64, u32)> {
        omt_obs::obs_count!("dynamic/cells_scanned");
        let mut best: Option<(f64, u32)> = None;
        let mut probes = 0u64;
        for &s in &self.cell_open[cell] {
            if exclude_marked && self.hosts[s as usize].mark == self.epoch {
                continue;
            }
            probes += 1;
            let cost = self.attach_cost(s, position);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, s));
            }
        }
        omt_obs::obs_count!("dynamic/cost_probes", probes);
        best
    }

    /// Removes a host.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownHost`] if the id was never issued by
    /// this overlay or the host has already departed.
    pub fn leave(&mut self, id: HostId) -> Result<(), BuildError> {
        let Some(slot) = self.slot_by_id.remove(&id.0) else {
            return Err(BuildError::UnknownHost { id: id.0 });
        };
        let _leave_span = omt_obs::obs_span!("dynamic/leave");
        omt_obs::obs_count!("dynamic/leaves");
        let su = slot as usize;
        debug_assert!(self.hosts[su].alive && self.hosts[su].id == id);
        let vacated_parent = Some(self.hosts[su].parent).filter(|&p| p != NIL);
        self.detach(slot);
        // Remove the departing host from every index before any re-homing
        // decision, so it can never be selected as a parent.
        if self.hosts[su].children < self.max_out_degree {
            self.open_remove(slot);
        }
        // Detach every orphan up front: no orphan may keep a parent
        // pointer into the dead slot. Detached orphans are not source
        // children — the source out-degree counter deliberately counts
        // attached hosts only. Their cached delays (and their subtrees')
        // still describe the pre-departure tree, which is exactly the
        // score the re-homing search should use for them as candidates.
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.clear();
        let mut c = std::mem::replace(&mut self.hosts[su].first_child, NIL);
        while c != NIL {
            orphans.push(c);
            let orphan = &mut self.hosts[c as usize];
            orphan.parent = NIL;
            c = std::mem::replace(&mut orphan.next_sibling, NIL);
        }
        let departed = &mut self.hosts[su];
        departed.last_child = NIL;
        departed.children = 0;
        departed.alive = false;
        departed.delay = 0.0;
        self.live -= 1;
        if !orphans.is_empty() {
            let _rehome_span = omt_obs::obs_span!("dynamic/rehome");
            // Promote the orphan closest to the departed host into the
            // vacated attachment point (its subtree rides along); the
            // remaining orphans re-join through the normal search, each
            // banned from its own subtree.
            let departed_pos = self.hosts[su].position;
            let promoted = *orphans
                .iter()
                .min_by(|&&a, &&b| {
                    let da = self.hosts[a as usize].position.distance(&departed_pos);
                    let db = self.hosts[b as usize].position.distance(&departed_pos);
                    da.total_cmp(&db)
                })
                .expect("nonempty");
            self.attach(promoted, vacated_parent);
            for &c in &orphans {
                if c == promoted {
                    continue;
                }
                let parent = self.find_parent_for_excluding(c);
                self.attach(c, parent);
            }
        }
        self.orphans = orphans;
        self.free_slots.push(slot);
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        Ok(())
    }

    /// Marks the subtree of `root` with a fresh epoch, so membership in
    /// it is one compare per candidate. When the epoch wraps, every mark
    /// is cleared first, so no stale mark can equal a reissued epoch.
    fn mark_subtree(&mut self, root: u32) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for h in &mut self.hosts {
                h.mark = 0;
            }
            self.epoch = 1;
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(root);
        while let Some(u) = stack.pop() {
            let h = &mut self.hosts[u as usize];
            h.mark = self.epoch;
            let mut c = h.first_child;
            while c != NIL {
                stack.push(c);
                c = self.hosts[c as usize].next_sibling;
            }
        }
        self.stack = stack;
    }

    /// Parent search for the detached `orphan` that refuses to attach
    /// inside the orphan's own subtree (which is being re-homed —
    /// attaching inside it would create a cycle). Candidates come from the
    /// same ancestor-cell chain the join path walks (the pre-change code scanned every live host here, which
    /// both made interior leaves O(n·depth) and consulted global state a
    /// decentralized node would not have), with a global scan only as the
    /// last-resort fallback. Returns `None` (= attach to the source) only
    /// when the source has spare out-degree: the previous implementation
    /// silently fell back to the source when no open candidate survived
    /// the subtree filter, which would break the degree cap whenever the
    /// source was already full.
    fn find_parent_for_excluding(&mut self, orphan: u32) -> Option<u32> {
        self.mark_subtree(orphan);
        let source_open = self.source_children < self.max_out_degree;
        let (position, cell) = (
            &self.hosts[orphan as usize].position,
            self.hosts[orphan as usize].cell,
        );
        match self
            .chain_candidate(cell, position, true)
            .or_else(|| self.best_open_excluding(position, true))
        {
            Some(s) => {
                if source_open {
                    let direct = self.source.distance(position);
                    let via = self.attach_cost(s, position);
                    if direct <= via {
                        return None;
                    }
                }
                Some(s)
            }
            None => {
                // No open host outside the orphan's own subtree. Every
                // host outside that subtree descends from a source child,
                // and a finite forest of live hosts always contains an
                // open leaf — so this can only be reached when the source
                // has no children at all, and the source then has room by
                // construction. Enforce that instead of silently
                // over-attaching a full source.
                assert!(
                    source_open,
                    "no open host outside the re-homed subtree and the source is full; \
                     the overlay degree invariant is broken"
                );
                None
            }
        }
    }

    /// Rebuilds with the full static algorithm when churn since the last
    /// rebuild exceeds half the membership.
    fn maybe_rebuild(&mut self) {
        if self.churn_since_rebuild * 2 <= self.live.max(8) {
            return;
        }
        self.rebuild();
    }

    /// `(id, slot)` of every live host, sorted by id — i.e. in join order
    /// (ids are monotone and never reused, while slots are recycled).
    /// Sorting the pairs keeps the comparisons off the host array.
    fn join_order(&self) -> Vec<(u64, NodeId)> {
        let mut order = Vec::with_capacity(self.live);
        for (s, h) in self.hosts.iter().enumerate() {
            if h.alive {
                order.push((h.id.0, s as NodeId));
            }
        }
        order.sort_unstable();
        order
    }

    /// Forces a full rebuild with [`PolarGridBuilder`].
    pub fn rebuild(&mut self) {
        let _rebuild_span = omt_obs::obs_span!("dynamic/rebuild");
        omt_obs::obs_count!("dynamic/rebuilds");
        self.churn_since_rebuild = 0;
        let order_span = omt_obs::obs_span!("dynamic/rebuild/order");
        let order = self.join_order();
        let positions: Vec<Point2> = order
            .iter()
            .map(|&(_, s)| self.hosts[s as usize].position)
            .collect();
        drop(order_span);
        if positions.is_empty() {
            self.hosts.clear();
            self.slot_by_id.clear();
            self.free_slots.clear();
            self.cell_open = vec![Vec::new()];
            self.grid = None;
            self.source_children = 0;
            return;
        }
        let build_span = omt_obs::obs_span!("dynamic/rebuild/build");
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(self.max_out_degree)
            .build_with_report(self.source, &positions)
            .expect("join admits only positions a rebuild accepts");
        drop(build_span);
        let _index_span = omt_obs::obs_span!("dynamic/rebuild/index");
        self.install(&order, &positions, &tree, report.rings);
        // Free the build's buffers inside the span that accounts for them.
        drop((tree, positions, order));
    }

    /// Replaces the host columns and indexes with the rebuilt `tree` in
    /// one pass: new slot `i` is host `i` of the tree, i.e. `order[i]`.
    /// Each host's cell is computed once, against a grid of `rings` rings
    /// covering the farthest host.
    fn install(
        &mut self,
        order: &[(u64, NodeId)],
        positions: &[Point2],
        tree: &MulticastTree<2>,
        rings: u32,
    ) {
        let rho = positions
            .iter()
            .map(|p| p.distance(&self.source))
            .fold(0.0f64, f64::max);
        let grid = PolarGrid2::new(rings, if rho > 0.0 { rho * RHO_PAD } else { 1.0 });
        for list in &mut self.cell_open {
            list.clear();
        }
        self.cell_open.resize_with(grid.cell_count(), Vec::new);
        self.grid = Some(grid);
        self.slot_by_id = IdMap::with_capacity_and_hasher(positions.len(), Default::default());
        self.hosts.clear();
        for (i, &position) in positions.iter().enumerate() {
            let kids = tree.children(i);
            let (parent, next_sibling) = match tree.parent(i) {
                ParentRef::Source => (NIL, NIL),
                ParentRef::Node(p) => {
                    let siblings = tree.children(p);
                    let k = siblings
                        .iter()
                        .position(|&c| c as usize == i)
                        .expect("a child is listed under its parent");
                    (p as NodeId, siblings.get(k + 1).copied().unwrap_or(NIL))
                }
            };
            let cell = self.cell_of(&self.polar(&position));
            let children = kids.len() as u32;
            self.hosts.push(Host {
                position,
                delay: tree.depth(i),
                id: HostId(order[i].0),
                parent,
                first_child: kids.first().copied().unwrap_or(NIL),
                last_child: kids.last().copied().unwrap_or(NIL),
                next_sibling,
                children,
                cell,
                mark: 0,
                alive: true,
            });
            self.slot_by_id.insert(order[i].0, i as NodeId);
            if children < self.max_out_degree {
                self.cell_open[cell as usize].push(i as NodeId);
            }
        }
        self.free_slots.clear();
        self.source_children = tree.source_out_degree();
    }

    /// Materializes the current membership as an immutable
    /// [`MulticastTree`] (host order = join order of live hosts).
    ///
    /// # Errors
    ///
    /// Never fails for a consistent overlay; an [`BuildError::Internal`]
    /// would indicate a bug in the maintenance logic.
    pub fn snapshot(&self) -> Result<MulticastTree<2>, BuildError> {
        let order = self.join_order();
        let mut slot_to_new = vec![NIL; self.hosts.len()];
        for (new, &(_, old)) in order.iter().enumerate() {
            slot_to_new[old as usize] = new as NodeId;
        }
        let positions: Vec<Point2> = order
            .iter()
            .map(|&(_, s)| self.hosts[s as usize].position)
            .collect();
        let mut builder =
            TreeBuilder::new(self.source, positions).max_out_degree(self.max_out_degree);
        // Attach top-down, breadth first. Each queue entry is a child
        // list to walk: its first slot and the parent's new index. A host
        // is attached while its parent's list is walked, so the walk reads
        // each host once.
        let mut queue: Vec<(NodeId, usize)> = Vec::new();
        for (new, &(_, s)) in order.iter().enumerate() {
            let h = &self.hosts[s as usize];
            if h.parent == NIL {
                builder.attach_to_source(new)?;
                if h.first_child != NIL {
                    queue.push((h.first_child, new));
                }
            }
        }
        let mut head = 0;
        while let Some(&(first, parent)) = queue.get(head) {
            head += 1;
            let mut c = first;
            while c != NIL {
                let h = &self.hosts[c as usize];
                let new = slot_to_new[c as usize] as usize;
                builder.attach(new, parent)?;
                if h.first_child != NIL {
                    queue.push((h.first_child, new));
                }
                c = h.next_sibling;
            }
        }
        Ok(builder.finish()?)
    }

    /// Re-verifies every maintenance invariant from scratch, panicking on
    /// the first violation. Intended for fuzzing and tests (the churn fuzz
    /// suite runs this after **every** membership event); O(n + cells).
    ///
    /// Checked: alive/dead bookkeeping (id map, free list, cleared dead
    /// slots), the child links (each list has exactly the recorded count
    /// of children, ends at the recorded last child, and every child
    /// points back), the source out-degree counter, spanning, acyclicity
    /// and the degree budget including the source (via
    /// [`validate_parent_forest`]), cached delays, subtree marks no newer
    /// than the current epoch, and the exactness of the open-host index.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        let n = self.hosts.len();
        let max = self.max_out_degree;
        let mut alive_count = 0usize;
        for (s, h) in self.hosts.iter().enumerate() {
            assert!(
                h.mark <= self.epoch,
                "host {s} carries mark {} past epoch {}",
                h.mark,
                self.epoch
            );
            if !h.alive {
                assert!(
                    h.parent == NIL
                        && h.first_child == NIL
                        && h.last_child == NIL
                        && h.next_sibling == NIL
                        && h.children == 0,
                    "dead slot {s} keeps stale topology"
                );
                continue;
            }
            alive_count += 1;
            assert_eq!(
                self.slot_by_id.get(&h.id.0),
                Some(&(s as u32)),
                "live host in slot {s} missing from the id map"
            );
            if h.parent == NIL {
                assert_eq!(h.next_sibling, NIL, "source child {s} has a sibling link");
            } else {
                let p = h.parent as usize;
                assert!(
                    p < n && self.hosts[p].alive,
                    "host {s} has a dead or dangling parent {p}"
                );
            }
            assert!(
                h.children <= max,
                "host {s} exceeds the out-degree budget: {} > {max}",
                h.children
            );
            // Walk at most `children` links, so a corrupted (cyclic) list
            // fails the count check instead of looping.
            let mut c = h.first_child;
            let mut last = NIL;
            let mut walked = 0u32;
            while c != NIL && walked < h.children {
                assert!((c as usize) < n, "host {s} has dangling child {c}");
                let ch = &self.hosts[c as usize];
                assert!(ch.alive, "host {s} has dead child {c}");
                assert_eq!(
                    ch.parent, s as u32,
                    "child {c} does not point back to parent {s}"
                );
                walked += 1;
                last = c;
                c = ch.next_sibling;
            }
            assert!(
                walked == h.children && c == NIL,
                "host {s} records {} children but its sibling list disagrees",
                h.children
            );
            assert_eq!(h.last_child, last, "host {s} has a stale last-child link");
            let expected = if h.parent == NIL {
                h.position.distance(&self.source)
            } else {
                let p = h.parent as usize;
                self.hosts[p].delay + h.position.distance(&self.hosts[p].position)
            };
            assert!(
                (h.delay - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                "host {s} cached delay {} disagrees with recomputed {expected}",
                h.delay
            );
            assert_eq!(
                h.cell,
                self.cell_of(&self.polar(&h.position)),
                "host {s} is bucketed in a stale cell"
            );
        }
        assert_eq!(alive_count, self.live, "live counter is stale");
        assert_eq!(self.slot_by_id.len(), self.live, "id map size mismatch");
        let mut freed = vec![false; n];
        for &s in &self.free_slots {
            let su = s as usize;
            assert!(
                su < n && !self.hosts[su].alive,
                "free list holds live slot {s}"
            );
            assert!(!freed[su], "slot {s} is on the free list twice");
            freed[su] = true;
        }
        assert_eq!(
            self.free_slots.len(),
            n - self.live,
            "every dead slot must be recyclable exactly once"
        );
        let source_children = self
            .hosts
            .iter()
            .filter(|h| h.alive && h.parent == NIL)
            .count();
        assert_eq!(
            source_children as u32, self.source_children,
            "source out-degree counter is stale"
        );
        assert!(
            self.source_children <= max,
            "source exceeds the out-degree budget: {} > {max}",
            self.source_children
        );
        // Spanning + acyclicity + degree (including the source) on the
        // compacted live topology, via the tree crate's validator.
        let order = self.join_order();
        let mut slot_to_new = vec![usize::MAX; n];
        for (new, &(_, old)) in order.iter().enumerate() {
            slot_to_new[old as usize] = new;
        }
        let parents: Vec<Option<usize>> = order
            .iter()
            .map(|&(_, s)| match self.hosts[s as usize].parent {
                NIL => None,
                p => Some(slot_to_new[p as usize]),
            })
            .collect();
        validate_parent_forest(&parents, Some(max)).expect("overlay topology invariant violated");
        // The open index lists exactly the open hosts, each in its cell.
        let cells = self.grid.as_ref().map_or(1, PolarGrid2::cell_count);
        assert_eq!(self.cell_open.len(), cells, "open index has wrong size");
        let mut in_open = vec![false; n];
        let mut open_total = 0usize;
        for (cell, list) in self.cell_open.iter().enumerate() {
            for &s in list {
                let su = s as usize;
                let h = &self.hosts[su];
                assert!(h.alive, "open index {cell} lists dead slot {s}");
                assert!(h.children < max, "open index lists full host {s}");
                assert_eq!(
                    h.cell as usize, cell,
                    "open slot {s} in foreign cell {cell}"
                );
                assert!(!in_open[su], "slot {s} in the open index twice");
                in_open[su] = true;
                open_total += 1;
            }
        }
        let open_expected = self
            .hosts
            .iter()
            .filter(|h| h.alive && h.children < max)
            .count();
        assert_eq!(
            open_total, open_expected,
            "open index does not cover all open hosts"
        );
    }
}

/// Inverse of the flat cell index: `(ring, seg)`.
fn unflatten(idx: usize) -> (u32, u64) {
    let v = idx as u64 + 1;
    let ring = 63 - v.leading_zeros();
    (ring, v - (1u64 << ring))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Disk, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::{RngExt, SeedableRng};

    #[test]
    fn unflatten_inverts_layout() {
        for ring in 0..8u32 {
            for seg in 0..(1u64 << ring) {
                let idx = ((1u64 << ring) - 1 + seg) as usize;
                assert_eq!(unflatten(idx), (ring, seg));
            }
        }
    }

    #[test]
    fn joins_build_valid_trees() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        for p in Disk::unit().sample_n(&mut rng, 500) {
            overlay.join(p);
        }
        assert_eq!(overlay.len(), 500);
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        assert_eq!(tree.len(), 500);
        tree.validate(Some(6)).unwrap();
    }

    #[test]
    fn leaves_remove_and_rewire() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        let ids: Vec<HostId> = Disk::unit()
            .sample_n(&mut rng, 200)
            .into_iter()
            .map(|p| overlay.join(p))
            .collect();
        // Remove every third host, including interior ones.
        for id in ids.iter().step_by(3) {
            overlay.leave(*id).unwrap();
        }
        assert_eq!(overlay.len(), 200 - 67);
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        tree.validate(Some(3)).unwrap();
        // Departed ids are gone, with the dedicated error.
        assert!(overlay.position(ids[0]).is_none());
        assert!(matches!(
            overlay.leave(ids[0]),
            Err(BuildError::UnknownHost { .. })
        ));
        // Survivors remain addressable.
        assert!(overlay.position(ids[1]).is_some());
    }

    #[test]
    fn churn_quality_tracks_static_rebuild() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        let mut live: Vec<HostId> = Vec::new();
        for _ in 0..1500 {
            if live.len() < 50 || rng.random::<f64>() < 0.6 {
                let p = {
                    let r = rng.random::<f64>().sqrt();
                    let t = rng.random_range(0.0..core::f64::consts::TAU);
                    Point2::new([r * t.cos(), r * t.sin()])
                };
                live.push(overlay.join(p));
            } else {
                let i = rng.random_range(0..live.len());
                let id = live.swap_remove(i);
                overlay.leave(id).unwrap();
            }
        }
        let churned = overlay.radius();
        let snapshot = overlay.snapshot().unwrap();
        snapshot.validate(Some(6)).unwrap();
        // Compare against a fresh static build over the same membership.
        let fresh = PolarGridBuilder::new()
            .build(Point2::ORIGIN, snapshot.points())
            .unwrap();
        assert!(
            churned <= fresh.radius() * 2.5 + 0.2,
            "churned {churned} vs fresh {}",
            fresh.radius()
        );
    }

    #[test]
    fn degree_budget_never_violated_under_churn() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
        let mut live = Vec::new();
        for step in 0..600 {
            if live.is_empty() || step % 3 != 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
            overlay.assert_invariants();
            if step % 97 == 0 {
                overlay.snapshot().unwrap().validate(Some(2)).unwrap();
            }
        }
        overlay.snapshot().unwrap().validate(Some(2)).unwrap();
    }

    /// Regression for the degree-cap hole in the pre-caching `leave`: an
    /// interior departure while the source is at its out-degree budget
    /// must re-home every orphan without over-attaching the source (the
    /// old `find_parent_for_excluding` fell back to "attach to source"
    /// without any capacity check).
    #[test]
    fn interior_leave_with_full_source_respects_cap() {
        let mut exercised = 0;
        for seed in 0..50u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
            let mut live = Vec::new();
            for _ in 0..120 {
                if live.len() < 6 || rng.random::<f64>() < 0.7 {
                    live.push(overlay.join(Point2::new([
                        rng.random_range(-1.0..1.0),
                        rng.random_range(-1.0..1.0),
                    ])));
                } else {
                    let i = rng.random_range(0..live.len());
                    overlay.leave(live.swap_remove(i)).unwrap();
                }
            }
            if overlay.source_children < overlay.max_out_degree {
                continue;
            }
            // Pick an interior host (non-source-child with children) and
            // remove it while the source is full.
            let interior = overlay
                .hosts
                .iter()
                .find(|h| h.alive && h.parent != NIL && h.children >= 2);
            let Some(interior) = interior else { continue };
            let id = interior.id;
            live.retain(|&l| l != id);
            overlay.leave(id).unwrap();
            exercised += 1;
            overlay.assert_invariants();
            overlay.snapshot().unwrap().validate(Some(2)).unwrap();
        }
        assert!(
            exercised >= 5,
            "workload failed to produce interior leaves under a full source ({exercised})"
        );
    }

    /// Departed slots are fully cleared and recycled: no index, parent
    /// pointer, or child list may ever reference a dead slot, and the slot
    /// pool stays bounded by the peak membership between rebuilds.
    #[test]
    fn dead_slots_are_cleared_and_recycled() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        let mut live = Vec::new();
        let mut peak_pool = 0;
        for step in 0..1500 {
            if live.len() < 20 || step % 2 == 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
            // assert_invariants covers: dead slots have no parent/children,
            // no live child list or index references a dead slot.
            overlay.assert_invariants();
            peak_pool = peak_pool.max(overlay.hosts.len());
        }
        // Slot recycling keeps the pool at the peak live size (plus the
        // at-most-one slot freed between reuse opportunities), instead of
        // growing with the total number of joins (~1000 here).
        assert!(
            peak_pool <= live.len() + overlay.free_slots.len() + 1,
            "slot pool grew past the live membership: {peak_pool} slots for {} live",
            live.len()
        );
        // Ids are never recycled even though slots are.
        let stale = live[0];
        overlay.leave(stale).unwrap();
        let fresh = overlay.join(Point2::new([0.1, 0.2]));
        assert_ne!(stale, fresh);
        assert!(overlay.position(stale).is_none());
        assert!(matches!(
            overlay.leave(stale),
            Err(BuildError::UnknownHost { .. })
        ));
    }

    /// Replays a degree-2 trace rich in interior leaves, each of which
    /// bans subtrees under fresh epochs, with every invariant checked
    /// after every event; returns the final overlay.
    fn interior_churn(start_epoch: u32) -> DynamicOverlay {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
        overlay.epoch = start_epoch;
        let mut live = Vec::new();
        for step in 0..600 {
            if live.len() < 30 || step % 3 != 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                // Prefer a host with two children: its leave re-homes one
                // orphan under a fresh epoch.
                let interior = live.iter().position(|&id| {
                    overlay
                        .slot_of(id)
                        .is_some_and(|s| overlay.hosts[s].children == 2)
                });
                let i = interior.unwrap_or_else(|| rng.random_range(0..live.len()));
                overlay.leave(live.remove(i)).unwrap();
            }
            overlay.assert_invariants();
        }
        overlay
    }

    /// Subtree marks survive the epoch counter wrapping: a run started
    /// just below `u32::MAX` crosses the wrap (which clears every mark)
    /// and must build exactly what a run started from epoch 0 builds.
    #[test]
    fn epoch_wrap_keeps_exclusion_exact() {
        let from_zero = interior_churn(0);
        let wrapped = interior_churn(u32::MAX - 20);
        assert!(
            from_zero.epoch > 40,
            "only {} re-homing epochs; the wrap run cannot cross u32::MAX",
            from_zero.epoch
        );
        assert!(
            wrapped.epoch < from_zero.epoch,
            "epoch {} did not wrap",
            wrapped.epoch
        );
        let (a, b) = (from_zero.snapshot().unwrap(), wrapped.snapshot().unwrap());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.parent(i), b.parent(i), "host {i} has another parent");
            assert_eq!(a.depth(i).to_bits(), b.depth(i).to_bits());
        }
        assert_eq!(from_zero.radius().to_bits(), wrapped.radius().to_bits());
    }

    /// A churned degree-3 overlay and the slot of a host with at least
    /// two children.
    fn overlay_with_branching_host() -> (DynamicOverlay, usize) {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        for p in Disk::unit().sample_n(&mut rng, 200) {
            overlay.join(p);
        }
        overlay.assert_invariants();
        let s = overlay
            .hosts
            .iter()
            .position(|h| h.alive && h.children >= 2)
            .expect("a branching host");
        (overlay, s)
    }

    #[test]
    #[should_panic(expected = "sibling list disagrees")]
    fn invariants_catch_a_cut_sibling_link() {
        let (mut overlay, s) = overlay_with_branching_host();
        let first = overlay.hosts[s].first_child as usize;
        overlay.hosts[first].next_sibling = NIL;
        overlay.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "sibling list disagrees")]
    fn invariants_catch_a_stale_child_count() {
        let (mut overlay, s) = overlay_with_branching_host();
        overlay.hosts[s].children -= 1;
        overlay.assert_invariants();
    }

    /// A join whose distance from the source overflows `f64` is refused at
    /// the door, instead of breaking the next amortized rebuild.
    #[test]
    #[should_panic(expected = "overflows f64")]
    fn join_refuses_an_overflowing_distance() {
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        overlay.join(Point2::new([1.0, 0.0]));
        overlay.join(Point2::new([1e300, 0.0]));
    }

    /// A far but representable host is accepted and survives a rebuild
    /// with a finite radius.
    #[test]
    fn join_accepts_a_far_finite_host() {
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        overlay.join(Point2::new([1.0, 0.0]));
        overlay.join(Point2::new([1e150, 0.0]));
        overlay.rebuild();
        overlay.assert_invariants();
        assert!(overlay.radius().is_finite());
        assert!(overlay.radius() >= 1e150);
        overlay.snapshot().unwrap().validate(Some(4)).unwrap();
    }

    #[test]
    fn empty_overlay_behaviour() {
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        assert!(overlay.is_empty());
        assert_eq!(overlay.radius(), 0.0);
        let t = overlay.snapshot().unwrap();
        assert!(t.is_empty());
        // Drain to empty and come back.
        let id = overlay.join(Point2::new([1.0, 0.0]));
        overlay.leave(id).unwrap();
        assert!(overlay.is_empty());
        overlay.assert_invariants();
        let id2 = overlay.join(Point2::new([0.0, 1.0]));
        assert_eq!(overlay.len(), 1);
        assert!(overlay.position(id2).is_some());
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            DynamicOverlay::new(Point2::ORIGIN, 1),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        assert!(matches!(
            DynamicOverlay::new(Point2::new([f64::NAN, 0.0]), 4),
            Err(BuildError::NonFiniteSource)
        ));
    }

    #[test]
    fn explicit_rebuild_preserves_validity_and_bounds() {
        // Points on the unit circle are adversarial for an area-based grid
        // (everything lands in the outermost ring, forcing k = 1), so the
        // rebuild is not guaranteed to beat the greedy join path — but it
        // must stay valid and within the analytic bound of the static
        // algorithm.
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
        for i in 0..100 {
            let t = i as f64 * 0.7;
            overlay.join(Point2::new([t.cos(), t.sin()]));
        }
        overlay.rebuild();
        overlay.assert_invariants();
        let snapshot = overlay.snapshot().unwrap();
        snapshot.validate(Some(2)).unwrap();
        let (_, report) = PolarGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point2::ORIGIN, snapshot.points())
            .unwrap();
        assert!(overlay.radius() <= report.bound + 1e-9);
        // On a well-behaved area distribution the rebuild must not lose to
        // the incremental tree by much.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        for p in Disk::unit().sample_n(&mut rng, 800) {
            overlay.join(p);
        }
        let before = overlay.radius();
        overlay.rebuild();
        assert!(overlay.radius() <= before * 1.25 + 0.1);
        overlay.snapshot().unwrap().validate(Some(6)).unwrap();
    }

    /// The cached radius agrees with the snapshot's from-scratch radius.
    #[test]
    fn cached_radius_matches_snapshot() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        let mut live = Vec::new();
        for step in 0..400 {
            if live.len() < 10 || step % 3 != 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
        }
        let snap = overlay.snapshot().unwrap();
        assert!(
            (overlay.radius() - snap.radius()).abs() <= 1e-9 * (1.0 + snap.radius()),
            "cached radius {} vs snapshot {}",
            overlay.radius(),
            snap.radius()
        );
    }
}
