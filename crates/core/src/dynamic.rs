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
//! place, so the churn path never rescans the whole membership:
//!
//! * `delay` — the source-to-host delay is stored per host and refreshed
//!   along the affected subtree when a host is attached or re-parented
//!   (`delay(child) = delay(parent) + edge`), so candidate scoring is O(1)
//!   per candidate instead of an O(depth) parent walk;
//! * `cell_open` — each grid cell keeps the list of its *open* hosts
//!   (alive, out-degree below budget), so parent searches walk candidate
//!   sets instead of filtering all cell members;
//! * `source_children` — the live source out-degree is a counter, not an
//!   O(n) scan; it counts **attached** hosts only, so an orphan that is
//!   mid-re-homing no longer inflates the count;
//! * `slot_by_id` — host lookup is a hash-map hit, not a linear search;
//! * departed hosts have their parent pointer and child list cleared and
//!   their slot recycled through a free list, so no search or delay walk
//!   can ever traverse a dead slot and memory is bounded by the peak
//!   membership between rebuilds.
//!
//! [`DynamicOverlay::assert_invariants`] re-verifies all of this — plus
//! spanning, acyclicity, and the degree budget *including the source* —
//! from scratch; the churn fuzz suite runs it after every membership event.

use std::collections::HashMap;

use omt_geom::{Point2, PolarPoint};
use omt_tree::{validate_parent_forest, MulticastTree, NodeId, ParentRef, TreeBuilder};

use crate::error::BuildError;
use crate::grid2::PolarGrid2;
use crate::polar_grid::PolarGridBuilder;

/// Identifier of a live host inside a [`DynamicOverlay`]. Stable across
/// joins/leaves of other hosts; invalidated when the host itself leaves.
/// Ids are never reused, so a stale id can never alias a newer host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u64);

#[derive(Clone, Debug)]
struct Host {
    position: Point2,
    /// Parent slot: `None` = the source (or detached, transiently inside
    /// `leave` while an orphan awaits re-homing). Slots share the arena's
    /// compact [`NodeId`] width, so the overlay's per-host footprint tracks
    /// the static builders'.
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Cached source-to-host delay; refreshed along the subtree whenever
    /// the host is (re-)attached.
    delay: f64,
    /// Flat index of the host's current grid cell.
    cell: u32,
    alive: bool,
    /// Generation counter for id reuse protection.
    id: HostId,
}

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
    slot_by_id: HashMap<u64, NodeId>,
    /// Recycled slots of departed hosts.
    free_slots: Vec<NodeId>,
    /// Slots of live hosts, bucketed by their current grid cell.
    cell_members: Vec<Vec<NodeId>>,
    /// Slots of *open* live hosts (out-degree below budget), per cell.
    cell_open: Vec<Vec<NodeId>>,
    /// The grid the members are bucketed against (rebuilt on churn).
    grid: Option<PolarGrid2>,
    live: usize,
    /// Number of live hosts attached directly to the source.
    source_children: u32,
    churn_since_rebuild: usize,
    next_id: u64,
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
            slot_by_id: HashMap::new(),
            free_slots: Vec::new(),
            cell_members: vec![Vec::new()],
            cell_open: vec![Vec::new()],
            grid: None,
            live: 0,
            source_children: 0,
            churn_since_rebuild: 0,
            next_id: 0,
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

    /// The grid cell of a position under the current grid (flat index).
    fn cell_of(&self, p: &Point2) -> usize {
        match &self.grid {
            None => 0,
            Some(grid) => {
                let polar = PolarPoint::from_cartesian(&(*p - self.source));
                let (ring, seg) = grid.cell_of(&polar);
                ((1u64 << ring) - 1 + seg) as usize
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
        self.hosts[r].delay = match self.hosts[r].parent {
            None => self.hosts[r].position.distance(&self.source),
            Some(p) => {
                let p = p as usize;
                self.hosts[p].delay + self.hosts[r].position.distance(&self.hosts[p].position)
            }
        };
        let mut refreshed = 1u64;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            let u = u as usize;
            for i in 0..self.hosts[u].children.len() {
                let c = self.hosts[u].children[i] as usize;
                let d =
                    self.hosts[u].delay + self.hosts[u].position.distance(&self.hosts[c].position);
                self.hosts[c].delay = d;
                refreshed += 1;
                stack.push(c as u32);
            }
        }
        omt_obs::obs_observe!("dynamic/refresh_size", refreshed);
    }

    /// Attaches a currently-detached host under `parent` (`None` = the
    /// source), maintaining the child list, the source out-degree counter,
    /// the open-host index, and the subtree's cached delays.
    fn attach(&mut self, child: u32, parent: Option<u32>) {
        debug_assert!(self.hosts[child as usize].parent.is_none());
        self.hosts[child as usize].parent = parent;
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
                    (self.hosts[pu].children.len() as u32) < self.max_out_degree,
                    "attaching under a full host"
                );
                self.hosts[pu].children.push(child);
                if self.hosts[pu].children.len() as u32 == self.max_out_degree {
                    self.open_remove(p);
                }
            }
        }
        self.refresh_subtree_delays(child);
    }

    /// Detaches a host from its parent, clearing its parent pointer and
    /// reversing everything [`attach`](Self::attach) maintains.
    fn detach(&mut self, slot: u32) {
        match self.hosts[slot as usize].parent.take() {
            None => self.source_children -= 1,
            Some(p) => {
                let pu = p as usize;
                let was_full = self.hosts[pu].children.len() as u32 == self.max_out_degree;
                self.hosts[pu].children.retain(|&c| c != slot);
                if was_full {
                    self.open_push(p);
                }
            }
        }
    }

    /// Adds a host and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the position is not finite (joins are a hot path; callers
    /// own input hygiene, unlike the batch builders which return errors).
    pub fn join(&mut self, position: Point2) -> HostId {
        assert!(position.is_finite(), "host position must be finite");
        let _join_span = omt_obs::obs_span!("dynamic/join");
        omt_obs::obs_count!("dynamic/joins");
        // Choose a parent: best open host in the cell, walking up the
        // ancestor-cell chain, else the source if open, else the best open
        // host globally (exists whenever the tree is nonempty and the
        // budget is ≥ 2: leaves are open).
        let parent = self.find_parent_for(&position);
        let id = HostId(self.next_id);
        self.next_id += 1;
        let cell = self.cell_of(&position) as u32;
        let host = Host {
            position,
            parent: None,
            children: Vec::new(),
            delay: 0.0,
            cell,
            alive: true,
            id,
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
        self.cell_members[cell as usize].push(slot);
        self.cell_open[cell as usize].push(slot);
        self.attach(slot, parent);
        self.live += 1;
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        id
    }

    /// Chooses the parent slot for a joining position (`None` = source).
    fn find_parent_for(&self, position: &Point2) -> Option<u32> {
        let source_open = self.source_children < self.max_out_degree;
        if let Some(p) = self.chain_candidate(position, None) {
            return Some(p);
        }
        if source_open {
            return None;
        }
        // Global fallback: any open host, preferring small delay.
        let best = self.best_open_excluding(position, None);
        assert!(best.is_some(), "a degree >= 2 tree always has an open host");
        best
    }

    /// The cheapest eligible open host along the ancestor-cell chain of
    /// `position`: its own cell's open hosts first, then each ancestor
    /// cell's, stopping at the first cell that yields a candidate. This is
    /// the cell-local state a decentralized implementation replicates.
    fn chain_candidate(
        &self,
        position: &Point2,
        banned: Option<&std::collections::HashSet<u32>>,
    ) -> Option<u32> {
        let mut cell = self.cell_of(position);
        let mut hops = 0u64;
        loop {
            if let Some((_, s)) = self.scan_cell_for(cell, position, banned) {
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
    /// skipping hosts in `banned` (the flat set of a subtree being
    /// re-homed) when given. Deterministic: first minimum wins — i.e. the
    /// winner is the lexicographic minimum of `(cost, cell, list
    /// position)`.
    fn best_open_excluding(
        &self,
        position: &Point2,
        banned: Option<&std::collections::HashSet<u32>>,
    ) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for cell in 0..self.cell_open.len() {
            if let Some((cost, s)) = self.scan_cell_for(cell, position, banned) {
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
        banned: Option<&std::collections::HashSet<u32>>,
    ) -> Option<(f64, u32)> {
        omt_obs::obs_count!("dynamic/cells_scanned");
        let mut best: Option<(f64, u32)> = None;
        let mut probes = 0u64;
        for &s in &self.cell_open[cell] {
            if banned.is_some_and(|set| set.contains(&s)) {
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
        let vacated_parent = self.hosts[su].parent;
        self.detach(slot);
        // Remove the departing host from every index before any re-homing
        // decision, so it can never be selected as a parent.
        if (self.hosts[su].children.len() as u32) < self.max_out_degree {
            self.open_remove(slot);
        }
        let cell = self.hosts[su].cell as usize;
        self.cell_members[cell].retain(|&s| s != slot);
        let children = std::mem::take(&mut self.hosts[su].children);
        self.hosts[su].alive = false;
        self.hosts[su].delay = 0.0;
        self.live -= 1;
        if !children.is_empty() {
            // Promote the orphan closest to the departed host into the
            // vacated attachment point (its subtree rides along); the
            // remaining orphans re-join through the normal search, each
            // banned from its own subtree.
            let departed_pos = self.hosts[su].position;
            let promoted = *children
                .iter()
                .min_by(|&&a, &&b| {
                    let da = self.hosts[a as usize].position.distance(&departed_pos);
                    let db = self.hosts[b as usize].position.distance(&departed_pos);
                    da.total_cmp(&db)
                })
                .expect("nonempty");
            // Detach every orphan up front: no orphan may keep a parent
            // pointer into the dead slot. Detached orphans are not source
            // children — the source out-degree counter deliberately counts
            // attached hosts only. Their cached delays (and their
            // subtrees') still describe the pre-departure tree, which is
            // exactly the score the re-homing search should use for them
            // as candidates.
            for &c in &children {
                self.hosts[c as usize].parent = None;
            }
            self.attach(promoted, vacated_parent);
            for &c in &children {
                if c == promoted {
                    continue;
                }
                let pos = self.hosts[c as usize].position;
                let parent = self.find_parent_for_excluding(&pos, c);
                self.attach(c, parent);
            }
        }
        self.free_slots.push(slot);
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        Ok(())
    }

    /// Parent search that refuses to attach inside the subtree of `banned`
    /// (which is being re-homed — attaching inside it would create a
    /// cycle). Candidates come from the same ancestor-cell chain the join
    /// path walks (the pre-change code scanned every live host here, which
    /// both made interior leaves O(n·depth) and consulted global state a
    /// decentralized node would not have), with a global scan only as the
    /// last-resort fallback. Returns `None` (= attach to the source) only
    /// when the source has spare out-degree: the previous implementation
    /// silently fell back to the source when no open candidate survived
    /// the subtree filter, which would break the degree cap whenever the
    /// source was already full.
    fn find_parent_for_excluding(&self, position: &Point2, banned: u32) -> Option<u32> {
        // Flatten the banned subtree once so each candidate check is O(1).
        let mut banned_set = std::collections::HashSet::new();
        let mut stack = vec![banned];
        while let Some(u) = stack.pop() {
            if banned_set.insert(u) {
                stack.extend(self.hosts[u as usize].children.iter().copied());
            }
        }
        let source_open = self.source_children < self.max_out_degree;
        match self
            .chain_candidate(position, Some(&banned_set))
            .or_else(|| self.best_open_excluding(position, Some(&banned_set)))
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

    /// Live slots sorted by id — i.e. in join order (ids are monotone and
    /// never reused, while slots are recycled).
    fn live_slots_in_join_order(&self) -> Vec<u32> {
        let mut live_slots: Vec<u32> = (0..self.hosts.len() as u32)
            .filter(|&s| self.hosts[s as usize].alive)
            .collect();
        live_slots.sort_by_key(|&s| self.hosts[s as usize].id);
        live_slots
    }

    /// Forces a full rebuild with [`PolarGridBuilder`].
    pub fn rebuild(&mut self) {
        let _rebuild_span = omt_obs::obs_span!("dynamic/rebuild");
        omt_obs::obs_count!("dynamic/rebuilds");
        self.churn_since_rebuild = 0;
        let live_slots = self.live_slots_in_join_order();
        let positions: Vec<Point2> = live_slots
            .iter()
            .map(|&s| self.hosts[s as usize].position)
            .collect();
        if positions.is_empty() {
            self.hosts.clear();
            self.slot_by_id.clear();
            self.free_slots.clear();
            self.cell_members = vec![Vec::new()];
            self.cell_open = vec![Vec::new()];
            self.grid = None;
            self.source_children = 0;
            return;
        }
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(self.max_out_degree)
            .build_with_report(self.source, &positions)
            .expect("live positions are finite");
        // Compact: new slot i corresponds to live_slots[i] (join order).
        let mut new_hosts: Vec<Host> = Vec::with_capacity(positions.len());
        for (i, &old) in live_slots.iter().enumerate() {
            new_hosts.push(Host {
                position: positions[i],
                parent: match tree.parent(i) {
                    ParentRef::Source => None,
                    ParentRef::Node(p) => Some(p as u32),
                },
                children: tree.children(i).to_vec(),
                delay: tree.depth(i),
                cell: 0, // assigned below once the new grid exists
                alive: true,
                id: self.hosts[old as usize].id,
            });
        }
        self.hosts = new_hosts;
        self.slot_by_id = self
            .hosts
            .iter()
            .enumerate()
            .map(|(s, h)| (h.id.0, s as u32))
            .collect();
        self.free_slots.clear();
        self.source_children = tree.source_out_degree();
        let grid = PolarGrid2::new(report.rings, {
            let rho = positions
                .iter()
                .map(|p| p.distance(&self.source))
                .fold(0.0f64, f64::max);
            if rho > 0.0 {
                rho * (1.0 + 1e-9)
            } else {
                1.0
            }
        });
        let cells = ((1u64 << (report.rings + 1)) - 1) as usize;
        let mut cell_members = vec![Vec::new(); cells];
        let mut cell_open = vec![Vec::new(); cells];
        let source = self.source;
        let max = self.max_out_degree;
        for (slot, host) in self.hosts.iter_mut().enumerate() {
            let polar = PolarPoint::from_cartesian(&(host.position - source));
            let (ring, seg) = grid.cell_of(&polar);
            let cell = ((1u64 << ring) - 1 + seg) as usize;
            host.cell = cell as u32;
            cell_members[cell].push(slot as u32);
            if (host.children.len() as u32) < max {
                cell_open[cell].push(slot as u32);
            }
        }
        self.grid = Some(grid);
        self.cell_members = cell_members;
        self.cell_open = cell_open;
    }

    /// Materializes the current membership as an immutable
    /// [`MulticastTree`] (host order = join order of live hosts).
    ///
    /// # Errors
    ///
    /// Never fails for a consistent overlay; an [`BuildError::Internal`]
    /// would indicate a bug in the maintenance logic.
    pub fn snapshot(&self) -> Result<MulticastTree<2>, BuildError> {
        let live_slots = self.live_slots_in_join_order();
        let mut slot_to_new = vec![u32::MAX; self.hosts.len()];
        for (new, &old) in live_slots.iter().enumerate() {
            slot_to_new[old as usize] = new as u32;
        }
        let positions: Vec<Point2> = live_slots
            .iter()
            .map(|&s| self.hosts[s as usize].position)
            .collect();
        let mut builder =
            TreeBuilder::new(self.source, positions).max_out_degree(self.max_out_degree);
        // Attach top-down via BFS from the source children.
        let mut queue: std::collections::VecDeque<u32> = live_slots
            .iter()
            .copied()
            .filter(|&s| self.hosts[s as usize].parent.is_none())
            .collect();
        while let Some(slot) = queue.pop_front() {
            let su = slot as usize;
            let new = slot_to_new[su] as usize;
            match self.hosts[su].parent {
                None => builder.attach_to_source(new)?,
                Some(p) => builder.attach(new, slot_to_new[p as usize] as usize)?,
            }
            for &c in &self.hosts[su].children {
                queue.push_back(c);
            }
        }
        Ok(builder.finish()?)
    }

    /// Re-verifies every maintenance invariant from scratch, panicking on
    /// the first violation. Intended for fuzzing and tests (the churn fuzz
    /// suite runs this after **every** membership event); O(n + cells).
    ///
    /// Checked: alive/dead bookkeeping (id map, free list, cleared dead
    /// slots), parent/child mutual consistency, the source out-degree
    /// counter, spanning + acyclicity + the degree budget including the
    /// source (via [`validate_parent_forest`]), cached delays, and the
    /// exactness of the cell-membership and open-host indexes.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        let n = self.hosts.len();
        let max = self.max_out_degree;
        let mut alive_count = 0usize;
        for (s, h) in self.hosts.iter().enumerate() {
            if !h.alive {
                assert!(
                    h.parent.is_none() && h.children.is_empty(),
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
            if let Some(p) = h.parent {
                assert!(
                    (p as usize) < n && self.hosts[p as usize].alive,
                    "host {s} has a dead or dangling parent {p}"
                );
            }
            assert!(
                h.children.len() as u32 <= max,
                "host {s} exceeds the out-degree budget: {} > {max}",
                h.children.len()
            );
            for &c in &h.children {
                assert!((c as usize) < n, "host {s} has dangling child {c}");
                let ch = &self.hosts[c as usize];
                assert!(ch.alive, "host {s} has dead child {c}");
                assert_eq!(
                    ch.parent,
                    Some(s as u32),
                    "child {c} does not point back to parent {s}"
                );
            }
            let expected = match h.parent {
                None => h.position.distance(&self.source),
                Some(p) => {
                    let p = p as usize;
                    self.hosts[p].delay + h.position.distance(&self.hosts[p].position)
                }
            };
            assert!(
                (h.delay - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                "host {s} cached delay {} disagrees with recomputed {expected}",
                h.delay
            );
            assert_eq!(
                h.cell as usize,
                self.cell_of(&h.position),
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
            .filter(|h| h.alive && h.parent.is_none())
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
        let live_slots = self.live_slots_in_join_order();
        let mut slot_to_new = vec![usize::MAX; n];
        for (new, &old) in live_slots.iter().enumerate() {
            slot_to_new[old as usize] = new;
        }
        let parents: Vec<Option<usize>> = live_slots
            .iter()
            .map(|&s| {
                self.hosts[s as usize]
                    .parent
                    .map(|p| slot_to_new[p as usize])
            })
            .collect();
        validate_parent_forest(&parents, Some(max)).expect("overlay topology invariant violated");
        // The cell indexes partition the membership exactly.
        let cells = self.grid.as_ref().map_or(1, PolarGrid2::cell_count);
        assert_eq!(self.cell_members.len(), cells, "cell index has wrong size");
        assert_eq!(self.cell_open.len(), cells, "open index has wrong size");
        let mut in_members = vec![false; n];
        let mut member_total = 0usize;
        for (cell, list) in self.cell_members.iter().enumerate() {
            for &s in list {
                let su = s as usize;
                let h = &self.hosts[su];
                assert!(h.alive, "cell {cell} lists dead slot {s}");
                assert_eq!(
                    h.cell as usize, cell,
                    "slot {s} listed in foreign cell {cell}"
                );
                assert!(!in_members[su], "slot {s} listed in cells twice");
                in_members[su] = true;
                member_total += 1;
            }
        }
        assert_eq!(
            member_total, self.live,
            "cell index does not cover the membership"
        );
        let mut in_open = vec![false; n];
        let mut open_total = 0usize;
        for (cell, list) in self.cell_open.iter().enumerate() {
            for &s in list {
                let su = s as usize;
                let h = &self.hosts[su];
                assert!(h.alive, "open index {cell} lists dead slot {s}");
                assert!(
                    (h.children.len() as u32) < max,
                    "open index lists full host {s}"
                );
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
            .filter(|h| h.alive && (h.children.len() as u32) < max)
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
                .find(|h| h.alive && h.parent.is_some() && h.children.len() >= 2);
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
