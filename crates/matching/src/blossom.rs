//! Exact maximum-weight matching in general graphs — Edmonds' blossom
//! algorithm in the O(n³) primal–dual formulation (Galil \[31\]).
//!
//! This is a faithful Rust port of the classic `mwmatching` formulation by
//! Joris van Rantwijk, which is also the implementation behind NetworkX's
//! `max_weight_matching` — i.e. *exactly* the routine the paper's SO-BMA
//! baseline invokes (§3.1). The port keeps the original's structure
//! (stages, dual adjustment with four delta types, blossom
//! creation/expansion, least-slack edge tracking) so that it can be audited
//! against the reference, and is validated in tests against a brute-force
//! optimum on thousands of random graphs plus an independent
//! complementary-slackness optimality certificate.
//!
//! Weights must be integers (`i64`); the algorithm then runs entirely in
//! integer arithmetic (the S-S edge slack is provably even when weights are
//! integral, which the implementation debug-asserts).

use crate::WeightedEdge;
use dcn_topology::Pair;

const NONE: usize = usize::MAX;

/// Computes a maximum-weight matching; returns `mate[v] = Some(w)` iff edge
/// `{v, w}` is matched. The matching maximizes total weight (it is *not*
/// required to have maximum cardinality). Edges with non-positive weight are
/// never matched.
///
/// Panics if an edge references a vertex `>= n` or has equal endpoints.
///
/// ```
/// use dcn_matching::{max_weight_matching, WeightedEdge};
///
/// // Path 0-1-2-3 with weights 3, 4, 3: the outer edges win (3+3 > 4).
/// let edges = [
///     WeightedEdge::new(0, 1, 3),
///     WeightedEdge::new(1, 2, 4),
///     WeightedEdge::new(2, 3, 3),
/// ];
/// let mate = max_weight_matching(4, &edges);
/// assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
/// ```
pub fn max_weight_matching(n: usize, edges: &[WeightedEdge]) -> Vec<Option<u32>> {
    for e in edges {
        assert!(e.u != e.v, "self-loop in matching input");
        assert!(
            (e.u as usize) < n && (e.v as usize) < n,
            "edge endpoint out of range"
        );
    }
    // Non-positive edges can never be part of a maximum *weight* matching;
    // dropping them early keeps the dual start value tight.
    let filtered: Vec<(usize, usize, i64)> = edges
        .iter()
        .filter(|e| e.weight > 0)
        .map(|e| (e.u as usize, e.v as usize, e.weight))
        .collect();
    if filtered.is_empty() || n == 0 {
        return vec![None; n];
    }
    let mut m = Matcher::new(n, filtered);
    m.solve();
    debug_assert!(m.verify_optimum(), "blossom optimality certificate failed");
    m.mate
        .iter()
        .map(|&p| {
            if p == NONE {
                None
            } else {
                Some(m.endpoint[p] as u32)
            }
        })
        .collect()
}

/// Like [`max_weight_matching`] but returns the matched pairs directly.
pub fn max_weight_matching_pairs(n: usize, edges: &[WeightedEdge]) -> Vec<Pair> {
    mate_pairs(&max_weight_matching(n, edges))
}

/// The matched pairs of a `mate` vector, in increasing order of their
/// lower endpoint.
pub(crate) fn mate_pairs(mate: &[Option<u32>]) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for (v, &m) in mate.iter().enumerate() {
        if let Some(w) = m {
            if (v as u32) < w {
                pairs.push(Pair::new(v as u32, w));
            }
        }
    }
    pairs
}

/// One entry of vertex `v`'s adjacency: the remote vertex `w`, the remote
/// endpoint `p` (edge `p / 2`) and the edge weight, stored inline so the
/// scan loop reads one contiguous run per vertex and never `edges[k]`.
#[derive(Clone, Copy)]
struct Neighbor {
    w: u32,
    p: u32,
    wt: i64,
}

/// Internal solver state; field names follow the reference implementation.
struct Matcher {
    nvertex: usize,
    nedge: usize,
    /// (i, j, weight) per edge.
    edges: Vec<(usize, usize, i64)>,
    /// endpoint[p]: vertex at directed endpoint p (edge p/2, side p%2).
    endpoint: Vec<usize>,
    /// The reference's `neighbend` in CSR form: vertex v's incident edges,
    /// in input edge order, are `neighbors[neighbor_start[v]..neighbor_start[v + 1]]`.
    neighbor_start: Vec<usize>,
    neighbors: Vec<Neighbor>,
    /// mate[v]: remote *endpoint* of matched edge, or NONE.
    mate: Vec<usize>,
    /// label[b] for vertex/blossom b: 0 free, 1 S, 2 T, 5 breadcrumb.
    label: Vec<u8>,
    /// labelend[b]: endpoint through which the label was acquired.
    labelend: Vec<usize>,
    /// inblossom[v]: top-level blossom containing vertex v.
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<usize>,
    blossomendps: Vec<Vec<usize>>,
    /// bestedge[b]: least-slack edge to a different S-blossom.
    bestedge: Vec<usize>,
    /// bestslack[b] = slack(bestedge[b]) whenever bestedge[b] != NONE;
    /// refreshed after every dual update, the only place slacks change.
    bestslack: Vec<i64>,
    blossombestedges: Vec<Option<Vec<usize>>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    /// Scratch buffers, empty (or all NONE) between uses.
    leaves: Vec<usize>,
    path: Vec<usize>,
    bestedgeto: Vec<usize>,
}

/// Collects the leaf vertices of blossom `b` into `out`.
fn collect_leaves(blossomchilds: &[Vec<usize>], nvertex: usize, b: usize, out: &mut Vec<usize>) {
    if b < nvertex {
        out.push(b);
    } else {
        for &t in &blossomchilds[b] {
            collect_leaves(blossomchilds, nvertex, t, out);
        }
    }
}

impl Matcher {
    fn new(nvertex: usize, edges: Vec<(usize, usize, i64)>) -> Self {
        let nedge = edges.len();
        assert!(2 * nedge <= u32::MAX as usize, "too many edges");
        let maxweight = edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        let mut endpoint = Vec::with_capacity(2 * nedge);
        for &(i, j, _) in &edges {
            endpoint.push(i);
            endpoint.push(j);
        }
        let mut neighbor_start = vec![0; nvertex + 1];
        for &(i, j, _) in &edges {
            neighbor_start[i + 1] += 1;
            neighbor_start[j + 1] += 1;
        }
        for v in 0..nvertex {
            neighbor_start[v + 1] += neighbor_start[v];
        }
        let mut fill = neighbor_start[..nvertex].to_vec();
        let mut neighbors = vec![Neighbor { w: 0, p: 0, wt: 0 }; 2 * nedge];
        for (k, &(i, j, wt)) in edges.iter().enumerate() {
            let k = k as u32;
            neighbors[fill[i]] = Neighbor {
                w: j as u32,
                p: 2 * k + 1,
                wt,
            };
            fill[i] += 1;
            neighbors[fill[j]] = Neighbor {
                w: i as u32,
                p: 2 * k,
                wt,
            };
            fill[j] += 1;
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0, nvertex));
        Self {
            nvertex,
            nedge,
            edges,
            endpoint,
            neighbor_start,
            neighbors,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![Vec::new(); 2 * nvertex],
            blossombase: (0..nvertex)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![Vec::new(); 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            bestslack: vec![0; 2 * nvertex],
            blossombestedges: vec![None; 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            dualvar,
            allowedge: vec![false; nedge],
            queue: Vec::new(),
            leaves: Vec::new(),
            path: Vec::new(),
            bestedgeto: vec![NONE; 2 * nvertex],
        }
    }

    /// Slack of edge k: π_i + π_j − 2·w_k (non-negative for tight duals).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// Sets `bestedge[b] = k` with its current slack.
    #[inline]
    fn set_bestedge(&mut self, b: usize, k: usize, kslack: i64) {
        self.bestedge[b] = k;
        self.bestslack[b] = kslack;
    }

    /// Assigns label `t` to vertex `w` (through endpoint `p`), propagating
    /// S-labels to mates of T-labeled bases.
    fn assign_label(&mut self, w: usize, t: u8, p: usize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            collect_leaves(&self.blossomchilds, self.nvertex, b, &mut self.queue);
        } else if t == 2 {
            let base = self.blossombase[b];
            debug_assert!(self.mate[base] != NONE);
            let mate_ep = self.mate[base];
            self.assign_label(self.endpoint[mate_ep], 1, mate_ep ^ 1);
        }
    }

    /// Traces back from S-vertices `v` and `w`; returns the base of a new
    /// blossom (common ancestor) or NONE if an augmenting path was found.
    fn scan_blossom(&mut self, mut v: usize, mut w: usize) -> usize {
        let mut path = std::mem::take(&mut self.path);
        let mut base = NONE;
        while v != NONE || w != NONE {
            let mut b = self.inblossom[v];
            if self.label[b] & 4 != 0 {
                base = self.blossombase[b];
                break;
            }
            debug_assert_eq!(self.label[b], 1);
            path.push(b);
            self.label[b] = 5;
            debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b]]);
            if self.labelend[b] == NONE {
                v = NONE;
            } else {
                v = self.endpoint[self.labelend[b]];
                b = self.inblossom[v];
                debug_assert_eq!(self.label[b], 2);
                debug_assert!(self.labelend[b] != NONE);
                v = self.endpoint[self.labelend[b]];
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for b in path.drain(..) {
            self.label[b] = 1;
        }
        self.path = path;
        base
    }

    /// Offers edge `k2`, whose endpoint outside new blossom `b` is `far`, as
    /// the least-slack edge from `b` to `far`'s S-blossom.
    #[inline]
    fn offer_bestedge(&self, b: usize, k2: usize, far: usize, bestedgeto: &mut [usize]) {
        let bj = self.inblossom[far];
        if bj != b
            && self.label[bj] == 1
            && (bestedgeto[bj] == NONE || self.slack(k2) < self.slack(bestedgeto[bj]))
        {
            bestedgeto[bj] = k2;
        }
    }

    /// Creates a new blossom with the given base, closed by edge `k`.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        self.blossombase[b] = base;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b;

        // Build the child and endpoint lists in place (a recycled blossom
        // id keeps its lists' capacity).
        let mut path = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        debug_assert!(path.is_empty() && endps.is_empty());
        while bv != bb {
            self.blossomparent[bv] = b;
            path.push(bv);
            endps.push(self.labelend[bv]);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv]])
            );
            debug_assert!(self.labelend[bv] != NONE);
            v = self.endpoint[self.labelend[bv]];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw]])
            );
            debug_assert!(self.labelend[bw] != NONE);
            w = self.endpoint[self.labelend[bw]];
            bw = self.inblossom[w];
        }

        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;

        // Relabel the blossom's vertices; former T-vertices become S.
        let mut leaves = std::mem::take(&mut self.leaves);
        collect_leaves(&self.blossomchilds, self.nvertex, b, &mut leaves);
        for &lv in &leaves {
            if self.label[self.inblossom[lv]] == 2 {
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }

        // Merge least-slack edge lists of the sub-blossoms.
        let mut bestedgeto = std::mem::take(&mut self.bestedgeto);
        for c in 0..self.blossomchilds[b].len() {
            let bv = self.blossomchilds[b][c];
            match self.blossombestedges[bv].take() {
                Some(list) => {
                    for &k2 in &list {
                        let (i, j, _) = self.edges[k2];
                        let far = if self.inblossom[j] == b { i } else { j };
                        self.offer_bestedge(b, k2, far, &mut bestedgeto);
                    }
                }
                None => {
                    leaves.clear();
                    collect_leaves(&self.blossomchilds, self.nvertex, bv, &mut leaves);
                    for &lv in &leaves {
                        for a in self.neighbor_start[lv]..self.neighbor_start[lv + 1] {
                            let nb = self.neighbors[a];
                            self.offer_bestedge(
                                b,
                                nb.p as usize / 2,
                                nb.w as usize,
                                &mut bestedgeto,
                            );
                        }
                    }
                }
            }
            self.bestedge[bv] = NONE;
        }
        leaves.clear();
        self.leaves = leaves;
        let mut bel = Vec::new();
        self.bestedge[b] = NONE;
        for slot in bestedgeto.iter_mut().filter(|k2| **k2 != NONE) {
            let k2 = std::mem::replace(slot, NONE);
            bel.push(k2);
            let kslack = self.slack(k2);
            if self.bestedge[b] == NONE || kslack < self.bestslack[b] {
                self.set_bestedge(b, k2, kslack);
            }
        }
        self.bestedgeto = bestedgeto;
        self.blossombestedges[b] = Some(bel);
    }

    /// Expands (dissolves) blossom `b`; if `endstage` is false, `b` is a
    /// T-blossom being expanded mid-stage and its children are relabeled.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        // Nothing below reads b's own lists (its leaves already point at the
        // children), so they are taken out and handed back cleared.
        let mut childs = std::mem::take(&mut self.blossomchilds[b]);
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut lvs = std::mem::take(&mut self.leaves);
                collect_leaves(&self.blossomchilds, self.nvertex, s, &mut lvs);
                for lv in lvs.drain(..) {
                    self.inblossom[lv] = s;
                }
                self.leaves = lvs;
            }
        }
        if !endstage && self.label[b] == 2 {
            let endps = std::mem::take(&mut self.blossomendps[b]);
            let len = childs.len() as isize;
            let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
            debug_assert!(self.labelend[b] != NONE);
            let entrychild = self.inblossom[self.endpoint[self.labelend[b] ^ 1]];
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entry child in blossom") as isize;
            let (jstep, endptrick): (isize, usize) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = endps[idx(j - endptrick as isize)] ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p);
                // Step to the next S-sub-blossom; its edges become allowed.
                self.allowedge[endps[idx(j - endptrick as isize)] / 2] = true;
                j += jstep;
                p = endps[idx(j - endptrick as isize)] ^ endptrick;
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping to its mate.
            let bv = childs[idx(j)];
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            // Continue along the blossom until back at entrychild, labeling
            // reached sub-blossoms T.
            j += jstep;
            while childs[idx(j)] != entrychild {
                let bv = childs[idx(j)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut lvs = std::mem::take(&mut self.leaves);
                collect_leaves(&self.blossomchilds, self.nvertex, bv, &mut lvs);
                let reached = lvs.iter().copied().find(|&v| self.label[v] != 0);
                lvs.clear();
                self.leaves = lvs;
                if let Some(v) = reached {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base_mate = self.mate[self.blossombase[bv]];
                    self.label[self.endpoint[base_mate]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
            self.blossomendps[b] = endps;
        }
        // Recycle the blossom id.
        childs.clear();
        self.blossomchilds[b] = childs;
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomendps[b].clear();
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = None;
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    /// Swaps matched/unmatched edges along the path from vertex `v` (inside
    /// blossom `b`) to the blossom base, then rotates the blossom so `v`
    /// becomes the base.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b {
            t = self.blossomparent[t];
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        // The recursive calls below touch only sub-blossoms' lists.
        let mut childs = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        let len = childs.len() as isize;
        let idx = |j: isize| -> usize { j.rem_euclid(len) as usize };
        let i = childs
            .iter()
            .position(|&c| c == t)
            .expect("child in blossom");
        let mut j = i as isize;
        let (jstep, endptrick): (isize, usize) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t1 = childs[idx(j)];
            let p = endps[idx(j - endptrick as isize)] ^ endptrick;
            if t1 >= self.nvertex {
                self.augment_blossom(t1, self.endpoint[p]);
            }
            j += jstep;
            let t2 = childs[idx(j)];
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = p ^ 1;
            self.mate[self.endpoint[p ^ 1]] = p;
        }
        childs.rotate_left(i);
        endps.rotate_left(i);
        self.blossombase[b] = self.blossombase[childs[0]];
        self.blossomchilds[b] = childs;
        self.blossomendps[b] = endps;
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Augments the matching along the path through tight edge `k`.
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs]]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs]];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] != NONE);
                s = self.endpoint[self.labelend[bt]];
                let j = self.endpoint[self.labelend[bt] ^ 1];
                debug_assert_eq!(self.blossombase[bt], t);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = self.labelend[bt] ^ 1;
            }
        }
    }

    /// Scans S-vertex `v`'s incident edges (the hot loop). Returns true if
    /// it augmented the matching, which ends the stage.
    fn scan_vertex(&mut self, v: usize) -> bool {
        debug_assert_eq!(self.label[self.inblossom[v]], 1);
        // Vertex duals change only in the dual update, never mid-scan; v's
        // blossom changes only when an edge closes a new blossom.
        let dv = self.dualvar[v];
        let mut bv = self.inblossom[v];
        for a in self.neighbor_start[v]..self.neighbor_start[v + 1] {
            let Neighbor { w, p, wt } = self.neighbors[a];
            let (w, p) = (w as usize, p as usize);
            let k = p / 2;
            let bw = self.inblossom[w];
            if bv == bw {
                continue;
            }
            let mut kslack = 0;
            if !self.allowedge[k] {
                kslack = dv + self.dualvar[w] - 2 * wt;
                debug_assert_eq!(kslack, self.slack(k));
                if kslack <= 0 {
                    self.allowedge[k] = true;
                }
            }
            let lw = self.label[bw];
            if self.allowedge[k] {
                if lw == 0 {
                    self.assign_label(w, 2, p ^ 1);
                } else if lw == 1 {
                    let base = self.scan_blossom(v, w);
                    if base == NONE {
                        self.augment_matching(k);
                        return true;
                    }
                    self.add_blossom(base, k);
                    bv = self.inblossom[v];
                } else if self.label[w] == 0 {
                    debug_assert_eq!(lw, 2);
                    self.label[w] = 2;
                    self.labelend[w] = p ^ 1;
                }
            } else if lw == 1 {
                if self.bestedge[bv] == NONE || kslack < self.bestslack[bv] {
                    self.set_bestedge(bv, k, kslack);
                }
            } else if self.label[w] == 0 && (self.bestedge[w] == NONE || kslack < self.bestslack[w])
            {
                self.set_bestedge(w, k, kslack);
            }
        }
        false
    }

    /// Main loop: up to `nvertex` augmentation stages.
    fn solve(&mut self) {
        for _ in 0..self.nvertex {
            self.label.fill(0);
            self.bestedge.fill(NONE);
            for be in &mut self.blossombestedges[self.nvertex..] {
                *be = None;
            }
            self.allowedge.fill(false);
            self.queue.clear();
            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while !augmented {
                    let Some(v) = self.queue.pop() else { break };
                    augmented = self.scan_vertex(v);
                }
                if augmented {
                    break;
                }

                // Dual adjustment: pick the smallest of the four delta types.
                let mut deltatype = 1;
                let mut delta = self.dualvar[..self.nvertex]
                    .iter()
                    .copied()
                    .min()
                    .expect("nvertex > 0");
                let mut deltaedge = NONE;
                let mut deltablossom = NONE;
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.bestslack[v];
                        debug_assert_eq!(d, self.slack(self.bestedge[v]));
                        if d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                for b in 0..2 * self.nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.bestslack[b];
                        debug_assert_eq!(kslack, self.slack(self.bestedge[b]));
                        debug_assert!(
                            kslack % 2 == 0,
                            "S-S slack must be even for integer weights"
                        );
                        let d = kslack / 2;
                        if d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] != NONE
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && self.dualvar[b] < delta
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }

                // Update dual variables.
                for v in 0..self.nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] != NONE && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                for b in 0..2 * self.nvertex {
                    if self.bestedge[b] != NONE {
                        self.bestslack[b] = self.slack(self.bestedge[b]);
                    }
                }

                match deltatype {
                    1 => break, // optimum reached
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!("invalid delta type"),
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand S-blossoms whose dual fell to zero.
            for b in self.nvertex..2 * self.nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] != NONE
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }

    /// Complementary-slackness certificate: verifies the final matching and
    /// duals satisfy the LP optimality conditions. Returns true on success
    /// (used by debug assertions and tests).
    fn verify_optimum(&self) -> bool {
        if self.dualvar[..self.nvertex]
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            < 0
        {
            return false;
        }
        for k in 0..self.nedge {
            let (i, j, wt) = self.edges[k];
            let mut s = self.dualvar[i] + self.dualvar[j] - 2 * wt;
            let chain = |mut b: usize| {
                let mut list = vec![b];
                while self.blossomparent[b] != NONE {
                    b = self.blossomparent[b];
                    list.push(b);
                }
                list.reverse();
                list
            };
            let bi = chain(i);
            let bj = chain(j);
            for (x, y) in bi.iter().zip(bj.iter()) {
                if x != y {
                    break;
                }
                s += 2 * self.dualvar[*x];
            }
            if s < 0 {
                return false;
            }
            let matched_i = self.mate[i] != NONE && self.mate[i] / 2 == k;
            let matched_j = self.mate[j] != NONE && self.mate[j] / 2 == k;
            if (matched_i || matched_j) && !(matched_i && matched_j && s == 0) {
                return false;
            }
        }
        // Free vertices must have zero dual; blossoms with positive dual must
        // be full (odd endpoint list, alternately matched).
        for v in 0..self.nvertex {
            if self.mate[v] == NONE && self.dualvar[v] != 0 {
                return false;
            }
        }
        for b in self.nvertex..2 * self.nvertex {
            if self.blossombase[b] != NONE && self.dualvar[b] > 0 {
                if self.blossomendps[b].len() % 2 != 1 {
                    return false;
                }
                for p in self.blossomendps[b].iter().skip(1).step_by(2) {
                    if self.mate[self.endpoint[*p]] != p ^ 1 {
                        return false;
                    }
                    if self.mate[self.endpoint[p ^ 1]] != *p {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_max_weight_matching;
    use crate::greedy::matching_weight;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn we(u: u32, v: u32, w: i64) -> WeightedEdge {
        WeightedEdge::new(u, v, w)
    }

    fn weight_of(n: usize, edges: &[WeightedEdge]) -> i64 {
        let pairs = max_weight_matching_pairs(n, edges);
        matching_weight(&pairs, edges)
    }

    #[test]
    fn empty_and_trivial() {
        assert_eq!(max_weight_matching(0, &[]), Vec::<Option<u32>>::new());
        assert_eq!(max_weight_matching(3, &[]), vec![None, None, None]);
        let mate = max_weight_matching(2, &[we(0, 1, 5)]);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn path_picks_heavier_endpoint_pairs() {
        // 0-1 (3), 1-2 (4), 2-3 (3): optimum is {0-1, 2-3} with weight 6.
        let edges = [we(0, 1, 3), we(1, 2, 4), we(2, 3, 3)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn prefers_weight_over_cardinality() {
        // Middle edge so heavy that a single edge beats two.
        let edges = [we(0, 1, 2), we(1, 2, 10), we(2, 3, 2)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![None, Some(2), Some(1), None]);
    }

    #[test]
    fn creates_s_blossom_and_uses_it() {
        // van-Rantwijk-style S-blossom case (0-indexed):
        // triangle 0-1-2 plus pendant 2-3.
        let edges = [we(0, 1, 8), we(0, 2, 9), we(1, 2, 10), we(2, 3, 7)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
    }

    #[test]
    fn s_blossom_with_expansion() {
        // Triangle + two pendants forcing blossom expansion:
        // edges (0,1,8),(0,2,9),(1,2,10),(2,3,7),(0,5,5),(3,4,6).
        let edges = [
            we(0, 1, 8),
            we(0, 2, 9),
            we(1, 2, 10),
            we(2, 3, 7),
            we(0, 5, 5),
            we(3, 4, 6),
        ];
        let mate = max_weight_matching(6, &edges);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn t_blossom_relabel_cases() {
        // Three classic T-blossom expansion cases (0-indexed from the
        // reference test suite).
        let e1 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 4),
            we(0, 5, 3),
        ];
        let m1 = max_weight_matching(6, &e1);
        assert_eq!(
            m1,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );

        let e2 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 3),
            we(0, 5, 4),
        ];
        let m2 = max_weight_matching(6, &e2);
        assert_eq!(
            m2,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );

        let e3 = [
            we(0, 1, 9),
            we(0, 2, 8),
            we(1, 2, 10),
            we(0, 3, 5),
            we(3, 4, 3),
            we(2, 5, 4),
        ];
        let m3 = max_weight_matching(6, &e3);
        assert_eq!(
            m3,
            vec![Some(1), Some(0), Some(5), Some(4), Some(3), Some(2)]
        );
    }

    #[test]
    fn nested_s_blossom() {
        // Nested S-blossom used for augmentation (reference t41, 0-indexed):
        let edges = [
            we(0, 1, 9),
            we(0, 2, 9),
            we(1, 2, 10),
            we(1, 3, 8),
            we(2, 4, 8),
            we(3, 4, 10),
            we(4, 5, 6),
        ];
        let mate = max_weight_matching(6, &edges);
        assert_eq!(
            mate,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn nested_blossom_expands_to_augmenting_path() {
        // Reference t45 (0-indexed): create nested blossom, relabel as T in
        // more than one way, expand outer blossom.
        let edges = [
            we(0, 1, 45),
            we(0, 4, 45),
            we(1, 2, 50),
            we(2, 3, 45),
            we(3, 4, 50),
            we(0, 5, 30),
            we(2, 8, 35),
            we(4, 7, 35),
            we(4, 6, 26),
            we(7, 8, 5),
        ];
        let mate = max_weight_matching(9, &edges);
        // Verify optimal weight against brute force rather than a fixed
        // mate vector (ties can resolve differently).
        let pairs = max_weight_matching_pairs(9, &edges);
        let (opt_w, _) = brute_force_max_weight_matching(9, &edges);
        assert_eq!(matching_weight(&pairs, &edges), opt_w);
        // All vertices of the path should be matched.
        assert!(mate[0].is_some() && mate[2].is_some() && mate[4].is_some());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(20240610);
        for trial in 0..200 {
            let n = 4 + (trial % 5); // 4..8 vertices
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(0.55) {
                        edges.push(we(u, v, rng.random_range(1..40)));
                    }
                }
            }
            if edges.len() > 24 {
                edges.truncate(24);
            }
            let (opt_w, _) = brute_force_max_weight_matching(n, &edges);
            let got = weight_of(n, &edges);
            assert_eq!(
                got, opt_w,
                "trial {trial}: blossom {got} != brute {opt_w} on {edges:?}"
            );
        }
    }

    #[test]
    fn mate_vector_is_symmetric() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = 10;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.random_bool(0.4) {
                        edges.push(we(u, v, rng.random_range(1..100)));
                    }
                }
            }
            let mate = max_weight_matching(n, &edges);
            for (v, &m) in mate.iter().enumerate() {
                if let Some(w) = m {
                    assert_eq!(mate[w as usize], Some(v as u32), "asymmetric mate at {v}");
                }
            }
        }
    }

    #[test]
    fn ignores_nonpositive_edges() {
        let edges = [we(0, 1, -5), we(1, 2, 0), we(2, 3, 7)];
        let mate = max_weight_matching(4, &edges);
        assert_eq!(mate, vec![None, None, Some(3), Some(2)]);
    }

    #[test]
    fn large_random_graph_terminates_and_is_valid() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 60;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(0.3) {
                    edges.push(we(u, v, rng.random_range(1..1000)));
                }
            }
        }
        let mate = max_weight_matching(n, &edges);
        let matched = mate.iter().flatten().count();
        assert!(
            matched >= n / 2,
            "dense random graph should match most vertices"
        );
        for (v, &m) in mate.iter().enumerate() {
            if let Some(w) = m {
                assert_eq!(mate[w as usize], Some(v as u32));
            }
        }
    }
}
