//! Transitive-closure clustering (union-find) and conflict detection.
//!
//! Per §3: "when merging matching entities into clusters based on
//! transitive closure, conflict may be automatically detected within
//! clusters; such conflicts can be resolved by the users through active
//! learning". A conflict here is a pair that transitivity placed in one
//! cluster although the matcher itself scored it clearly below threshold.

use std::collections::HashMap;

/// Union-find over `0..n`.
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// The clustering result.
#[derive(Debug, Clone)]
pub struct Clusters {
    /// Cluster id of each node.
    pub assignment: Vec<usize>,
    /// Members of each cluster (singletons included).
    pub members: Vec<Vec<usize>>,
}

impl Clusters {
    /// Number of clusters (including singletons).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Clusters with at least two members.
    pub fn non_trivial(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.members.iter().filter(|m| m.len() > 1)
    }
}

/// Merges `edges` into clusters over `n_nodes` nodes via union-find.
pub fn transitive_closure(n_nodes: usize, edges: &[(usize, usize)]) -> Clusters {
    let mut uf = UnionFind::new(n_nodes);
    for &(a, b) in edges {
        assert!(
            a < n_nodes && b < n_nodes,
            "edge ({a},{b}) out of range {n_nodes}"
        );
        uf.union(a, b);
    }
    let mut cluster_of_root: HashMap<usize, usize> = HashMap::new();
    let mut assignment = vec![0usize; n_nodes];
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (node, slot) in assignment.iter_mut().enumerate() {
        let root = uf.find(node);
        let cid = *cluster_of_root.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        *slot = cid;
        members[cid].push(node);
    }
    Clusters {
        assignment,
        members,
    }
}

/// A transitivity conflict: two nodes in one cluster whose direct score is
/// below `low` — candidates for active-learning review.
#[derive(Debug, Clone, PartialEq)]
pub struct Conflict {
    /// Cluster id.
    pub cluster: usize,
    /// First node.
    pub a: usize,
    /// Second node.
    pub b: usize,
    /// The direct matcher score (None if the pair was never scored).
    pub score: Option<f32>,
}

/// Scans every within-cluster pair: if its direct score is known and below
/// `low`, it is reported as a conflict.
pub fn find_conflicts(
    clusters: &Clusters,
    scores: &HashMap<(usize, usize), f32>,
    low: f32,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    for (cid, members) in clusters.members.iter().enumerate() {
        if members.len() < 2 {
            continue;
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                if let Some(&s) = scores.get(&key) {
                    if s < low {
                        out.push(Conflict {
                            cluster: cid,
                            a,
                            b,
                            score: Some(s),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_merges_chains() {
        let c = transitive_closure(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(c.assignment[0], c.assignment[2], "0-1-2 chain merges");
        assert_eq!(c.assignment[4], c.assignment[5]);
        assert_ne!(c.assignment[0], c.assignment[3], "3 is a singleton");
        assert_eq!(c.len(), 3);
        assert_eq!(c.non_trivial().count(), 2);
    }

    #[test]
    fn every_node_is_assigned_exactly_once() {
        let c = transitive_closure(10, &[(0, 9), (3, 4), (4, 5), (9, 3)]);
        let total: usize = c.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 10);
        for (node, &cid) in c.assignment.iter().enumerate() {
            assert!(c.members[cid].contains(&node));
        }
    }

    #[test]
    fn conflicts_flag_weak_links_inside_clusters() {
        // 0-1 strong, 1-2 strong, but 0-2 directly scored weak:
        // transitivity merges all three; 0-2 is the conflict (E2 in Fig. 5).
        let c = transitive_closure(3, &[(0, 1), (1, 2)]);
        let mut scores = HashMap::new();
        scores.insert((0, 1), 0.9f32);
        scores.insert((1, 2), 0.85f32);
        scores.insert((0, 2), 0.1f32);
        let conflicts = find_conflicts(&c, &scores, 0.4);
        assert_eq!(conflicts.len(), 1);
        assert_eq!((conflicts[0].a, conflicts[0].b), (0, 2));
        assert_eq!(conflicts[0].score, Some(0.1));
    }

    #[test]
    fn unscored_pairs_are_not_conflicts() {
        let c = transitive_closure(3, &[(0, 1), (1, 2)]);
        let conflicts = find_conflicts(&c, &HashMap::new(), 0.4);
        assert!(conflicts.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        transitive_closure(2, &[(0, 5)]);
    }
}
