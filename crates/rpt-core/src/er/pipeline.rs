//! The assembled end-to-end RPT-E pipeline (Fig. 5) and its per-stage
//! evaluation.

use std::collections::HashMap;

use rpt_datagen::{ErBenchmark, Universe};
use rpt_nn::metrics::BinaryConfusion;
use rpt_table::Tuple;
use rpt_tokenizer::normalize;

use super::blocker::{Blocker, BlockingStats};
use super::cluster::{find_conflicts, transitive_closure, Clusters, Conflict};
use super::consolidate::Consolidator;
use super::matcher::Matcher;

/// The pipeline: blocker → matcher → clusterer → consolidator.
pub struct ErPipeline {
    /// The blocking stage.
    pub blocker: Blocker,
    /// The matching stage (pretrained).
    pub matcher: Matcher,
    /// The consolidation stage.
    pub consolidator: Consolidator,
    /// Within-cluster pairs scoring below this are flagged as conflicts.
    pub conflict_low: f32,
}

/// Raw artifacts of one pipeline run.
pub struct PipelineRun {
    /// Blocked candidate pairs `(a_row, b_row)`.
    pub candidates: Vec<(usize, usize)>,
    /// Matcher scores aligned with `candidates`.
    pub scores: Vec<f32>,
    /// Thresholded decisions aligned with `candidates`.
    pub decisions: Vec<bool>,
    /// Clusters over nodes `0..|A|` (side A) and `|A|..|A|+|B|` (side B).
    pub clusters: Clusters,
    /// Detected transitivity conflicts.
    pub conflicts: Vec<Conflict>,
    /// Golden record per non-trivial cluster (cluster id, record).
    pub golden_records: Vec<(usize, Tuple)>,
}

/// Per-stage quality report (the Fig. 5 experiment's rows).
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Blocking quality.
    pub blocking: BlockingStats,
    /// Matcher confusion over blocked candidates; matches lost in blocking
    /// count as false negatives.
    pub matcher: BinaryConfusion,
    /// Total clusters (including singletons).
    pub n_clusters: usize,
    /// Clusters with ≥ 2 members.
    pub n_nontrivial: usize,
    /// Transitivity conflicts flagged for review.
    pub n_conflicts: usize,
    /// Mean fraction of a non-trivial cluster owned by its majority entity.
    pub cluster_purity: f64,
    /// Pair-level precision of the clustering (cross-side pairs).
    pub pair_precision: f64,
    /// Pair-level recall of the clustering (cross-side pairs).
    pub pair_recall: f64,
    /// Fraction of golden records whose brand-like attribute equals the
    /// majority entity's canonical brand (NaN if no brand-like column).
    pub consolidation_brand_acc: f64,
}

impl ErPipeline {
    /// Assembles a pipeline around a (pre)trained matcher.
    pub fn new(blocker: Blocker, matcher: Matcher) -> Self {
        Self {
            blocker,
            matcher,
            consolidator: Consolidator::default(),
            conflict_low: 0.3,
        }
    }

    /// Runs all four stages on a benchmark.
    pub fn run(&mut self, bench: &ErBenchmark) -> PipelineRun {
        let candidates = self.blocker.candidates(&bench.table_a, &bench.table_b);
        let scores = self.matcher.score_pairs(bench, &candidates);
        let threshold = self.matcher.threshold();
        let decisions: Vec<bool> = scores.iter().map(|&s| s >= threshold).collect();

        let na = bench.table_a.len();
        let n_nodes = na + bench.table_b.len();
        let edges: Vec<(usize, usize)> = candidates
            .iter()
            .zip(decisions.iter())
            .filter(|(_, &d)| d)
            .map(|(&(i, j), _)| (i, na + j))
            .collect();
        let clusters = transitive_closure(n_nodes, &edges);

        let mut score_map: HashMap<(usize, usize), f32> = HashMap::new();
        for (&(i, j), &s) in candidates.iter().zip(scores.iter()) {
            let key = ((i).min(na + j), (i).max(na + j));
            score_map.insert(key, s);
        }
        let conflicts = find_conflicts(&clusters, &score_map, self.conflict_low);

        let mut golden_records = Vec::new();
        for (cid, members) in clusters.members.iter().enumerate() {
            if members.len() < 2 {
                continue;
            }
            let tuples: Vec<&Tuple> = members
                .iter()
                .map(|&n| {
                    if n < na {
                        bench.table_a.row(n)
                    } else {
                        bench.table_b.row(n - na)
                    }
                })
                .collect();
            let golden = self
                .consolidator
                .consolidate(bench.table_a.schema(), &tuples);
            golden_records.push((cid, golden));
        }
        PipelineRun {
            candidates,
            scores,
            decisions,
            clusters,
            conflicts,
            golden_records,
        }
    }

    /// Runs and scores the pipeline against ground truth.
    pub fn evaluate(&mut self, bench: &ErBenchmark, universe: &Universe) -> PipelineReport {
        let (_, blocking) = self.blocker.stats(bench);
        let run = self.run(bench);
        let na = bench.table_a.len();

        // matcher confusion (blocking misses are false negatives)
        let mut matcher = BinaryConfusion::default();
        let mut seen = std::collections::HashSet::new();
        for (&(i, j), &d) in run.candidates.iter().zip(run.decisions.iter()) {
            matcher.record(d, bench.is_match(i, j));
            seen.insert((i, j));
        }
        for (i, j) in bench.all_matches() {
            if !seen.contains(&(i, j)) {
                matcher.record(false, true);
            }
        }

        // pair-level clustering quality over cross-side pairs
        let mut pair_conf = BinaryConfusion::default();
        for i in 0..na {
            for j in 0..bench.table_b.len() {
                let same_cluster = run.clusters.assignment[i] == run.clusters.assignment[na + j];
                pair_conf.record(same_cluster, bench.is_match(i, j));
            }
        }

        // purity of non-trivial clusters
        let mut purity_sum = 0.0;
        let mut purity_n = 0usize;
        for members in run.clusters.non_trivial() {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for &n in members {
                let e = if n < na {
                    bench.entity_a[n]
                } else {
                    bench.entity_b[n - na]
                };
                *counts.entry(e).or_insert(0) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            purity_sum += max as f64 / members.len() as f64;
            purity_n += 1;
        }

        // consolidation: brand-like column must canonicalize correctly
        let brand_col = bench
            .table_a
            .schema()
            .names()
            .position(|n| matches!(n, "manufacturer" | "brand" | "company"));
        let mut brand_ok = 0usize;
        let mut brand_total = 0usize;
        if let Some(col) = brand_col {
            for (cid, golden) in &run.golden_records {
                let members = &run.clusters.members[*cid];
                let mut counts: HashMap<u64, usize> = HashMap::new();
                for &n in members {
                    let e = if n < na {
                        bench.entity_a[n]
                    } else {
                        bench.entity_b[n - na]
                    };
                    *counts.entry(e).or_insert(0) += 1;
                }
                let majority = *counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
                let entity = &universe.entities[majority as usize];
                let golden_brand = normalize(&golden.get(col).render());
                let canon = normalize(entity.brand().name);
                let mut ok = golden_brand == canon;
                // accepting a catalog alias is also a correct consolidation
                for alias in entity.brand().aliases {
                    if golden_brand == normalize(alias) {
                        ok = true;
                    }
                }
                brand_total += 1;
                if ok {
                    brand_ok += 1;
                }
            }
        }

        PipelineReport {
            blocking,
            matcher,
            n_clusters: run.clusters.len(),
            n_nontrivial: run.clusters.non_trivial().count(),
            n_conflicts: run.conflicts.len(),
            cluster_purity: if purity_n == 0 {
                1.0
            } else {
                purity_sum / purity_n as f64
            },
            pair_precision: pair_conf.precision(),
            pair_recall: pair_conf.recall(),
            consolidation_brand_acc: if brand_total == 0 {
                f64::NAN
            } else {
                brand_ok as f64 / brand_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::blocker::Blocker;
    use crate::er::matcher::{Matcher, MatcherConfig};
    use crate::vocabulary::build_vocab;
    use rpt_datagen::standard_benchmarks;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn end_to_end_pipeline_produces_sane_report() {
        let mut rng = SmallRng::seed_from_u64(19);
        let (universe, benches) = standard_benchmarks(25, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 3000);
        let mut cfg = MatcherConfig::tiny();
        cfg.train.steps = 120;
        let mut matcher = Matcher::new(vocab, cfg);
        let train_sets: Vec<rpt_datagen::PairSet> = benches[1..]
            .iter()
            .map(|b| b.labeled_pairs(3, &universe, &mut rng))
            .collect();
        let refs: Vec<(&rpt_datagen::ErBenchmark, &rpt_datagen::PairSet)> =
            benches[1..].iter().zip(train_sets.iter()).collect();
        matcher.train(&refs).expect("training step went non-finite");

        let mut pipeline = ErPipeline::new(Blocker::default(), matcher);
        let report = pipeline.evaluate(&benches[0], &universe);
        assert!(report.blocking.recall > 0.8);
        assert!(report.n_clusters > 0);
        assert!(
            report.cluster_purity > 0.3,
            "purity {}",
            report.cluster_purity
        );
        assert!(
            report.matcher.f1() > 0.2,
            "matcher f1 {}",
            report.matcher.f1()
        );
        // pair metrics are well-defined probabilities
        assert!((0.0..=1.0).contains(&report.pair_precision));
        assert!((0.0..=1.0).contains(&report.pair_recall));
    }

    #[test]
    fn run_produces_aligned_artifacts() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (_u, benches) = standard_benchmarks(15, &mut rng);
        let tables: Vec<&rpt_table::Table> = benches
            .iter()
            .flat_map(|b| [&b.table_a, &b.table_b])
            .collect();
        let vocab = build_vocab(&tables, &[], 1, 2000);
        let matcher = Matcher::new(vocab, MatcherConfig::tiny());
        let mut pipeline = ErPipeline::new(Blocker::default(), matcher);
        let run = pipeline.run(&benches[0]);
        assert_eq!(run.candidates.len(), run.scores.len());
        assert_eq!(run.candidates.len(), run.decisions.len());
        let n_nodes = benches[0].table_a.len() + benches[0].table_b.len();
        assert_eq!(run.clusters.assignment.len(), n_nodes);
        for (cid, _) in &run.golden_records {
            assert!(run.clusters.members[*cid].len() >= 2);
        }
    }
}
