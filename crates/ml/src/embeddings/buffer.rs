//! Marius-style external-memory embedding training (§5.3).
//!
//! "It is necessary to store the learnable parameters in off-GPU memory …
//! the memory required … exceeds the capacity of available main memory. In
//! Saga, we opt for external memory training with the Marius system."
//!
//! Entity embeddings are split into `P` contiguous partitions persisted as
//! files; a bounded [`PartitionBuffer`] keeps at most `c` partitions
//! resident. Edges are grouped into `(head partition, tail partition)`
//! buckets, and an epoch visits every bucket in an ordering that controls
//! how often partitions must be swapped:
//!
//! * [`BucketOrdering::RowMajor`] — naive scan; with a small buffer this
//!   thrashes (≈P² loads per epoch).
//! * [`BucketOrdering::Elementwise`] — hold one partition fixed while its
//!   partner cycles (the ordering family Marius introduced); ≈P²/c loads.
//!
//! IO is fully accounted in [`BufferStats`] so experiment E9 can compare
//! orderings and buffer sizes against in-memory training.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{Result, SagaError};

use super::model::{score_rows, EdgeList, EmbeddingConfig, EmbeddingTable, ModelKind};

/// IO accounting for one training run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Partition loads from disk.
    pub loads: usize,
    /// Dirty partition evictions (write-backs).
    pub evictions: usize,
    /// Bytes read from partition files.
    pub bytes_read: u64,
    /// Bytes written to partition files.
    pub bytes_written: u64,
}

/// The order in which `(head partition, tail partition)` edge buckets are
/// visited within an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BucketOrdering {
    /// Naive row-major bucket scan (baseline; maximal swapping).
    RowMajor,
    /// Hold-one-fixed cycling that reuses buffer contents (Marius-style).
    Elementwise,
}

/// On-disk partitioned entity-embedding store.
struct DiskPartitions {
    dir: PathBuf,
    dim: usize,
    /// Entity-index ranges: partition `p` covers `[starts[p], starts[p+1])`.
    starts: Vec<usize>,
}

impl DiskPartitions {
    fn create(
        dir: &Path,
        num_entities: usize,
        parts: usize,
        dim: usize,
        seed: u64,
    ) -> Result<Self> {
        fs::create_dir_all(dir)?;
        let parts = parts.clamp(1, num_entities.max(1));
        let chunk = num_entities.div_ceil(parts);
        let mut starts = Vec::with_capacity(parts + 1);
        for p in 0..=parts {
            starts.push((p * chunk).min(num_entities));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = 6.0f32.sqrt() / (dim as f32).sqrt();
        let me = DiskPartitions {
            dir: dir.to_path_buf(),
            dim,
            starts,
        };
        for p in 0..parts {
            let n = me.part_len(p);
            let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-bound..bound)).collect();
            me.write_part(p, &data)?;
        }
        Ok(me)
    }

    fn num_parts(&self) -> usize {
        self.starts.len() - 1
    }

    fn part_len(&self, p: usize) -> usize {
        self.starts[p + 1] - self.starts[p]
    }

    fn partition_of(&self, entity: usize) -> usize {
        // starts is sorted; linear scan is fine for the partition counts we
        // use (≤ 64), binary search otherwise.
        match self.starts.binary_search(&entity) {
            Ok(p) => p.min(self.num_parts() - 1),
            Err(ins) => ins - 1,
        }
    }

    fn path(&self, p: usize) -> PathBuf {
        self.dir.join(format!("part_{p}.bin"))
    }

    fn read_part(&self, p: usize) -> Result<Vec<f32>> {
        let mut bytes = Vec::new();
        fs::File::open(self.path(p))?.read_to_end(&mut bytes)?;
        if bytes.len() % 4 != 0 {
            return Err(SagaError::Storage(format!("partition {p} file corrupt")));
        }
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn write_part(&self, p: usize, data: &[f32]) -> Result<()> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for x in data {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        let mut f = fs::File::create(self.path(p))?;
        f.write_all(&bytes)?;
        Ok(())
    }
}

struct Resident {
    part: usize,
    data: Vec<f32>,
    dirty: bool,
    last_used: u64,
}

/// A bounded buffer of resident embedding partitions.
pub struct PartitionBuffer {
    disk: DiskPartitions,
    capacity: usize,
    resident: Vec<Resident>,
    clock: u64,
    /// IO statistics accumulated across the run.
    pub stats: BufferStats,
}

impl PartitionBuffer {
    fn new(disk: DiskPartitions, capacity: usize) -> Self {
        PartitionBuffer {
            disk,
            capacity: capacity.max(2),
            resident: Vec::new(),
            clock: 0,
            stats: BufferStats::default(),
        }
    }

    fn ensure(&mut self, wanted: &[usize]) -> Result<()> {
        for &p in wanted {
            if self.resident.iter().any(|r| r.part == p) {
                continue;
            }
            if self.resident.len() >= self.capacity {
                // Evict the least-recently-used partition not in `wanted`.
                let victim = self
                    .resident
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !wanted.contains(&r.part))
                    .min_by_key(|(_, r)| r.last_used)
                    .map(|(i, _)| i)
                    .ok_or_else(|| {
                        SagaError::Storage("buffer capacity below working set".into())
                    })?;
                let r = self.resident.swap_remove(victim);
                if r.dirty {
                    self.disk.write_part(r.part, &r.data)?;
                    self.stats.bytes_written += (r.data.len() * 4) as u64;
                    self.stats.evictions += 1;
                }
            }
            let data = self.disk.read_part(p)?;
            self.stats.loads += 1;
            self.stats.bytes_read += (data.len() * 4) as u64;
            self.clock += 1;
            self.resident.push(Resident {
                part: p,
                data,
                dirty: false,
                last_used: self.clock,
            });
        }
        Ok(())
    }

    fn touch(&mut self, part: usize) {
        self.clock += 1;
        if let Some(r) = self.resident.iter_mut().find(|r| r.part == part) {
            r.last_used = self.clock;
        }
    }

    /// Copy of the embedding row for a (resident) entity.
    fn row(&self, entity: usize) -> &[f32] {
        let p = self.disk.partition_of(entity);
        let local = entity - self.disk.starts[p];
        let dim = self.disk.dim;
        let r = self
            .resident
            .iter()
            .find(|r| r.part == p)
            .expect("row() on non-resident partition");
        &r.data[local * dim..(local + 1) * dim]
    }

    /// Add `delta` into the row of a (resident) entity.
    fn add_to_row(&mut self, entity: usize, delta: &[f32]) {
        let p = self.disk.partition_of(entity);
        let local = entity - self.disk.starts[p];
        let dim = self.disk.dim;
        let r = self
            .resident
            .iter_mut()
            .find(|r| r.part == p)
            .expect("add_to_row() on non-resident partition");
        r.dirty = true;
        for (w, d) in r.data[local * dim..(local + 1) * dim].iter_mut().zip(delta) {
            *w += d;
        }
    }

    fn flush(&mut self) -> Result<()> {
        for r in &mut self.resident {
            if r.dirty {
                self.disk.write_part(r.part, &r.data)?;
                self.stats.bytes_written += (r.data.len() * 4) as u64;
                r.dirty = false;
            }
        }
        Ok(())
    }
}

/// External-memory trainer: partitioned entity embeddings, in-memory
/// relation embeddings, bucketized epochs.
pub struct PartitionedTrainer {
    /// Model/optimization hyperparameters.
    pub config: EmbeddingConfig,
    /// Number of entity partitions on disk.
    pub num_partitions: usize,
    /// Buffer capacity in partitions (≥ 2).
    pub buffer_capacity: usize,
    /// Bucket visit order.
    pub ordering: BucketOrdering,
}

impl PartitionedTrainer {
    /// Train over `edges`, staging partitions under `dir`.
    ///
    /// Returns the assembled table (read back from disk), the epoch losses,
    /// and the IO statistics.
    pub fn train(
        &self,
        edges: &EdgeList,
        dir: &Path,
    ) -> Result<(EmbeddingTable, Vec<f32>, BufferStats)> {
        let cfg = &self.config;
        let disk = DiskPartitions::create(
            dir,
            edges.num_entities(),
            self.num_partitions,
            cfg.dim,
            cfg.seed,
        )?;
        let parts = disk.num_parts();
        let mut buffer = PartitionBuffer::new(disk, self.buffer_capacity);
        // Relations are few; they stay in memory (as in Marius).
        let mut rel_table =
            EmbeddingTable::init(0, edges.num_relations(), cfg.dim, cfg.seed ^ 0xA5A5);

        // Bucketize edges.
        let pof = |e: u32| buffer.disk.partition_of(e as usize);
        let mut buckets: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); parts * parts];
        for &(h, r, t) in &edges.edges {
            buckets[pof(h) * parts + pof(t)].push((h, r, t));
        }
        let order = bucket_order(parts, self.ordering);

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEE5);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut scratch = Scratch::new(cfg.dim);
        for _ in 0..cfg.epochs {
            let mut loss_sum = 0.0f32;
            let mut steps = 0usize;
            for &(pi, pj) in &order {
                let bucket = &buckets[pi * parts + pj];
                if bucket.is_empty() {
                    continue;
                }
                buffer.ensure(&[pi, pj])?;
                buffer.touch(pi);
                buffer.touch(pj);
                // Negative entities must come from resident partitions —
                // exactly the Marius constraint that makes buffering sound.
                let neg_pool: Vec<usize> = {
                    let d = &buffer.disk;
                    (d.starts[pi]..d.starts[pi + 1])
                        .chain(d.starts[pj]..d.starts[pj + 1])
                        .collect()
                };
                for &(h, r, t) in bucket {
                    for _ in 0..cfg.negatives.max(1) {
                        let corrupt_tail = rng.gen_bool(0.5);
                        let neg = neg_pool[rng.gen_range(0..neg_pool.len())] as u32;
                        let (nh, nt) = if corrupt_tail { (h, neg) } else { (neg, t) };
                        loss_sum += buffered_sgd_step(
                            &mut buffer,
                            &mut rel_table,
                            cfg,
                            h,
                            r,
                            t,
                            nh,
                            nt,
                            &mut scratch,
                        );
                        steps += 1;
                    }
                }
            }
            epoch_losses.push(if steps == 0 {
                0.0
            } else {
                loss_sum / steps as f32
            });
        }
        buffer.flush()?;

        // Assemble the final table from disk.
        let mut entities = Vec::with_capacity(edges.num_entities() * cfg.dim);
        for p in 0..parts {
            entities.extend(buffer.disk.read_part(p)?);
        }
        let table = EmbeddingTable {
            dim: cfg.dim,
            entities,
            relations: rel_table.relations,
        };
        Ok((table, epoch_losses, buffer.stats))
    }
}

/// Deterministic bucket visiting order for `parts` partitions.
fn bucket_order(parts: usize, ordering: BucketOrdering) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(parts * parts);
    match ordering {
        BucketOrdering::RowMajor => {
            for i in 0..parts {
                for j in 0..parts {
                    order.push((i, j));
                }
            }
        }
        BucketOrdering::Elementwise => {
            // Hold i fixed; visit (i,i), then both directions of (i,j) for
            // every j>i while {i,j} are co-resident.
            for i in 0..parts {
                order.push((i, i));
                for j in (i + 1)..parts {
                    order.push((i, j));
                    order.push((j, i));
                    order.push((j, j));
                }
            }
            // Deduplicate later visits of (j,j) while preserving order.
            let mut seen = vec![false; parts * parts];
            order.retain(|&(a, b)| {
                let k = a * parts + b;
                if seen[k] {
                    false
                } else {
                    seen[k] = true;
                    true
                }
            });
        }
    }
    order
}

struct Scratch {
    h: Vec<f32>,
    r: Vec<f32>,
    t: Vec<f32>,
    nh: Vec<f32>,
    nt: Vec<f32>,
    dh: Vec<f32>,
    dt: Vec<f32>,
    dnh: Vec<f32>,
    dnt: Vec<f32>,
}

impl Scratch {
    fn new(dim: usize) -> Self {
        let z = || vec![0.0f32; dim];
        Scratch {
            h: z(),
            r: z(),
            t: z(),
            nh: z(),
            nt: z(),
            dh: z(),
            dt: z(),
            dnh: z(),
            dnt: z(),
        }
    }
}

/// One SGD step against buffered rows. Gathers row copies, computes deltas,
/// applies them additively (so aliased rows — e.g. `nt == t` — accumulate
/// consistently).
#[allow(clippy::too_many_arguments)]
fn buffered_sgd_step(
    buffer: &mut PartitionBuffer,
    rels: &mut EmbeddingTable,
    cfg: &EmbeddingConfig,
    h: u32,
    r: u32,
    t: u32,
    nh: u32,
    nt: u32,
    s: &mut Scratch,
) -> f32 {
    let dim = cfg.dim;
    s.h.copy_from_slice(buffer.row(h as usize));
    s.t.copy_from_slice(buffer.row(t as usize));
    s.nh.copy_from_slice(buffer.row(nh as usize));
    s.nt.copy_from_slice(buffer.row(nt as usize));
    s.r.copy_from_slice(rels.rel(r));

    let pos = score_rows(cfg.kind, &s.h, &s.r, &s.t);
    let neg = score_rows(cfg.kind, &s.nh, &s.r, &s.nt);
    let lr = cfg.lr;
    let loss;
    match cfg.kind {
        ModelKind::TransE => {
            let l = (cfg.margin - pos + neg).max(0.0);
            if l <= 0.0 {
                return 0.0;
            }
            loss = l;
            for i in 0..dim {
                let g_pos = 2.0 * (s.h[i] + s.r[i] - s.t[i]);
                let g_neg = 2.0 * (s.nh[i] + s.r[i] - s.nt[i]);
                s.dh[i] = -lr * g_pos;
                s.dt[i] = lr * g_pos;
                s.dnh[i] = lr * g_neg;
                s.dnt[i] = -lr * g_neg;
                rels.relations[r as usize * dim + i] -= lr * (g_pos - g_neg);
            }
        }
        ModelKind::DistMult => {
            let gp = -1.0 / (1.0 + pos.exp()); // −σ(−pos)
            let gn = 1.0 / (1.0 + (-neg).exp()); // σ(neg)
            loss = softplus(-pos) + softplus(neg);
            for i in 0..dim {
                s.dh[i] = -lr * gp * s.r[i] * s.t[i];
                s.dt[i] = -lr * gp * s.h[i] * s.r[i];
                s.dnh[i] = -lr * gn * s.r[i] * s.nt[i];
                s.dnt[i] = -lr * gn * s.nh[i] * s.r[i];
                rels.relations[r as usize * dim + i] -=
                    lr * (gp * s.h[i] * s.t[i] + gn * s.nh[i] * s.nt[i]);
            }
        }
    }
    buffer.add_to_row(h as usize, &s.dh);
    buffer.add_to_row(t as usize, &s.dt);
    buffer.add_to_row(nh as usize, &s.dnh);
    buffer.add_to_row(nt as usize, &s.dnt);
    loss
}

fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embeddings::train::tests::structured_edges;
    use crate::embeddings::train::{evaluate, train_in_memory};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("saga_buf_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn elementwise_ordering_covers_all_buckets_once() {
        for parts in [1usize, 2, 4, 7] {
            let order = bucket_order(parts, BucketOrdering::Elementwise);
            assert_eq!(order.len(), parts * parts, "P={parts}");
            let mut seen = saga_core::FxHashSet::default();
            for b in &order {
                assert!(seen.insert(*b), "duplicate bucket {b:?}");
            }
        }
    }

    /// A dense random graph whose edge buckets cover all partition pairs —
    /// the regime where bucket ordering matters.
    fn dense_edges(n_entities: u32, n_edges: usize, seed: u64) -> EdgeList {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::default();
        el.relations.push(saga_core::intern("related_to"));
        for i in 0..n_entities {
            el.entities.push(saga_core::EntityId(u64::from(i) + 1));
        }
        for _ in 0..n_edges {
            let h = rng.gen_range(0..n_entities);
            let t = rng.gen_range(0..n_entities);
            el.edges.push((h, 0, t));
        }
        el
    }

    #[test]
    fn elementwise_loads_fewer_partitions_than_row_major() {
        let el = dense_edges(64, 600, 42);
        let cfg = EmbeddingConfig {
            epochs: 2,
            dim: 8,
            ..Default::default()
        };
        let naive = PartitionedTrainer {
            config: cfg,
            num_partitions: 8,
            buffer_capacity: 2,
            ordering: BucketOrdering::RowMajor,
        };
        let smart = PartitionedTrainer {
            ordering: BucketOrdering::Elementwise,
            ..naive
        };
        let d1 = tmpdir("naive");
        let d2 = tmpdir("smart");
        let (_, _, s_naive) = naive.train(&el, &d1).unwrap();
        let (_, _, s_smart) = smart.train(&el, &d2).unwrap();
        assert!(
            s_smart.loads < s_naive.loads,
            "elementwise {} loads vs row-major {}",
            s_smart.loads,
            s_naive.loads
        );
        let _ = fs::remove_dir_all(d1);
        let _ = fs::remove_dir_all(d2);
    }

    #[test]
    fn buffered_training_learns_comparably_to_in_memory() {
        let el = structured_edges(6, 6);
        let cfg = EmbeddingConfig {
            epochs: 40,
            dim: 16,
            lr: 0.03,
            ..Default::default()
        };
        let (mem_table, _) = train_in_memory(&el, &cfg);
        let trainer = PartitionedTrainer {
            config: cfg,
            num_partitions: 4,
            buffer_capacity: 2,
            ordering: BucketOrdering::Elementwise,
        };
        let dir = tmpdir("learn");
        let (buf_table, losses, stats) = trainer.train(&el, &dir).unwrap();
        assert!(
            losses.last().unwrap() < &losses[0],
            "buffered loss decreases"
        );
        assert!(stats.loads > 0 && stats.bytes_written > 0);
        let test: Vec<(u32, u32, u32)> = el.edges.iter().copied().take(12).collect();
        let mem_eval = evaluate(&mem_table, cfg.kind, &el, &test, 30, 5);
        let buf_eval = evaluate(&buf_table, cfg.kind, &el, &test, 30, 5);
        assert!(
            buf_eval.mrr > mem_eval.mrr * 0.5,
            "buffered quality in range: mem={:.3} buf={:.3}",
            mem_eval.mrr,
            buf_eval.mrr
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn buffer_memory_is_bounded() {
        let el = dense_edges(50, 400, 7);
        let cfg = EmbeddingConfig {
            epochs: 1,
            dim: 8,
            ..Default::default()
        };
        let trainer = PartitionedTrainer {
            config: cfg,
            num_partitions: 10,
            buffer_capacity: 2,
            ordering: BucketOrdering::Elementwise,
        };
        let dir = tmpdir("bound");
        let (_, _, stats) = trainer.train(&el, &dir).unwrap();
        // 10 partitions but only 2 resident: loads must exceed the partition
        // count, proving partitions were swapped in and out.
        assert!(stats.loads > 10, "swapping occurred: {} loads", stats.loads);
        assert!(stats.evictions > 0, "dirty partitions were written back");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn partition_roundtrip_preserves_data() {
        let dir = tmpdir("rt");
        let disk = DiskPartitions::create(&dir, 10, 3, 4, 7).unwrap();
        let orig = disk.read_part(1).unwrap();
        let mut modified = orig.clone();
        modified[0] = 123.5;
        disk.write_part(1, &modified).unwrap();
        assert_eq!(disk.read_part(1).unwrap()[0], 123.5);
        // Partition mapping is contiguous and total.
        for e in 0..10 {
            let p = disk.partition_of(e);
            assert!(e >= disk.starts[p] && e < disk.starts[p + 1]);
        }
        let _ = fs::remove_dir_all(dir);
    }
}
