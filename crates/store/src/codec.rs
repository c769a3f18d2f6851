//! Little-endian binary codec for the persisted payloads.
//!
//! Hand-rolled on purpose: the build environment vendors no serde, and the
//! payloads are closed sets of types owned by this workspace. Every value
//! is fixed-width little-endian (`f64` via its IEEE-754 bit pattern, so
//! round-trips are bit-exact — a requirement of the recovery parity
//! suite); collections are a `u64` length followed by the elements. There
//! is no schema inside the payload itself — framing, versioning, and
//! checksums belong to the [WAL](crate::wal) and
//! [snapshot](crate::snapshot) containers around it.

use ingrass::state::{
    ConnectivityState, EngineState, LedgerState, PrecondState, ServingState, ShardedState,
};
use ingrass::{
    DriftPolicy, FactorPolicy, LrdLevel, SetupConfig, SetupReport, UpdateConfig, UpdateOp,
};
use ingrass_linalg::CholeskyState;
use std::time::Duration;

/// A decoding failure: the bytes do not describe a value of the expected
/// shape (truncated input, bad tag, or trailing garbage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

/// Append-only byte-buffer writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
        }
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    fn duration(&mut self, d: Duration) {
        self.u64(d.as_secs());
        self.u32(d.subsec_nanos());
    }

    fn vec_u32(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    fn vec_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    fn vec_usize(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
}

/// Cursor-based reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Fails unless every byte has been consumed — trailing garbage means
    /// the payload was not produced by the matching encoder.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(CodecError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError(format!("truncated: wanted {n} more bytes")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError(format!("bad bool byte {b}"))),
        }
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| CodecError("usize overflow".into()))
    }

    /// A length prefix used to pre-allocate: additionally bounded by the
    /// bytes actually remaining, so corrupt lengths cannot trigger huge
    /// allocations before the (inevitable) truncation error.
    fn len(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_bytes.max(1))
            .map_or(true, |b| b > remaining)
        {
            return Err(CodecError(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            )));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_usize(&mut self) -> Result<Option<usize>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            b => Err(CodecError(format!("bad option tag {b}"))),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(CodecError(format!("bad option tag {b}"))),
        }
    }

    fn duration(&mut self) -> Result<Duration> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError(format!("bad subsecond nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn vec_usize(&mut self) -> Result<Vec<usize>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
}

// ---------------------------------------------------------------------------
// Update operations and configs (the WAL record payloads).
// ---------------------------------------------------------------------------

fn put_op(e: &mut Encoder, op: &UpdateOp) {
    match *op {
        UpdateOp::Insert { u, v, weight } => {
            e.u8(0);
            e.usize(u);
            e.usize(v);
            e.f64(weight);
        }
        UpdateOp::Delete { u, v } => {
            e.u8(1);
            e.usize(u);
            e.usize(v);
        }
        UpdateOp::Reweight { u, v, weight } => {
            e.u8(2);
            e.usize(u);
            e.usize(v);
            e.f64(weight);
        }
    }
}

fn get_op(d: &mut Decoder) -> Result<UpdateOp> {
    Ok(match d.u8()? {
        0 => UpdateOp::Insert {
            u: d.usize()?,
            v: d.usize()?,
            weight: d.f64()?,
        },
        1 => UpdateOp::Delete {
            u: d.usize()?,
            v: d.usize()?,
        },
        2 => UpdateOp::Reweight {
            u: d.usize()?,
            v: d.usize()?,
            weight: d.f64()?,
        },
        t => return Err(CodecError(format!("bad update-op tag {t}"))),
    })
}

/// Encodes one logged batch: the [`UpdateConfig`] it ran under plus its
/// operations (the config travels per batch because it steers the
/// include/merge/redistribute decisions replay must reproduce).
pub fn encode_batch(cfg: &UpdateConfig, ops: &[UpdateOp]) -> Vec<u8> {
    let mut e = Encoder::new();
    put_update_config(&mut e, cfg);
    e.usize(ops.len());
    for op in ops {
        put_op(&mut e, op);
    }
    e.finish()
}

/// Decodes a batch written by [`encode_batch`].
pub fn decode_batch(buf: &[u8]) -> Result<(UpdateConfig, Vec<UpdateOp>)> {
    let mut d = Decoder::new(buf);
    let cfg = get_update_config(&mut d)?;
    let n = d.len(1)?;
    let ops = (0..n).map(|_| get_op(&mut d)).collect::<Result<_>>()?;
    d.finish()?;
    Ok((cfg, ops))
}

fn put_update_config(e: &mut Encoder, cfg: &UpdateConfig) {
    e.f64(cfg.target_condition);
    e.bool(cfg.sort_by_distortion);
    e.opt_usize(cfg.filtering_level_override);
}

fn get_update_config(d: &mut Decoder) -> Result<UpdateConfig> {
    Ok(UpdateConfig {
        target_condition: d.f64()?,
        sort_by_distortion: d.bool()?,
        filtering_level_override: d.opt_usize()?,
    })
}

// ---------------------------------------------------------------------------
// Setup configuration (retained inside the engine state).
// ---------------------------------------------------------------------------

/// Writes the estimator block that leads every persisted setup config:
/// the smoothed Krylov embedding (tag 0) at its default dimension (`None`),
/// smoothed-operator tag 0 with `ω = 0.7` and 8 sweeps, embedder seed 42,
/// threads `None` — 28 bytes. The engine runs this one estimator, so the
/// block is fixed; it stays in the layout so every store of schema
/// version 1 keeps opening.
fn put_estimator(e: &mut Encoder) {
    e.u8(0);
    e.opt_usize(None);
    e.u8(0);
    e.f64(0.7);
    e.usize(8);
    e.u64(42);
    e.opt_usize(None);
}

fn put_setup_config(e: &mut Encoder, cfg: &SetupConfig) {
    put_estimator(e);
    e.f64(cfg.diameter_growth);
    e.opt_f64(cfg.initial_diameter);
    e.usize(cfg.max_levels);
    e.u64(cfg.seed);
    e.f64(cfg.drift.max_deleted_weight_fraction);
    e.f64(cfg.drift.max_distortion_fraction);
    e.u32(cfg.drift.max_cluster_staleness);
    e.bool(cfg.drift.auto_resetup);
}

fn get_setup_config(d: &mut Decoder) -> Result<SetupConfig> {
    let mut expected = Encoder::new();
    put_estimator(&mut expected);
    let expected = expected.finish();
    if d.take(expected.len())? != expected.as_slice() {
        return Err(CodecError(
            "setup config names an estimator other than the smoothed Krylov embedding".into(),
        ));
    }
    Ok(SetupConfig {
        diameter_growth: d.f64()?,
        initial_diameter: d.opt_f64()?,
        max_levels: d.usize()?,
        seed: d.u64()?,
        drift: DriftPolicy {
            max_deleted_weight_fraction: d.f64()?,
            max_distortion_fraction: d.f64()?,
            max_cluster_staleness: d.u32()?,
            auto_resetup: d.bool()?,
        },
    })
}

// ---------------------------------------------------------------------------
// Engine + serving state (the snapshot payload).
// ---------------------------------------------------------------------------

fn put_setup_report(e: &mut Encoder, r: &SetupReport) {
    e.usize(r.nodes);
    e.usize(r.edges);
    e.usize(r.levels);
    e.duration(r.resistance_time);
    e.duration(r.lrd_time);
    e.duration(r.connectivity_time);
    e.duration(r.total_time);
}

fn get_setup_report(d: &mut Decoder) -> Result<SetupReport> {
    Ok(SetupReport {
        nodes: d.usize()?,
        edges: d.usize()?,
        levels: d.usize()?,
        resistance_time: d.duration()?,
        lrd_time: d.duration()?,
        connectivity_time: d.duration()?,
        total_time: d.duration()?,
    })
}

fn put_connectivity(e: &mut Encoder, c: &ConnectivityState) {
    e.usize(c.pair_maps.len());
    for level in &c.pair_maps {
        e.usize(level.len());
        for &(a, b, id) in level {
            e.u32(a);
            e.u32(b);
            e.u32(id);
        }
    }
    e.usize(c.intra_maps.len());
    for level in &c.intra_maps {
        e.usize(level.len());
        for (cluster, ids) in level {
            e.u32(*cluster);
            e.vec_u32(ids);
        }
    }
    e.usize(c.intra_dead.len());
    for level in &c.intra_dead {
        e.usize(level.len());
        for &(cluster, dead) in level {
            e.u32(cluster);
            e.u32(dead);
        }
    }
}

fn get_connectivity(d: &mut Decoder) -> Result<ConnectivityState> {
    let levels = d.len(8)?;
    let mut pair_maps = Vec::with_capacity(levels);
    for _ in 0..levels {
        let n = d.len(12)?;
        let mut level = Vec::with_capacity(n);
        for _ in 0..n {
            level.push((d.u32()?, d.u32()?, d.u32()?));
        }
        pair_maps.push(level);
    }
    let levels = d.len(8)?;
    let mut intra_maps = Vec::with_capacity(levels);
    for _ in 0..levels {
        let n = d.len(12)?;
        let mut level = Vec::with_capacity(n);
        for _ in 0..n {
            let cluster = d.u32()?;
            level.push((cluster, d.vec_u32()?));
        }
        intra_maps.push(level);
    }
    let levels = d.len(8)?;
    let mut intra_dead = Vec::with_capacity(levels);
    for _ in 0..levels {
        let n = d.len(8)?;
        let mut level = Vec::with_capacity(n);
        for _ in 0..n {
            level.push((d.u32()?, d.u32()?));
        }
        intra_dead.push(level);
    }
    Ok(ConnectivityState {
        pair_maps,
        intra_maps,
        intra_dead,
    })
}

fn put_ledger(e: &mut Encoder, l: &LedgerState) {
    e.usize(l.inserts);
    e.usize(l.deletes);
    e.usize(l.reweights);
    e.usize(l.relinks);
    e.usize(l.vacuous);
    e.usize(l.resetups);
    e.f64(l.drift_initial_weight);
    e.usize(l.drift_nodes);
    e.f64(l.drift_deleted_weight);
    e.f64(l.drift_accumulated_distortion);
    e.usize(l.drift_stale_ops);
    e.usize(l.staleness_counts.len());
    for level in &l.staleness_counts {
        e.vec_u32(level);
    }
    e.u32(l.staleness_max);
}

fn get_ledger(d: &mut Decoder) -> Result<LedgerState> {
    Ok(LedgerState {
        inserts: d.usize()?,
        deletes: d.usize()?,
        reweights: d.usize()?,
        relinks: d.usize()?,
        vacuous: d.usize()?,
        resetups: d.usize()?,
        drift_initial_weight: d.f64()?,
        drift_nodes: d.usize()?,
        drift_deleted_weight: d.f64()?,
        drift_accumulated_distortion: d.f64()?,
        drift_stale_ops: d.usize()?,
        staleness_counts: {
            let n = d.len(8)?;
            (0..n).map(|_| d.vec_u32()).collect::<Result<_>>()?
        },
        staleness_max: d.u32()?,
    })
}

fn put_levels(e: &mut Encoder, levels: &[LrdLevel]) {
    e.usize(levels.len());
    for lvl in levels {
        e.vec_u32(&lvl.cluster_of);
        e.vec_f64(&lvl.diameter);
        e.vec_u32(&lvl.size);
        e.usize(lvl.num_clusters);
        e.f64(lvl.threshold);
    }
}

fn get_levels(d: &mut Decoder) -> Result<Vec<LrdLevel>> {
    let n = d.len(8)?;
    (0..n)
        .map(|_| {
            Ok(LrdLevel {
                cluster_of: d.vec_u32()?,
                diameter: d.vec_f64()?,
                size: d.vec_u32()?,
                num_clusters: d.usize()?,
                threshold: d.f64()?,
            })
        })
        .collect()
}

fn put_engine(e: &mut Encoder, s: &EngineState) {
    e.usize(s.num_nodes);
    put_levels(e, &s.levels);
    put_connectivity(e, &s.connectivity);
    e.usize(s.edge_slots.len());
    for slot in &s.edge_slots {
        match slot {
            None => e.u8(0),
            Some((u, v, w)) => {
                e.u8(1);
                e.u32(*u);
                e.u32(*v);
                e.f64(*w);
            }
        }
    }
    e.vec_f64(&s.surplus);
    put_setup_report(e, &s.setup_report);
    put_setup_config(e, &s.setup_cfg);
    e.usize(s.deltas.len());
    for &(u, v, dw) in &s.deltas {
        e.u32(u);
        e.u32(v);
        e.f64(dw);
    }
    put_ledger(e, &s.ledger);
    e.usize(s.updates_applied);
    e.u64(s.version);
}

fn get_engine(d: &mut Decoder) -> Result<EngineState> {
    let num_nodes = d.usize()?;
    let levels = get_levels(d)?;
    let connectivity = get_connectivity(d)?;
    let slots = d.len(1)?;
    let mut edge_slots = Vec::with_capacity(slots);
    for _ in 0..slots {
        edge_slots.push(match d.u8()? {
            0 => None,
            1 => Some((d.u32()?, d.u32()?, d.f64()?)),
            t => return Err(CodecError(format!("bad edge-slot tag {t}"))),
        });
    }
    let surplus = d.vec_f64()?;
    let setup_report = get_setup_report(d)?;
    let setup_cfg = get_setup_config(d)?;
    let ndeltas = d.len(16)?;
    let mut deltas = Vec::with_capacity(ndeltas);
    for _ in 0..ndeltas {
        deltas.push((d.u32()?, d.u32()?, d.f64()?));
    }
    Ok(EngineState {
        num_nodes,
        levels,
        connectivity,
        edge_slots,
        surplus,
        setup_report,
        setup_cfg,
        deltas,
        ledger: get_ledger(d)?,
        updates_applied: d.usize()?,
        version: d.u64()?,
    })
}

fn put_precond(e: &mut Encoder, p: &PrecondState) {
    e.usize(p.n);
    e.usize(p.ground);
    e.u64(p.epoch);
    e.usize(p.built_nnz);
    e.usize(p.order_base_nnz);
    put_cholesky(e, &p.chol);
}

fn get_precond(d: &mut Decoder) -> Result<PrecondState> {
    Ok(PrecondState {
        n: d.usize()?,
        ground: d.usize()?,
        epoch: d.u64()?,
        built_nnz: d.usize()?,
        order_base_nnz: d.usize()?,
        chol: get_cholesky(d)?,
    })
}

fn put_cholesky(e: &mut Encoder, c: &CholeskyState) {
    e.usize(c.n);
    e.vec_u32(&c.perm);
    e.vec_usize(&c.col_ptr);
    e.vec_u32(&c.row_idx);
    e.vec_f64(&c.values);
}

fn get_cholesky(d: &mut Decoder) -> Result<CholeskyState> {
    Ok(CholeskyState {
        n: d.usize()?,
        perm: d.vec_u32()?,
        col_ptr: d.vec_usize()?,
        row_idx: d.vec_u32()?,
        values: d.vec_f64()?,
    })
}

fn put_factor_policy(e: &mut Encoder, p: &FactorPolicy) {
    e.bool(p.incremental);
    e.f64(p.fill_growth);
    e.u64(p.max_updates_between_refactors);
    e.f64(p.max_patch_fraction);
    e.f64(p.order_staleness);
}

fn get_factor_policy(d: &mut Decoder) -> Result<FactorPolicy> {
    Ok(FactorPolicy {
        incremental: d.bool()?,
        fill_growth: d.f64()?,
        max_updates_between_refactors: d.u64()?,
        max_patch_fraction: d.f64()?,
        order_staleness: d.f64()?,
    })
}

/// Encodes a complete serving-layer state
/// ([`ingrass::SnapshotEngine::export_state`]) — the snapshot payload.
pub fn encode_serving(s: &ServingState) -> Vec<u8> {
    let mut e = Encoder::new();
    put_engine(&mut e, &s.engine);
    put_precond(&mut e, &s.factor);
    e.bool(s.factor_valid);
    e.u64(s.sequence);
    put_factor_policy(&mut e, &s.factor_policy);
    e.u64(s.updates_since_refactor);
    e.u64(s.factor_updates);
    e.u64(s.factor_refactors);
    e.finish()
}

/// Decodes a serving-layer state written by [`encode_serving`].
pub fn decode_serving(buf: &[u8]) -> Result<ServingState> {
    let mut d = Decoder::new(buf);
    let s = ServingState {
        engine: get_engine(&mut d)?,
        factor: get_precond(&mut d)?,
        factor_valid: d.bool()?,
        sequence: d.u64()?,
        factor_policy: get_factor_policy(&mut d)?,
        updates_since_refactor: d.u64()?,
        factor_updates: d.u64()?,
        factor_refactors: d.u64()?,
    };
    d.finish()?;
    Ok(s)
}

/// Encodes a complete sharded-coordinator state
/// ([`ingrass::ShardedEngine::export_state`]).
pub fn encode_sharded(s: &ShardedState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.usize(s.shards.len());
    for shard in &s.shards {
        put_engine(&mut e, shard);
    }
    e.vec_u32(&s.shard_of);
    e.usize(s.routing_level);
    e.usize(s.boundary_edges.len());
    for &(u, v, w) in &s.boundary_edges {
        e.u32(u);
        e.u32(v);
        e.f64(w);
    }
    put_levels(&mut e, &s.levels);
    put_setup_config(&mut e, &s.setup_cfg);
    e.usize(s.shard_count);
    e.opt_usize(s.threads);
    e.u64(s.sequence);
    e.u64(s.epoch);
    e.u64(s.version);
    e.usize(s.updates_applied);
    e.u64(s.boundary_relinks);
    e.f64(s.boundary_epoch_weight);
    e.f64(s.boundary_deleted_weight);
    e.usize(s.per_shard_ops.len());
    for &ops in &s.per_shard_ops {
        e.u64(ops);
    }
    e.finish()
}

/// Decodes a sharded-coordinator state written by [`encode_sharded`].
pub fn decode_sharded(buf: &[u8]) -> Result<ShardedState> {
    let mut d = Decoder::new(buf);
    let num_shards = d.len(8)?;
    let mut shards = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        shards.push(get_engine(&mut d)?);
    }
    let shard_of = d.vec_u32()?;
    let routing_level = d.usize()?;
    let num_boundary = d.len(16)?;
    let mut boundary_edges = Vec::with_capacity(num_boundary);
    for _ in 0..num_boundary {
        boundary_edges.push((d.u32()?, d.u32()?, d.f64()?));
    }
    let levels = get_levels(&mut d)?;
    let setup_cfg = get_setup_config(&mut d)?;
    let shard_count = d.usize()?;
    let threads = d.opt_usize()?;
    let sequence = d.u64()?;
    let epoch = d.u64()?;
    let version = d.u64()?;
    let updates_applied = d.usize()?;
    let boundary_relinks = d.u64()?;
    let boundary_epoch_weight = d.f64()?;
    let boundary_deleted_weight = d.f64()?;
    let num_ops = d.len(8)?;
    let mut per_shard_ops = Vec::with_capacity(num_ops);
    for _ in 0..num_ops {
        per_shard_ops.push(d.u64()?);
    }
    let s = ShardedState {
        shards,
        shard_of,
        routing_level,
        boundary_edges,
        levels,
        setup_cfg,
        shard_count,
        threads,
        sequence,
        epoch,
        version,
        updates_applied,
        boundary_relinks,
        boundary_epoch_weight,
        boundary_deleted_weight,
        per_shard_ops,
    };
    d.finish()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_round_trips_bit_exactly() {
        let cfg = UpdateConfig {
            target_condition: 37.5,
            sort_by_distortion: false,
            filtering_level_override: Some(3),
        };
        let ops = vec![
            UpdateOp::Insert {
                u: 1,
                v: 9,
                weight: 0.125,
            },
            UpdateOp::Delete { u: 4, v: 2 },
            UpdateOp::Reweight {
                u: 0,
                v: 7,
                weight: f64::MIN_POSITIVE,
            },
        ];
        let bytes = encode_batch(&cfg, &ops);
        let (cfg2, ops2) = decode_batch(&bytes).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(ops, ops2);
    }

    #[test]
    fn truncated_and_garbage_batches_are_rejected() {
        let bytes = encode_batch(&UpdateConfig::default(), &[UpdateOp::Delete { u: 1, v: 2 }]);
        for cut in 0..bytes.len() {
            assert!(
                decode_batch(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_batch(&padded).is_err(), "trailing byte accepted");
    }

    fn encoded(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        write(&mut e);
        e.finish()
    }

    #[test]
    fn setup_config_leads_with_the_fixed_estimator_block() {
        let cfg = SetupConfig::default().with_seed(7);
        let bytes = encoded(|e| put_setup_config(e, &cfg));
        // The block every store of schema version 1 carries.
        let block = encoded(|e| {
            e.u8(0); // Krylov
            e.opt_usize(None); // default dimension
            e.u8(0); // smoothed adjacency operator
            e.f64(0.7); // ω
            e.usize(8); // sweeps
            e.u64(42); // embedder seed
            e.opt_usize(None); // ambient threads
        });
        assert_eq!(block.len(), 28);
        assert_eq!(&bytes[..28], block.as_slice());
        let mut d = Decoder::new(&bytes);
        assert_eq!(get_setup_config(&mut d).unwrap(), cfg);
        d.finish().unwrap();
    }

    #[test]
    fn setup_configs_naming_another_estimator_are_refused() {
        let tail = encoded(|e| put_setup_config(e, &SetupConfig::default()))[28..].to_vec();
        let blocks = [
            (
                "JL",
                encoded(|e| {
                    e.u8(1);
                    e.opt_usize(None);
                    e.f64(1e-8);
                    e.usize(3000);
                    e.u64(1234);
                    e.opt_usize(None);
                }),
            ),
            ("local-only", encoded(|e| e.u8(2))),
            (
                "adjacency operator",
                encoded(|e| {
                    e.u8(0);
                    e.opt_usize(None);
                    e.u8(1);
                    e.u64(42);
                    e.opt_usize(None);
                }),
            ),
            (
                "Laplacian operator",
                encoded(|e| {
                    e.u8(0);
                    e.opt_usize(None);
                    e.u8(2);
                    e.u64(42);
                    e.opt_usize(None);
                }),
            ),
            (
                "dimension override",
                encoded(|e| {
                    e.u8(0);
                    e.opt_usize(Some(12));
                    e.u8(0);
                    e.f64(0.7);
                    e.usize(8);
                    e.u64(42);
                    e.opt_usize(None);
                }),
            ),
        ];
        for (name, mut bytes) in blocks {
            bytes.extend_from_slice(&tail);
            let mut d = Decoder::new(&bytes);
            assert!(
                get_setup_config(&mut d).is_err(),
                "a setup config naming the {name} was decoded"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_errors_without_huge_allocation() {
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.vec_f64().is_err());
    }

    fn small_sharded_state_at_width(threads: Option<usize>) -> ShardedState {
        use ingrass::{ShardedConfig, ShardedEngine, UpdateConfig};
        use ingrass_gen::{grid_2d, WeightModel};

        let h0 = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 11);
        let mut cfg = ShardedConfig::default().with_shards(2);
        cfg.threads = threads;
        let mut eng = ShardedEngine::setup(&h0, &SetupConfig::default(), &cfg).unwrap();
        eng.apply_batch(
            &[
                UpdateOp::Insert {
                    u: 0,
                    v: 63,
                    weight: 1.5,
                },
                UpdateOp::Reweight {
                    u: 0,
                    v: 1,
                    weight: 0.75,
                },
            ],
            &UpdateConfig::default(),
        )
        .unwrap();
        eng.publish().unwrap();
        eng.export_state()
    }

    fn small_sharded_state() -> ShardedState {
        small_sharded_state_at_width(None)
    }

    #[test]
    fn sharded_state_round_trips_bit_exactly() {
        // Both widths of the epoch-fenced apply path: the coordinator's
        // export format carries no trace of how many workers committed
        // the batch beyond the configured `threads` override itself.
        for threads in [Some(1), Some(4)] {
            let state = small_sharded_state_at_width(threads);
            let bytes = encode_sharded(&state);
            let decoded = decode_sharded(&bytes).unwrap();
            assert_eq!(decoded, state);
            // And the round trip is stable: re-encoding yields identical
            // bytes.
            assert_eq!(encode_sharded(&decoded), bytes);
        }
    }

    #[test]
    fn truncated_and_garbage_sharded_states_are_rejected() {
        let bytes = encode_sharded(&small_sharded_state());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                decode_sharded(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_sharded(&padded).is_err(), "trailing byte accepted");
    }
}
