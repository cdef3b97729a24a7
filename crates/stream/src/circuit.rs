//! The delta circuit: a compiled `QuerySpec` maintained incrementally.

use crate::acc::RetractableAcc;
use rqp_common::expr::BoundExpr;
use rqp_common::{DataType, Field, Result, Row, RqpError, Schema, SharedClock, Value};
use rqp_exec::AggFunc;
use rqp_opt::QuerySpec;
use rqp_storage::changelog::{ChangeOp, ChangeRecord};
use rqp_storage::Catalog;
use std::collections::{BTreeMap, HashMap};

/// What one batch of changelog records did to the view: the rows a
/// subscriber inserts into and retracts from its copy. Both lists are
/// canonically ordered (full-row comparison), so packets are deterministic
/// regardless of internal hash-index iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaPacket {
    /// Epoch of the last changelog record folded into this packet.
    pub epoch: u64,
    /// Rows to add to the view (duplicates mean multiplicity).
    pub inserted: Vec<Row>,
    /// Rows to remove from the view.
    pub retracted: Vec<Row>,
}

impl DeltaPacket {
    /// True if the batch changed nothing visible.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.retracted.is_empty()
    }

    /// Total rows moved (inserted + retracted).
    pub fn delta_rows(&self) -> usize {
        self.inserted.len() + self.retracted.len()
    }
}

/// Sort rows into the canonical (full-row `total_cmp`) order used for
/// view-consistency comparison — a maintained view is an unordered
/// multiset, so both it and a from-scratch run are compared canonically.
pub fn canonicalize(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// One base-table input: bound local filter over the qualified schema.
#[derive(Debug)]
struct TableInput {
    name: String,
    schema: Schema,
    /// `None` when the predicate is trivially TRUE.
    filter: Option<BoundExpr>,
}

/// A weighted row multiset keyed by join key.
type DeltaIndex = HashMap<Vec<Value>, HashMap<Row, i64>>;

/// One left-deep join stage: the accumulated intermediate (left) against
/// the next base table (right), with a delta index per side.
#[derive(Debug)]
struct JoinStage {
    /// Key column positions in the accumulated intermediate schema.
    left_key: Vec<usize>,
    /// Key column positions in the right table's qualified schema.
    right_key: Vec<usize>,
    left_index: DeltaIndex,
    right_index: DeltaIndex,
}

/// The aggregation stage: per-group retractable accumulators.
#[derive(Debug)]
struct AggStage {
    /// Group column positions in the joined schema.
    group_cols: Vec<usize>,
    /// `(function, input column position)` per aggregate.
    aggs: Vec<(AggFunc, Option<usize>)>,
    /// Group key → (weighted row count, per-aggregate state). Ordered by
    /// key so snapshots come out in `HashAggOp`'s sorted-group order.
    groups: BTreeMap<Vec<Value>, (i64, Vec<RetractableAcc>)>,
}

impl AggStage {
    /// The group's current output row (group key ++ aggregate values),
    /// pre-projection; `None` when the group has no rows (a global
    /// aggregate — empty `group_cols` — always has an output row, matching
    /// `HashAggOp` over empty input).
    fn output(&self, key: &[Value]) -> Option<Row> {
        let empty = (0, vec![RetractableAcc::new(); self.aggs.len()]);
        let (rows, accs) = match self.groups.get(key) {
            Some(g) => g,
            None if self.group_cols.is_empty() => &empty,
            None => return None,
        };
        if *rows <= 0 && !self.group_cols.is_empty() {
            return None;
        }
        let mut out = key.to_vec();
        out.extend(self.aggs.iter().zip(accs).map(|((f, _), a)| a.finish(*f)));
        Some(out)
    }
}

/// Per-`apply` scratch: rows emitted so far plus, for aggregates, each
/// touched group's output *before* the batch (computed at first touch, so
/// one coalesced retract/insert pair is emitted per group per packet).
#[derive(Default)]
struct PacketAcc {
    inserted: Vec<Row>,
    retracted: Vec<Row>,
    touched: BTreeMap<Vec<Value>, Option<Row>>,
}

/// A compiled standing query: delta-aware filter → joins → aggregation →
/// projection, plus the maintained view itself. See the crate docs for the
/// view-consistency contract.
#[derive(Debug)]
pub struct ViewCircuit {
    spec: QuerySpec,
    /// Base inputs in left-deep join order (connectivity-greedy over the
    /// spec's declaration order).
    inputs: Vec<TableInput>,
    stages: Vec<JoinStage>,
    agg: Option<AggStage>,
    /// Output column positions (into the joined or aggregate schema);
    /// `None` keeps everything.
    projection: Option<Vec<usize>>,
    /// The final output schema (post-projection).
    out_schema: Schema,
    /// Maintained multiset for non-aggregate views (post-projection rows
    /// with net weights, in canonical order). Aggregate views are derived
    /// from the `AggStage` groups instead.
    view: BTreeMap<Row, i64>,
    /// One past the epoch of the last record folded in.
    cursor: u64,
}

/// Resolve `name` in `schema`: exact match (specs use qualified names, agg
/// aliases are unqualified) — the same `Schema::index_of` contract the
/// batch operators use.
fn resolve(schema: &Schema, name: &str) -> Result<usize> {
    schema.index_of(name)
}

impl ViewCircuit {
    /// Compile `spec` against `catalog` into an empty circuit (no rows
    /// folded in yet; see [`load_initial`](Self::load_initial)).
    ///
    /// Rejects `ORDER BY`/`LIMIT` specs: a standing view is an unordered
    /// multiset maintained under retraction, where "the first k" is not a
    /// stable notion. Subscribers order/truncate on their side.
    pub fn compile(spec: &QuerySpec, catalog: &Catalog) -> Result<ViewCircuit> {
        spec.validate()?;
        if !spec.order_by.is_empty() || spec.limit.is_some() {
            return Err(RqpError::Invalid(
                "standing subscriptions maintain unordered views; ORDER BY/LIMIT are not supported — order on the subscriber side".into(),
            ));
        }
        // Left-deep join order: declaration order, reordered greedily so
        // every table joins a connected prefix (validate() guarantees the
        // join graph is connected, so this always succeeds).
        let mut order: Vec<String> = vec![spec.tables[0].clone()];
        let mut remaining: Vec<String> = spec.tables[1..].to_vec();
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|t| {
                    spec.joins
                        .iter()
                        .any(|e| order.iter().any(|o| e.connects(o, t)))
                })
                .expect("validated join graph is connected");
            order.push(remaining.remove(pos));
        }
        let mut inputs = Vec::with_capacity(order.len());
        for name in &order {
            let table = catalog.table(name)?;
            let schema = table.qualified_schema();
            let pred = spec.local_pred(name);
            let filter = if pred == rqp_common::Expr::true_() {
                None
            } else {
                Some(pred.bind(&schema)?)
            };
            inputs.push(TableInput { name: name.clone(), schema, filter });
        }
        // Join stages with key positions; the intermediate schema grows by
        // one table per stage.
        let mut joined_fields: Vec<Field> = inputs[0].schema.fields().to_vec();
        let mut stages = Vec::with_capacity(order.len().saturating_sub(1));
        for (s, input) in inputs.iter().enumerate().skip(1) {
            let acc_schema = Schema::new(joined_fields.clone());
            let mut left_key = Vec::new();
            let mut right_key = Vec::new();
            for e in &spec.joins {
                if let Some(o) = e.oriented_from(&input.name) {
                    if order[..s].contains(&o.right_table) {
                        right_key.push(resolve(&input.schema, &o.left_qualified())?);
                        left_key.push(resolve(&acc_schema, &o.right_qualified())?);
                    }
                }
            }
            debug_assert!(!left_key.is_empty(), "greedy order guarantees an edge");
            stages.push(JoinStage {
                left_key,
                right_key,
                left_index: HashMap::new(),
                right_index: HashMap::new(),
            });
            joined_fields.extend(input.schema.fields().iter().cloned());
        }
        let joined_schema = Schema::new(joined_fields);
        // Aggregation binding mirrors HashAggOp::new (including output
        // field types), then projection resolves over the aggregate's
        // output schema — the same stacking order as the batch planner.
        let (agg, pre_proj_schema) = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
            let mut group_cols = Vec::with_capacity(spec.group_by.len());
            let mut fields: Vec<Field> = Vec::new();
            for g in &spec.group_by {
                let i = resolve(&joined_schema, g)?;
                group_cols.push(i);
                fields.push(joined_schema.field(i).clone());
            }
            let mut aggs = Vec::with_capacity(spec.aggs.len());
            for a in &spec.aggs {
                let col = a
                    .col
                    .as_deref()
                    .map(|c| resolve(&joined_schema, c))
                    .transpose()?;
                let dtype = match a.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                    AggFunc::Min | AggFunc::Max => col
                        .map(|i| joined_schema.field(i).dtype)
                        .unwrap_or(DataType::Float),
                };
                fields.push(Field::new(a.alias.clone(), dtype));
                aggs.push((a.func, col));
            }
            let mut groups = BTreeMap::new();
            if spec.group_by.is_empty() {
                // A global aggregate always has exactly one (possibly
                // empty) group — materialize it so the initial snapshot
                // over empty input already carries the COUNT=0 row.
                groups.insert(Vec::new(), (0, vec![RetractableAcc::new(); aggs.len()]));
            }
            (Some(AggStage { group_cols, aggs, groups }), Schema::new(fields))
        } else {
            (None, joined_schema)
        };
        let (projection, out_schema) = match &spec.projections {
            Some(cols) => {
                let idx: Vec<usize> = cols
                    .iter()
                    .map(|c| resolve(&pre_proj_schema, c))
                    .collect::<Result<_>>()?;
                let fields = idx
                    .iter()
                    .map(|&i| pre_proj_schema.field(i).clone())
                    .collect();
                (Some(idx), Schema::new(fields))
            }
            None => (None, pre_proj_schema),
        };
        Ok(ViewCircuit {
            spec: spec.clone(),
            inputs,
            stages,
            agg,
            projection,
            out_schema,
            view: BTreeMap::new(),
            cursor: 0,
        })
    }

    /// The compiled spec.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The view's output schema (post-projection).
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// One past the epoch of the last record folded in — the cursor to
    /// pass to `Changelog::since` for the next poll.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Set the changelog cursor (after an initial load that already covers
    /// everything up to `cursor`).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Fold the tables' *current* contents in as the initial state,
    /// charging `clock` for the build. Call once, right after `compile`,
    /// with the same catalog (or a snapshot taken at the changelog cursor
    /// stored with [`set_cursor`](Self::set_cursor)).
    pub fn load_initial(&mut self, catalog: &Catalog, clock: &SharedClock) -> Result<()> {
        for i in 0..self.inputs.len() {
            let table = catalog.table(&self.inputs[i].name)?;
            for row in table.iter_rows() {
                self.ingest(i, row, 1, clock, None);
            }
        }
        Ok(())
    }

    /// Fold a batch of changelog records into the view, returning the
    /// delta packet subscribers apply to their copies. Records for tables
    /// the spec doesn't reference are skipped (the changelog is shared
    /// catalog-wide). Every touched row charges the shared cost clock.
    pub fn apply(&mut self, recs: &[ChangeRecord], clock: &SharedClock) -> DeltaPacket {
        let mut acc = PacketAcc::default();
        let mut epoch = self.cursor.saturating_sub(1);
        for rec in recs {
            epoch = epoch.max(rec.epoch);
            self.cursor = self.cursor.max(rec.epoch + 1);
            let Some(i) = self.inputs.iter().position(|t| t.name == rec.table) else {
                continue;
            };
            let w = match rec.op {
                ChangeOp::Insert => 1,
                ChangeOp::Delete => -1,
            };
            self.ingest(i, rec.row.clone(), w, clock, Some(&mut acc));
        }
        // Aggregate finalization: one retract/insert pair per changed
        // group, comparing pre-batch and post-batch output rows.
        if let Some(agg) = &mut self.agg {
            // Drop fully-retracted groups (a from-scratch run would not
            // see them); the global group stays, COUNT=0 and all.
            if !agg.group_cols.is_empty() {
                agg.groups.retain(|_, (rows, _)| *rows > 0);
            }
        }
        if let Some(agg) = &self.agg {
            let touched = std::mem::take(&mut acc.touched);
            for (key, old) in touched {
                let new = agg.output(&key).map(|r| self.project(r));
                if old == new {
                    continue;
                }
                if let Some(o) = old {
                    acc.retracted.push(o);
                }
                if let Some(n) = new {
                    acc.inserted.push(n);
                }
            }
        }
        DeltaPacket {
            epoch,
            inserted: canonicalize(acc.inserted),
            retracted: canonicalize(acc.retracted),
        }
    }

    /// The maintained view's current contents, in canonical order.
    pub fn snapshot(&self) -> Vec<Row> {
        match &self.agg {
            Some(agg) => {
                // Groups iterate in key order — the same sorted-group
                // order HashAggOp emits.
                let rows: Vec<Row> = agg
                    .groups
                    .keys()
                    .filter_map(|k| agg.output(k))
                    .map(|r| self.project(r))
                    .collect();
                canonicalize(rows)
            }
            None => self
                .view
                .iter()
                .flat_map(|(row, &w)| {
                    std::iter::repeat_with(move || row.clone()).take(w.max(0) as usize)
                })
                .collect(),
        }
    }

    /// Rows currently materialized in the view (post-projection
    /// multiset size for non-aggregate views, live group count for
    /// aggregate ones) — the subscription's resident footprint.
    pub fn view_rows(&self) -> usize {
        match &self.agg {
            Some(agg) => agg.groups.len().max(usize::from(agg.group_cols.is_empty())),
            None => self.view.values().map(|&w| w.max(0) as usize).sum(),
        }
    }

    fn project(&self, row: Row) -> Row {
        match &self.projection {
            Some(idx) => idx.iter().map(|&i| row[i].clone()).collect(),
            None => row,
        }
    }

    /// Push one weighted base-table row through filter → joins → the
    /// terminal stage. `out` is `None` during the initial load (state is
    /// built, nothing is emitted).
    fn ingest(
        &mut self,
        input_idx: usize,
        row: Row,
        weight: i64,
        clock: &SharedClock,
        mut out: Option<&mut PacketAcc>,
    ) {
        clock.charge_cpu_tuples(1.0);
        let input = &self.inputs[input_idx];
        debug_assert_eq!(row.len(), input.schema.len(), "changelog row arity");
        if let Some(f) = &input.filter {
            if !f.eval_bool(&row) {
                return;
            }
        }
        // Propagate through the join chain. A delta on the first table
        // enters stage 0 on the left; a delta on table i>0 enters stage
        // i-1 on the right (joining everything already accumulated), then
        // flows left through the remaining stages.
        let mut cur: Vec<(Row, i64)> = vec![(row, weight)];
        let next_stage = input_idx;
        if input_idx > 0 {
            let stage = &mut self.stages[input_idx - 1];
            let (r, w) = &cur[0];
            let key: Vec<Value> = stage.right_key.iter().map(|&i| r[i].clone()).collect();
            clock.charge_hash_build(1.0);
            update_index(&mut stage.right_index, key.clone(), r.clone(), *w);
            let mut joined = Vec::new();
            if let Some(matches) = stage.left_index.get(&key) {
                for (lrow, lw) in matches {
                    if *lw == 0 {
                        continue;
                    }
                    let mut out_row = lrow.clone();
                    out_row.extend(r.iter().cloned());
                    joined.push((out_row, lw * w));
                }
            }
            clock.charge_cpu_tuples(joined.len() as f64);
            cur = joined;
        }
        for stage in &mut self.stages[next_stage..] {
            if cur.is_empty() {
                return;
            }
            let mut next = Vec::new();
            for (lrow, lw) in cur {
                let key: Vec<Value> =
                    stage.left_key.iter().map(|&i| lrow[i].clone()).collect();
                clock.charge_hash_build(1.0);
                update_index(&mut stage.left_index, key.clone(), lrow.clone(), lw);
                if let Some(matches) = stage.right_index.get(&key) {
                    for (rrow, rw) in matches {
                        if *rw == 0 {
                            continue;
                        }
                        let mut out_row = lrow.clone();
                        out_row.extend(rrow.iter().cloned());
                        next.push((out_row, lw * rw));
                    }
                }
            }
            clock.charge_cpu_tuples(next.len() as f64);
            cur = next;
        }
        // Terminal stage: fold into the aggregate groups or the multiset
        // view, emitting into the packet when one is being built.
        if let Some(agg) = &mut self.agg {
            for (row, w) in cur {
                let key: Vec<Value> =
                    agg.group_cols.iter().map(|&i| row[i].clone()).collect();
                if let Some(acc) = out.as_deref_mut() {
                    if !acc.touched.contains_key(&key) {
                        let old = agg.output(&key).map(|r| {
                            match &self.projection {
                                Some(idx) => idx.iter().map(|&i| r[i].clone()).collect(),
                                None => r,
                            }
                        });
                        acc.touched.insert(key.clone(), old);
                    }
                }
                clock.charge_hash_build(1.0);
                let n_aggs = agg.aggs.len();
                let (rows, accs) = agg
                    .groups
                    .entry(key)
                    .or_insert_with(|| (0, vec![RetractableAcc::new(); n_aggs]));
                *rows += w;
                for (a, (_, col)) in accs.iter_mut().zip(&agg.aggs) {
                    a.apply(col.map(|i| &row[i]), w);
                }
            }
        } else {
            for (row, w) in cur {
                let row = self.project(row);
                clock.charge_hash_build(1.0);
                let net = self.view.entry(row.clone()).or_insert(0);
                *net += w;
                debug_assert!(*net >= 0, "retraction of a row the view never held");
                if *net == 0 {
                    self.view.remove(&row);
                }
                if let Some(acc) = out.as_deref_mut() {
                    let (list, n) = if w > 0 {
                        (&mut acc.inserted, w as usize)
                    } else {
                        (&mut acc.retracted, (-w) as usize)
                    };
                    for _ in 0..n {
                        list.push(row.clone());
                    }
                }
            }
        }
    }
}

/// Merge `(row, weight)` into one side's delta index, dropping zeroed
/// entries so fully-retracted rows don't linger.
fn update_index(index: &mut DeltaIndex, key: Vec<Value>, row: Row, weight: i64) {
    let bucket = index.entry(key).or_default();
    let w = bucket.entry(row.clone()).or_insert(0);
    *w += weight;
    if *w == 0 {
        bucket.remove(&row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{CostClock, DataType};
    use rqp_exec::AggSpec;
    use rqp_storage::{Changelog, Table};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        let u = Table::new(
            "u",
            Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        );
        c.add_table(t);
        c.add_table(u);
        c
    }

    /// Drive mutations through real tables + a real changelog, returning
    /// the packets from each poll alongside the circuit.
    struct Rig {
        catalog: Catalog,
        log: Arc<Changelog>,
        circuit: ViewCircuit,
        clock: SharedClock,
        cursor: u64,
    }

    impl Rig {
        fn new(spec: &QuerySpec) -> Rig {
            let catalog = catalog();
            let log = Arc::new(Changelog::new());
            catalog.attach_changelog(&log);
            let clock = CostClock::default_clock();
            let mut circuit = ViewCircuit::compile(spec, &catalog).unwrap();
            circuit.load_initial(&catalog, &clock).unwrap();
            Rig { catalog, log, circuit, clock, cursor: 0 }
        }

        fn insert(&mut self, table: &str, row: Row) {
            self.catalog.table_mut(table).unwrap().append(row);
        }

        fn delete_where(&mut self, table: &str, k: i64) {
            let t = self.catalog.table_mut(table).unwrap();
            while let Some(i) =
                (0..t.nrows()).find(|&i| t.row(i)[0] == Value::Int(k))
            {
                t.delete_row(i);
            }
        }

        fn poll(&mut self) -> DeltaPacket {
            let (recs, cur) = self.log.since(self.cursor);
            self.cursor = cur;
            self.circuit.apply(&recs, &self.clock)
        }

        /// From-scratch reference: evaluate the spec naively over the
        /// tables' current contents (filter → nested-loop joins in circuit
        /// order → agg via the batch accumulator semantics → projection).
        fn rerun(&self) -> Vec<Row> {
            let spec = self.circuit.spec().clone();
            let order: Vec<String> =
                self.circuit.inputs.iter().map(|t| t.name.clone()).collect();
            let mut rows: Vec<Row> = Vec::new();
            let mut schema_fields: Vec<Field> = Vec::new();
            for (i, name) in order.iter().enumerate() {
                let t = self.catalog.table(name).unwrap();
                let qschema = t.qualified_schema();
                let pred = spec.local_pred(name).bind(&qschema).unwrap();
                let filtered: Vec<Row> =
                    t.iter_rows().filter(|r| pred.eval_bool(r)).collect();
                if i == 0 {
                    rows = filtered;
                    schema_fields = qschema.fields().to_vec();
                    continue;
                }
                let acc_schema = Schema::new(schema_fields.clone());
                let mut lk = Vec::new();
                let mut rk = Vec::new();
                for e in &spec.joins {
                    if let Some(o) = e.oriented_from(name) {
                        if order[..i].contains(&o.right_table) {
                            rk.push(qschema.index_of(&o.left_qualified()).unwrap());
                            lk.push(acc_schema.index_of(&o.right_qualified()).unwrap());
                        }
                    }
                }
                let mut next = Vec::new();
                for l in &rows {
                    for r in &filtered {
                        if lk.iter().zip(&rk).all(|(&a, &b)| l[a] == r[b]) {
                            let mut o = l.clone();
                            o.extend(r.iter().cloned());
                            next.push(o);
                        }
                    }
                }
                rows = next;
                schema_fields.extend(qschema.fields().iter().cloned());
            }
            let joined_schema = Schema::new(schema_fields);
            let mut out = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
                let gc: Vec<usize> = spec
                    .group_by
                    .iter()
                    .map(|g| joined_schema.index_of(g).unwrap())
                    .collect();
                let ac: Vec<Option<usize>> = spec
                    .aggs
                    .iter()
                    .map(|a| a.col.as_deref().map(|c| joined_schema.index_of(c).unwrap()))
                    .collect();
                let mut groups: BTreeMap<Vec<Value>, Vec<RetractableAcc>> = BTreeMap::new();
                if gc.is_empty() {
                    groups.insert(Vec::new(), vec![RetractableAcc::new(); spec.aggs.len()]);
                }
                for r in &rows {
                    let key: Vec<Value> = gc.iter().map(|&i| r[i].clone()).collect();
                    let states = groups
                        .entry(key)
                        .or_insert_with(|| vec![RetractableAcc::new(); spec.aggs.len()]);
                    for (s, c) in states.iter_mut().zip(&ac) {
                        s.apply(c.map(|i| &r[i]), 1);
                    }
                }
                groups
                    .into_iter()
                    .map(|(mut k, states)| {
                        k.extend(
                            states.iter().zip(&spec.aggs).map(|(s, a)| s.finish(a.func)),
                        );
                        k
                    })
                    .collect()
            } else {
                rows
            };
            if let Some(cols) = &spec.projections {
                let pre = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
                    let mut fields: Vec<Field> = spec
                        .group_by
                        .iter()
                        .map(|g| joined_schema.field(joined_schema.index_of(g).unwrap()).clone())
                        .collect();
                    for a in &spec.aggs {
                        fields.push(Field::new(a.alias.clone(), DataType::Int));
                    }
                    Schema::new(fields)
                } else {
                    joined_schema
                };
                let idx: Vec<usize> =
                    cols.iter().map(|c| pre.index_of(c).unwrap()).collect();
                out = out
                    .into_iter()
                    .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                    .collect();
            }
            canonicalize(out)
        }

        fn assert_consistent(&self) {
            assert_eq!(self.circuit.snapshot(), self.rerun(), "view diverged from re-run");
        }
    }

    /// Apply a packet to a materialized multiset copy of the view.
    fn replay(view: &mut Vec<Row>, p: &DeltaPacket) {
        for r in &p.retracted {
            let i = view.iter().position(|x| x == r).expect("retracting a held row");
            view.remove(i);
        }
        view.extend(p.inserted.iter().cloned());
        view.sort();
    }

    #[test]
    fn order_by_and_limit_rejected() {
        let c = catalog();
        let spec = QuerySpec::new().table("t").order(&["t.k"]);
        assert!(ViewCircuit::compile(&spec, &c).is_err());
        let spec = QuerySpec::new().table("t").limit(5);
        assert!(ViewCircuit::compile(&spec, &c).is_err());
    }

    #[test]
    fn filter_projection_view_tracks_inserts_and_deletes() {
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.v").ge(lit(10i64)))
            .project(&["t.v"]);
        let mut rig = Rig::new(&spec);
        let mut copy = rig.circuit.snapshot();
        assert!(copy.is_empty());
        for (k, v) in [(1, 5), (2, 10), (3, 20), (4, 10)] {
            rig.insert("t", vec![Value::Int(k), Value::Int(v)]);
        }
        let p = rig.poll();
        assert_eq!(p.inserted.len(), 3, "v=5 filtered out");
        assert!(p.retracted.is_empty());
        assert_eq!(p.epoch, 3);
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        // Duplicates are tracked as multiplicity: both v=10 rows present.
        assert_eq!(
            rig.circuit.snapshot(),
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(10)],
                vec![Value::Int(20)]
            ]
        );
        // Deleting one of them retracts exactly one copy.
        rig.delete_where("t", 2);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 1));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        // Deleting a filtered-out row changes nothing.
        rig.delete_where("t", 1);
        assert!(rig.poll().is_empty());
        rig.assert_consistent();
    }

    #[test]
    fn join_maintains_both_sides_incrementally() {
        let spec = QuerySpec::new()
            .join("t", "k", "u", "k")
            .project(&["t.v", "u.w"]);
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        // Left rows arrive before any right match exists.
        rig.insert("t", vec![Value::Int(1), Value::Int(100)]);
        rig.insert("t", vec![Value::Int(2), Value::Int(200)]);
        assert!(rig.poll().is_empty(), "no matches yet");
        // A right row joins everything already indexed on the left.
        rig.insert("u", vec![Value::Int(1), Value::Int(-1)]);
        let p = rig.poll();
        assert_eq!(p.inserted, vec![vec![Value::Int(100), Value::Int(-1)]]);
        replay(&mut copy, &p);
        rig.assert_consistent();
        // Fan-out: a second left row with the same key doubles the match.
        rig.insert("t", vec![Value::Int(1), Value::Int(101)]);
        let p = rig.poll();
        assert_eq!(p.inserted.len(), 1);
        replay(&mut copy, &p);
        rig.assert_consistent();
        // Deleting the right row retracts every joined output at once.
        rig.delete_where("u", 1);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 2));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert!(rig.circuit.snapshot().is_empty());
        assert_eq!(copy, rig.circuit.snapshot());
    }

    #[test]
    fn grouped_aggregation_retracts_and_drops_empty_groups() {
        let spec = QuerySpec::new().table("t").aggregate(
            &["t.k"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::on(AggFunc::Sum, "t.v", "s"),
                AggSpec::on(AggFunc::Min, "t.v", "lo"),
            ],
        );
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        for (k, v) in [(1, 10), (1, 4), (2, 7)] {
            rig.insert("t", vec![Value::Int(k), Value::Int(v)]);
        }
        let p = rig.poll();
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(
            rig.circuit.snapshot(),
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Float(14.0), Value::Int(4)],
                vec![Value::Int(2), Value::Int(1), Value::Float(7.0), Value::Int(7)],
            ]
        );
        // Retracting the group minimum falls back to the runner-up, and
        // the packet carries one coalesced retract/insert pair.
        rig.delete_where("t", 1);
        // (deletes both k=1 rows: group 1 disappears entirely)
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 1));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(rig.circuit.view_rows(), 1, "empty group dropped");
        assert_eq!(copy, rig.circuit.snapshot());
    }

    #[test]
    fn global_aggregate_exists_even_when_empty() {
        let spec = QuerySpec::new().table("t").aggregate(
            &[],
            vec![AggSpec::count_star("n"), AggSpec::on(AggFunc::Avg, "t.v", "a")],
        );
        let mut rig = Rig::new(&spec);
        assert_eq!(
            rig.circuit.snapshot(),
            vec![vec![Value::Int(0), Value::Null]],
            "COUNT(*)=0 row over empty input, like HashAggOp"
        );
        rig.assert_consistent();
        let mut copy = rig.circuit.snapshot();
        rig.insert("t", vec![Value::Int(1), Value::Int(6)]);
        rig.insert("t", vec![Value::Int(2), Value::Int(2)]);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (1, 1), "old row swapped for new");
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        assert_eq!(copy, vec![vec![Value::Int(2), Value::Float(4.0)]]);
        // Back to empty: the COUNT=0 row returns.
        rig.delete_where("t", 1);
        rig.delete_where("t", 2);
        let p = rig.poll();
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn three_way_join_with_agg_stays_consistent_under_churn() {
        // t ⋈ u on k plus a second edge u ⋈ t on w≡v to exercise
        // composite keys… simpler: grouped sum over a two-table join,
        // churned from both sides in an interleaved pattern.
        let spec = QuerySpec::new()
            .join("t", "k", "u", "k")
            .filter("u", col("u.w").gt(lit(0i64)))
            .aggregate(&["t.k"], vec![AggSpec::on(AggFunc::Sum, "u.w", "s")]);
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        for step in 0..40i64 {
            let k = step % 5;
            match step % 7 {
                0..=2 => rig.insert("t", vec![Value::Int(k), Value::Int(step)]),
                3..=5 => rig.insert("u", vec![Value::Int(k), Value::Int(step - 20)]),
                _ => {
                    rig.delete_where(if step % 2 == 0 { "t" } else { "u" }, k);
                }
            }
            let p = rig.poll();
            replay(&mut copy, &p);
            rig.assert_consistent();
            assert_eq!(copy, rig.circuit.snapshot(), "packet replay tracks the view");
        }
    }

    #[test]
    fn initial_load_then_deltas_matches_cold_compile() {
        // Pre-populate, compile+load, then churn: the circuit must agree
        // with a from-scratch evaluation at every step.
        let mut catalog = catalog();
        for i in 0..10i64 {
            catalog
                .table_mut("t")
                .unwrap()
                .append(vec![Value::Int(i % 3), Value::Int(i)]);
        }
        let log = Arc::new(Changelog::new());
        catalog.attach_changelog(&log);
        let clock = CostClock::default_clock();
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.v").lt(lit(8i64)))
            .aggregate(&["t.k"], vec![AggSpec::count_star("n")]);
        let mut circuit = ViewCircuit::compile(&spec, &catalog).unwrap();
        circuit.load_initial(&catalog, &clock).unwrap();
        assert!(clock.now() > 0.0, "initial load charges the clock");
        assert_eq!(
            circuit.snapshot(),
            vec![
                vec![Value::Int(0), Value::Int(3)],
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
        catalog.table_mut("t").unwrap().append(vec![Value::Int(0), Value::Int(4)]);
        let (recs, _) = log.since(0);
        let before = clock.now();
        let p = circuit.apply(&recs, &clock);
        assert!(clock.now() > before, "deltas charge the clock");
        assert_eq!((p.inserted.len(), p.retracted.len()), (1, 1));
        assert_eq!(
            circuit.snapshot()[0],
            vec![Value::Int(0), Value::Int(4)]
        );
    }

    #[test]
    fn unrelated_tables_are_skipped() {
        let spec = QuerySpec::new().table("t").project(&["t.k"]);
        let mut rig = Rig::new(&spec);
        rig.insert("u", vec![Value::Int(1), Value::Int(1)]);
        let p = rig.poll();
        assert!(p.is_empty());
        assert_eq!(p.epoch, 0, "epoch still advances past skipped records");
        assert_eq!(rig.circuit.cursor(), 1);
    }
}
