//! The query shapes the workloads run, and a row-loop evaluator that
//! computes their expected answers straight from the generated columns,
//! independently of the planner and the operators.

use rqp::storage::Catalog;
use rqp::workload::tpch::DATE_DOMAIN;
use rqp::workload::TpchDb;
use rqp::{QuerySpec, Row, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Relative tolerance on float results: sums over up to 10^5 values of
/// up to 10^5 each, added in a different order than the engine adds them.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// A TPC-H-like query template with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Q1 {
        delta_days: i64,
    },
    Q3 {
        segment: i64,
        date: i64,
    },
    Q6 {
        date_lo: i64,
        discount_mid: f64,
        quantity_max: i64,
    },
    Range {
        sel: f64,
    },
}

impl Shape {
    /// The query spec, as `TpchDb` builds it.
    pub fn spec(&self, db: &TpchDb) -> QuerySpec {
        match *self {
            Shape::Q1 { delta_days } => db.q1(delta_days),
            Shape::Q3 { segment, date } => db.q3(segment, date),
            Shape::Q6 {
                date_lo,
                discount_mid,
                quantity_max,
            } => db.q6(date_lo, discount_mid, quantity_max),
            Shape::Range { sel } => db.range_query(sel),
        }
    }

    /// The expected rows, computed by a loop over the base columns.
    pub fn reference(&self, catalog: &Catalog) -> Result<Vec<Row>, String> {
        let li = Columns::of(catalog, "lineitem")?;
        let shipdate = li.ints("shipdate")?;
        Ok(match *self {
            Shape::Q1 { delta_days } => {
                let cutoff = DATE_DOMAIN - 1 - delta_days;
                let (flag, qty) = (li.ints("returnflag")?, li.ints("quantity")?);
                let (price, disc) = (li.floats("extendedprice")?, li.floats("discount")?);
                // returnflag → (count, sum qty, sum price, sum discount)
                let mut groups: BTreeMap<i64, (i64, f64, f64, f64)> = BTreeMap::new();
                for i in (0..shipdate.len()).filter(|&i| shipdate[i] <= cutoff) {
                    let g = groups.entry(flag[i]).or_default();
                    g.0 += 1;
                    g.1 += qty[i] as f64;
                    g.2 += price[i];
                    g.3 += disc[i];
                }
                groups
                    .into_iter()
                    .map(|(f, (n, q, p, d))| {
                        vec![
                            Value::Int(f),
                            Value::Int(n),
                            Value::Float(q),
                            Value::Float(p),
                            Value::Float(d / n as f64),
                        ]
                    })
                    .collect()
            }
            Shape::Q3 { segment, date } => {
                let cust = Columns::of(catalog, "customer")?;
                let (custkey, seg) = (cust.ints("custkey")?, cust.ints("mktsegment")?);
                let wanted: HashSet<i64> = (0..custkey.len())
                    .filter(|&i| seg[i] == segment)
                    .map(|i| custkey[i])
                    .collect();
                let ord = Columns::of(catalog, "orders")?;
                let (orderkey, ocust, odate) = (
                    ord.ints("orderkey")?,
                    ord.ints("custkey")?,
                    ord.ints("orderdate")?,
                );
                let orders: HashSet<i64> = (0..orderkey.len())
                    .filter(|&i| wanted.contains(&ocust[i]) && odate[i] < date)
                    .map(|i| orderkey[i])
                    .collect();
                let (lkey, price) = (li.ints("orderkey")?, li.floats("extendedprice")?);
                let mut revenue: HashMap<i64, f64> = HashMap::new();
                for i in
                    (0..lkey.len()).filter(|&i| shipdate[i] > date && orders.contains(&lkey[i]))
                {
                    *revenue.entry(lkey[i]).or_default() += price[i];
                }
                revenue
                    .into_iter()
                    .map(|(k, r)| vec![Value::Int(k), Value::Float(r)])
                    .collect()
            }
            Shape::Q6 {
                date_lo,
                discount_mid,
                quantity_max,
            } => {
                let (lo, hi) = (discount_mid - 0.01, discount_mid + 0.01);
                let (qty, price, disc) = (
                    li.ints("quantity")?,
                    li.floats("extendedprice")?,
                    li.floats("discount")?,
                );
                let (mut revenue, mut n) = (0.0, 0i64);
                for i in 0..shipdate.len() {
                    let d = shipdate[i];
                    if d >= date_lo
                        && d <= date_lo + 364
                        && disc[i] >= lo
                        && disc[i] <= hi
                        && qty[i] < quantity_max
                    {
                        revenue += price[i];
                        n += 1;
                    }
                }
                vec![vec![Value::Float(revenue), Value::Int(n)]]
            }
            Shape::Range { sel } => {
                let width = ((DATE_DOMAIN as f64) * sel.clamp(0.0, 1.0)).round() as i64;
                let hi = (width - 1).max(0);
                let n = shipdate.iter().filter(|&&d| (0..=hi).contains(&d)).count();
                vec![vec![Value::Int(n as i64)]]
            }
        })
    }
}

/// The output column a query of `kind` is ordered on, if any: Q1 orders
/// on its group key, Q3 on revenue.
pub fn order_col(kind: &str) -> Option<usize> {
    match kind {
        "q1" => Some(0),
        "q3" => Some(1),
        _ => None,
    }
}

/// Check `got` against the expected rows `want`: the same multiset of rows
/// (floats within [`FLOAT_TOLERANCE`]), ordered on `order_col` if given.
pub fn check_rows(got: &[Row], want: &[Row], order_col: Option<usize>) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    if let Some(c) = order_col {
        let key = |r: &Row| r.get(c).and_then(Value::as_float).unwrap_or(f64::NAN);
        let out_of_order = |w: &[Row]| {
            matches!(
                key(&w[0]).partial_cmp(&key(&w[1])),
                None | Some(Ordering::Greater)
            )
        };
        if got.windows(2).any(out_of_order) {
            return Err(format!("rows not ordered on column {c}"));
        }
    }
    // Every query's first column is a unique key (or there is one row), so
    // sorting both sides lines the rows up despite float noise.
    let (mut got, mut want) = (got.to_vec(), want.to_vec());
    got.sort();
    want.sort();
    for (g, w) in got.iter().zip(&want) {
        if g.len() != w.len() || g.iter().zip(w).any(|(a, b)| !close(a, b)) {
            return Err(format!("row {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// Typed column access to one table of a catalog.
struct Columns(std::sync::Arc<rqp::Table>);

impl Columns {
    fn of(catalog: &Catalog, table: &str) -> Result<Columns, String> {
        catalog.table(table).map(Columns).map_err(|e| e.to_string())
    }

    fn ints(&self, col: &str) -> Result<&[i64], String> {
        let c = self.0.column_by_name(col).map_err(|e| e.to_string())?;
        c.as_int_slice()
            .ok_or_else(|| format!("{col} is not an int column"))
    }

    fn floats(&self, col: &str) -> Result<&[f64], String> {
        let c = self.0.column_by_name(col).map_err(|e| e.to_string())?;
        c.as_float_slice()
            .ok_or_else(|| format!("{col} is not a float column"))
    }
}
