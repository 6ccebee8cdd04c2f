//! Sim-time series: registry-driven periodic sampling on a sim-clock
//! cadence, stored columnar (one row of u64 cells per window).
//!
//! Columns register lazily in event order — deterministic because the
//! event stream is — so early rows can be narrower than the final
//! registry; [`TimeSeries::rows_padded`] squares the table up at dump
//! time. Registration order is part of the dump format: the header
//! names columns in that order and rows are positional.
//!
//! [`TimeSeries::column`] is the by-name path — it hashes the name and
//! may allocate — and is meant for first sight only. A caller on a
//! per-event path resolves each column once, keeps the [`ColumnId`],
//! and from then on calls only [`TimeSeries::add`] / [`TimeSeries::set`],
//! which index a `Vec`. The trace collector does exactly that, per link
//! and per class name.

use std::collections::HashMap;
use taq_telemetry::Value;

/// Aggregation discipline for one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Accumulates within a window, resets to 0 at each boundary
    /// (rates: delivered bytes, drops, per-class packets).
    Counter,
    /// Holds the most recent value across boundaries (levels: queue
    /// depth).
    Gauge,
}

/// Opaque column handle returned by [`TimeSeries::column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnId(usize);

/// Columnar sim-time samples with a fixed window cadence.
#[derive(Debug)]
pub struct TimeSeries {
    window_ns: u64,
    /// Exclusive upper edge of the currently accumulating window.
    boundary_ns: u64,
    names: Vec<String>,
    kinds: Vec<ColumnKind>,
    current: Vec<u64>,
    index: HashMap<String, usize>,
    rows: Vec<(u64, Vec<u64>)>,
}

impl TimeSeries {
    /// Creates a series sampling every `window_ns` of sim time.
    pub fn new(window_ns: u64) -> Self {
        TimeSeries {
            window_ns: window_ns.max(1),
            boundary_ns: window_ns.max(1),
            names: Vec::new(),
            kinds: Vec::new(),
            current: Vec::new(),
            index: HashMap::new(),
            rows: Vec::new(),
        }
    }

    /// The sampling cadence.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Returns the column named `name`, registering it on first use.
    pub fn column(&mut self, name: &str, kind: ColumnKind) -> ColumnId {
        if let Some(&i) = self.index.get(name) {
            return ColumnId(i);
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.kinds.push(kind);
        self.current.push(0);
        self.index.insert(name.to_string(), i);
        ColumnId(i)
    }

    /// Adds `delta` to a counter (or bumps a gauge — callers use `set`
    /// for gauges).
    pub fn add(&mut self, col: ColumnId, delta: u64) {
        self.current[col.0] += delta;
    }

    /// Sets a column's current value.
    pub fn set(&mut self, col: ColumnId, value: u64) {
        self.current[col.0] = value;
    }

    /// `true` when `at_ns` lies at or beyond the accumulating window's
    /// edge — the caller should finish window-scoped gauges (e.g.
    /// active-flow counts) and then [`TimeSeries::close_window`].
    pub fn window_due(&self, at_ns: u64) -> bool {
        at_ns >= self.boundary_ns
    }

    /// Closes the accumulating window: snapshots the current row at the
    /// window's edge, resets counters, and carries gauges forward.
    pub fn close_window(&mut self) {
        self.rows.push((self.boundary_ns, self.current.clone()));
        self.boundary_ns += self.window_ns;
        for (kind, cell) in self.kinds.iter().zip(self.current.iter_mut()) {
            if *kind == ColumnKind::Counter {
                *cell = 0;
            }
        }
    }

    /// Column names in registration order.
    pub fn columns(&self) -> &[String] {
        &self.names
    }

    /// Closed rows, each padded with zeros to the final column count.
    pub fn rows_padded(&self) -> impl Iterator<Item = (u64, Vec<u64>)> + '_ {
        let width = self.names.len();
        self.rows.iter().map(move |(t, cells)| {
            let mut padded = cells.clone();
            padded.resize(width, 0);
            (*t, padded)
        })
    }

    /// Number of closed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no window has closed yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the dump's `"record":"series_header"` line.
    pub fn header_value(&self) -> Value {
        Value::Object(vec![
            ("record".to_string(), Value::from("series_header")),
            ("window_ns".to_string(), Value::UInt(self.window_ns)),
            (
                "columns".to_string(),
                Value::Array(self.names.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
        ])
    }

    /// Renders one padded row as a `"record":"series_row"` line.
    pub fn row_value(t_ns: u64, cells: &[u64]) -> Value {
        Value::Object(vec![
            ("record".to_string(), Value::from("series_row")),
            ("t_ns".to_string(), Value::UInt(t_ns)),
            (
                "values".to_string(),
                Value::Array(cells.iter().map(|&c| Value::UInt(c)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_reset_and_gauges_carry() {
        let mut ts = TimeSeries::new(100);
        let pkts = ts.column("delivered_pkts", ColumnKind::Counter);
        let depth = ts.column("depth", ColumnKind::Gauge);
        ts.add(pkts, 3);
        ts.set(depth, 7);
        assert!(!ts.window_due(99));
        assert!(ts.window_due(100));
        ts.close_window();
        // Second window: only the gauge persists.
        assert!(ts.window_due(200));
        ts.close_window();
        let rows: Vec<_> = ts.rows_padded().collect();
        assert_eq!(rows, vec![(100, vec![3, 7]), (200, vec![0, 7])]);
    }

    #[test]
    fn late_columns_pad_earlier_rows() {
        let mut ts = TimeSeries::new(10);
        let a = ts.column("a", ColumnKind::Counter);
        ts.add(a, 1);
        ts.close_window();
        let b = ts.column("b", ColumnKind::Counter);
        ts.add(b, 5);
        ts.close_window();
        let rows: Vec<_> = ts.rows_padded().collect();
        assert_eq!(rows[0], (10, vec![1, 0]), "early row padded");
        assert_eq!(rows[1], (20, vec![0, 5]));
        assert_eq!(ts.columns(), &["a".to_string(), "b".to_string()]);
        // Re-registering returns the same column.
        assert_eq!(ts.column("a", ColumnKind::Counter), a);
    }
}
