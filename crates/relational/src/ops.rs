//! Chunk-level physical operators.
//!
//! Operators consume and produce [`Chunk`]s with chunk-level pending
//! selections — the X100 execution model. Selections compose across
//! operators; `materialize` (condense) runs only at pipeline breakers.

use std::borrow::Cow;

use adaptvm_dsl::ast::ScalarOp;
use adaptvm_kernels::{filter_cmp, map_apply, FilterFlavor, MapMode, Operand};
use adaptvm_storage::chunk::Chunk;
use adaptvm_storage::scalar::Scalar;
use adaptvm_storage::schema::Table;
use adaptvm_storage::Array;

use crate::ops;

/// Errors from the operator layer.
pub type OpResult<T> = Result<T, adaptvm_kernels::KernelError>;

/// A named integer column as `i64`s — borrowed when it already holds
/// `i64`, widened otherwise — or a typed precondition error: the shared
/// plumbing of the join and aggregation pipelines.
pub(crate) fn int_column<'t>(table: &'t Table, name: &str) -> OpResult<Cow<'t, [i64]>> {
    table
        .column_by_name(name)
        .map_err(adaptvm_kernels::KernelError::Storage)?
        .to_i64_cow()
        .ok_or_else(|| {
            adaptvm_kernels::KernelError::Precondition(format!("{name} must be integer"))
        })
}

/// Scan a dense table as a chunk iterator.
pub struct DenseScan<'t> {
    table: &'t Table,
    columns: Vec<usize>,
    chunk_rows: usize,
    offset: usize,
}

impl<'t> DenseScan<'t> {
    /// Scan `columns` (by name) in chunks of `chunk_rows`.
    pub fn new(table: &'t Table, columns: &[&str], chunk_rows: usize) -> OpResult<DenseScan<'t>> {
        let columns = columns
            .iter()
            .map(|n| table.schema().index_of(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(adaptvm_kernels::KernelError::Storage)?;
        Ok(DenseScan {
            table,
            columns,
            chunk_rows: chunk_rows.max(1),
            offset: 0,
        })
    }
}

impl Iterator for DenseScan<'_> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.offset >= self.table.rows() {
            return None;
        }
        let cols: Vec<Array> = self
            .columns
            .iter()
            .map(|&i| {
                self.table
                    .column(i)
                    .expect("validated")
                    .slice(self.offset, self.chunk_rows)
            })
            .collect();
        self.offset += cols.first().map_or(0, Array::len);
        Chunk::new(cols).ok()
    }
}

/// Apply `column <op> constant` to the chunk, composing with its pending
/// selection.
pub fn select_cmp(
    chunk: &mut Chunk,
    column: usize,
    op: ScalarOp,
    constant: Scalar,
    flavor: FilterFlavor,
) -> OpResult<()> {
    let sel = {
        let col = chunk
            .column(column)
            .map_err(adaptvm_kernels::KernelError::Storage)?;
        filter_cmp(
            op,
            &[Operand::Col(col), Operand::Const(constant)],
            chunk.sel(),
            flavor,
        )?
    };
    // The computed selection is already absolute (composition happened in
    // filter_cmp via the candidates), so install it directly.
    replace_sel(chunk, sel);
    Ok(())
}

fn replace_sel(chunk: &mut Chunk, sel: adaptvm_storage::sel::SelVec) {
    // `Chunk::apply_sel` composes; we already composed, so rebuild.
    let cols = chunk.columns().to_vec();
    let mut fresh = Chunk::new(cols).expect("same columns");
    fresh
        .apply_sel(sel)
        .expect("selection indices are in range");
    *chunk = fresh;
}

/// Compute a binary arithmetic expression over two columns (or a column
/// and a constant), appending the result as a new column.
pub fn project_binary(
    chunk: &mut Chunk,
    op: ScalarOp,
    left: usize,
    right: Option<usize>,
    constant: Option<Scalar>,
    mode: MapMode,
) -> OpResult<usize> {
    let result = {
        let l = chunk
            .column(left)
            .map_err(adaptvm_kernels::KernelError::Storage)?;
        let operands: Vec<Operand<'_>> = match (right, &constant) {
            (Some(r), _) => vec![
                Operand::Col(l),
                Operand::Col(
                    chunk
                        .column(r)
                        .map_err(adaptvm_kernels::KernelError::Storage)?,
                ),
            ],
            (None, Some(c)) => vec![Operand::Col(l), Operand::Const(c.clone())],
            (None, None) => {
                return Err(adaptvm_kernels::KernelError::Precondition(
                    "project_binary needs a right column or a constant".into(),
                ))
            }
        };
        map_apply(op, &operands, chunk.sel(), mode)?
    };
    chunk
        .push_column(result)
        .map_err(adaptvm_kernels::KernelError::Storage)?;
    Ok(chunk.columns().len() - 1)
}

/// Materialize the pending selection (pipeline breaker).
pub fn materialize(chunk: &Chunk) -> OpResult<Chunk> {
    chunk
        .condense()
        .map_err(adaptvm_kernels::KernelError::Storage)
}

/// Sum a (selected) numeric column to `f64`.
pub fn sum_f64(chunk: &Chunk, column: usize) -> OpResult<f64> {
    let col = chunk
        .column(column)
        .map_err(adaptvm_kernels::KernelError::Storage)?;
    let s = adaptvm_kernels::fold_apply(
        adaptvm_dsl::ast::FoldFn::Sum,
        &Scalar::F64(0.0),
        col,
        chunk.sel(),
    )?;
    Ok(s.as_f64().expect("sum of numerics is numeric"))
}

/// Count the selected rows.
pub fn count(chunk: &Chunk) -> usize {
    chunk.selected_len()
}

/// Convenience: the whole select→project→sum pipeline over a table —
/// the B2 selectivity experiment's workload.
pub fn filter_project_sum(
    table: &Table,
    filter_col: &str,
    threshold: i64,
    value_col: &str,
    chunk_rows: usize,
    flavor: FilterFlavor,
    mode: MapMode,
) -> OpResult<(f64, usize)> {
    let scan = DenseScan::new(table, &[filter_col, value_col], chunk_rows)?;
    let mut total = 0.0;
    let mut rows = 0;
    for mut chunk in scan {
        ops::select_cmp(&mut chunk, 0, ScalarOp::Gt, Scalar::I64(threshold), flavor)?;
        let doubled = ops::project_binary(
            &mut chunk,
            ScalarOp::Mul,
            1,
            None,
            Some(Scalar::I64(2)),
            mode,
        )?;
        total += ops::sum_f64(&chunk, doubled)?;
        rows += ops::count(&chunk);
    }
    Ok((total, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_storage::schema::{Field, Schema};
    use adaptvm_storage::ScalarType;

    fn table() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", ScalarType::I64),
                Field::new("v", ScalarType::I64),
            ]),
            vec![
                Array::from((0..100i64).collect::<Vec<_>>()),
                Array::from((0..100i64).map(|i| i * 10).collect::<Vec<_>>()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scan_chunks_cover_table() {
        let t = table();
        let chunks: Vec<Chunk> = DenseScan::new(&t, &["k", "v"], 32).unwrap().collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(Chunk::len).sum::<usize>(), 100);
        assert_eq!(chunks[3].len(), 4);
        assert!(DenseScan::new(&t, &["missing"], 32).is_err());
    }

    #[test]
    fn select_project_sum_pipeline() {
        let t = table();
        for flavor in FilterFlavor::ALL {
            for mode in [MapMode::Full, MapMode::Selective] {
                let (total, rows) = filter_project_sum(&t, "k", 89, "v", 16, flavor, mode).unwrap();
                // k in 90..=99 → v = 900..=990, doubled & summed.
                let expected: f64 = (90..100).map(|i| (i * 10 * 2) as f64).sum();
                assert_eq!(total, expected, "{flavor:?}/{mode:?}");
                assert_eq!(rows, 10);
            }
        }
    }

    #[test]
    fn selections_compose_across_selects() {
        let t = table();
        let mut chunk = DenseScan::new(&t, &["k", "v"], 128)
            .unwrap()
            .next()
            .unwrap();
        select_cmp(
            &mut chunk,
            0,
            ScalarOp::Gt,
            Scalar::I64(49),
            FilterFlavor::SelVecLoop,
        )
        .unwrap();
        assert_eq!(chunk.selected_len(), 50);
        select_cmp(
            &mut chunk,
            0,
            ScalarOp::Lt,
            Scalar::I64(60),
            FilterFlavor::Bitmap,
        )
        .unwrap();
        assert_eq!(chunk.selected_len(), 10);
        let m = materialize(&chunk).unwrap();
        assert_eq!(m.len(), 10);
        assert_eq!(
            m.column(0).unwrap().to_i64_vec().unwrap(),
            (50..60).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn project_over_two_columns() {
        let t = table();
        let mut chunk = DenseScan::new(&t, &["k", "v"], 128)
            .unwrap()
            .next()
            .unwrap();
        let idx =
            project_binary(&mut chunk, ScalarOp::Add, 0, Some(1), None, MapMode::Full).unwrap();
        let col = chunk.column(idx).unwrap().to_i64_vec().unwrap();
        assert_eq!(col[5], 5 + 50);
        // Missing operands error.
        assert!(project_binary(&mut chunk, ScalarOp::Add, 0, None, None, MapMode::Full).is_err());
    }
}
