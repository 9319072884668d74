//! Morsels: fixed-size horizontal work units over columnar data.
//!
//! A [`Morsel`] is a row range `[start, start+len)` of some table or
//! column set, tagged with its position in the global order. Morsels are
//! the unit of scheduling (HyPer's morsel-driven parallelism): small
//! enough that workers finishing early can steal meaningful work, large
//! enough that per-morsel dispatch overhead vanishes. Because each morsel
//! records its `index`, results can always be merged **in morsel order**,
//! which is what makes parallel runs deterministic: the merge tree does
//! not depend on worker count or scheduling.

use adaptvm_storage::array::Array;
use adaptvm_storage::schema::Table;
use adaptvm_storage::sel::SelVec;
use adaptvm_storage::DEFAULT_CHUNK;

/// Default morsel size: 16 vectorized chunks. Big enough to amortize
/// per-morsel setup (an `Env`, buffer windows), small enough that 8 workers
/// see >100 morsels on a 20M-row table.
pub const DEFAULT_MORSEL_ROWS: usize = 16 * DEFAULT_CHUNK;

/// One unit of parallel work: rows `[start, start+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the global morsel order (merge key).
    pub index: usize,
    /// First row of the range.
    pub start: usize,
    /// Number of rows.
    pub len: usize,
}

impl Morsel {
    /// One past the last row.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Slice a table to this morsel's rows.
    pub fn slice_table(&self, table: &Table) -> Table {
        table.slice(self.start, self.len)
    }

    /// Slice a column to this morsel's rows.
    pub fn slice_array(&self, array: &Array) -> Array {
        array.slice(self.start, self.len)
    }

    /// Restrict a selection vector to this morsel (indices rebased).
    pub fn slice_sel(&self, sel: &SelVec) -> SelVec {
        sel.slice_domain(self.start, self.len)
    }
}

/// The morsel decomposition of a row range.
#[derive(Debug, Clone)]
pub struct MorselPlan {
    morsels: Vec<Morsel>,
    total_rows: usize,
    morsel_rows: usize,
}

impl MorselPlan {
    /// Slice `total_rows` into morsels of `morsel_rows` (the last may be
    /// short). `morsel_rows = 0` is clamped to 1.
    pub fn new(total_rows: usize, morsel_rows: usize) -> MorselPlan {
        let morsel_rows = morsel_rows.max(1);
        let mut morsels = Vec::with_capacity(total_rows.div_ceil(morsel_rows));
        let mut start = 0;
        let mut index = 0;
        while start < total_rows {
            let len = morsel_rows.min(total_rows - start);
            morsels.push(Morsel { index, start, len });
            start += len;
            index += 1;
        }
        MorselPlan {
            morsels,
            total_rows,
            morsel_rows,
        }
    }

    /// Like [`MorselPlan::new`], but with `morsel_rows` rounded up to a
    /// multiple of `chunk_rows`. Chunk-aligned morsels make a parallel
    /// chunk-at-a-time run see exactly the chunk boundaries a sequential
    /// run sees, which is what keeps floating-point accumulation
    /// bit-identical between the two (same partial sums, merged in order).
    pub fn chunk_aligned(total_rows: usize, morsel_rows: usize, chunk_rows: usize) -> MorselPlan {
        let chunk = chunk_rows.max(1);
        let aligned = morsel_rows.max(1).div_ceil(chunk) * chunk;
        MorselPlan::new(total_rows, aligned)
    }

    /// The morsels, in global order.
    pub fn morsels(&self) -> &[Morsel] {
        &self.morsels
    }

    /// Number of morsels.
    pub fn len(&self) -> usize {
        self.morsels.len()
    }

    /// True when the plan has no work.
    pub fn is_empty(&self) -> bool {
        self.morsels.is_empty()
    }

    /// Rows covered by the plan.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// The (possibly aligned) morsel size used.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tiles_exactly() {
        for (rows, size) in [
            (0usize, 4usize),
            (1, 4),
            (4, 4),
            (10, 4),
            (10, 3),
            (10, 100),
        ] {
            let plan = MorselPlan::new(rows, size);
            let covered: usize = plan.morsels().iter().map(|m| m.len).sum();
            assert_eq!(covered, rows, "rows={rows} size={size}");
            // Contiguous, ordered, indexed.
            let mut expect_start = 0;
            for (i, m) in plan.morsels().iter().enumerate() {
                assert_eq!(m.index, i);
                assert_eq!(m.start, expect_start);
                assert!(m.len > 0);
                expect_start = m.end();
            }
        }
    }

    #[test]
    fn zero_morsel_rows_is_clamped() {
        let plan = MorselPlan::new(3, 0);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn chunk_alignment_rounds_up() {
        let plan = MorselPlan::chunk_aligned(10_000, 1000, 1024);
        assert_eq!(plan.morsel_rows(), 1024);
        assert!(plan.morsels()[..plan.len() - 1]
            .iter()
            .all(|m| m.len % 1024 == 0));
    }

    #[test]
    fn morsel_slices_table_and_sel() {
        use adaptvm_storage::schema::{Field, Schema};
        use adaptvm_storage::ScalarType;

        let t = Table::new(
            Schema::new(vec![Field::new("x", ScalarType::I64)]),
            vec![Array::from((0..10).collect::<Vec<i64>>())],
        )
        .unwrap();
        let m = Morsel {
            index: 1,
            start: 4,
            len: 3,
        };
        let s = m.slice_table(&t);
        assert_eq!(
            s.column_by_name("x").unwrap(),
            &Array::from(vec![4i64, 5, 6])
        );
        let sel = SelVec::new(vec![0, 4, 5, 9]);
        assert_eq!(m.slice_sel(&sel).indices(), &[0, 1]);
    }
}
