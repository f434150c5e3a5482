//! Contiguous row-major point storage.
//!
//! A [`Matrix`] holds `rows × dim` values in one flat allocation, replacing
//! the previous `Vec<Vec<f64>>` ("vector of points") layout. Every kernel
//! in [`crate::kmeans`] walks rows as `&[f64]` slices of the same buffer,
//! so a pass over the dataset is a linear scan instead of a pointer chase
//! per point.

use edgelet_util::{Error, Result};

/// A dense row-major `rows × dim` matrix of `f64` in a single allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
}

impl Matrix {
    /// Creates an empty matrix whose rows will have `dim` columns.
    pub fn new(dim: usize) -> Self {
        Self {
            data: Vec::new(),
            rows: 0,
            dim,
        }
    }

    /// Creates an empty matrix with room for `rows` rows of `dim` columns.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(dim * rows),
            rows: 0,
            dim,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    pub fn from_vec(data: Vec<f64>, dim: usize) -> Result<Self> {
        if dim == 0 {
            if !data.is_empty() {
                return Err(Error::InvalidConfig(
                    "flat buffer must be empty when dim is 0".into(),
                ));
            }
            return Ok(Self::new(0));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::InvalidConfig(format!(
                "flat buffer of {} values is not a multiple of dim {}",
                data.len(),
                dim
            )));
        }
        let rows = data.len() / dim;
        Ok(Self { data, rows, dim })
    }

    /// A matrix over a flat row-major buffer of exactly `rows * dim`
    /// values (`rows` is explicit: zero-dim rows occupy no storage).
    pub(crate) fn from_parts(data: Vec<f64>, rows: usize, dim: usize) -> Self {
        debug_assert_eq!(data.len(), rows * dim);
        Self { data, rows, dim }
    }

    /// Builds a matrix from explicit rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut out = Self::with_capacity(dim, rows.len());
        for r in rows {
            out.push_row(r);
        }
        out
    }

    /// Number of rows.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Columns per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.dim..i * self.dim + self.dim]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.dim..i * self.dim + self.dim]
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone + '_ {
        let dim = self.dim;
        (0..self.rows).map(move |i| &self.data[i * dim..i * dim + dim])
    }

    /// Appends a row. Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dim,
            "row of {} values pushed into a dim-{} matrix",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// New matrix holding the selected rows, in index order (duplicates
    /// allowed) — the mini-batch sampling primitive.
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Materializes the rows (interop with row-oriented callers).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = Matrix::new(2);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn from_vec_validates_shape() {
        let m = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
        assert_eq!(m.len(), 2);
        assert!(Matrix::from_vec(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(Matrix::from_vec(vec![1.0], 0).is_err());
        assert!(Matrix::from_vec(vec![], 0).unwrap().is_empty());
    }

    #[test]
    fn from_rows_and_back() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
        assert!(Matrix::from_rows(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "pushed into a dim-2 matrix")]
    fn ragged_push_panics() {
        let mut m = Matrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        Matrix::new(2).row(0);
    }

    #[test]
    fn gather_selects_with_duplicates() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let g = m.gather(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn zero_dim_rows_are_counted() {
        let mut m = Matrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[] as &[f64]);
        assert_eq!(m.rows().count(), 2);
    }

    #[test]
    fn row_mut_edits_in_place() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.row(0), &[1.0, 9.0]);
    }
}
