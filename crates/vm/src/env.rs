//! Buffers and the runtime variable environment.

use std::borrow::Cow;
use std::collections::HashMap;

use adaptvm_dsl::value::Value;
use adaptvm_jit::ir::Window;
use adaptvm_kernels::movement;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::ScalarType;

use crate::error::VmError;

/// One input buffer: owned, or a borrowed window `[start, start + len)` of
/// an array someone else owns (a morsel's rows of a shared table column).
#[derive(Debug, Clone)]
enum Input<'a> {
    Owned(Array),
    Window(Window<'a>),
}

/// Named data buffers: read-only inputs and growable output sinks.
///
/// `read i buf` reads inputs first, falling back to outputs (programs may
/// read back what they wrote); `write buf i v` always targets an output,
/// creating it on first write.
///
/// An input is either owned ([`Buffers::with_input`]) or a borrowed window
/// of a longer array ([`Buffers::with_window`]). A program sees a window
/// as a buffer of its own: positions are window-relative and reads clamp at
/// the window's end, so a morsel never reads another morsel's rows.
#[derive(Debug, Clone, Default)]
pub struct Buffers<'a> {
    inputs: HashMap<String, Input<'a>>,
    outputs: HashMap<String, Array>,
}

impl<'a> Buffers<'a> {
    /// Empty buffer set.
    pub fn new() -> Buffers<'a> {
        Buffers::default()
    }

    /// Add (replace) an input buffer.
    pub fn with_input(mut self, name: &str, data: Array) -> Buffers<'a> {
        self.insert_input(name, data);
        self
    }

    /// Add an input buffer in place.
    pub fn insert_input(&mut self, name: &str, data: Array) {
        self.inputs.insert(name.to_string(), Input::Owned(data));
    }

    /// Add (replace) an input that borrows `array[start..start + len]`
    /// (clamped to the array) instead of copying it.
    pub fn with_window(mut self, name: &str, array: &'a Array, start: usize, len: usize) -> Self {
        self.insert_window(name, array, start, len);
        self
    }

    /// Add a borrowed window input in place; see [`Buffers::with_window`].
    pub fn insert_window(&mut self, name: &str, array: &'a Array, start: usize, len: usize) {
        let start = start.min(array.len());
        let len = len.min(array.len() - start);
        self.inputs.insert(
            name.to_string(),
            Input::Window(Window { array, start, len }),
        );
    }

    /// The rows of buffer `name` the program sees: an input (owned or
    /// windowed) first, else a previously written output.
    fn view(&self, name: &str) -> Result<Window<'_>, VmError> {
        match self.inputs.get(name) {
            Some(Input::Owned(a)) => Ok(Window::whole(a)),
            Some(Input::Window(w)) => Ok(*w),
            None => self
                .outputs
                .get(name)
                .map(Window::whole)
                .ok_or_else(|| VmError::UnknownBuffer(name.to_string())),
        }
    }

    /// Read up to `len` elements starting at `pos`; short (or empty) reads
    /// at the tail are normal (Fig. 2's loop exit depends on them).
    pub fn read(&self, name: &str, pos: usize, len: usize) -> Result<Array, VmError> {
        let w = self.window(name, pos, len)?;
        Ok(w.array.slice(w.start, w.len))
    }

    /// The rows [`Buffers::read`] would return, clamped the same way, as a
    /// window of the array they live in: nothing is copied.
    pub fn window(&self, name: &str, pos: usize, len: usize) -> Result<Window<'_>, VmError> {
        let visible = self.view(name)?;
        let pos = pos.min(visible.len);
        Ok(Window {
            array: visible.array,
            start: visible.start + pos,
            len: len.min(visible.len - pos),
        })
    }

    /// `gather`: `buffer[indices[i]]` for each lane, indexed relative to
    /// the buffer as the program sees it (a window's first row is 0).
    pub fn gather(&self, name: &str, indices: &Array) -> Result<Array, VmError> {
        let Window { array, start, len } = self.view(name)?;
        let data = if start == 0 && len == array.len() {
            Cow::Borrowed(array)
        } else {
            Cow::Owned(array.slice(start, len))
        };
        Ok(movement::gather(&data, indices)?)
    }

    /// Write `values` into output `name` at `pos`, growing as needed.
    pub fn write(&mut self, name: &str, pos: usize, values: &Array) -> Result<(), VmError> {
        let out = self
            .outputs
            .entry(name.to_string())
            .or_insert_with(|| Array::empty(values.scalar_type()));
        out.write_at(pos, values)?;
        Ok(())
    }

    /// Mutable access to an output buffer (scatter targets), creating it
    /// with the given type when absent.
    pub fn output_mut(&mut self, name: &str, ty: ScalarType) -> &mut Array {
        self.outputs
            .entry(name.to_string())
            .or_insert_with(|| Array::empty(ty))
    }

    /// An output buffer by name, when present.
    pub fn output(&self, name: &str) -> Option<&Array> {
        self.outputs.get(name)
    }

    /// Iterate over input buffer names and types.
    pub fn input_types(&self) -> impl Iterator<Item = (&str, ScalarType)> {
        self.inputs.iter().map(|(n, input)| {
            let array = match input {
                Input::Owned(a) => a,
                Input::Window(w) => w.array,
            };
            (n.as_str(), array.scalar_type())
        })
    }

    /// Drop the input buffers, keeping the outputs: a finished run's
    /// inputs are dead weight to whoever only merges its results, and the
    /// outputs no longer borrow anything.
    pub fn without_inputs(self) -> Buffers<'static> {
        Buffers {
            inputs: HashMap::new(),
            outputs: self.outputs,
        }
    }

    /// Consume into the output map.
    pub fn into_outputs(self) -> HashMap<String, Array> {
        self.outputs
    }
}

/// The variable environment of one program run.
///
/// The engine executes normalized loop bodies against a *flat* per-run
/// environment: normalized programs use unique binding names (`_t…`), so
/// lexical scoping collapses to name lookup.
#[derive(Debug, Default)]
pub struct Env<'a> {
    vars: HashMap<String, Value>,
    /// The buffers the program reads/writes.
    pub buffers: Buffers<'a>,
}

impl<'a> Env<'a> {
    /// Fresh environment over the given buffers.
    pub fn new(buffers: Buffers<'a>) -> Env<'a> {
        Env {
            vars: HashMap::new(),
            buffers,
        }
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Result<&Value, VmError> {
        self.vars
            .get(name)
            .ok_or_else(|| VmError::Unbound(name.to_string()))
    }

    /// Bind (or rebind) a variable.
    pub fn set(&mut self, name: &str, value: Value) {
        // Loop bodies rebind the same names every chunk: reuse the key.
        match self.vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.vars.insert(name.to_string(), value);
            }
        }
    }

    /// True when `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_storage::scalar::Scalar;

    #[test]
    fn buffer_reads_clamp() {
        let b = Buffers::new().with_input("xs", Array::from(vec![1i64, 2, 3]));
        assert_eq!(b.read("xs", 2, 10).unwrap(), Array::from(vec![3i64]));
        assert_eq!(b.read("xs", 5, 10).unwrap().len(), 0);
        assert!(b.read("nope", 0, 1).is_err());
    }

    #[test]
    fn writes_create_and_grow() {
        let mut b = Buffers::new();
        b.write("out", 0, &Array::from(vec![1i64, 2])).unwrap();
        b.write("out", 2, &Array::from(vec![3i64])).unwrap();
        assert_eq!(b.output("out").unwrap(), &Array::from(vec![1i64, 2, 3]));
        // Written outputs are readable.
        assert_eq!(b.read("out", 1, 2).unwrap(), Array::from(vec![2i64, 3]));
    }

    /// `[10, 11, …, 19]`, windowed to rows 3..7 (values 13..16).
    fn window_of(column: &Array) -> Buffers<'_> {
        Buffers::new().with_window("xs", column, 3, 4)
    }

    fn column() -> Array {
        Array::from((10i64..20).collect::<Vec<_>>())
    }

    #[test]
    fn a_read_across_the_windows_end_returns_the_short_tail() {
        let column = column();
        let b = window_of(&column);
        assert_eq!(b.read("xs", 0, 2).unwrap(), Array::from(vec![13i64, 14]));
        // Rows 17.. belong to the next morsel: never returned.
        assert_eq!(b.read("xs", 2, 10).unwrap(), Array::from(vec![15i64, 16]));
    }

    #[test]
    fn a_read_at_or_past_the_windows_end_is_empty() {
        let column = column();
        let b = window_of(&column);
        assert!(b.read("xs", 4, 10).unwrap().is_empty());
        assert!(b.read("xs", 9, 10).unwrap().is_empty());
        assert!(b.read("xs", usize::MAX, usize::MAX).unwrap().is_empty());
        // A window that starts or ends past the array is clamped to it.
        let past = Buffers::new().with_window("xs", &column, 8, 100);
        assert_eq!(
            past.read("xs", 0, 10).unwrap(),
            Array::from(vec![18i64, 19])
        );
        let outside = Buffers::new().with_window("xs", &column, 50, 5);
        assert!(outside.read("xs", 0, 10).unwrap().is_empty());
    }

    #[test]
    fn gather_over_a_window_indexes_window_relative() {
        let column = column();
        let b = window_of(&column);
        let idx = Array::from(vec![3i64, 0, 2]);
        assert_eq!(
            b.gather("xs", &idx).unwrap(),
            Array::from(vec![16i64, 13, 15])
        );
        // Index 4 is the next morsel's first row: out of this window.
        assert!(b.gather("xs", &Array::from(vec![4i64])).is_err());
        // An owned buffer gathers over the whole array.
        let owned = Buffers::new().with_input("xs", column.clone());
        assert_eq!(
            owned.gather("xs", &Array::from(vec![9i64])).unwrap(),
            Array::from(vec![19i64])
        );
    }

    #[test]
    fn windowed_buffers_read_back_written_outputs_unchanged() {
        let column = column();
        let mut b = window_of(&column);
        b.write("out", 0, &Array::from(vec![1i64, 2])).unwrap();
        assert_eq!(b.read("out", 0, 10).unwrap(), Array::from(vec![1i64, 2]));
        assert_eq!(
            b.input_types().collect::<Vec<_>>(),
            vec![("xs", ScalarType::I64)]
        );
        let done = b.without_inputs();
        assert_eq!(done.input_types().count(), 0);
        assert_eq!(done.output("out").unwrap(), &Array::from(vec![1i64, 2]));
    }

    #[test]
    fn env_bindings() {
        let mut env = Env::new(Buffers::new());
        assert!(env.get("x").is_err());
        env.set("x", Value::Scalar(Scalar::I64(5)));
        assert_eq!(env.get("x").unwrap().as_i64(), Some(5));
        assert!(env.contains("x"));
    }
}
