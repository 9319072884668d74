//! Buffers and the runtime variable environment.

use std::collections::HashMap;

use adaptvm_dsl::value::Value;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::ScalarType;

use crate::error::VmError;

/// Named data buffers: read-only inputs and growable output sinks.
///
/// `read i buf` reads inputs first, falling back to outputs (programs may
/// read back what they wrote); `write buf i v` always targets an output,
/// creating it on first write.
#[derive(Debug, Clone, Default)]
pub struct Buffers {
    inputs: HashMap<String, Array>,
    outputs: HashMap<String, Array>,
}

impl Buffers {
    /// Empty buffer set.
    pub fn new() -> Buffers {
        Buffers::default()
    }

    /// Add (replace) an input buffer.
    pub fn with_input(mut self, name: &str, data: Array) -> Buffers {
        self.inputs.insert(name.to_string(), data);
        self
    }

    /// Add an input buffer in place.
    pub fn insert_input(&mut self, name: &str, data: Array) {
        self.inputs.insert(name.to_string(), data);
    }

    /// Look up an input (or previously written output) buffer.
    pub fn buffer(&self, name: &str) -> Result<&Array, VmError> {
        self.inputs
            .get(name)
            .or_else(|| self.outputs.get(name))
            .ok_or_else(|| VmError::UnknownBuffer(name.to_string()))
    }

    /// Read up to `len` elements starting at `pos`; short (or empty) reads
    /// at the tail are normal (Fig. 2's loop exit depends on them).
    pub fn read(&self, name: &str, pos: usize, len: usize) -> Result<Array, VmError> {
        Ok(self.buffer(name)?.slice(pos, len))
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
        self.inputs
            .iter()
            .map(|(n, a)| (n.as_str(), a.scalar_type()))
    }

    /// Drop the input buffers, keeping the outputs: a finished run's
    /// inputs are dead weight to whoever only merges its results.
    pub fn without_inputs(mut self) -> Buffers {
        self.inputs = HashMap::new();
        self
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
pub struct Env {
    vars: HashMap<String, Value>,
    /// The buffers the program reads/writes.
    pub buffers: Buffers,
}

impl Env {
    /// Fresh environment over the given buffers.
    pub fn new(buffers: Buffers) -> Env {
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

    #[test]
    fn env_bindings() {
        let mut env = Env::new(Buffers::new());
        assert!(env.get("x").is_err());
        env.set("x", Value::Scalar(Scalar::I64(5)));
        assert_eq!(env.get("x").unwrap().as_i64(), Some(5));
        assert!(env.contains("x"));
    }
}
