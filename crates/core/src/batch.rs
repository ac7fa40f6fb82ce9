//! Batching small key-value pairs into segment-sized writes
//! (paper §4.1.4: "batching can be applied so that small writes are
//! grouped together to form larger writes to memory segments ...
//! E2-NVM needs to map the free memory locations based on the batch
//! size rather than the key-value pair size").

use bytes::{BufMut, Bytes, BytesMut};

/// A filled batch ready to be written as one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Concatenated payload (≤ the configured batch size).
    pub data: Bytes,
    /// Per-item `(key, offset, len)` locations inside `data`.
    pub items: Vec<(u64, usize, usize)>,
}

impl Batch {
    /// Extract one item's bytes.
    pub fn item(&self, idx: usize) -> &[u8] {
        let (_, off, len) = self.items[idx];
        &self.data[off..off + len]
    }
}

/// Accumulates small values until a segment-sized batch is full.
#[derive(Debug)]
pub struct BatchAccumulator {
    capacity: usize,
    buf: BytesMut,
    items: Vec<(u64, usize, usize)>,
}

impl BatchAccumulator {
    /// A new accumulator for batches of `capacity` bytes (the segment
    /// size).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BatchAccumulator: zero capacity");
        Self {
            capacity,
            buf: BytesMut::with_capacity(capacity),
            items: Vec::new(),
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Push one key/value. Returns a completed [`Batch`] when the value
    /// does not fit in the remaining space (the full buffer is emitted
    /// and the value starts the next batch).
    ///
    /// # Panics
    /// Panics if a single value exceeds the batch capacity.
    pub fn push(&mut self, key: u64, value: &[u8]) -> Option<Batch> {
        assert!(
            value.len() <= self.capacity,
            "value of {} bytes exceeds batch capacity {}",
            value.len(),
            self.capacity
        );
        let emitted = if self.buf.len() + value.len() > self.capacity {
            Some(self.flush().expect("buffer nonempty"))
        } else {
            None
        };
        self.items.push((key, self.buf.len(), value.len()));
        self.buf.put_slice(value);
        emitted
    }

    /// Emit whatever is buffered, if anything.
    pub fn flush(&mut self) -> Option<Batch> {
        if self.buf.is_empty() {
            return None;
        }
        let data = self.buf.split().freeze();
        let items = std::mem::take(&mut self.items);
        Some(Batch { data, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_until_full() {
        let mut acc = BatchAccumulator::new(10);
        assert!(acc.push(1, b"abc").is_none());
        assert!(acc.push(2, b"defg").is_none());
        // 3 + 4 + 4 > 10 -> emits the first batch.
        let batch = acc.push(3, b"hijk").expect("batch emitted");
        assert_eq!(batch.data.as_ref(), b"abcdefg");
        assert_eq!(batch.items, vec![(1, 0, 3), (2, 3, 4)]);
        assert_eq!(batch.item(1), b"defg");
        // Third value started the next batch.
        let rest = acc.flush().unwrap();
        assert_eq!(rest.data.as_ref(), b"hijk");
        assert_eq!(rest.items, vec![(3, 0, 4)]);
    }

    #[test]
    fn flush_empty_returns_none() {
        let mut acc = BatchAccumulator::new(8);
        assert!(acc.flush().is_none());
        acc.push(1, b"x");
        assert!(acc.flush().is_some());
        assert!(acc.flush().is_none());
        assert!(acc.is_empty());
    }

    #[test]
    fn exact_fit_does_not_emit_early() {
        let mut acc = BatchAccumulator::new(6);
        assert!(acc.push(1, b"abc").is_none());
        assert!(acc.push(2, b"def").is_none());
        assert_eq!(acc.len(), 6);
        let b = acc.flush().unwrap();
        assert_eq!(b.items.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds batch capacity")]
    fn oversized_value_panics() {
        let mut acc = BatchAccumulator::new(4);
        acc.push(1, b"too long");
    }
}
