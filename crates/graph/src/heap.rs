//! Heap accounting for pooled, grow-only buffers.
//!
//! A pooled scratch keeps every allocation it has grown, so what it holds
//! is its buffers' capacity, not their length. The `heap_bytes` methods of
//! the pooled types ([`DynBuffers`](crate::DynBuffers),
//! [`DistanceField`](crate::DistanceField), ...) sum these two functions
//! over their fields; a counting-allocator test in `ctc-core` checks that
//! the sum is exactly what dropping a warm peel scratch frees.

/// Bytes on the heap behind `v`: capacity × element size.
pub fn vec_heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// [`vec_heap_bytes`] of a vector of vectors, the inner vectors included.
pub fn nested_heap_bytes<T>(v: &Vec<Vec<T>>) -> usize {
    vec_heap_bytes(v) + v.iter().map(vec_heap_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_capacity_not_length() {
        let mut v: Vec<u32> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec_heap_bytes(&v), 40);
        let nested = vec![Vec::<u64>::with_capacity(3), Vec::new()];
        assert_eq!(
            nested_heap_bytes(&nested),
            2 * std::mem::size_of::<Vec<u64>>() + 24
        );
        assert_eq!(vec_heap_bytes(&Vec::<u8>::new()), 0);
    }
}
